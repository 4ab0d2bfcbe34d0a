/**
 * @file
 * Concrete evaluation of expression DAGs under a variable assignment.
 *
 * Used by the randomized repair sampler, by model checking (verifying
 * that an extracted SMT model really satisfies the relation) and by
 * tests that cross-check symbolic execution against the concrete
 * hardware-level machine.
 *
 * An Assignment is keyed by variable node: each sort's values sit in a
 * vector at the nodes' dense slots (Node::slot), so a variable lookup
 * in the evaluator, the solver's model extraction or the pipeline's
 * model edits is an index, not a string hash.  Variable names appear
 * only where a model is written out (the qcache checkpoint, the db
 * CSV, debug dumps).  ConcreteMemory keeps its unordered_map: the
 * pipeline's symmetrization walks a memory's words in the map's
 * iteration order while drawing from its rng, so another container
 * would change which models a campaign produces.
 */

#ifndef SCAMV_EXPR_EVAL_HH
#define SCAMV_EXPR_EVAL_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "expr/expr.hh"

namespace scamv::expr {

/** Sparse concrete memory: address -> 64-bit word, default-filled. */
class ConcreteMemory
{
  public:
    /** Word returned for addresses never written. */
    std::uint64_t defaultValue = 0;

    /** @return word stored at addr (defaultValue if untouched). */
    std::uint64_t
    load(std::uint64_t addr) const
    {
        auto it = words.find(addr);
        return it == words.end() ? defaultValue : it->second;
    }

    /** Store a word at addr. */
    void storeWord(std::uint64_t addr, std::uint64_t val)
    {
        words[addr] = val;
    }

    /** @return true iff addr has an explicit entry. */
    bool contains(std::uint64_t addr) const { return words.count(addr); }

    /** Drop addr's explicit entry, if any. */
    void erase(std::uint64_t addr) { words.erase(addr); }

    /** Underlying sparse map.  Its iteration order depends on the
     *  map's insert and rehash history, so output must not follow it:
     *  harness::inputFromAssignment() sorts the words by address. */
    const std::unordered_map<std::uint64_t, std::uint64_t> &
    entries() const
    {
        return words;
    }

    void clear() { words.clear(); }

  private:
    std::unordered_map<std::uint64_t, std::uint64_t> words;
};

/**
 * Values of one sort's variables, indexed by a dense index (a Node
 * slot in an Assignment, a canonical index in a qcache model), each
 * with a presence flag.  The vector grows to the highest index that
 * is set, never to the number of variables a context holds: corpus
 * contexts hold thousands of Ackermann variables no model mentions.
 */
template <class T>
class SlotValues
{
  public:
    /** @return the value at `i`, or nullptr when it is not set. */
    const T *
    find(std::uint32_t i) const
    {
        return i < cells.size() && cells[i].present ? &cells[i].value
                                                    : nullptr;
    }

    bool has(std::uint32_t i) const { return find(i) != nullptr; }

    /** @return the value at `i`, set (to T{}) if it was not. */
    T &
    operator[](std::uint32_t i)
    {
        if (i >= cells.size())
            cells.resize(static_cast<std::size_t>(i) + 1);
        cells[i].present = true;
        return cells[i].value;
    }

    /** Unset `i` (its value is dropped). */
    void
    erase(std::uint32_t i)
    {
        if (i < cells.size())
            cells[i] = Cell{};
    }

    void clear() { cells.clear(); }

    /** @return one more than the highest index ever set. */
    std::uint32_t
    extent() const
    {
        return static_cast<std::uint32_t>(cells.size());
    }

    /** @return true iff no index is set. */
    bool
    empty() const
    {
        for (const Cell &c : cells)
            if (c.present)
                return false;
        return true;
    }

    /** Call f(index, value) for every set index, in index order. */
    template <class F>
    void
    forEach(F &&f) const
    {
        for (std::uint32_t i = 0; i < extent(); ++i)
            if (cells[i].present)
                f(i, cells[i].value);
    }

  private:
    struct Cell {
        T value{};
        bool present = false;
    };
    std::vector<Cell> cells;
};

/**
 * Concrete valuation of variables, keyed by the variable node: each
 * sort's values sit at the nodes' slots (Node::slot), so a lookup is
 * an index, and names appear only where a model is written out.  An
 * Assignment is only meaningful with the ExprContext whose nodes
 * filled it.
 */
struct Assignment {
    SlotValues<std::uint64_t> bvVars;
    SlotValues<bool> boolVars;
    SlotValues<ConcreteMemory> mems;

    /** @return value of a bv variable (0 if unset). */
    std::uint64_t
    bv(Expr v) const
    {
        const std::uint64_t *x = bvVars.find(v->slot);
        return x ? *x : 0;
    }

    /** @return value of a bool variable (false if unset). */
    bool
    boolean(Expr v) const
    {
        const bool *x = boolVars.find(v->slot);
        return x && *x;
    }

    /** @return a memory variable's words, or nullptr if unset. */
    const ConcreteMemory *
    mem(Expr v) const
    {
        return mems.find(v->slot);
    }

    void setBv(Expr v, std::uint64_t x) { bvVars[v->slot] = x; }
    void setBool(Expr v, bool x) { boolVars[v->slot] = x; }

    /** @return a memory variable's words, set (empty) if unset. */
    ConcreteMemory &memOf(Expr v) { return mems[v->slot]; }
};

/** Result of evaluating a node: a 64-bit word (bools are 0/1). */
std::uint64_t evalBv(Expr e, const Assignment &a);

/** Evaluate a boolean-sorted expression. */
bool evalBool(Expr e, const Assignment &a);

} // namespace scamv::expr

#endif // SCAMV_EXPR_EVAL_HH
