/**
 * @file
 * Concrete evaluation of expression DAGs under a variable assignment.
 *
 * Used by the randomized repair sampler, by model checking (verifying
 * that an extracted SMT model really satisfies the relation) and by
 * tests that cross-check symbolic execution against the concrete
 * hardware-level machine.
 */

#ifndef SCAMV_EXPR_EVAL_HH
#define SCAMV_EXPR_EVAL_HH

#include <cstdint>
#include <string>
#include <unordered_map>

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
 * Concrete valuation of variables: bitvector and boolean variables by
 * name, memory variables by name to a ConcreteMemory.
 */
struct Assignment {
    std::unordered_map<std::string, std::uint64_t> bvVars;
    std::unordered_map<std::string, bool> boolVars;
    std::unordered_map<std::string, ConcreteMemory> mems;

    /** @return value of a named bv var (0 if unset). */
    std::uint64_t
    bv(const std::string &name) const
    {
        auto it = bvVars.find(name);
        return it == bvVars.end() ? 0 : it->second;
    }
};

/** Result of evaluating a node: a 64-bit word (bools are 0/1). */
std::uint64_t evalBv(Expr e, const Assignment &a);

/** Evaluate a boolean-sorted expression. */
bool evalBool(Expr e, const Assignment &a);

} // namespace scamv::expr

#endif // SCAMV_EXPR_EVAL_HH
