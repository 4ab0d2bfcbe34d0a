/**
 * @file
 * Per-pass scratch table from expression nodes to values.
 *
 * A DAG walk (an evaluation, a canonicalization) memoizes one value
 * per node it reaches.  This table is an open-addressing hash on the
 * node's address whose slots are stamped with the pass's generation,
 * so starting a pass is one increment instead of a clear, and whose
 * size follows the number of nodes one pass reaches, not the number
 * of nodes the context holds (corpus formulas share contexts of
 * millions of nodes).  Reused across passes on one thread, it stops
 * allocating once it has grown to the largest pass.
 */

#ifndef SCAMV_EXPR_NODE_TABLE_HH
#define SCAMV_EXPR_NODE_TABLE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "expr/expr.hh"

namespace scamv::expr {

template <class V>
class NodeTable
{
  public:
    /** Start a new pass: forget every stored value. */
    void
    begin()
    {
        ++gen;
        used = 0;
    }

    /** @return the stored value of `e`, or nullptr. */
    V *
    find(Expr e)
    {
        if (slots.empty())
            return nullptr;
        for (std::size_t i = home(e);; i = (i + 1) & mask()) {
            Slot &s = slots[i];
            if (s.gen != gen)
                return nullptr;
            if (s.node == e)
                return &s.value;
        }
    }

    /**
     * Store the value of `e` (not yet stored in this pass).  @return
     * the stored copy, valid until the next insert.
     */
    V &
    insert(Expr e, const V &v)
    {
        if (2 * (used + 1) > slots.size())
            grow();
        ++used;
        return place(e, v);
    }

  private:
    struct Slot {
        Expr node = nullptr;
        std::uint64_t gen = 0; ///< live iff equal to NodeTable::gen
        V value{};
    };

    std::size_t mask() const { return slots.size() - 1; }

    std::size_t
    home(Expr e) const
    {
        const auto p = reinterpret_cast<std::uintptr_t>(e);
        return static_cast<std::size_t>(
                   (static_cast<std::uint64_t>(p) >> 4) *
                   0x9e3779b97f4a7c15ULL >> 32) &
               mask();
    }

    V &
    place(Expr e, const V &v)
    {
        std::size_t i = home(e);
        while (slots[i].gen == gen)
            i = (i + 1) & mask();
        slots[i] = {e, gen, v};
        return slots[i].value;
    }

    /** Double the table (at least 64 slots), keeping live values. */
    void
    grow()
    {
        std::vector<Slot> old(std::max<std::size_t>(64, 2 * slots.size()));
        old.swap(slots);
        for (const Slot &s : old)
            if (s.gen == gen)
                place(s.node, s.value);
    }

    std::vector<Slot> slots; ///< power-of-two size, at most half live
    std::uint64_t gen = 1;   ///< slots start at 0: never live
    std::size_t used = 0;
};

} // namespace scamv::expr

#endif // SCAMV_EXPR_NODE_TABLE_HH
