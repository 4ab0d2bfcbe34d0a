#include "expr/eval.hh"

#include <algorithm>
#include <vector>

#include "support/logging.hh"

namespace scamv::expr {

namespace {

/**
 * Memo of one evaluation: node -> value, reused by every evaluation
 * on its thread.  An open-addressing table whose slots are stamped
 * with the evaluation's generation, so starting an evaluation is one
 * increment instead of a clear, and whose size follows the number of
 * nodes one evaluation reaches, not the number of nodes its context
 * holds (corpus formulas share contexts of millions of nodes).
 */
class Memo
{
  public:
    /** Start a new evaluation: forget every stored value. */
    void
    begin()
    {
        ++gen;
        used = 0;
    }

    /** @return the stored value of `e`, or nullptr. */
    const std::uint64_t *
    find(Expr e) const
    {
        if (slots.empty())
            return nullptr;
        for (std::size_t i = home(e);; i = (i + 1) & mask()) {
            const Slot &s = slots[i];
            if (s.gen != gen)
                return nullptr;
            if (s.node == e)
                return &s.value;
        }
    }

    /** Store the value of `e` (not yet stored in this evaluation). */
    void
    insert(Expr e, std::uint64_t v)
    {
        if (2 * (used + 1) > slots.size())
            grow();
        place(e, v);
        ++used;
    }

  private:
    struct Slot {
        Expr node = nullptr;
        std::uint64_t gen = 0; ///< live iff equal to Memo::gen
        std::uint64_t value = 0;
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

    void
    place(Expr e, std::uint64_t v)
    {
        std::size_t i = home(e);
        while (slots[i].gen == gen)
            i = (i + 1) & mask();
        slots[i] = {e, gen, v};
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

/**
 * Evaluate a memory-sorted expression to a (base memory, overlay)
 * view, then read.  Store chains are short in practice, so we resolve
 * reads by walking the chain with concretized addresses.
 */
std::uint64_t evalRead(Expr mem, std::uint64_t addr, const Assignment &a,
                       Memo &memo);

std::uint64_t
evalRec(Expr e, const Assignment &a, Memo &memo)
{
    if (const std::uint64_t *hit = memo.find(e))
        return *hit;

    auto kid = [&](int i) { return evalRec(e->kids[i], a, memo); };
    std::uint64_t v = 0;
    switch (e->kind) {
      case Kind::BvConst:
      case Kind::BoolConst:
        v = e->value;
        break;
      case Kind::BvVar: {
        auto it = a.bvVars.find(e->name);
        v = it == a.bvVars.end() ? 0 : it->second;
        break;
      }
      case Kind::BoolVar: {
        auto it = a.boolVars.find(e->name);
        v = (it != a.boolVars.end() && it->second) ? 1 : 0;
        break;
      }
      case Kind::MemVar:
        SCAMV_PANIC("cannot evaluate a memory-sorted term to a word");
      case Kind::Add: v = kid(0) + kid(1); break;
      case Kind::Sub: v = kid(0) - kid(1); break;
      case Kind::Mul: v = kid(0) * kid(1); break;
      case Kind::BvAnd: v = kid(0) & kid(1); break;
      case Kind::BvOr: v = kid(0) | kid(1); break;
      case Kind::BvXor: v = kid(0) ^ kid(1); break;
      case Kind::BvNot: v = ~kid(0); break;
      case Kind::Neg: v = ~kid(0) + 1; break;
      case Kind::Shl: v = kid(0) << (kid(1) & 63); break;
      case Kind::Lshr: v = kid(0) >> (kid(1) & 63); break;
      case Kind::Ashr:
        v = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(kid(0)) >> (kid(1) & 63));
        break;
      case Kind::Ite: v = kid(0) ? kid(1) : kid(2); break;
      case Kind::Read:
        v = evalRead(e->kids[0], kid(1), a, memo);
        break;
      case Kind::Store:
        SCAMV_PANIC("cannot evaluate a memory-sorted term to a word");
      case Kind::Eq: {
        if (e->kids[0]->sort == Sort::Mem)
            SCAMV_PANIC("memory equality is not evaluable");
        v = kid(0) == kid(1);
        break;
      }
      case Kind::Ult: v = kid(0) < kid(1); break;
      case Kind::Ule: v = kid(0) <= kid(1); break;
      case Kind::Slt:
        v = static_cast<std::int64_t>(kid(0)) <
            static_cast<std::int64_t>(kid(1));
        break;
      case Kind::Sle:
        v = static_cast<std::int64_t>(kid(0)) <=
            static_cast<std::int64_t>(kid(1));
        break;
      case Kind::And: v = kid(0) && kid(1); break;
      case Kind::Or: v = kid(0) || kid(1); break;
      case Kind::Not: v = !kid(0); break;
      case Kind::Implies: v = !kid(0) || kid(1); break;
    }
    memo.insert(e, v);
    return v;
}

std::uint64_t
evalRead(Expr mem, std::uint64_t addr, const Assignment &a, Memo &memo)
{
    Expr m = mem;
    while (m->kind == Kind::Store) {
        const std::uint64_t waddr = evalRec(m->kids[1], a, memo);
        if (waddr == addr)
            return evalRec(m->kids[2], a, memo);
        m = m->kids[0];
    }
    SCAMV_ASSERT(m->kind == Kind::MemVar, "memory chain must end in var");
    auto it = a.mems.find(m->name);
    if (it == a.mems.end())
        return 0;
    return it->second.load(addr);
}

/** The calling thread's memo, restarted for one evaluation. */
Memo &
freshMemo()
{
    thread_local Memo memo;
    memo.begin();
    return memo;
}

} // namespace

std::uint64_t
evalBv(Expr e, const Assignment &a)
{
    return evalRec(e, a, freshMemo());
}

bool
evalBool(Expr e, const Assignment &a)
{
    SCAMV_ASSERT(e->sort == Sort::Bool, "evalBool on non-bool");
    return evalRec(e, a, freshMemo()) != 0;
}

} // namespace scamv::expr
