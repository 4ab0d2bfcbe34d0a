#include "expr/eval.hh"

#include "expr/node_table.hh"
#include "support/logging.hh"

namespace scamv::expr {

namespace {

/** Memo of one evaluation: node -> value (bools are 0/1). */
using Memo = NodeTable<std::uint64_t>;

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
      case Kind::BvVar:
        v = a.bv(e);
        break;
      case Kind::BoolVar:
        v = a.boolean(e) ? 1 : 0;
        break;
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
    const ConcreteMemory *words = a.mem(m);
    return words ? words->load(addr) : 0;
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
