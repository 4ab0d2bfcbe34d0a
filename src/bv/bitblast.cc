#include "bv/bitblast.hh"

#include "support/logging.hh"

namespace scamv::bv {

using expr::Expr;
using expr::Kind;
using sat::Lit;
using sat::mkLit;

BitBlaster::BitBlaster(sat::Solver &solver) : sat(solver)
{
    trueLit = mkLit(sat.newVar());
    sat.addUnit(trueLit);
}

Lit
BitBlaster::freshLit()
{
    return mkLit(sat.newVar());
}

Lit
BitBlaster::gateAnd(Lit a, Lit b)
{
    if (a == litConst(false) || b == litConst(false))
        return litConst(false);
    if (a == litConst(true))
        return b;
    if (b == litConst(true))
        return a;
    if (a == b)
        return a;
    if (a == ~b)
        return litConst(false);
    Lit c = freshLit();
    sat.addTernary(~a, ~b, c);
    sat.addBinary(a, ~c);
    sat.addBinary(b, ~c);
    return c;
}

Lit
BitBlaster::gateOr(Lit a, Lit b)
{
    return ~gateAnd(~a, ~b);
}

Lit
BitBlaster::gateXor(Lit a, Lit b)
{
    if (a == litConst(false))
        return b;
    if (b == litConst(false))
        return a;
    if (a == litConst(true))
        return ~b;
    if (b == litConst(true))
        return ~a;
    if (a == b)
        return litConst(false);
    if (a == ~b)
        return litConst(true);
    Lit c = freshLit();
    sat.addTernary(~a, ~b, ~c);
    sat.addTernary(a, b, ~c);
    sat.addTernary(~a, b, c);
    sat.addTernary(a, ~b, c);
    return c;
}

Lit
BitBlaster::gateMux(Lit s, Lit t, Lit f)
{
    if (s == litConst(true))
        return t;
    if (s == litConst(false))
        return f;
    if (t == f)
        return t;
    Lit c = freshLit();
    sat.addTernary(~s, ~t, c);
    sat.addTernary(~s, t, ~c);
    sat.addTernary(s, ~f, c);
    sat.addTernary(s, f, ~c);
    return c;
}

Lit
BitBlaster::gateMaj(Lit a, Lit b, Lit c)
{
    if (a == b)
        return a;
    if (a == c)
        return a;
    if (b == c)
        return b;
    if (a == litConst(false))
        return gateAnd(b, c);
    if (a == litConst(true))
        return gateOr(b, c);
    if (b == litConst(false))
        return gateAnd(a, c);
    if (b == litConst(true))
        return gateOr(a, c);
    if (c == litConst(false))
        return gateAnd(a, b);
    if (c == litConst(true))
        return gateOr(a, b);
    Lit m = freshLit();
    sat.addTernary(~a, ~b, m);
    sat.addTernary(~a, ~c, m);
    sat.addTernary(~b, ~c, m);
    sat.addTernary(a, b, ~m);
    sat.addTernary(a, c, ~m);
    sat.addTernary(b, c, ~m);
    return m;
}

Lit
BitBlaster::andReduce(const std::vector<Lit> &ls)
{
    Lit acc = litConst(true);
    for (Lit l : ls)
        acc = gateAnd(acc, l);
    return acc;
}

Lit
BitBlaster::orReduce(const std::vector<Lit> &ls)
{
    Lit acc = litConst(false);
    for (Lit l : ls)
        acc = gateOr(acc, l);
    return acc;
}

BitBlaster::Bits
BitBlaster::adder(const Bits &a, const Bits &b, Lit cin, Lit *carry_out)
{
    Bits sum(kWidth);
    Lit carry = cin;
    for (int i = 0; i < kWidth; ++i) {
        Lit axb = gateXor(a[i], b[i]);
        sum[i] = gateXor(axb, carry);
        carry = gateMaj(a[i], b[i], carry);
    }
    if (carry_out)
        *carry_out = carry;
    return sum;
}

BitBlaster::Bits
BitBlaster::negate(const Bits &a)
{
    Bits na(kWidth);
    for (int i = 0; i < kWidth; ++i)
        na[i] = ~a[i];
    Bits zero(kWidth, litConst(false));
    return adder(na, zero, litConst(true));
}

BitBlaster::Bits
BitBlaster::shifter(const Bits &a, const Bits &amount, bool left,
                    bool arithmetic)
{
    // Barrel shifter over the low 6 amount bits (mod-64 semantics).
    Bits cur = a;
    for (int stage = 0; stage < 6; ++stage) {
        const int k = 1 << stage;
        const Lit sel = amount[stage];
        Bits next(kWidth);
        for (int i = 0; i < kWidth; ++i) {
            Lit shifted;
            if (left) {
                shifted = i >= k ? cur[i - k] : litConst(false);
            } else if (arithmetic) {
                shifted = i + k < kWidth ? cur[i + k] : cur[kWidth - 1];
            } else {
                shifted = i + k < kWidth ? cur[i + k] : litConst(false);
            }
            next[i] = gateMux(sel, shifted, cur[i]);
        }
        cur = std::move(next);
    }
    return cur;
}

Lit
BitBlaster::ultLit(const Bits &a, const Bits &b)
{
    // a < b  iff  no carry out of a + ~b + 1.
    Bits nb(kWidth);
    for (int i = 0; i < kWidth; ++i)
        nb[i] = ~b[i];
    Lit carry = litConst(true);
    for (int i = 0; i < kWidth; ++i)
        carry = gateMaj(a[i], nb[i], carry);
    return ~carry;
}

Lit
BitBlaster::sltLit(const Bits &a, const Bits &b)
{
    // Signs differ: a < b iff a negative.  Same sign: unsigned compare.
    const Lit sa = a[kWidth - 1];
    const Lit sb = b[kWidth - 1];
    const Lit diff = gateXor(sa, sb);
    return gateMux(diff, sa, ultLit(a, b));
}

Lit
BitBlaster::eqLit(const Bits &a, const Bits &b)
{
    std::vector<Lit> eqs(kWidth);
    for (int i = 0; i < kWidth; ++i)
        eqs[i] = ~gateXor(a[i], b[i]);
    return andReduce(eqs);
}

// Operand order.  The variables of a term are numbered in the order
// its operands are blasted, and models depend on that numbering.  C++
// leaves the evaluation order of call arguments unspecified; GCC
// evaluates them right to left, so `f(bvBits(kids[0]), bvBits(kids[1]))`
// has always blasted kids[1] first.  bvBits and boolLit bind each
// operand to a local in that order, so that every compiler numbers the
// CNF, and returns the models, alike.

const std::vector<Lit> &
BitBlaster::bvBits(Expr e)
{
    SCAMV_ASSERT(e->sort == expr::Sort::Bv, "bvBits of non-bv");
    auto hit = bvCache.find(e);
    if (hit != bvCache.end())
        return hit->second;

    Bits bits;
    switch (e->kind) {
      case Kind::BvConst:
        bits.resize(kWidth);
        for (int i = 0; i < kWidth; ++i)
            bits[i] = litConst((e->value >> i) & 1);
        break;
      case Kind::BvVar:
        bits.resize(kWidth);
        for (int i = 0; i < kWidth; ++i)
            bits[i] = freshLit();
        break;
      case Kind::Add: {
        const Bits &b = bvBits(e->kids[1]);
        const Bits &a = bvBits(e->kids[0]);
        bits = adder(a, b, litConst(false));
        break;
      }
      case Kind::Sub: {
        Bits nb(kWidth);
        const Bits &b = bvBits(e->kids[1]);
        for (int i = 0; i < kWidth; ++i)
            nb[i] = ~b[i];
        bits = adder(bvBits(e->kids[0]), nb, litConst(true));
        break;
      }
      case Kind::Mul: {
        const Bits a = bvBits(e->kids[0]);
        const Bits b = bvBits(e->kids[1]);
        Bits acc(kWidth, litConst(false));
        for (int i = 0; i < kWidth; ++i) {
            // acc += b[i] ? (a << i) : 0
            Bits partial(kWidth, litConst(false));
            bool any = false;
            for (int j = i; j < kWidth; ++j) {
                partial[j] = gateAnd(b[i], a[j - i]);
                any = any || partial[j] != litConst(false);
            }
            if (any)
                acc = adder(acc, partial, litConst(false));
        }
        bits = std::move(acc);
        break;
      }
      case Kind::BvAnd:
      case Kind::BvOr:
      case Kind::BvXor: {
        const Bits &a = bvBits(e->kids[0]);
        const Bits &b = bvBits(e->kids[1]);
        bits.resize(kWidth);
        for (int i = 0; i < kWidth; ++i) {
            if (e->kind == Kind::BvAnd)
                bits[i] = gateAnd(a[i], b[i]);
            else if (e->kind == Kind::BvOr)
                bits[i] = gateOr(a[i], b[i]);
            else
                bits[i] = gateXor(a[i], b[i]);
        }
        break;
      }
      case Kind::BvNot: {
        const Bits &a = bvBits(e->kids[0]);
        bits.resize(kWidth);
        for (int i = 0; i < kWidth; ++i)
            bits[i] = ~a[i];
        break;
      }
      case Kind::Neg:
        bits = negate(bvBits(e->kids[0]));
        break;
      case Kind::Shl:
      case Kind::Lshr:
      case Kind::Ashr: {
        const Bits &amount = bvBits(e->kids[1]);
        const Bits &a = bvBits(e->kids[0]);
        bits = shifter(a, amount, e->kind == Kind::Shl,
                       e->kind == Kind::Ashr);
        break;
      }
      case Kind::Ite: {
        const Lit s = boolLit(e->kids[0]);
        const Bits &t = bvBits(e->kids[1]);
        const Bits &f = bvBits(e->kids[2]);
        bits.resize(kWidth);
        for (int i = 0; i < kWidth; ++i)
            bits[i] = gateMux(s, t[i], f[i]);
        break;
      }
      case Kind::Read:
        SCAMV_PANIC("bitblast: memory read must be eliminated first "
                    "(see smt::SmtSolver)");
      default:
        SCAMV_PANIC(std::string("bitblast: unexpected bv kind ") +
                    expr::kindName(e->kind));
    }
    auto [it, inserted] = bvCache.emplace(e, std::move(bits));
    SCAMV_ASSERT(inserted, "bvCache collision");
    return it->second;
}

Lit
BitBlaster::boolLit(Expr e)
{
    SCAMV_ASSERT(e->sort == expr::Sort::Bool, "boolLit of non-bool");
    auto hit = boolCache.find(e);
    if (hit != boolCache.end())
        return hit->second;

    Lit l;
    switch (e->kind) {
      case Kind::BoolConst:
        l = litConst(e->value != 0);
        break;
      case Kind::BoolVar:
        l = freshLit();
        break;
      case Kind::Eq: {
        SCAMV_ASSERT(e->kids[0]->sort == expr::Sort::Bv,
                     "bitblast: memory equality unsupported");
        const Bits &b = bvBits(e->kids[1]);
        const Bits &a = bvBits(e->kids[0]);
        l = eqLit(a, b);
        break;
      }
      case Kind::Ult: {
        const Bits &b = bvBits(e->kids[1]);
        const Bits &a = bvBits(e->kids[0]);
        l = ultLit(a, b);
        break;
      }
      case Kind::Ule: { // !(b < a): kids[0] was the last argument
        const Bits &a = bvBits(e->kids[0]);
        const Bits &b = bvBits(e->kids[1]);
        l = ~ultLit(b, a);
        break;
      }
      case Kind::Slt: {
        const Bits &b = bvBits(e->kids[1]);
        const Bits &a = bvBits(e->kids[0]);
        l = sltLit(a, b);
        break;
      }
      case Kind::Sle: {
        const Bits &a = bvBits(e->kids[0]);
        const Bits &b = bvBits(e->kids[1]);
        l = ~sltLit(b, a);
        break;
      }
      case Kind::And:
      case Kind::Or:
      case Kind::Implies: {
        const Lit b = boolLit(e->kids[1]);
        const Lit a = boolLit(e->kids[0]);
        l = e->kind == Kind::And  ? gateAnd(a, b)
            : e->kind == Kind::Or ? gateOr(a, b)
                                  : gateOr(~a, b);
        break;
      }
      case Kind::Not:
        l = ~boolLit(e->kids[0]);
        break;
      default:
        SCAMV_PANIC(std::string("bitblast: unexpected bool kind ") +
                    expr::kindName(e->kind));
    }
    boolCache.emplace(e, l);
    return l;
}

void
BitBlaster::assertTrue(Expr e)
{
    sat.addUnit(boolLit(e));
}

std::uint64_t
BitBlaster::bvModel(Expr e)
{
    const Bits &bits = bvBits(e);
    std::uint64_t v = 0;
    for (int i = 0; i < kWidth; ++i) {
        const Lit l = bits[i];
        bool b = sat.modelValue(sat::var(l));
        if (sat::sign(l))
            b = !b;
        if (b)
            v |= 1ULL << i;
    }
    return v;
}

bool
BitBlaster::boolModel(Expr e)
{
    const Lit l = boolLit(e);
    bool b = sat.modelValue(sat::var(l));
    return sat::sign(l) ? !b : b;
}

} // namespace scamv::bv
