/** @file Unit tests for the hash-consed expression DAG. */

#include <gtest/gtest.h>

#include "expr/expr.hh"

namespace scamv::expr {
namespace {

class ExprTest : public ::testing::Test
{
  protected:
    ExprContext ctx;
};

TEST_F(ExprTest, ConstantsAreInterned)
{
    EXPECT_EQ(ctx.bv(42), ctx.bv(42));
    EXPECT_NE(ctx.bv(42), ctx.bv(43));
    EXPECT_EQ(ctx.tru(), ctx.boolConst(true));
    EXPECT_EQ(ctx.fls(), ctx.boolConst(false));
    EXPECT_EQ(ctx.zero(), ctx.bv(0));
}

TEST_F(ExprTest, VariablesInternByName)
{
    EXPECT_EQ(ctx.bvVar("x0"), ctx.bvVar("x0"));
    EXPECT_NE(ctx.bvVar("x0"), ctx.bvVar("x1"));
    EXPECT_NE(ctx.bvVar("x0"), ctx.boolVar("x0"));
}

TEST_F(ExprTest, VariableSlotsAreDensePerSort)
{
    // Slots count each sort's variables in creation order; re-interning
    // a name returns the same node, with the same slot.
    const Expr x = ctx.bvVar("x");
    const Expr p = ctx.boolVar("p");
    const Expr y = ctx.bvVar("y");
    const Expr m = ctx.memVar("m");
    EXPECT_EQ(x->slot, 0u);
    EXPECT_EQ(y->slot, 1u);
    EXPECT_EQ(p->slot, 0u);
    EXPECT_EQ(m->slot, 0u);
    EXPECT_EQ(ctx.bvVar("y")->slot, 1u);
    EXPECT_EQ(ctx.add(x, y)->slot, 0u);
    // The slot sits in the padding after `sort`: no bigger node.
    EXPECT_EQ(sizeof(Node), 3 * sizeof(std::uint64_t) +
                                sizeof(std::string) +
                                sizeof(std::vector<Expr>));
}

TEST_F(ExprTest, FindVarNeverInterns)
{
    const Expr x = ctx.bvVar("x");
    const std::size_t nodes = ctx.size();
    EXPECT_EQ(ctx.findVar(Kind::BvVar, "x"), x);
    EXPECT_EQ(ctx.findVar(Kind::BoolVar, "x"), nullptr);
    EXPECT_EQ(ctx.findVar(Kind::BvVar, "absent"), nullptr);
    EXPECT_EQ(ctx.size(), nodes);
}

TEST_F(ExprTest, StructuralSharing)
{
    Expr a = ctx.bvVar("a");
    Expr b = ctx.bvVar("b");
    EXPECT_EQ(ctx.add(a, b), ctx.add(a, b));
}

TEST_F(ExprTest, ConstantFoldingArithmetic)
{
    EXPECT_EQ(ctx.add(ctx.bv(2), ctx.bv(3)), ctx.bv(5));
    EXPECT_EQ(ctx.sub(ctx.bv(2), ctx.bv(3)), ctx.bv(~0ULL));
    EXPECT_EQ(ctx.mul(ctx.bv(6), ctx.bv(7)), ctx.bv(42));
    EXPECT_EQ(ctx.bvAnd(ctx.bv(0xF0), ctx.bv(0x3C)), ctx.bv(0x30));
    EXPECT_EQ(ctx.bvOr(ctx.bv(0xF0), ctx.bv(0x0F)), ctx.bv(0xFF));
    EXPECT_EQ(ctx.bvXor(ctx.bv(0xFF), ctx.bv(0x0F)), ctx.bv(0xF0));
    EXPECT_EQ(ctx.shl(ctx.bv(1), ctx.bv(6)), ctx.bv(64));
    EXPECT_EQ(ctx.lshr(ctx.bv(128), ctx.bv(6)), ctx.bv(2));
}

TEST_F(ExprTest, AshrIsArithmetic)
{
    EXPECT_EQ(ctx.ashr(ctx.bv(0x8000000000000000ULL), ctx.bv(63)),
              ctx.bv(~0ULL));
    EXPECT_EQ(ctx.ashr(ctx.bv(64), ctx.bv(3)), ctx.bv(8));
}

TEST_F(ExprTest, NeutralElements)
{
    Expr a = ctx.bvVar("a");
    EXPECT_EQ(ctx.add(a, ctx.bv(0)), a);
    EXPECT_EQ(ctx.add(ctx.bv(0), a), a);
    EXPECT_EQ(ctx.sub(a, ctx.bv(0)), a);
    EXPECT_EQ(ctx.mul(a, ctx.bv(1)), a);
    EXPECT_EQ(ctx.mul(a, ctx.bv(0)), ctx.zero());
    EXPECT_EQ(ctx.bvAnd(a, ctx.bv(UINT64_MAX)), a);
    EXPECT_EQ(ctx.bvAnd(a, ctx.zero()), ctx.zero());
    EXPECT_EQ(ctx.bvOr(a, ctx.zero()), a);
    EXPECT_EQ(ctx.bvXor(a, ctx.zero()), a);
    EXPECT_EQ(ctx.shl(a, ctx.zero()), a);
}

TEST_F(ExprTest, SelfCancellation)
{
    Expr a = ctx.bvVar("a");
    EXPECT_EQ(ctx.sub(a, a), ctx.zero());
    EXPECT_EQ(ctx.bvXor(a, a), ctx.zero());
    EXPECT_EQ(ctx.bvAnd(a, a), a);
    EXPECT_EQ(ctx.bvOr(a, a), a);
    EXPECT_EQ(ctx.eq(a, a), ctx.tru());
    EXPECT_EQ(ctx.ult(a, a), ctx.fls());
    EXPECT_EQ(ctx.ule(a, a), ctx.tru());
}

TEST_F(ExprTest, DoubleNegations)
{
    Expr a = ctx.bvVar("a");
    EXPECT_EQ(ctx.bvNot(ctx.bvNot(a)), a);
    EXPECT_EQ(ctx.neg(ctx.neg(a)), a);
    Expr p = ctx.boolVar("p");
    EXPECT_EQ(ctx.lnot(ctx.lnot(p)), p);
}

TEST_F(ExprTest, BooleanShortCircuits)
{
    Expr p = ctx.boolVar("p");
    EXPECT_EQ(ctx.land(ctx.tru(), p), p);
    EXPECT_EQ(ctx.land(ctx.fls(), p), ctx.fls());
    EXPECT_EQ(ctx.lor(ctx.tru(), p), ctx.tru());
    EXPECT_EQ(ctx.lor(ctx.fls(), p), p);
    EXPECT_EQ(ctx.implies(ctx.fls(), p), ctx.tru());
    EXPECT_EQ(ctx.implies(p, p), ctx.tru());
}

TEST_F(ExprTest, IteSimplification)
{
    Expr a = ctx.bvVar("a");
    Expr b = ctx.bvVar("b");
    Expr p = ctx.boolVar("p");
    EXPECT_EQ(ctx.ite(ctx.tru(), a, b), a);
    EXPECT_EQ(ctx.ite(ctx.fls(), a, b), b);
    EXPECT_EQ(ctx.ite(p, a, a), a);
}

TEST_F(ExprTest, ComparisonConstantFolding)
{
    EXPECT_EQ(ctx.ult(ctx.bv(1), ctx.bv(2)), ctx.tru());
    EXPECT_EQ(ctx.ule(ctx.bv(2), ctx.bv(2)), ctx.tru());
    // -1 (unsigned max) is less than 0 signed.
    EXPECT_EQ(ctx.slt(ctx.bv(~0ULL), ctx.bv(0)), ctx.tru());
    EXPECT_EQ(ctx.ult(ctx.bv(~0ULL), ctx.bv(0)), ctx.fls());
    EXPECT_EQ(ctx.sle(ctx.bv(5), ctx.bv(5)), ctx.tru());
}

TEST_F(ExprTest, ReadOverWriteSameAddress)
{
    Expr mem = ctx.memVar("m");
    Expr a = ctx.bvVar("a");
    Expr v = ctx.bvVar("v");
    EXPECT_EQ(ctx.read(ctx.store(mem, a, v), a), v);
}

TEST_F(ExprTest, ReadOverWriteDistinctConstants)
{
    Expr mem = ctx.memVar("m");
    Expr v = ctx.bvVar("v");
    Expr stored = ctx.store(mem, ctx.bv(8), v);
    // Reading a provably different constant address skips the store.
    EXPECT_EQ(ctx.read(stored, ctx.bv(16)), ctx.read(mem, ctx.bv(16)));
}

TEST_F(ExprTest, ReadOverWriteUnknownAliasKept)
{
    Expr mem = ctx.memVar("m");
    Expr a = ctx.bvVar("a");
    Expr b = ctx.bvVar("b");
    Expr v = ctx.bvVar("v");
    Expr r = ctx.read(ctx.store(mem, a, v), b);
    EXPECT_EQ(r->kind, Kind::Read);
    EXPECT_EQ(r->kids[0]->kind, Kind::Store);
}

TEST_F(ExprTest, StoreCollapsesSameAddress)
{
    Expr mem = ctx.memVar("m");
    Expr a = ctx.bvVar("a");
    Expr s = ctx.store(ctx.store(mem, a, ctx.bv(1)), a, ctx.bv(2));
    EXPECT_EQ(s->kind, Kind::Store);
    EXPECT_EQ(s->kids[0], mem); // inner store elided
    EXPECT_EQ(s->kids[2], ctx.bv(2));
}

TEST_F(ExprTest, CollectVarsFindsAllLeaves)
{
    Expr a = ctx.bvVar("a");
    Expr b = ctx.bvVar("b");
    Expr m = ctx.memVar("m");
    Expr e = ctx.eq(ctx.add(a, b), ctx.read(m, a));
    auto vars = collectVars(e);
    EXPECT_EQ(vars.size(), 3u);
}

TEST_F(ExprTest, CollectReadsDeduplicates)
{
    Expr m = ctx.memVar("m");
    Expr a = ctx.bvVar("a");
    Expr r = ctx.read(m, a);
    Expr e = ctx.eq(ctx.add(r, r), ctx.bv(4));
    EXPECT_EQ(collectReads(e).size(), 1u);
}

TEST_F(ExprTest, SubstituteReplacesAndSimplifies)
{
    Expr a = ctx.bvVar("a");
    Expr b = ctx.bvVar("b");
    Expr e = ctx.add(a, b);
    std::unordered_map<Expr, Expr> map{{a, ctx.bv(2)}, {b, ctx.bv(3)}};
    EXPECT_EQ(substitute(ctx, e, map), ctx.bv(5));
}

TEST_F(ExprTest, SubstituteLeavesUntouchedSubterms)
{
    Expr a = ctx.bvVar("a");
    Expr b = ctx.bvVar("b");
    Expr e = ctx.add(a, b);
    std::unordered_map<Expr, Expr> map{{ctx.bvVar("c"), ctx.bv(1)}};
    EXPECT_EQ(substitute(ctx, e, map), e);
}

TEST_F(ExprTest, ToStringRendersLeavesAndOps)
{
    Expr a = ctx.bvVar("a");
    const std::string s = toString(ctx.add(a, ctx.bv(16)));
    EXPECT_NE(s.find("add"), std::string::npos);
    EXPECT_NE(s.find("a"), std::string::npos);
    EXPECT_NE(s.find("0x10"), std::string::npos);
}

TEST_F(ExprTest, DagSizeCountsSharedOnce)
{
    Expr a = ctx.bvVar("a");
    Expr sum = ctx.add(a, a);
    EXPECT_EQ(dagSize(sum), 2u); // `a` counted once + add node
}

TEST_F(ExprTest, ConjAndDisjOfLists)
{
    Expr p = ctx.boolVar("p");
    Expr q = ctx.boolVar("q");
    EXPECT_EQ(ctx.conj({}), ctx.tru());
    EXPECT_EQ(ctx.disj({}), ctx.fls());
    EXPECT_EQ(ctx.conj({p}), p);
    EXPECT_EQ(ctx.disj({p, q}), ctx.lor(p, q));
}

TEST_F(ExprTest, EqIsOrderCanonical)
{
    Expr a = ctx.bvVar("a");
    Expr b = ctx.bvVar("b");
    EXPECT_EQ(ctx.eq(a, b), ctx.eq(b, a));
    EXPECT_EQ(ctx.land(a == a ? ctx.boolVar("p") : ctx.boolVar("q"),
                       ctx.boolVar("r")),
              ctx.land(ctx.boolVar("r"), ctx.boolVar("p")));
}

} // namespace
} // namespace scamv::expr
