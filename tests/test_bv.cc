/** @file Unit tests for the bit-blaster, cross-checked against the
 * concrete evaluator on random inputs. */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "bv/bitblast.hh"
#include "expr/eval.hh"
#include "support/rng.hh"

namespace scamv::bv {
namespace {

using expr::Expr;
using expr::ExprContext;

/**
 * Check that asserting (result == expected) is Sat and asserting
 * (result != expected) under fixed inputs is Unsat — i.e. the circuit
 * computes exactly the evaluator's function.
 */
void
checkCircuit(ExprContext &ctx, Expr term,
             const std::vector<std::pair<std::string, std::uint64_t>>
                 &inputs,
             std::uint64_t expected)
{
    sat::Solver solver;
    BitBlaster blaster(solver);
    for (const auto &[name, value] : inputs)
        blaster.assertTrue(ctx.eq(ctx.bvVar(name), ctx.bv(value)));
    blaster.assertTrue(ctx.eq(term, ctx.bv(expected)));
    EXPECT_EQ(solver.solve(), sat::Result::Sat)
        << expr::toString(term) << " != " << expected;
}

class BvOpTest : public ::testing::TestWithParam<int>
{
  protected:
    ExprContext ctx;
};

TEST_P(BvOpTest, RandomCrossCheckAgainstEvaluator)
{
    Rng rng(1234 + GetParam());
    ExprContext ctx;
    Expr a = ctx.bvVar("a");
    Expr b = ctx.bvVar("b");

    const std::uint64_t va = rng.next();
    const std::uint64_t vb =
        GetParam() % 3 == 0 ? rng.below(70) : rng.next(); // small shifts
    expr::Assignment asg;
    asg.setBv(ctx.bvVar("a"), va);
    asg.setBv(ctx.bvVar("b"), vb);

    const std::vector<Expr> terms = {
        ctx.add(a, b),        ctx.sub(a, b),   ctx.bvAnd(a, b),
        ctx.bvOr(a, b),       ctx.bvXor(a, b), ctx.bvNot(a),
        ctx.neg(a),           ctx.shl(a, b),   ctx.lshr(a, b),
        ctx.ashr(a, b),
        ctx.ite(ctx.ult(a, b), a, b),
    };
    for (Expr t : terms) {
        const std::uint64_t expected = expr::evalBv(t, asg);
        checkCircuit(ctx, t, {{"a", va}, {"b", vb}}, expected);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomVectors, BvOpTest,
                         ::testing::Range(0, 12));

TEST(BitBlast, MulSmallCrossCheck)
{
    ExprContext ctx;
    Rng rng(77);
    Expr a = ctx.bvVar("a");
    Expr b = ctx.bvVar("b");
    const std::uint64_t va = rng.below(1 << 20);
    const std::uint64_t vb = rng.below(1 << 20);
    checkCircuit(ctx, ctx.mul(a, b), {{"a", va}, {"b", vb}}, va * vb);
}

class BvCmpTest : public ::testing::TestWithParam<int>
{
};

TEST_P(BvCmpTest, ComparisonsMatchEvaluator)
{
    ExprContext ctx;
    Rng rng(4321 + GetParam());
    Expr a = ctx.bvVar("a");
    Expr b = ctx.bvVar("b");
    // Mix of near and far values, including sign-boundary cases.
    std::uint64_t va = rng.next();
    std::uint64_t vb = rng.chance(0.3) ? va + rng.below(3) - 1
                                       : rng.next();
    if (GetParam() == 0) {
        va = 0x8000000000000000ULL;
        vb = 1;
    }
    expr::Assignment asg;
    asg.setBv(ctx.bvVar("a"), va);
    asg.setBv(ctx.bvVar("b"), vb);

    for (Expr pred : {ctx.eq(a, b), ctx.ult(a, b), ctx.ule(a, b),
                      ctx.slt(a, b), ctx.sle(a, b)}) {
        const bool expected = expr::evalBool(pred, asg);
        sat::Solver solver;
        BitBlaster blaster(solver);
        blaster.assertTrue(ctx.eq(a, ctx.bv(va)));
        blaster.assertTrue(ctx.eq(b, ctx.bv(vb)));
        blaster.assertTrue(expected ? pred : ctx.lnot(pred));
        EXPECT_EQ(solver.solve(), sat::Result::Sat)
            << expr::toString(pred) << " va=" << va << " vb=" << vb;
    }
}

INSTANTIATE_TEST_SUITE_P(RandomVectors, BvCmpTest,
                         ::testing::Range(0, 10));

TEST(BitBlast, SolveForInput)
{
    // Find x such that x + 5 == 12.
    ExprContext ctx;
    sat::Solver solver;
    BitBlaster blaster(solver);
    Expr x = ctx.bvVar("x");
    blaster.assertTrue(ctx.eq(ctx.add(x, ctx.bv(5)), ctx.bv(12)));
    ASSERT_EQ(solver.solve(), sat::Result::Sat);
    EXPECT_EQ(blaster.bvModel(x), 7u);
}

TEST(BitBlast, SolveInequalityConjunction)
{
    // 100 <= x < 108 and x & 7 == 4  =>  x == 104... wait: 104 & 7 = 0.
    // Use x & 7 == 4 -> x == 100? 100&7=4. Yes.
    ExprContext ctx;
    sat::Solver solver;
    BitBlaster blaster(solver);
    Expr x = ctx.bvVar("x");
    blaster.assertTrue(ctx.ule(ctx.bv(100), x));
    blaster.assertTrue(ctx.ult(x, ctx.bv(108)));
    blaster.assertTrue(ctx.eq(ctx.bvAnd(x, ctx.bv(7)), ctx.bv(4)));
    ASSERT_EQ(solver.solve(), sat::Result::Sat);
    EXPECT_EQ(blaster.bvModel(x), 100u);
}

TEST(BitBlast, UnsatArithmeticContradiction)
{
    ExprContext ctx;
    sat::Solver solver;
    BitBlaster blaster(solver);
    Expr x = ctx.bvVar("x");
    blaster.assertTrue(ctx.ult(x, ctx.bv(4)));
    blaster.assertTrue(ctx.ult(ctx.bv(10), x));
    EXPECT_EQ(solver.solve(), sat::Result::Unsat);
}

TEST(BitBlast, OverflowSemantics)
{
    // x + 1 == 0 has the unique solution x == 2^64-1.
    ExprContext ctx;
    sat::Solver solver;
    BitBlaster blaster(solver);
    Expr x = ctx.bvVar("x");
    blaster.assertTrue(ctx.eq(ctx.add(x, ctx.bv(1)), ctx.bv(0)));
    ASSERT_EQ(solver.solve(), sat::Result::Sat);
    EXPECT_EQ(blaster.bvModel(x), UINT64_MAX);
}

TEST(BitBlast, BooleanStructure)
{
    ExprContext ctx;
    sat::Solver solver;
    BitBlaster blaster(solver);
    Expr p = ctx.boolVar("p");
    Expr q = ctx.boolVar("q");
    blaster.assertTrue(ctx.lor(p, q));
    blaster.assertTrue(ctx.lnot(p));
    ASSERT_EQ(solver.solve(), sat::Result::Sat);
    EXPECT_FALSE(blaster.boolModel(p));
    EXPECT_TRUE(blaster.boolModel(q));
}

TEST(BitBlast, SharedSubtermsEncodedOnce)
{
    ExprContext ctx;
    sat::Solver solver;
    BitBlaster blaster(solver);
    Expr x = ctx.bvVar("x");
    Expr sum = ctx.add(x, ctx.bv(3));
    const int vars_initial = solver.numVars();
    blaster.assertTrue(ctx.eq(sum, ctx.bv(10)));
    const int first_delta = solver.numVars() - vars_initial;
    // A second constraint over the same subterm must reuse the adder
    // circuit: only the new comparator gates are added.
    blaster.assertTrue(ctx.ule(sum, ctx.bv(10)));
    const int second_delta =
        solver.numVars() - vars_initial - first_delta;
    EXPECT_LT(second_delta, first_delta);
}

TEST(BitBlast, CacheSetIndexExtraction)
{
    // The Mline observation shape: ((x >> 6) & 127) == 61 must have a
    // solution whose concrete set index is 61.
    ExprContext ctx;
    sat::Solver solver;
    BitBlaster blaster(solver);
    Expr x = ctx.bvVar("x");
    Expr set = ctx.bvAnd(ctx.lshr(x, ctx.bv(6)), ctx.bv(127));
    blaster.assertTrue(ctx.eq(set, ctx.bv(61)));
    blaster.assertTrue(ctx.ule(ctx.bv(0x80000), x));
    ASSERT_EQ(solver.solve(), sat::Result::Sat);
    const std::uint64_t v = blaster.bvModel(x);
    EXPECT_EQ((v >> 6) & 127, 61u);
    EXPECT_GE(v, 0x80000u);
}

/** @return whether every variable of `lo` is below every one of `hi`. */
bool
numberedBelow(const std::vector<sat::Lit> &lo,
              const std::vector<sat::Lit> &hi)
{
    sat::Var lo_max = -1, hi_min = std::numeric_limits<sat::Var>::max();
    for (const sat::Lit l : lo)
        lo_max = std::max(lo_max, sat::var(l));
    for (const sat::Lit l : hi)
        hi_min = std::min(hi_min, sat::var(l));
    return lo_max < hi_min;
}

TEST(BitBlast, BinaryOperandsBlastSecondKidFirst)
{
    // Models depend on variable numbering, so the operand order must
    // not be left to the compiler's argument evaluation order: the
    // second kid (as stored on the node, which interning may reorder)
    // is blasted first.
    ExprContext ctx;
    sat::Solver solver;
    BitBlaster blaster(solver);
    const Expr sum = ctx.add(ctx.bvVar("p"), ctx.bvVar("q"));
    blaster.bvBits(sum);
    EXPECT_TRUE(numberedBelow(blaster.bvBits(sum->kids[1]),
                              blaster.bvBits(sum->kids[0])));
    const Expr eq = ctx.eq(ctx.bvVar("r"), ctx.bvVar("s"));
    blaster.boolLit(eq);
    EXPECT_TRUE(numberedBelow(blaster.bvBits(eq->kids[1]),
                              blaster.bvBits(eq->kids[0])));
}

} // namespace
} // namespace scamv::bv
