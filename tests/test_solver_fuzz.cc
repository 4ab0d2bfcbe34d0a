/** @file Solver fuzzing: random formulas cross-checked between the
 * concrete evaluator, the CDCL/bit-blasting solver and the repair
 * sampler.  Catches encoding bugs no hand-written case would. */

#include <gtest/gtest.h>

#include <functional>

#include "expr/eval.hh"
#include "smt/sampler.hh"
#include "smt/solver.hh"
#include "support/env.hh"
#include "support/rng.hh"

namespace scamv::smt {
namespace {

using expr::Expr;
using expr::ExprContext;

/**
 * Iteration scale from the validated SCAMV_FUZZ_ITERS environment
 * variable (default 1): the CI nightly-stress job multiplies every
 * fuzz loop by 10x; local debugging can crank it higher.
 */
int
fuzzIters(int base)
{
    static const int scale = static_cast<int>(
        envLong("SCAMV_FUZZ_ITERS", 1, 1000).value_or(1));
    return base * scale;
}

/** Random bitvector term over a small variable pool. */
Expr
randomBv(ExprContext &ctx, Rng &rng, int depth)
{
    if (depth == 0 || rng.chance(0.3)) {
        switch (rng.below(3)) {
          case 0:
            return ctx.bvVar("v" + std::to_string(rng.below(4)));
          case 1:
            return ctx.bv(rng.below(256));
          default:
            return ctx.read(ctx.memVar("m"),
                            ctx.bvVar("v" + std::to_string(
                                               rng.below(4))));
        }
    }
    Expr a = randomBv(ctx, rng, depth - 1);
    Expr b = randomBv(ctx, rng, depth - 1);
    switch (rng.below(8)) {
      case 0: return ctx.add(a, b);
      case 1: return ctx.sub(a, b);
      case 2: return ctx.bvAnd(a, b);
      case 3: return ctx.bvOr(a, b);
      case 4: return ctx.bvXor(a, b);
      case 5: return ctx.bvNot(a);
      case 6: return ctx.lshr(a, ctx.bv(rng.below(10)));
      default: return ctx.shl(a, ctx.bv(rng.below(10)));
    }
}

/** Random boolean formula. */
Expr
randomBool(ExprContext &ctx, Rng &rng, int depth)
{
    if (depth == 0 || rng.chance(0.3)) {
        Expr a = randomBv(ctx, rng, 2);
        Expr b = randomBv(ctx, rng, 2);
        switch (rng.below(5)) {
          case 0: return ctx.eq(a, b);
          case 1: return ctx.ult(a, b);
          case 2: return ctx.ule(a, b);
          case 3: return ctx.slt(a, b);
          default: return ctx.sle(a, b);
        }
    }
    Expr p = randomBool(ctx, rng, depth - 1);
    Expr q = randomBool(ctx, rng, depth - 1);
    switch (rng.below(4)) {
      case 0: return ctx.land(p, q);
      case 1: return ctx.lor(p, q);
      case 2: return ctx.lnot(p);
      default: return ctx.implies(p, q);
    }
}

/** Random concrete assignment over the pool. */
expr::Assignment
randomAssignment(ExprContext &ctx, Rng &rng)
{
    expr::Assignment a;
    for (int i = 0; i < 4; ++i)
        a.setBv(ctx.bvVar("v" + std::to_string(i)),
                rng.chance(0.5) ? rng.below(512) : rng.next());
    // A handful of memory words; the evaluator defaults the rest to 0.
    for (int i = 0; i < 6; ++i)
        a.memOf(ctx.memVar("m")).storeWord(rng.below(512), rng.below(64));
    return a;
}

class SolverFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(SolverFuzz, EvaluatorWitnessImpliesSat)
{
    Rng rng(5000 + GetParam());
    ExprContext ctx;
    for (int i = 0; i < fuzzIters(20); ++i) {
        Expr f = randomBool(ctx, rng, 3);
        // Find a witness by random search; if none found, skip.
        bool witnessed = false;
        for (int j = 0; j < 30 && !witnessed; ++j)
            witnessed = expr::evalBool(f, randomAssignment(ctx, rng));
        if (!witnessed)
            continue;
        EXPECT_NE(checkSat(ctx, f), Outcome::Unsat)
            << expr::toString(f);
    }
}

TEST_P(SolverFuzz, SatModelsSatisfyFormula)
{
    Rng rng(6000 + GetParam());
    ExprContext ctx;
    for (int i = 0; i < fuzzIters(15); ++i) {
        Expr f = randomBool(ctx, rng, 3);
        SmtSolver solver(ctx, f);
        if (solver.solve(50000) != Outcome::Sat)
            continue;
        auto model = solver.model();
        EXPECT_TRUE(expr::evalBool(f, model)) << expr::toString(f);
    }
}

TEST_P(SolverFuzz, FormulaAndNegationUnsat)
{
    Rng rng(7000 + GetParam());
    ExprContext ctx;
    for (int i = 0; i < fuzzIters(15); ++i) {
        Expr f = randomBool(ctx, rng, 2);
        EXPECT_EQ(checkSat(ctx, ctx.land(f, ctx.lnot(f))),
                  Outcome::Unsat);
    }
}

TEST_P(SolverFuzz, SamplerModelsSatisfyFormula)
{
    Rng rng(8000 + GetParam());
    ExprContext ctx;
    for (int i = 0; i < fuzzIters(15); ++i) {
        Expr f = randomBool(ctx, rng, 3);
        SamplerConfig cfg;
        cfg.maxIters = 300;
        cfg.maxRestarts = 2;
        RepairSampler sampler(ctx, f, rng, cfg);
        auto model = sampler.sample();
        if (!model)
            continue; // incomplete: fine
        EXPECT_TRUE(expr::evalBool(f, *model)) << expr::toString(f);
        // Agreement: if the sampler found a model, CDCL must not
        // claim unsat.
        EXPECT_NE(checkSat(ctx, f), Outcome::Unsat);
    }
}

TEST_P(SolverFuzz, SamplerAndCdclAgreeWithEvaluatorOnBvTerms)
{
    // Direct term-level check: assert (t == eval(t)) under a pinned
    // assignment; must be Sat.
    Rng rng(9000 + GetParam());
    ExprContext ctx;
    for (int i = 0; i < fuzzIters(10); ++i) {
        Expr t = randomBv(ctx, rng, 3);
        expr::Assignment a = randomAssignment(ctx, rng);
        const std::uint64_t want = expr::evalBv(t, a);
        Expr f = ctx.eq(t, ctx.bv(want));
        for (int v = 0; v < 4; ++v) {
            const Expr var = ctx.bvVar("v" + std::to_string(v));
            f = ctx.land(f, ctx.eq(var, ctx.bv(a.bv(var))));
        }
        // Pin the memory cells the term reads (evaluator defaults the
        // rest to zero, so pin those reads too).
        std::function<void(Expr)> pin = [&](Expr e) {
            for (Expr r : expr::collectReads(e)) {
                const std::uint64_t addr = expr::evalBv(r->kids[1], a);
                const std::uint64_t val = a.memOf(ctx.memVar("m")).load(addr);
                f = ctx.land(f, ctx.eq(ctx.read(ctx.memVar("m"),
                                                ctx.bv(addr)),
                                       ctx.bv(val)));
                // Tie the symbolic read's address to the same cell.
                f = ctx.land(f, ctx.eq(r->kids[1], ctx.bv(addr)));
            }
        };
        pin(t);
        EXPECT_EQ(checkSat(ctx, f), Outcome::Sat)
            << expr::toString(t);
    }
}

INSTANTIATE_TEST_SUITE_P(Rounds, SolverFuzz, ::testing::Range(0, 6));

} // namespace
} // namespace scamv::smt
