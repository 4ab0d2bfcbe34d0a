/** @file Unit tests for the randomized repair sampler. */

#include <gtest/gtest.h>

#include <set>

#include "obs/layout.hh"
#include "smt/sampler.hh"

namespace scamv::smt {
namespace {

using expr::Expr;
using expr::ExprContext;

TEST(Sampler, TrivialFormula)
{
    ExprContext ctx;
    Rng rng(1);
    RepairSampler s(ctx, ctx.tru(), rng);
    ASSERT_TRUE(s.sample().has_value());
}

TEST(Sampler, SimpleEquality)
{
    ExprContext ctx;
    Rng rng(2);
    Expr x = ctx.bvVar("x"), y = ctx.bvVar("y");
    Expr f = ctx.eq(ctx.add(x, ctx.bv(5)), y);
    RepairSampler s(ctx, f, rng);
    auto model = s.sample();
    ASSERT_TRUE(model.has_value());
    EXPECT_TRUE(expr::evalBool(f, *model));
    EXPECT_EQ(model->bv(ctx.bvVar("x")) + 5, model->bv(ctx.bvVar("y")));
}

TEST(Sampler, DisequalityAndRange)
{
    ExprContext ctx;
    Rng rng(3);
    Expr x = ctx.bvVar("x"), y = ctx.bvVar("y");
    Expr f = ctx.conj({
        ctx.neq(x, y),
        ctx.ule(ctx.bv(0x80000), x),
        ctx.ult(x, ctx.bv(0x100000)),
        ctx.ule(ctx.bv(0x80000), y),
        ctx.ult(y, ctx.bv(0x100000)),
    });
    RepairSampler s(ctx, f, rng);
    auto model = s.sample();
    ASSERT_TRUE(model.has_value());
    EXPECT_TRUE(expr::evalBool(f, *model));
}

TEST(Sampler, MemoryEqualities)
{
    // The relation shape: same addresses, different memory contents.
    ExprContext ctx;
    Rng rng(4);
    Expr x1 = ctx.bvVar("x0_1"), x2 = ctx.bvVar("x0_2");
    Expr m1 = ctx.memVar("mem_1"), m2 = ctx.memVar("mem_2");
    Expr f = ctx.conj({
        ctx.eq(x1, x2),
        ctx.neq(ctx.read(m1, x1), ctx.read(m2, x2)),
        ctx.ule(ctx.bv(0x80000), x1),
        ctx.ult(x1, ctx.bv(0x100000)),
    });
    RepairSampler s(ctx, f, rng);
    auto model = s.sample();
    ASSERT_TRUE(model.has_value());
    EXPECT_TRUE(expr::evalBool(f, *model));
}

TEST(Sampler, ImplicationWithPathCondition)
{
    ExprContext ctx;
    Rng rng(5);
    Expr x = ctx.bvVar("x"), y = ctx.bvVar("y");
    // (x < y) && (x < y => x != 0) -- shaped like pc && obs constraint.
    Expr f = ctx.land(ctx.ult(x, y),
                      ctx.implies(ctx.ult(x, y), ctx.neq(x, ctx.bv(0))));
    RepairSampler s(ctx, f, rng);
    auto model = s.sample();
    ASSERT_TRUE(model.has_value());
    EXPECT_TRUE(expr::evalBool(f, *model));
}

TEST(Sampler, ReturnsNulloptOnUnsat)
{
    ExprContext ctx;
    Rng rng(6);
    Expr x = ctx.bvVar("x");
    Expr f = ctx.land(ctx.ult(x, ctx.bv(5)), ctx.ult(ctx.bv(10), x));
    SamplerConfig cfg;
    cfg.maxIters = 200;
    cfg.maxRestarts = 2;
    RepairSampler s(ctx, f, rng, cfg);
    EXPECT_FALSE(s.sample().has_value());
}

TEST(Sampler, ModelsAreDiverse)
{
    // Unlike the canonical CDCL path, repeated sampling should spread
    // over the solution space.
    ExprContext ctx;
    Rng rng(7);
    Expr x = ctx.bvVar("x");
    Expr f = ctx.land(ctx.ule(ctx.bv(0x80000), x),
                      ctx.ult(x, ctx.bv(0x100000)));
    std::set<std::uint64_t> values;
    for (int i = 0; i < 10; ++i) {
        RepairSampler s(ctx, f, rng);
        auto model = s.sample();
        ASSERT_TRUE(model.has_value());
        values.insert(model->bv(ctx.bvVar("x")));
    }
    EXPECT_GE(values.size(), 5u);
}

TEST(Sampler, SentinelObservationEquality)
{
    // The Mpart observation pattern: ite(AR(x), x, 0) equal for the
    // two states, with addresses constrained into the region.
    ExprContext ctx;
    Rng rng(8);
    obs::CacheGeometry geom;
    obs::AttackerRegion ar;
    Expr x1 = ctx.bvVar("x0_1"), x2 = ctx.bvVar("x0_2");
    obs::MemoryRegion region;
    Expr obs1 = ctx.ite(ar.containsExpr(ctx, x1), x1, ctx.zero());
    Expr obs2 = ctx.ite(ar.containsExpr(ctx, x2), x2, ctx.zero());
    Expr f = ctx.conj({
        ctx.eq(obs1, obs2),
        ctx.neq(x1, x2), // refined constraint: addresses differ
        region.containsExpr(ctx, x1),
        region.containsExpr(ctx, x2),
    });
    SamplerConfig cfg;
    cfg.regionBase = region.base;
    cfg.regionLimit = region.limit();
    RepairSampler s(ctx, f, rng, cfg);
    auto model = s.sample();
    ASSERT_TRUE(model.has_value());
    EXPECT_TRUE(expr::evalBool(f, *model));
    // Both must be outside AR (inside AR + equal obs forces equality).
    EXPECT_FALSE(ar.contains(model->bv(ctx.bvVar("x0_1"))));
    EXPECT_FALSE(ar.contains(model->bv(ctx.bvVar("x0_2"))));
}

} // namespace
} // namespace scamv::smt
