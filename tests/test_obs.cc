/** @file Unit tests for the observational models and layout. */

#include <gtest/gtest.h>

#include "bir/asm.hh"
#include "bir/transform.hh"
#include "expr/eval.hh"
#include "obs/models.hh"
#include "sym/symexec.hh"

namespace scamv::obs {
namespace {

using expr::ExprContext;
using sym::ObsTag;

bir::Program
prog(const char *src)
{
    auto r = bir::assemble(src);
    EXPECT_TRUE(r.ok()) << r.error;
    return r.program;
}

TEST(Layout, CacheGeometryDefaultsMatchCortexA53)
{
    CacheGeometry g;
    EXPECT_EQ(g.lineBytes, 64u);
    EXPECT_EQ(g.numSets, 128u);
    EXPECT_EQ(g.ways, 4u);
    EXPECT_EQ(g.lineShift(), 6);
    // 32 KiB total.
    EXPECT_EQ(g.lineBytes * g.numSets * g.ways, 32u * 1024u);
}

TEST(Layout, SetAndTagExtraction)
{
    CacheGeometry g;
    EXPECT_EQ(g.setOf(0), 0u);
    EXPECT_EQ(g.setOf(64), 1u);
    EXPECT_EQ(g.setOf(64 * 127), 127u);
    EXPECT_EQ(g.setOf(64 * 128), 0u); // wraps
    EXPECT_NE(g.tagOf(0), g.tagOf(64 * 128));
}

TEST(Layout, SetExprMatchesConcrete)
{
    CacheGeometry g;
    ExprContext ctx;
    expr::Assignment a;
    for (std::uint64_t addr : {0ULL, 64ULL, 4096ULL, 0x87654ULL}) {
        a.setBv(ctx.bvVar("x"), addr);
        EXPECT_EQ(expr::evalBv(g.setExpr(ctx, ctx.bvVar("x")), a),
                  g.setOf(addr))
            << addr;
    }
}

TEST(Layout, MemoryRegionMembership)
{
    MemoryRegion r;
    EXPECT_FALSE(r.contains(r.base - 1));
    EXPECT_TRUE(r.contains(r.base));
    EXPECT_TRUE(r.contains(r.limit() - 1));
    EXPECT_FALSE(r.contains(r.limit()));
}

TEST(Layout, RegionExprRequiresAlignment)
{
    MemoryRegion r;
    ExprContext ctx;
    expr::Assignment a;
    a.setBv(ctx.bvVar("x"), r.base + 8);
    EXPECT_TRUE(expr::evalBool(r.containsExpr(ctx, ctx.bvVar("x")), a));
    a.setBv(ctx.bvVar("x"), r.base + 4); // misaligned
    EXPECT_FALSE(expr::evalBool(r.containsExpr(ctx, ctx.bvVar("x")), a));
    a.setBv(ctx.bvVar("x"), r.limit()); // out of range
    EXPECT_FALSE(expr::evalBool(r.containsExpr(ctx, ctx.bvVar("x")), a));
}

TEST(Layout, AttackerRegionConcreteAndSymbolicAgree)
{
    AttackerRegion ar; // sets 61..127
    ExprContext ctx;
    expr::Assignment a;
    for (std::uint64_t set : {0ULL, 60ULL, 61ULL, 127ULL}) {
        const std::uint64_t addr = 0x80000 + set * 64;
        a.setBv(ctx.bvVar("x"), addr);
        EXPECT_EQ(expr::evalBool(ar.containsExpr(ctx, ctx.bvVar("x")), a),
                  ar.contains(addr))
            << set;
    }
    EXPECT_FALSE(ar.contains(0x80000 + 60 * 64));
    EXPECT_TRUE(ar.contains(0x80000 + 61 * 64));
}

TEST(Models, NamesMatchPaper)
{
    EXPECT_STREQ(modelName(ModelKind::Mpc), "Mpc");
    EXPECT_STREQ(modelName(ModelKind::MpartRefined), "Mpart'");
    EXPECT_STREQ(modelName(ModelKind::Mspec1), "Mspec1");
    EXPECT_EQ(makeModel(ModelKind::Mct)->name(), "Mct");
    EXPECT_EQ(makeModel(ModelKind::MpartRefined)->name(), "Mpart'");
}

TEST(Models, MpcObservesOnlyPc)
{
    ExprContext ctx;
    auto m = makeModel(ModelKind::Mpc);
    auto paths = sym::execute(ctx, prog("ldr x1, [x0]\nret\n"), *m,
                              {"_1"});
    ASSERT_EQ(paths.size(), 1u);
    ASSERT_EQ(paths[0].obs.size(), 2u); // one per instruction
    for (const auto &o : paths[0].obs) {
        EXPECT_EQ(o.tag, ObsTag::Base);
        EXPECT_TRUE(o.value->isConst());
    }
}

TEST(Models, MctObservesPcAndAddresses)
{
    ExprContext ctx;
    auto m = makeModel(ModelKind::Mct);
    auto paths = sym::execute(ctx, prog("ldr x1, [x0]\nret\n"), *m,
                              {"_1"});
    ASSERT_EQ(paths[0].obs.size(), 3u); // pc, addr, pc
    EXPECT_EQ(paths[0].obs[1].value, ctx.bvVar("x0_1"));
}

TEST(Models, MlineObservesSetIndexBits)
{
    ExprContext ctx;
    ModelParams params;
    auto m = makeModel(ModelKind::Mline, params);
    auto paths = sym::execute(ctx, prog("ldr x1, [x0]\nret\n"), *m,
                              {"_1"});
    ASSERT_EQ(paths[0].obs.size(), 3u);
    // The line observation is (x0 >> 6) & 127, not the full address.
    expr::Assignment a;
    a.setBv(ctx.bvVar("x0_1"), 0x80000 + 70 * 64 + 8);
    EXPECT_EQ(expr::evalBv(paths[0].obs[1].value, a), 70u);
}

TEST(Models, MpartHidesAddressesOutsideAr)
{
    ExprContext ctx;
    ModelParams params; // AR = sets 61..127
    auto m = makeModel(ModelKind::Mpart, params);
    auto paths = sym::execute(ctx, prog("ldr x1, [x0]\nret\n"), *m,
                              {"_1"});
    ASSERT_EQ(paths[0].obs.size(), 3u);
    expr::Assignment a;
    // Outside AR: sentinel 0.
    a.setBv(ctx.bvVar("x0_1"), 0x80000 + 10 * 64);
    EXPECT_EQ(expr::evalBv(paths[0].obs[1].value, a), 0u);
    // Inside AR: the address itself.
    a.setBv(ctx.bvVar("x0_1"), 0x80000 + 100 * 64);
    EXPECT_EQ(expr::evalBv(paths[0].obs[1].value, a), a.bv(ctx.bvVar("x0_1")));
}

TEST(Models, MpartRefinedAddsUnconditionalAddress)
{
    ExprContext ctx;
    ModelParams params;
    auto m = makeModel(ModelKind::MpartRefined, params);
    auto paths = sym::execute(ctx, prog("ldr x1, [x0]\nret\n"), *m,
                              {"_1"});
    ASSERT_EQ(paths[0].obs.size(), 4u); // pc, ar-addr, any-line, pc
    EXPECT_EQ(paths[0].obs[2].value,
              ctx.lshr(ctx.bvVar("x0_1"), ctx.bv(6)));
}

TEST(Models, RefinementPairTagsExclusiveObservations)
{
    ExprContext ctx;
    ModelParams params;
    RefinementPair pair(makeModel(ModelKind::Mpart, params),
                        makeModel(ModelKind::MpartRefined, params));
    auto paths = sym::execute(ctx, prog("ldr x1, [x0]\nret\n"), pair,
                              {"_1"});
    auto base = paths[0].project(ObsTag::Base);
    auto refined = paths[0].project(ObsTag::RefinedOnly);
    EXPECT_EQ(base.size(), 3u);
    ASSERT_EQ(refined.size(), 1u);
    EXPECT_EQ(refined[0].value,
              ctx.lshr(ctx.bvVar("x0_1"), ctx.bv(6)));
}

TEST(Models, RefinementPairMctVsMspecOnInstrumentedProgram)
{
    ExprContext ctx;
    bir::Program p = bir::instrumentSpeculation(
        prog("b.ne x1, x4, end\nldr x6, [x5, x2]\nend: ret\n"));
    RefinementPair pair(makeModel(ModelKind::Mct),
                        makeModel(ModelKind::Mspec));
    auto paths = sym::execute(ctx, p, pair, {"_1"});
    for (const auto &path : paths) {
        auto refined = path.project(ObsTag::RefinedOnly);
        if (path.decisions[0])
            EXPECT_EQ(refined.size(), 1u); // shadow body load
        else
            EXPECT_TRUE(refined.empty());
    }
}

TEST(Models, Mspec1ObservesOnlyFirstTransientLoad)
{
    ExprContext ctx;
    bir::Program p = bir::instrumentSpeculation(
        prog("b.ne x1, x4, end\n"
             "ldr x6, [x5, x3]\n"
             "ldr x8, [x7, x2]\n" // independent second load
             "end: ret\n"));
    RefinementPair pair(makeModel(ModelKind::Mspec1),
                        makeModel(ModelKind::Mspec));
    auto paths = sym::execute(ctx, p, pair, {"_1"});
    for (const auto &path : paths) {
        if (!path.decisions[0])
            continue;
        // Base (Mspec1) sees the first transient load; RefinedOnly
        // (Mspec-exclusive) is the second one.
        auto refined = path.project(ObsTag::RefinedOnly);
        ASSERT_EQ(refined.size(), 1u);
        EXPECT_EQ(refined[0].value,
                  ctx.lshr(ctx.add(ctx.bvVar("x7_1"),
                                   ctx.bvVar("x2_1")),
                           ctx.bv(6)));
    }
}

} // namespace
} // namespace scamv::obs
