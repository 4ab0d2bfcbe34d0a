/** @file Integration tests for the full validation pipeline. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>

#include "bir/asm.hh"
#include "core/expdb.hh"
#include "core/pipeline.hh"
#include "core/report.hh"

namespace scamv::core {
namespace {

PipelineConfig
baseConfig()
{
    PipelineConfig cfg;
    cfg.programs = 6;
    cfg.testsPerProgram = 8;
    cfg.seed = 42;
    return cfg;
}

TEST(Pipeline, NeedsSpecInstrumentationDetection)
{
    PipelineConfig cfg;
    cfg.model = obs::ModelKind::Mct;
    EXPECT_FALSE(needsSpecInstrumentation(cfg));
    cfg.refinement = obs::ModelKind::Mspec;
    EXPECT_TRUE(needsSpecInstrumentation(cfg));
    cfg.refinement.reset();
    cfg.model = obs::ModelKind::Mspec1;
    EXPECT_TRUE(needsSpecInstrumentation(cfg));
}

TEST(Pipeline, ScaledHelpers)
{
    EXPECT_EQ(scaled(100, 0.5), 50);
    EXPECT_EQ(scaled(3, 0.1), 1); // never below 1
    EXPECT_EQ(scaled(10, 1.0), 10);
}

TEST(Pipeline, MpartWithRefinementFindsPrefetchCounterexamples)
{
    PipelineConfig cfg = baseConfig();
    cfg.templateKind = gen::TemplateKind::Stride;
    cfg.model = obs::ModelKind::Mpart;
    cfg.refinement = obs::ModelKind::MpartRefined;
    cfg.coverage = Coverage::PcAndLine;
    cfg.programs = 12;
    cfg.testsPerProgram = 12;
    cfg.modelParams.attacker.loSet = 61;
    cfg.platform.visibleLoSet = 61;
    cfg.platform.visibleHiSet = 127;
    RunStats stats = Pipeline(cfg).run();
    EXPECT_EQ(stats.programs, 12);
    EXPECT_GT(stats.experiments, 0);
    // Prefetching breaks cache colouring: refinement must expose it.
    EXPECT_GT(stats.counterexamples, 0);
    EXPECT_GT(stats.programsWithCex, 0);
    EXPECT_GE(stats.ttcSeconds, 0.0);
}

TEST(Pipeline, MpartPageAlignedFindsNothing)
{
    PipelineConfig cfg = baseConfig();
    cfg.templateKind = gen::TemplateKind::Stride;
    cfg.model = obs::ModelKind::Mpart;
    cfg.refinement = obs::ModelKind::MpartRefined;
    cfg.coverage = Coverage::PcAndLine;
    cfg.programs = 10;
    cfg.testsPerProgram = 10;
    cfg.modelParams.attacker.loSet = 64; // page aligned
    cfg.platform.visibleLoSet = 64;
    cfg.platform.visibleHiSet = 127;
    RunStats stats = Pipeline(cfg).run();
    // The prefetcher stops at the page boundary: colouring holds.
    EXPECT_EQ(stats.counterexamples, 0);
    EXPECT_LT(stats.ttcSeconds, 0.0);
}

TEST(Pipeline, MctTemplateAWithMspecFindsSiSCloak)
{
    PipelineConfig cfg = baseConfig();
    cfg.templateKind = gen::TemplateKind::A;
    cfg.model = obs::ModelKind::Mct;
    cfg.refinement = obs::ModelKind::Mspec;
    cfg.train = true;
    RunStats stats = Pipeline(cfg).run();
    EXPECT_GT(stats.experiments, 0);
    EXPECT_GT(stats.counterexamples, 0);
}

TEST(Pipeline, MctTemplateAWithoutRefinementFindsLittle)
{
    PipelineConfig cfg = baseConfig();
    cfg.templateKind = gen::TemplateKind::A;
    cfg.model = obs::ModelKind::Mct;
    cfg.train = true;
    RunStats stats = Pipeline(cfg).run();
    // Canonical models are too similar to trigger the leak; allow a
    // rare lucky hit but require a clear gap to the refined run.
    PipelineConfig refined = cfg;
    refined.refinement = obs::ModelKind::Mspec;
    RunStats refined_stats = Pipeline(refined).run();
    EXPECT_LT(stats.counterexamples, refined_stats.counterexamples);
}

TEST(Pipeline, Mspec1OnTemplateCIsSound)
{
    // Dependent transient loads never issue on the A53 core: Mspec1
    // validates cleanly on Template C (Fig. 7, col 3).
    PipelineConfig cfg = baseConfig();
    cfg.templateKind = gen::TemplateKind::C;
    cfg.model = obs::ModelKind::Mspec1;
    cfg.refinement = obs::ModelKind::Mspec;
    cfg.train = true;
    RunStats stats = Pipeline(cfg).run();
    EXPECT_EQ(stats.counterexamples, 0);
}

TEST(Pipeline, MctOnTemplateDStraightLineIsSound)
{
    // No straight-line speculation on direct jumps (Fig. 7, col 5).
    PipelineConfig cfg = baseConfig();
    cfg.templateKind = gen::TemplateKind::D;
    cfg.model = obs::ModelKind::Mct;
    cfg.refinement = obs::ModelKind::Mspec;
    cfg.rewriteJumps = true; // Mspec'
    cfg.train = false;       // no conditional branches to train
    RunStats stats = Pipeline(cfg).run();
    EXPECT_GT(stats.experiments, 0);
    EXPECT_EQ(stats.counterexamples, 0);
}

TEST(Pipeline, DeterministicAcrossRuns)
{
    PipelineConfig cfg = baseConfig();
    cfg.templateKind = gen::TemplateKind::A;
    cfg.model = obs::ModelKind::Mct;
    cfg.refinement = obs::ModelKind::Mspec;
    cfg.train = true;
    cfg.programs = 3;
    cfg.testsPerProgram = 5;
    RunStats a = Pipeline(cfg).run();
    RunStats b = Pipeline(cfg).run();
    EXPECT_EQ(a.experiments, b.experiments);
    EXPECT_EQ(a.counterexamples, b.counterexamples);
    EXPECT_EQ(a.inconclusive, b.inconclusive);
}

void
expectSameDb(const ExperimentDb &a, const ExperimentDb &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const ExperimentRecord &ra = a.all()[i];
        const ExperimentRecord &rb = b.all()[i];
        EXPECT_EQ(ra.programName, rb.programName) << "record " << i;
        EXPECT_EQ(ra.programText, rb.programText) << "record " << i;
        EXPECT_EQ(ra.pathId, rb.pathId) << "record " << i;
        EXPECT_EQ(ra.trained, rb.trained) << "record " << i;
        EXPECT_EQ(ra.verdict, rb.verdict) << "record " << i;
        EXPECT_EQ(ra.differingReps, rb.differingReps) << "record " << i;
        EXPECT_EQ(ra.totalReps, rb.totalReps) << "record " << i;
        EXPECT_EQ(ra.testCase.s1.regs.regs, rb.testCase.s1.regs.regs);
        EXPECT_EQ(ra.testCase.s2.regs.regs, rb.testCase.s2.regs.regs);
        EXPECT_EQ(ra.testCase.s1.mem, rb.testCase.s1.mem);
        EXPECT_EQ(ra.testCase.s2.mem, rb.testCase.s2.mem);
    }
}

void
expectSameCounters(const RunStats &a, const RunStats &b)
{
    EXPECT_EQ(a.programs, b.programs);
    EXPECT_EQ(a.programsWithCex, b.programsWithCex);
    EXPECT_EQ(a.experiments, b.experiments);
    EXPECT_EQ(a.counterexamples, b.counterexamples);
    EXPECT_EQ(a.inconclusive, b.inconclusive);
    EXPECT_EQ(a.generationFailures, b.generationFailures);
}

TEST(Pipeline, ThreadCountDeterminism)
{
    for (SolveStrategy strategy :
         {SolveStrategy::Canonical, SolveStrategy::RandomPhases,
          SolveStrategy::Sampler}) {
        SCOPED_TRACE(static_cast<int>(strategy));
        PipelineConfig cfg = baseConfig();
        cfg.templateKind = gen::TemplateKind::A;
        cfg.model = obs::ModelKind::Mct;
        cfg.refinement = obs::ModelKind::Mspec;
        cfg.train = true;
        cfg.programs = 8;
        cfg.testsPerProgram = 6;
        cfg.strategy = strategy;
        cfg.platform.noiseProbability = 0.05; // the noise Rng too

        ExperimentDb db_serial, db_parallel;
        PipelineConfig serial = cfg;
        serial.threads = 1;
        serial.database = &db_serial;
        PipelineConfig parallel = cfg;
        parallel.threads = 4;
        parallel.database = &db_parallel;

        const RunStats s = Pipeline(serial).run();
        const RunStats p = Pipeline(parallel).run();
        expectSameCounters(s, p);
        expectSameDb(db_serial, db_parallel);
        EXPECT_GT(s.experiments, 0);
    }
}

TEST(Pipeline, ThreadCountDeterminismWithLineCoverage)
{
    // The Mpart/Stride configuration drives the other solver paths:
    // line-coverage redraws, per-pair retirement, refinement merge.
    PipelineConfig cfg = baseConfig();
    cfg.templateKind = gen::TemplateKind::Stride;
    cfg.model = obs::ModelKind::Mpart;
    cfg.refinement = obs::ModelKind::MpartRefined;
    cfg.coverage = Coverage::PcAndLine;
    cfg.programs = 6;
    cfg.testsPerProgram = 6;
    cfg.modelParams.attacker.loSet = 61;
    cfg.platform.visibleLoSet = 61;
    cfg.platform.visibleHiSet = 127;

    ExperimentDb db_serial, db_parallel;
    PipelineConfig serial = cfg;
    serial.threads = 1;
    serial.database = &db_serial;
    PipelineConfig parallel = cfg;
    parallel.threads = 3;
    parallel.database = &db_parallel;

    expectSameCounters(Pipeline(serial).run(),
                       Pipeline(parallel).run());
    expectSameDb(db_serial, db_parallel);
}

TEST(Pipeline, DeriveProgramSeedSpreadsAndIsStable)
{
    EXPECT_EQ(deriveProgramSeed(42, 0), deriveProgramSeed(42, 0));
    EXPECT_NE(deriveProgramSeed(42, 0), deriveProgramSeed(42, 1));
    EXPECT_NE(deriveProgramSeed(42, 0), deriveProgramSeed(43, 0));
    // The program stream must not collapse onto the campaign seed.
    EXPECT_NE(deriveProgramSeed(42, 0), 42u);
}

/** The variables symbolic execution of states _1 and _2 leaves in a
 *  context: registers x0..x`regs-1` and both memories. */
void
internStates(expr::ExprContext &ctx, int regs)
{
    for (const char *sfx : {"_1", "_2"}) {
        for (int r = 0; r < regs; ++r)
            ctx.bvVar("x" + std::to_string(r) + sfx);
        ctx.memVar(std::string("mem") + sfx);
    }
}

TEST(Pipeline, SymmetrizeModelPreservesRequiredDifferences)
{
    expr::ExprContext ctx;
    internStates(ctx, 3);
    const bir::Program prog =
        bir::assemble("ldr x1, [x0]\nldr x2, [x1]\nret\n").program;
    auto x = [&](const char *name) { return ctx.bvVar(name); };
    // The relation requires equal x0 and *different* x1 (a
    // refinement disequality); x2 and memory are unconstrained.
    expr::Expr f = ctx.conj({
        ctx.eq(x("x0_1"), x("x0_2")),
        ctx.neq(x("x1_1"), x("x1_2")),
    });
    expr::Assignment model;
    model.setBv(x("x0_1"), 8);
    model.setBv(x("x0_2"), 8);
    model.setBv(x("x1_1"), 100);
    model.setBv(x("x1_2"), 200);
    model.setBv(x("x2_1"), 7);
    model.setBv(x("x2_2"), 9);
    model.memOf(ctx.memVar("mem_1")).storeWord(0x100, 5);
    model.memOf(ctx.memVar("mem_2")).storeWord(0x100, 6);

    Rng rng(1);
    symmetrizeModel(f, modelVars(ctx, prog), model, rng, 1.0);

    // Required difference survives...
    EXPECT_NE(model.bv(x("x1_1")), model.bv(x("x1_2")));
    // ...incidental asymmetry is merged away.
    EXPECT_EQ(model.bv(x("x0_1")), model.bv(x("x0_2")));
    EXPECT_EQ(model.bv(x("x2_2")), 7u);
    EXPECT_EQ(model.mem(ctx.memVar("mem_2"))->load(0x100), 5u);
}

/**
 * The copying symmetrization the in-place one replaces: every merge
 * attempt edits a whole copy of the model and keeps it only when the
 * formula still holds.
 */
void
copyingSymmetrize(expr::ExprContext &ctx, expr::Expr formula,
                  const bir::Program &program, expr::Assignment &model,
                  Rng &rng, double bias)
{
    auto try_merge = [&](auto mutate) {
        if (!rng.chance(bias))
            return;
        expr::Assignment candidate = model;
        mutate(candidate);
        if (expr::evalBool(formula, candidate))
            model = std::move(candidate);
    };
    auto x = [&](bir::Reg r, const char *suffix) {
        return ctx.bvVar("x" + std::to_string(r) + suffix);
    };
    const expr::Expr mem1 = ctx.memVar("mem_1");
    const expr::Expr mem2 = ctx.memVar("mem_2");
    try_merge([&](expr::Assignment &c) {
        for (bir::Reg r : program.usedRegs())
            c.setBv(x(r, "_2"), c.bv(x(r, "_1")));
        if (const expr::ConcreteMemory *m1 = c.mem(mem1)) {
            auto cells = m1->entries();
            for (const auto &[addr, val] : cells)
                c.memOf(mem2).storeWord(addr, val);
        }
    });
    for (bir::Reg r : program.usedRegs()) {
        if (model.bv(x(r, "_1")) == model.bv(x(r, "_2")))
            continue;
        try_merge([&](expr::Assignment &c) {
            c.setBv(x(r, "_2"), c.bv(x(r, "_1")));
        });
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> mem1_cells;
    if (const expr::ConcreteMemory *m1 = model.mem(mem1))
        for (const auto &[addr, val] : m1->entries())
            mem1_cells.emplace_back(addr, val);
    for (const auto &[a, v] : mem1_cells) {
        const expr::ConcreteMemory *m2 = model.mem(mem2);
        if (m2 && m2->contains(a) && m2->load(a) == v)
            continue;
        try_merge([&](expr::Assignment &c) {
            c.memOf(mem2).storeWord(a, v);
        });
    }
}

/** Every value of the model in slot order, values included.  A
 *  memory without words prints like an absent one: both read as 0. */
std::string
layout(const expr::Assignment &a)
{
    std::string out;
    a.bvVars.forEach([&](std::uint32_t slot, std::uint64_t v) {
        out += "v" + std::to_string(slot) + "=" + std::to_string(v) + " ";
    });
    out += "|";
    a.mems.forEach([&](std::uint32_t slot, const expr::ConcreteMemory &mem) {
        if (mem.entries().empty())
            return;
        out += " m" + std::to_string(slot) + ":";
        for (const auto &[addr, v] :
             std::map<std::uint64_t, std::uint64_t>(
                 mem.entries().begin(), mem.entries().end()))
            out += " " + std::to_string(addr) + "=" + std::to_string(v);
    });
    return out;
}

TEST(Pipeline, SymmetrizeModelMatchesCopyingReference)
{
    // Random relations over five registers and both memories, and
    // random models whose s2 maps sit at and around their rehash
    // points, so rejected merges must undo inserts that rehashed.
    const bir::Program prog =
        bir::assemble("ldr x1, [x0]\nldr x2, [x1]\nstr x3, [x4]\nret\n")
            .program;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        expr::ExprContext ctx;
        internStates(ctx, 5);
        Rng gen(seed);
        auto reg = [&](int state) {
            return ctx.bvVar("x" + std::to_string(gen.below(5)) + "_" +
                             std::to_string(state));
        };
        auto word = [&](int state) {
            return ctx.read(ctx.memVar("mem_" + std::to_string(state)),
                            ctx.bv(8 * gen.below(40)));
        };
        std::vector<expr::Expr> conj;
        for (int i = 0, n = 1 + static_cast<int>(gen.below(3)); i < n; ++i) {
            switch (gen.below(4)) {
              case 0: conj.push_back(ctx.eq(reg(1), reg(2))); break;
              case 1: conj.push_back(ctx.neq(reg(1), reg(2))); break;
              case 2: conj.push_back(ctx.neq(word(1), word(2))); break;
              default: conj.push_back(ctx.ult(reg(2), ctx.bv(50))); break;
            }
        }
        const expr::Expr f = ctx.conj(conj);

        expr::Assignment model;
        for (int r = 0; r < 5; ++r) {
            for (const char *sfx : {"_1", "_2"})
                if (gen.chance(0.7))
                    model.setBv(ctx.bvVar("x" + std::to_string(r) + sfx),
                                gen.below(100));
        }
        for (int state = 1; state <= 2; ++state) {
            if (gen.chance(0.2))
                continue;
            auto &mem =
                model.memOf(ctx.memVar("mem_" + std::to_string(state)));
            const std::uint64_t words = gen.below(40);
            for (std::uint64_t w = 0; w < words; ++w)
                mem.storeWord(8 * gen.below(40), gen.below(3));
        }

        const double bias = gen.chance(0.2) ? 0.5 : 1.0;
        expr::Assignment expect = model;
        Rng rng_expect(seed), rng(seed);
        copyingSymmetrize(ctx, f, prog, expect, rng_expect, bias);
        symmetrizeModel(f, modelVars(ctx, prog), model, rng, bias);
        ASSERT_EQ(layout(model), layout(expect)) << "seed " << seed;
        ASSERT_EQ(rng.next(), rng_expect.next()) << "seed " << seed;
    }
}

TEST(Pipeline, SymmetrizeModelZeroBiasIsANoOp)
{
    expr::ExprContext ctx;
    internStates(ctx, 2);
    const bir::Program prog =
        bir::assemble("ldr x1, [x0]\nret\n").program;
    expr::Expr f = ctx.eq(ctx.bvVar("x0_1"), ctx.bvVar("x0_1"));
    expr::Assignment model;
    model.setBv(ctx.bvVar("x1_1"), 1);
    model.setBv(ctx.bvVar("x1_2"), 2);
    Rng rng(1);
    symmetrizeModel(f, modelVars(ctx, prog), model, rng, 0.0);
    EXPECT_EQ(model.bv(ctx.bvVar("x1_1")), 1u);
    EXPECT_EQ(model.bv(ctx.bvVar("x1_2")), 2u);
}

TEST(Pipeline, ScaleFromEnvRejectsMalformedValues)
{
    setenv("SCAMV_SCALE", "0.25", 1);
    EXPECT_DOUBLE_EQ(scaleFromEnv(1.0), 0.25);
    setenv("SCAMV_SCALE", "abc", 1);
    EXPECT_DOUBLE_EQ(scaleFromEnv(1.0), 1.0);
    setenv("SCAMV_SCALE", "1.5x", 1);
    EXPECT_DOUBLE_EQ(scaleFromEnv(2.0), 2.0);
    setenv("SCAMV_SCALE", "-3", 1);
    EXPECT_DOUBLE_EQ(scaleFromEnv(1.0), 1.0);
    setenv("SCAMV_SCALE", "1e-1", 1);
    EXPECT_DOUBLE_EQ(scaleFromEnv(1.0), 0.1);
    unsetenv("SCAMV_SCALE");
    EXPECT_DOUBLE_EQ(scaleFromEnv(0.5), 0.5);
}

TEST(Pipeline, SamplerStrategyAlsoWorks)
{
    PipelineConfig cfg = baseConfig();
    cfg.templateKind = gen::TemplateKind::A;
    cfg.model = obs::ModelKind::Mct;
    cfg.refinement = obs::ModelKind::Mspec;
    cfg.train = true;
    cfg.strategy = SolveStrategy::Sampler;
    cfg.programs = 4;
    cfg.testsPerProgram = 6;
    RunStats stats = Pipeline(cfg).run();
    EXPECT_GT(stats.experiments, 0);
}

TEST(Pipeline, NoiseYieldsInconclusives)
{
    PipelineConfig cfg = baseConfig();
    cfg.templateKind = gen::TemplateKind::Stride;
    cfg.model = obs::ModelKind::Mpart;
    cfg.refinement = obs::ModelKind::MpartRefined;
    cfg.coverage = Coverage::PcAndLine;
    cfg.platform.noiseProbability = 0.3;
    cfg.platform.visibleLoSet = 61;
    cfg.platform.visibleHiSet = 127;
    cfg.modelParams.attacker.loSet = 61;
    cfg.programs = 8;
    cfg.testsPerProgram = 10;
    RunStats stats = Pipeline(cfg).run();
    EXPECT_GT(stats.inconclusive, 0);
}

TEST(Report, CampaignTableRendersAllRows)
{
    RunStats s;
    s.programs = 10;
    s.programsWithCex = 3;
    s.experiments = 100;
    s.counterexamples = 12;
    s.inconclusive = 4;
    s.ttcSeconds = 1.5;
    TextTable t = renderCampaignTable(
        {{"Mct", "Template A", "No", "Mpc"}}, {s});
    const std::string out = t.render();
    EXPECT_NE(out.find("Mct"), std::string::npos);
    EXPECT_NE(out.find("Programs"), std::string::npos);
    EXPECT_NE(out.find("100"), std::string::npos);
    EXPECT_NE(out.find("T.T.C."), std::string::npos);
    EXPECT_NE(out.find("1.50"), std::string::npos);
}

TEST(Report, ChecklistRatios)
{
    RunStats base, refined;
    base.programsWithCex = 2;
    base.counterexamples = 10;
    base.ttcSeconds = 100.0;
    refined.programsWithCex = 8;
    refined.counterexamples = 200;
    refined.ttcSeconds = 5.0;
    const std::string out =
        renderChecklist(base, refined).render();
    EXPECT_NE(out.find("4.0x"), std::string::npos);  // programs ratio
    EXPECT_NE(out.find("20.0x"), std::string::npos); // cex ratio
    EXPECT_NE(out.find("faster"), std::string::npos);
}

} // namespace
} // namespace scamv::core
