/**
 * @file
 * Google-benchmark microbenchmarks of the pipeline's substrates:
 * cache access, core execution, symbolic execution, relation
 * synthesis, SMT solving (canonical and blocked re-solves) and the
 * repair sampler.  These correspond to the per-phase costs behind the
 * "Avg. Gen. time" / "Avg. Exe. time" rows of Table 1.
 */

#include <benchmark/benchmark.h>

#include "bir/asm.hh"
#include "bir/transform.hh"
#include "core/pipeline.hh"
#include "gen/templates.hh"
#include "harness/platform.hh"
#include "obs/models.hh"
#include "rel/relation.hh"
#include "smt/sampler.hh"
#include "smt/solver.hh"
#include "support/thread_pool.hh"
#include "sym/symexec.hh"

using namespace scamv;

namespace {

bir::Program
templateAProgram()
{
    gen::ProgramGenerator g(gen::TemplateKind::A, 7);
    return g.next();
}

void
BM_CacheAccess(benchmark::State &state)
{
    hw::Cache cache;
    std::uint64_t addr = 0x80000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr));
        addr += 64;
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_CoreRunStride(benchmark::State &state)
{
    auto p = bir::assemble("ldr x1, [x0]\n"
                           "ldr x2, [x0, #64]\n"
                           "ldr x3, [x0, #128]\n"
                           "ret\n")
                 .program;
    hw::Core core;
    hw::ArchState st;
    st.regs[0] = 0x80000;
    for (auto _ : state)
        benchmark::DoNotOptimize(core.run(p, st));
}
BENCHMARK(BM_CoreRunStride);

void
BM_PlatformExperiment(benchmark::State &state)
{
    harness::Platform platform(harness::PlatformConfig{});
    auto p = bir::assemble("ldr x1, [x0]\nret\n").program;
    harness::TestCase tc;
    tc.s1.regs.regs[0] = 0x80000;
    tc.s2.regs.regs[0] = 0x80040;
    for (auto _ : state)
        benchmark::DoNotOptimize(platform.runExperiment(p, tc));
}
BENCHMARK(BM_PlatformExperiment);

void
BM_SymbolicExecutionInstrumented(benchmark::State &state)
{
    bir::Program p =
        bir::instrumentSpeculation(templateAProgram());
    auto annot = std::make_unique<obs::RefinementPair>(
        obs::makeModel(obs::ModelKind::Mct),
        obs::makeModel(obs::ModelKind::Mspec));
    for (auto _ : state) {
        expr::ExprContext ctx;
        benchmark::DoNotOptimize(
            sym::execute(ctx, p, *annot, {"_1"}));
    }
}
BENCHMARK(BM_SymbolicExecutionInstrumented);

void
BM_RelationSynthesis(benchmark::State &state)
{
    bir::Program p =
        bir::instrumentSpeculation(templateAProgram());
    obs::RefinementPair annot(obs::makeModel(obs::ModelKind::Mct),
                              obs::makeModel(obs::ModelKind::Mspec));
    for (auto _ : state) {
        expr::ExprContext ctx;
        auto p1 = sym::execute(ctx, p, annot, {"_1"});
        auto p2 = sym::execute(ctx, p, annot, {"_2"});
        rel::RelationConfig cfg;
        cfg.refine = true;
        rel::RelationSynthesizer rel(ctx, std::move(p1), std::move(p2),
                                     cfg);
        for (const auto &pair : rel.pairs())
            benchmark::DoNotOptimize(rel.formulaFor(pair));
    }
}
BENCHMARK(BM_RelationSynthesis);

void
BM_SmtSolveRelation(benchmark::State &state)
{
    bir::Program p =
        bir::instrumentSpeculation(templateAProgram());
    obs::RefinementPair annot(obs::makeModel(obs::ModelKind::Mct),
                              obs::makeModel(obs::ModelKind::Mspec));
    for (auto _ : state) {
        expr::ExprContext ctx;
        auto p1 = sym::execute(ctx, p, annot, {"_1"});
        auto p2 = sym::execute(ctx, p, annot, {"_2"});
        rel::RelationConfig cfg;
        cfg.refine = true;
        rel::RelationSynthesizer rel(ctx, std::move(p1), std::move(p2),
                                     cfg);
        smt::SmtSolver solver(ctx, rel.formulaFor(rel.pairs()[0]));
        benchmark::DoNotOptimize(solver.solve());
    }
}
BENCHMARK(BM_SmtSolveRelation);

void
BM_SmtBlockedResolve(benchmark::State &state)
{
    // The per-test-case cost once symbolic execution and the first
    // solve are cached: block the model and re-solve.
    expr::ExprContext ctx;
    bir::Program p =
        bir::instrumentSpeculation(templateAProgram());
    obs::RefinementPair annot(obs::makeModel(obs::ModelKind::Mct),
                              obs::makeModel(obs::ModelKind::Mspec));
    auto p1 = sym::execute(ctx, p, annot, {"_1"});
    auto p2 = sym::execute(ctx, p, annot, {"_2"});
    rel::RelationConfig cfg;
    cfg.refine = true;
    rel::RelationSynthesizer rel(ctx, std::move(p1), std::move(p2), cfg);
    smt::SmtSolver solver(ctx, rel.formulaFor(rel.pairs()[0]));
    std::vector<expr::Expr> vars;
    for (int r = 0; r < 8; ++r) {
        vars.push_back(ctx.bvVar("x" + std::to_string(r) + "_1"));
        vars.push_back(ctx.bvVar("x" + std::to_string(r) + "_2"));
    }
    for (auto _ : state) {
        if (solver.solve() != smt::Outcome::Sat) {
            state.SkipWithError("relation exhausted");
            break;
        }
        solver.blockCurrentModel(vars);
    }
}
BENCHMARK(BM_SmtBlockedResolve);

void
BM_RepairSampler(benchmark::State &state)
{
    expr::ExprContext ctx;
    expr::Expr x1 = ctx.bvVar("x0_1"), x2 = ctx.bvVar("x0_2");
    expr::Expr m1 = ctx.memVar("mem_1"), m2 = ctx.memVar("mem_2");
    expr::Expr f = ctx.conj({
        ctx.eq(x1, x2),
        ctx.neq(ctx.read(m1, x1), ctx.read(m2, x2)),
        ctx.ule(ctx.bv(0x80000), x1),
        ctx.ult(x1, ctx.bv(0x100000)),
    });
    Rng rng(5);
    for (auto _ : state) {
        smt::RepairSampler sampler(ctx, f, rng);
        benchmark::DoNotOptimize(sampler.sample());
    }
}
BENCHMARK(BM_RepairSampler);

void
BM_ProgramGeneration(benchmark::State &state)
{
    gen::ProgramGenerator g(gen::TemplateKind::B, 3);
    for (auto _ : state)
        benchmark::DoNotOptimize(g.next());
}
BENCHMARK(BM_ProgramGeneration);

/**
 * Whole-campaign wall-clock at a given worker count; Arg(1) is the
 * serial reference, the second registration uses every core.  Both
 * runs do bit-identical work (same seed), so the ratio of the
 * real-time numbers is the campaign speedup.
 */
void
BM_CampaignThreads(benchmark::State &state)
{
    core::PipelineConfig cfg;
    cfg.templateKind = gen::TemplateKind::A;
    cfg.model = obs::ModelKind::Mct;
    cfg.refinement = obs::ModelKind::Mspec;
    cfg.train = true;
    cfg.programs = 16;
    cfg.testsPerProgram = 8;
    cfg.seed = 99;
    cfg.threads = static_cast<int>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(core::Pipeline(cfg).run());
}
BENCHMARK(BM_CampaignThreads)
    ->Arg(1)
    ->Arg(static_cast<int>(scamv::ThreadPool::defaultThreadCount()))
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
