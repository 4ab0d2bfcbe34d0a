/** @file Property-based cross-validation of the semantic stack: for
 * random template programs and random concrete inputs, the symbolic
 * executor and the hardware core must agree —
 *
 *   1. exactly one symbolic path condition holds per concrete input;
 *   2. evaluating that path's symbolic access addresses reproduces the
 *      core's architectural memory trace exactly;
 *   3. every transient load the core issues appears among the
 *      evaluated symbolic transient addresses (the symbolic model
 *      over-approximates: it assumes full forwarding, the core does
 *      not forward);
 *   4. the repair sampler and the CDCL solver agree with the concrete
 *      evaluator on relation formulas they solve.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "bir/transform.hh"
#include "expr/eval.hh"
#include "gen/templates.hh"
#include "harness/platform.hh"
#include "hw/core.hh"
#include "obs/models.hh"
#include "rel/relation.hh"
#include "smt/solver.hh"
#include "support/faults.hh"
#include "support/metrics.hh"
#include "support/rng.hh"
#include "sym/symexec.hh"

namespace scamv {
namespace {

constexpr std::uint64_t kBoardSeed = 0xb0a2dULL;

/**
 * Build a concrete input: random registers, and a memory assignment
 * mirroring the board's junk fill for every cell the symbolic paths
 * read (so evaluator and core see identical memory).
 */
expr::Assignment
makeInput(const harness::StateVars &vars, Rng &rng,
          const std::vector<sym::PathResult> &paths)
{
    expr::Assignment a;
    for (int r = 0; r < bir::kNumRegs; ++r) {
        std::uint64_t v = rng.chance(0.8)
                              ? 0x80000 + rng.below(0x80000 / 8) * 8
                              : rng.below(1024);
        a.setBv(vars.regs[r], v);
    }
    hw::Memory junk(kBoardSeed);
    // Fixpoint over nested reads (depth <= 3 in the templates).
    for (int round = 0; round < 3; ++round) {
        for (const auto &p : paths) {
            std::vector<expr::Expr> roots{p.cond};
            roots.insert(roots.end(), p.memAddrs.begin(),
                         p.memAddrs.end());
            roots.insert(roots.end(), p.transientLoadAddrs.begin(),
                         p.transientLoadAddrs.end());
            for (expr::Expr root : roots) {
                for (expr::Expr r : expr::collectReads(root)) {
                    // The hardware is word-granular (it masks the low
                    // 3 address bits); the symbolic array is keyed by
                    // the raw address.  Pipeline-generated addresses
                    // are 8-aligned by the region constraint, but the
                    // random inputs here are not — mirror the junk
                    // word under both keys so both sides agree.
                    const std::uint64_t raw =
                        expr::evalBv(r->kids[1], a);
                    const std::uint64_t val = junk.load(raw & ~7ULL);
                    expr::ConcreteMemory &mem = a.memOf(vars.mem);
                    if (!mem.contains(raw))
                        mem.storeWord(raw, val);
                    if (!mem.contains(raw & ~7ULL))
                        mem.storeWord(raw & ~7ULL, val);
                }
            }
        }
    }
    return a;
}

hw::ArchState
stateOf(const harness::StateVars &vars, const expr::Assignment &a)
{
    return harness::inputFromAssignment(a, vars).regs;
}

class CrossVal : public ::testing::TestWithParam<gen::TemplateKind>
{
};

TEST_P(CrossVal, ExactlyOnePathConditionHolds)
{
    gen::ProgramGenerator g(GetParam(), 101);
    Rng rng(777);
    for (int i = 0; i < 25; ++i) {
        expr::ExprContext ctx;
        bir::Program p = g.next();
        auto annot = obs::makeModel(obs::ModelKind::Mct);
        auto paths = sym::execute(ctx, p, *annot, {"_1"});
        for (int j = 0; j < 4; ++j) {
            expr::Assignment a =
                makeInput(harness::stateVars(ctx, "_1"), rng, paths);
            int holds = 0;
            for (const auto &path : paths)
                holds += expr::evalBool(path.cond, a);
            EXPECT_EQ(holds, 1) << p.toString();
        }
    }
}

TEST_P(CrossVal, SymbolicAddressesMatchHardwareTrace)
{
    gen::ProgramGenerator g(GetParam(), 202);
    Rng rng(888);
    for (int i = 0; i < 25; ++i) {
        expr::ExprContext ctx;
        bir::Program p = g.next();
        auto annot = obs::makeModel(obs::ModelKind::Mct);
        auto paths = sym::execute(ctx, p, *annot, {"_1"});
        for (int j = 0; j < 4; ++j) {
            expr::Assignment a =
                makeInput(harness::stateVars(ctx, "_1"), rng, paths);
            const sym::PathResult *active = nullptr;
            for (const auto &path : paths)
                if (expr::evalBool(path.cond, a))
                    active = &path;
            ASSERT_NE(active, nullptr);

            std::vector<std::uint64_t> expected;
            for (expr::Expr addr : active->memAddrs)
                expected.push_back(expr::evalBv(addr, a));

            hw::Core core(hw::CoreConfig{}, kBoardSeed);
            for (const auto &[addr, val] :
                 a.memOf(ctx.memVar("mem_1")).entries())
                core.memory().store(addr, val);
            auto run = core.run(p, stateOf(harness::stateVars(ctx, "_1"), a));
            EXPECT_EQ(run.memTrace, expected) << p.toString();
        }
    }
}

TEST_P(CrossVal, HardwareTransientLoadsWithinSymbolicModel)
{
    if (GetParam() == gen::TemplateKind::D)
        GTEST_SKIP() << "no conditional branches to speculate";
    gen::ProgramGenerator g(GetParam(), 303);
    Rng rng(999);
    int transient_seen = 0;
    for (int i = 0; i < 25; ++i) {
        expr::ExprContext ctx;
        bir::Program p = g.next();
        bir::Program inst = bir::instrumentSpeculation(p);
        auto annot = obs::makeModel(obs::ModelKind::Mspec);
        auto paths = sym::execute(ctx, inst, *annot, {"_1"});
        for (int j = 0; j < 4; ++j) {
            expr::Assignment a =
                makeInput(harness::stateVars(ctx, "_1"), rng, paths);
            const sym::PathResult *active = nullptr;
            for (const auto &path : paths)
                if (expr::evalBool(path.cond, a))
                    active = &path;
            ASSERT_NE(active, nullptr);

            std::vector<std::uint64_t> allowed;
            for (expr::Expr addr : active->transientLoadAddrs)
                allowed.push_back(expr::evalBv(addr, a));

            // Mistrain: run the opposite input class a few times so
            // the measured run mispredicts if possible.
            hw::Core core(hw::CoreConfig{}, kBoardSeed);
            for (const auto &[addr, val] :
                 a.memOf(ctx.memVar("mem_1")).entries())
                core.memory().store(addr, val);
            auto run = core.run(p, stateOf(harness::stateVars(ctx, "_1"), a));
            transient_seen +=
                static_cast<int>(run.transientTrace.size());
            for (std::uint64_t t : run.transientTrace) {
                EXPECT_NE(std::find(allowed.begin(), allowed.end(), t),
                          allowed.end())
                    << "transient access " << t
                    << " not predicted by the model\n"
                    << p.toString();
            }
        }
    }
    // The property must not pass vacuously for speculating templates.
    if (GetParam() != gen::TemplateKind::Stride) {
        EXPECT_GT(transient_seen, 0);
    }
}

TEST_P(CrossVal, SolverModelsSatisfyRelationsConcretely)
{
    gen::ProgramGenerator g(GetParam(), 404);
    for (int i = 0; i < 10; ++i) {
        expr::ExprContext ctx;
        bir::Program p = g.next();
        bir::Program inst = GetParam() == gen::TemplateKind::Stride
                                ? p
                                : bir::instrumentSpeculation(p);
        obs::RefinementPair annot(
            obs::makeModel(GetParam() == gen::TemplateKind::Stride
                               ? obs::ModelKind::Mpart
                               : obs::ModelKind::Mct),
            obs::makeModel(GetParam() == gen::TemplateKind::Stride
                               ? obs::ModelKind::MpartRefined
                               : obs::ModelKind::Mspec));
        auto p1 = sym::execute(ctx, inst, annot, {"_1"});
        auto p2 = sym::execute(ctx, inst, annot, {"_2"});
        rel::RelationConfig rc;
        rc.refine = true;
        rel::RelationSynthesizer rel(ctx, std::move(p1), std::move(p2),
                                     rc);
        for (const auto &pair : rel.pairs()) {
            expr::Expr f = rel.formulaFor(pair);
            smt::SmtSolver solver(ctx, f);
            const smt::Outcome o = solver.solve();
            if (o != smt::Outcome::Sat)
                continue;
            auto model = solver.model();
            EXPECT_TRUE(expr::evalBool(f, model))
                << "model does not satisfy its own relation\n"
                << p.toString();
        }
    }
}

TEST_P(CrossVal, InjectedFlakesOnlyDegradeVerdicts)
{
    // Verdict-safety property under injected measurement noise: a
    // flaky experiment may become *inconclusive*, but injection must
    // never flip a counterexample to an "indistinguishable" pass nor
    // manufacture a counterexample out of agreeing states.
    gen::ProgramGenerator g(GetParam(), 505);
    Rng rng(1234);
    metrics::Registry reg(metrics::ClockMode::Deterministic);
    metrics::ScopedRegistry reg_scope(reg);

    faults::FaultPlan plan;
    plan.rate = 0.3;
    plan.mask = 1u << static_cast<int>(faults::Site::HwFlake);

    int flaky_experiments = 0;
    for (int i = 0; i < 15; ++i) {
        expr::ExprContext ctx;
        bir::Program p = g.next();
        auto annot = obs::makeModel(obs::ModelKind::Mct);
        auto paths = sym::execute(ctx, p, *annot, {"_1"});
        expr::Assignment a =
            makeInput(harness::stateVars(ctx, "_1"), rng, paths);

        harness::TestCase identical;
        identical.s1 = harness::inputFromAssignment(
            a, harness::stateVars(ctx, "_1"));
        identical.s2 = identical.s1;
        harness::TestCase differing = identical;
        differing.s2.regs.regs[1] ^= 0x40; // cross a cache line

        for (const harness::TestCase &tc : {identical, differing}) {
            harness::Platform clean_platform(harness::PlatformConfig{},
                                             999);
            const harness::ExperimentResult clean =
                clean_platform.runExperiment(p, tc);
            ASSERT_EQ(clean.flakedReps, 0);
            if (tc.s1.regs.regs == tc.s2.regs.regs) {
                ASSERT_EQ(clean.verdict,
                          harness::Verdict::Indistinguishable);
            }

            harness::Platform flaky_platform(harness::PlatformConfig{},
                                             999);
            faults::Injector injector(plan, 42, i);
            faults::ScopedInjector inj_scope(injector);
            const harness::ExperimentResult flaky =
                flaky_platform.runExperiment(p, tc);

            if (flaky.flakedReps == 0) {
                // No injection landed: the verdict is untouched.
                EXPECT_EQ(flaky.verdict, clean.verdict);
                continue;
            }
            ++flaky_experiments;
            // Flaked repetitions can never certify agreement...
            EXPECT_NE(flaky.verdict,
                      harness::Verdict::Indistinguishable);
            // ...nor fabricate a distinguishing experiment.
            if (clean.verdict == harness::Verdict::Indistinguishable) {
                EXPECT_EQ(flaky.verdict,
                          harness::Verdict::Inconclusive);
            }
            // A clean counterexample survives at least as
            // inconclusive — it is never flipped to a pass.
            if (clean.verdict == harness::Verdict::Counterexample) {
                EXPECT_NE(flaky.verdict,
                          harness::Verdict::Indistinguishable);
            }
        }
    }
    // The property must not pass vacuously.
    EXPECT_GT(flaky_experiments, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Templates, CrossVal,
    ::testing::Values(gen::TemplateKind::Stride, gen::TemplateKind::A,
                      gen::TemplateKind::B, gen::TemplateKind::C,
                      gen::TemplateKind::D),
    [](const ::testing::TestParamInfo<gen::TemplateKind> &info) {
        switch (info.param) {
          case gen::TemplateKind::Stride: return std::string("Stride");
          case gen::TemplateKind::A: return std::string("A");
          case gen::TemplateKind::B: return std::string("B");
          case gen::TemplateKind::C: return std::string("C");
          case gen::TemplateKind::D: return std::string("D");
        }
        return std::string("Unknown");
    });

} // namespace
} // namespace scamv
