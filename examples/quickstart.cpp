/**
 * @file
 * Quickstart: walks the paper's running example (Fig. 2) through the
 * whole pipeline — assemble a program, annotate it with observational
 * models, symbolically execute it, synthesize the observational
 * equivalence relation with refinement (Section 3), ask the solver for
 * a test case, and run it on the simulated Cortex-A53 platform.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>

#include "bir/asm.hh"
#include "bir/transform.hh"
#include "harness/platform.hh"
#include "obs/models.hh"
#include "rel/relation.hh"
#include "smt/smtlib.hh"
#include "smt/solver.hh"
#include "sym/symexec.hh"

using namespace scamv;

int
main()
{
    // The running example of Fig. 2:
    //     x2 := mem[x0]
    //     if (x0 < x1 + 1)
    //         x3 := mem[x2]
    const char *source = "ldr x2, [x0]\n"
                         "add x4, x1, #1\n"
                         "b.geu x0, x4, end\n"
                         "ldr x3, [x2]\n"
                         "end: ret\n";
    auto assembled = bir::assemble(source, "fig2");
    if (!assembled.ok()) {
        std::fprintf(stderr, "assembly failed: %s\n",
                     assembled.error.c_str());
        return 1;
    }
    bir::Program program = assembled.program;
    std::printf("== Program (Fig. 2) ==\n%s\n",
                program.toString().c_str());

    // Instrument for speculation (Fig. 4) and annotate with the
    // constant-time model Mct refined by Mspec.
    expr::ExprContext ctx;
    bir::Program instrumented = bir::instrumentSpeculation(program);
    std::printf("== Instrumented (shadow statements marked @t) ==\n%s\n",
                instrumented.toString().c_str());

    obs::RefinementPair annotator(obs::makeModel(obs::ModelKind::Mct),
                                  obs::makeModel(obs::ModelKind::Mspec));
    auto paths1 = sym::execute(ctx, instrumented, annotator, {"_1"});
    auto paths2 = sym::execute(ctx, instrumented, annotator, {"_2"});

    std::printf("== Symbolic paths ==\n");
    for (const auto &p : paths1) {
        std::printf("path %-3s cond=%s\n", p.pathId().c_str(),
                    expr::toString(p.cond).c_str());
        for (const auto &o : p.obs)
            std::printf("    [%s] %-20s %s\n",
                        o.tag == sym::ObsTag::Base ? "base" : "ref ",
                        o.note, expr::toString(o.value).c_str());
    }

    // Relation synthesis (Eq. 1 + refinement, per path pair).
    rel::RelationConfig rel_cfg;
    rel_cfg.refine = true;
    rel::RelationSynthesizer relation(ctx, paths1, paths2, rel_cfg);
    std::printf("\n%zu structurally compatible path pair(s)\n",
                relation.pairs().size());

    // Generate one test case from the first pair and measure it.
    harness::PlatformConfig pcfg;
    harness::Platform platform(pcfg);
    auto mpc = obs::makeModel(obs::ModelKind::Mpc);
    auto training_paths = sym::execute(ctx, instrumented, *mpc, {"_t"});

    bool dumped = false;
    for (const auto &pair : relation.pairs()) {
        if (!dumped) {
            // The synthesized relation, exported for external solvers
            // (pipe into `z3 -in` to cross-check the SMT-lite stack).
            std::printf("\n== Relation in SMT-LIB 2 (first pair) ==\n%s\n",
                        smt::toSmtLib(relation.formulaFor(pair))
                            .c_str());
            dumped = true;
        }
        smt::SmtSolver solver(ctx, relation.formulaFor(pair));
        if (solver.solve() != smt::Outcome::Sat)
            continue;
        auto model = solver.model();
        harness::TestCase tc;
        tc.s1 = harness::inputFromAssignment(
            model, harness::stateVars(ctx, "_1"));
        tc.s2 = harness::inputFromAssignment(
            model, harness::stateVars(ctx, "_2"));
        std::printf("\n== Test case (path %s) ==\n",
                    relation.paths1()[pair.idx1].pathId().c_str());
        std::printf("s1: x0=%#lx x1=%#lx   s2: x0=%#lx x1=%#lx\n",
                    tc.s1.regs.regs[0], tc.s1.regs.regs[1],
                    tc.s2.regs.regs[0], tc.s2.regs.regs[1]);

        std::optional<harness::ProgramInput> training;
        auto tf = rel::RelationSynthesizer::trainingFormula(
            ctx, training_paths, relation.paths1()[pair.idx1], rel_cfg);
        if (tf) {
            smt::SmtSolver ts(ctx, *tf);
            if (ts.solve() == smt::Outcome::Sat)
                training = harness::inputFromAssignment(
                    ts.model(), harness::stateVars(ctx, "_t"));
        }

        auto result = platform.runExperiment(program, tc, training);
        const char *verdict =
            result.verdict == harness::Verdict::Counterexample
                ? "COUNTEREXAMPLE (model unsound on this hardware!)"
            : result.verdict == harness::Verdict::Inconclusive
                ? "inconclusive"
                : "indistinguishable";
        std::printf("verdict: %s (%d/%d repetitions differ)\n", verdict,
                    result.differingReps, result.totalReps);
    }
    return 0;
}
