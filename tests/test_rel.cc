/** @file Unit tests for relation synthesis (Eq. 1 + refinement). */

#include <gtest/gtest.h>

#include "bir/asm.hh"
#include "bir/transform.hh"
#include "expr/eval.hh"
#include "obs/models.hh"
#include "rel/relation.hh"
#include "smt/solver.hh"
#include "sym/symexec.hh"

namespace scamv::rel {
namespace {

using expr::Expr;
using expr::ExprContext;

bir::Program
prog(const char *src)
{
    auto r = bir::assemble(src);
    EXPECT_TRUE(r.ok()) << r.error;
    return r.program;
}

struct Synth {
    ExprContext ctx;
    std::unique_ptr<RelationSynthesizer> rel;
    std::vector<sym::PathResult> trainingPaths;

    Synth(const char *src, obs::ModelKind m1,
          std::optional<obs::ModelKind> m2 = std::nullopt,
          bool instrument = false)
    {
        bir::Program p = prog(src);
        bir::Program mp = instrument ? bir::instrumentSpeculation(p) : p;
        std::unique_ptr<sym::Annotator> annot;
        if (m2) {
            annot = std::make_unique<obs::RefinementPair>(
                obs::makeModel(m1), obs::makeModel(*m2));
        } else {
            annot = obs::makeModel(m1);
        }
        auto p1 = sym::execute(ctx, mp, *annot, {"_1"});
        auto p2 = sym::execute(ctx, mp, *annot, {"_2"});
        auto mpc = obs::makeModel(obs::ModelKind::Mpc);
        trainingPaths = sym::execute(ctx, mp, *mpc, {"_t"});
        RelationConfig cfg;
        cfg.refine = m2.has_value();
        rel = std::make_unique<RelationSynthesizer>(
            ctx, std::move(p1), std::move(p2), cfg);
    }

    /** @return the model's value of bv variable `name`. */
    std::uint64_t
    bv(const expr::Assignment &model, const char *name)
    {
        return model.bv(ctx.bvVar(name));
    }
};

TEST(Relation, MctSamePathPairsOnly)
{
    // Mct observes the pc: only same-path pairs are structurally
    // compatible (different paths have different pc constants).
    Synth s("b.lt x0, x1, end\nldr x2, [x0]\nend: ret\n",
            obs::ModelKind::Mct);
    EXPECT_EQ(s.rel->pairs().size(), 2u);
    for (const auto &pair : s.rel->pairs())
        EXPECT_EQ(s.rel->paths1()[pair.idx1].pathId(),
                  s.rel->paths2()[pair.idx2].pathId());
}

TEST(Relation, FormulaForcesEqualAddresses)
{
    Synth s("ldr x2, [x0]\nret\n", obs::ModelKind::Mct);
    ASSERT_EQ(s.rel->pairs().size(), 1u);
    Expr f = s.rel->formulaFor(s.rel->pairs()[0]);
    smt::SmtSolver solver(s.ctx, f);
    ASSERT_EQ(solver.solve(), smt::Outcome::Sat);
    auto model = solver.model();
    EXPECT_EQ(s.bv(model, "x0_1"), s.bv(model, "x0_2"));
    // Region constraint applied.
    EXPECT_GE(s.bv(model, "x0_1"), 0x80000u);
}

TEST(Relation, RefinementRequiresDifference)
{
    // Mct vs Mspec on the SiSCloak shape: base equal (addresses) and
    // transient addresses different.
    Synth s("ldr x2, [x0, x1]\n"
            "b.ne x1, x4, end\n"
            "ldr x6, [x5, x2]\n"
            "end: ret\n",
            obs::ModelKind::Mct, obs::ModelKind::Mspec, true);
    // Find the taken-path pair (branch skips body; body speculated).
    bool found = false;
    for (const auto &pair : s.rel->pairs()) {
        const auto &path = s.rel->paths1()[pair.idx1];
        if (!path.decisions.empty() && path.decisions[0] &&
            !path.transientLoadAddrs.empty()) {
            found = true;
            Expr f = s.rel->formulaFor(pair);
            smt::SmtSolver solver(s.ctx, f);
            ASSERT_EQ(solver.solve(), smt::Outcome::Sat);
            auto model = solver.model();
            EXPECT_TRUE(expr::evalBool(f, model));
            // Architectural equality.
            EXPECT_EQ(s.bv(model, "x0_1") + s.bv(model, "x1_1"),
                      s.bv(model, "x0_2") + s.bv(model, "x1_2"));
            // Transient addresses differ: x5 + mem[x0+x1].
            const std::uint64_t t1 =
                s.bv(model, "x5_1") +
                model.memOf(s.ctx.memVar("mem_1"))
                    .load(s.bv(model, "x0_1") + s.bv(model, "x1_1"));
            const std::uint64_t t2 =
                s.bv(model, "x5_2") +
                model.memOf(s.ctx.memVar("mem_2"))
                    .load(s.bv(model, "x0_2") + s.bv(model, "x1_2"));
            EXPECT_NE(t1, t2);
        }
    }
    EXPECT_TRUE(found);
}

TEST(Relation, RefinementSkipsPairsWithoutRefinedObs)
{
    // On the fall-through path the body executes architecturally and
    // the taken side contributes no transient loads: no refined
    // observations, so refinement-driven search skips that pair.
    Synth s("b.ne x1, x4, end\nldr x6, [x5, x2]\nend: ret\n",
            obs::ModelKind::Mct, obs::ModelKind::Mspec, true);
    for (const auto &pair : s.rel->pairs()) {
        const auto &path = s.rel->paths1()[pair.idx1];
        EXPECT_TRUE(path.decisions[0])
            << "fall-through pair should have been dropped";
    }
}

TEST(Relation, WithoutRefinementAllSamePathPairsKept)
{
    Synth s("b.ne x1, x4, end\nldr x6, [x5, x2]\nend: ret\n",
            obs::ModelKind::Mct);
    EXPECT_EQ(s.rel->pairs().size(), 2u);
}

TEST(Relation, MpartAllowsCrossPathEquivalence)
{
    // Mpart observes pc too, so pairs are same-path; but within a
    // path, states differing outside AR are related.
    Synth s("ldr x2, [x0]\nret\n", obs::ModelKind::Mpart,
            obs::ModelKind::MpartRefined);
    ASSERT_EQ(s.rel->pairs().size(), 1u);
    Expr f = s.rel->formulaFor(s.rel->pairs()[0]);
    smt::SmtSolver solver(s.ctx, f);
    ASSERT_EQ(solver.solve(), smt::Outcome::Sat);
    auto model = solver.model();
    // Refinement: addresses differ; Mpart equality: both outside AR
    // or equal. Hence both outside AR.
    obs::AttackerRegion ar;
    EXPECT_NE(s.bv(model, "x0_1"), s.bv(model, "x0_2"));
    EXPECT_FALSE(ar.contains(s.bv(model, "x0_1")));
    EXPECT_FALSE(ar.contains(s.bv(model, "x0_2")));
}

TEST(Relation, LineCoverageConstraintPinsSetIndex)
{
    Synth s("ldr x2, [x0]\nret\n", obs::ModelKind::Mpart,
            obs::ModelKind::MpartRefined);
    Rng rng(3);
    auto cov = s.rel->lineCoverageConstraint(s.rel->pairs()[0], rng);
    ASSERT_TRUE(cov.has_value());
    EXPECT_GE(cov->class1, 0); // the load's class id is reported back
    Expr f = s.ctx.land(s.rel->formulaFor(s.rel->pairs()[0]),
                        cov->constraint);
    smt::SmtSolver solver(s.ctx, f);
    // The sampled class may contradict the relation (e.g. both pinned
    // inside AR with different addresses); retry a few draws.
    smt::Outcome o = solver.solve();
    int tries = 0;
    while (o != smt::Outcome::Sat && tries < 10) {
        auto cov2 = s.rel->lineCoverageConstraint(s.rel->pairs()[0], rng);
        smt::SmtSolver s2(s.ctx,
                          s.ctx.land(s.rel->formulaFor(s.rel->pairs()[0]),
                                     cov2->constraint));
        o = s2.solve();
        ++tries;
    }
    EXPECT_EQ(o, smt::Outcome::Sat);
}

TEST(Relation, LineCoverageConstraintForPinsChosenClass)
{
    // The explicit-class overload pins exactly the class the adaptive
    // scheduler asked for: the solved model's first access falls into
    // that set index.
    Synth s("ldr x2, [x0]\nret\n", obs::ModelKind::Mpart,
            obs::ModelKind::MpartRefined);
    obs::CacheGeometry geom;
    auto cov =
        s.rel->lineCoverageConstraintFor(s.rel->pairs()[0], 5, 5);
    ASSERT_TRUE(cov.has_value());
    EXPECT_EQ(cov->class1, 5);
    smt::SmtSolver solver(
        s.ctx, s.ctx.land(s.rel->formulaFor(s.rel->pairs()[0]),
                          cov->constraint));
    ASSERT_EQ(solver.solve(), smt::Outcome::Sat);
    auto model = solver.model();
    EXPECT_EQ(geom.setOf(s.bv(model, "x0_1")), 5u);
}

TEST(Relation, NoMemoryAccessNoLineCoverage)
{
    Synth s("add x1, x0, #8\nret\n", obs::ModelKind::Mct);
    Rng rng(4);
    EXPECT_FALSE(
        s.rel->lineCoverageConstraint(s.rel->pairs()[0], rng).has_value());
}

TEST(Relation, TrainingFormulaTakesOtherPath)
{
    Synth s("b.ne x1, x4, end\nldr x6, [x5, x2]\nend: ret\n",
            obs::ModelKind::Mct);
    for (const auto &pair : s.rel->pairs()) {
        const auto &tested = s.rel->paths1()[pair.idx1];
        auto f = RelationSynthesizer::trainingFormula(
            s.ctx, s.trainingPaths, tested, RelationConfig{});
        ASSERT_TRUE(f.has_value());
        smt::SmtSolver solver(s.ctx, *f);
        ASSERT_EQ(solver.solve(), smt::Outcome::Sat);
        auto model = solver.model();
        // The training state must take the opposite branch direction:
        // tested taken (x1 != x4) => training has x1 == x4.
        if (tested.decisions[0])
            EXPECT_EQ(s.bv(model, "x1_t"), s.bv(model, "x4_t"));
        else
            EXPECT_NE(s.bv(model, "x1_t"), s.bv(model, "x4_t"));
    }
}

TEST(Relation, TrainingFormulaNoneForStraightLine)
{
    Synth s("ldr x2, [x0]\nret\n", obs::ModelKind::Mct);
    auto f = RelationSynthesizer::trainingFormula(
        s.ctx, s.trainingPaths, s.rel->paths1()[0], RelationConfig{});
    EXPECT_FALSE(f.has_value());
}

TEST(Relation, FullEquivalenceRelationEvaluates)
{
    Synth s("b.lt x0, x1, end\nldr x2, [x0]\nend: ret\n",
            obs::ModelKind::Mct);
    Expr full = fullEquivalenceRelation(s.ctx, s.rel->paths1(),
                                        s.rel->paths2());
    // Two identical states are always related.
    expr::Assignment a;
    for (const char *r : {"x0", "x1", "x2"}) {
        a.setBv(s.ctx.bvVar(std::string(r) + "_1"), 7);
        a.setBv(s.ctx.bvVar(std::string(r) + "_2"), 7);
    }
    EXPECT_TRUE(expr::evalBool(full, a));
    // States on different paths are not related (different obs).
    a.setBv(s.ctx.bvVar("x1_2"), 0xFFFF);
    a.setBv(s.ctx.bvVar("x0_2"), 0xFFFFFF); // x0 >= x1+...: not taken for s2
    EXPECT_FALSE(expr::evalBool(full, a));
}

TEST(Relation, Mspec1RefinedByMspecOnIndependentLoads)
{
    // Template-B shape: two independent body loads.  Validating
    // Mspec1 against Mspec must require the *second* transient load
    // to differ while the first stays equal.
    Synth s("b.ne x1, x4, end\n"
            "ldr x6, [x5, x3]\n"
            "ldr x8, [x7, x2]\n"
            "end: ret\n",
            obs::ModelKind::Mspec1, obs::ModelKind::Mspec, true);
    bool checked = false;
    for (const auto &pair : s.rel->pairs()) {
        const auto &path = s.rel->paths1()[pair.idx1];
        if (path.transientLoadAddrs.size() < 2)
            continue;
        checked = true;
        Expr f = s.rel->formulaFor(pair);
        smt::SmtSolver solver(s.ctx, f);
        ASSERT_EQ(solver.solve(), smt::Outcome::Sat);
        auto model = solver.model();
        // First transient load equal across states.
        EXPECT_EQ(s.bv(model, "x5_1") + s.bv(model, "x3_1"),
                  s.bv(model, "x5_2") + s.bv(model, "x3_2"));
        // Second transient load differs.
        EXPECT_NE(s.bv(model, "x7_1") + s.bv(model, "x2_1"),
                  s.bv(model, "x7_2") + s.bv(model, "x2_2"));
    }
    EXPECT_TRUE(checked);
}

} // namespace
} // namespace scamv::rel
