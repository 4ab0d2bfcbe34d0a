/** @file Unit tests for the symbolic execution engine. */

#include <gtest/gtest.h>

#include <set>

#include "bir/asm.hh"
#include "bir/transform.hh"
#include "expr/eval.hh"
#include "obs/models.hh"
#include "sym/symexec.hh"

namespace scamv::sym {
namespace {

using bir::assemble;
using expr::ExprContext;

bir::Program
prog(const char *src)
{
    auto r = assemble(src);
    EXPECT_TRUE(r.ok()) << r.error;
    return r.program;
}

class SymTest : public ::testing::Test
{
  protected:
    ExprContext ctx;
    SymNames names{"_1"};

    std::vector<PathResult>
    run(const char *src, obs::ModelKind model = obs::ModelKind::Mct)
    {
        auto annot = obs::makeModel(model);
        return execute(ctx, prog(src), *annot, names);
    }
};

TEST_F(SymTest, StraightLineSinglePath)
{
    auto paths = run("ldr x1, [x0]\nret\n");
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(paths[0].cond, ctx.tru());
    EXPECT_TRUE(paths[0].decisions.empty());
    EXPECT_EQ(paths[0].memAddrs.size(), 1u);
    EXPECT_EQ(paths[0].memAddrs[0], ctx.bvVar("x0_1"));
}

TEST_F(SymTest, BranchForksTwoPaths)
{
    auto paths = run("b.lt x0, x1, end\nldr x2, [x0]\nend: ret\n");
    ASSERT_EQ(paths.size(), 2u);
    // One path taken, one not.
    EXPECT_NE(paths[0].decisions[0], paths[1].decisions[0]);
    // The not-taken path performs the load.
    for (const auto &p : paths) {
        if (!p.decisions[0])
            EXPECT_EQ(p.memAddrs.size(), 1u);
        else
            EXPECT_TRUE(p.memAddrs.empty());
    }
}

TEST_F(SymTest, PathConditionsArePreciseAndDisjoint)
{
    auto paths = run("b.lt x0, x1, end\nldr x2, [x0]\nend: ret\n");
    expr::Assignment a;
    a.setBv(ctx.bvVar("x0_1"), 5);
    a.setBv(ctx.bvVar("x1_1"), 10); // x0 < x1 signed: taken
    int holds = 0;
    for (const auto &p : paths)
        holds += expr::evalBool(p.cond, a);
    EXPECT_EQ(holds, 1);
}

TEST_F(SymTest, TwoBranchesFourPathsWhenIndependent)
{
    auto paths = run("b.eq x0, x1, a\n"
                     "a: b.ne x2, x3, b\n"
                     "b: ret\n");
    EXPECT_EQ(paths.size(), 4u);
}

TEST_F(SymTest, RegisterDataFlow)
{
    auto paths = run("add x1, x0, #8\n"
                     "ldr x2, [x1]\n"
                     "ret\n");
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(paths[0].memAddrs[0],
              ctx.add(ctx.bvVar("x0_1"), ctx.bv(8)));
}

TEST_F(SymTest, LoadResultPropagatesToNextAddress)
{
    auto paths = run("ldr x1, [x0]\nldr x2, [x1]\nret\n");
    ASSERT_EQ(paths.size(), 1u);
    Expr first = ctx.read(ctx.memVar("mem_1"), ctx.bvVar("x0_1"));
    EXPECT_EQ(paths[0].memAddrs[1], first);
}

TEST_F(SymTest, StoreUpdatesSymbolicMemory)
{
    auto paths = run("str x1, [x0]\nldr x2, [x0]\nret\n");
    ASSERT_EQ(paths.size(), 1u);
    // Read-over-write resolves to the stored value: observation of the
    // second access is the address; check obs count instead.
    EXPECT_EQ(paths[0].memAddrs.size(), 2u);
}

TEST_F(SymTest, HaltStopsPath)
{
    auto paths = run("ret\nldr x1, [x0]\nret\n");
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_TRUE(paths[0].memAddrs.empty());
}

TEST_F(SymTest, JumpFollowsTarget)
{
    auto paths = run("b skip\nldr x1, [x0]\nskip: ret\n");
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_TRUE(paths[0].memAddrs.empty());
}

TEST_F(SymTest, ConstantBranchPrunesInfeasiblePath)
{
    auto paths = run("mov x0, #1\n"
                     "b.eq x0, #1, end\n"
                     "ldr x2, [x3]\n"
                     "end: ret\n");
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_TRUE(paths[0].decisions[0]);
}

TEST_F(SymTest, PathIdString)
{
    auto paths = run("b.eq x0, x1, a\n"
                     "a: b.ne x2, x3, b\n"
                     "b: ret\n");
    std::set<std::string> ids;
    for (const auto &p : paths)
        ids.insert(p.pathId());
    EXPECT_EQ(ids.size(), 4u);
    EXPECT_TRUE(ids.count("TT"));
    EXPECT_TRUE(ids.count("FF"));
}

TEST_F(SymTest, TransientShadowStateIsolated)
{
    // Instrument an if-body; the shadow load must use the *snapshot*
    // register values and must not corrupt the architectural path.
    bir::Program p = prog("b.ne x1, x4, end\n"
                          "ldr x6, [x5, x2]\n"
                          "end: ret\n");
    bir::Program inst = bir::instrumentSpeculation(p);
    auto annot = obs::makeModel(obs::ModelKind::Mspec);
    auto paths = execute(ctx, inst, *annot, names);
    ASSERT_EQ(paths.size(), 2u);
    for (const auto &path : paths) {
        if (path.decisions[0]) {
            // Taken (skip body): one transient load with the body's
            // address over pre-branch values.
            ASSERT_EQ(path.transientLoadAddrs.size(), 1u);
            EXPECT_EQ(path.transientLoadAddrs[0],
                      ctx.add(ctx.bvVar("x5_1"), ctx.bvVar("x2_1")));
            EXPECT_TRUE(path.memAddrs.empty());
        } else {
            // Fall-through executes the body architecturally; the
            // empty taken side contributes no transient loads.
            EXPECT_EQ(path.memAddrs.size(), 1u);
            EXPECT_TRUE(path.transientLoadAddrs.empty());
        }
    }
}

TEST_F(SymTest, TransientLoadOrdinalAndDependence)
{
    // Two dependent loads in the body: instrument and check the
    // second shadow load is flagged as depending on a transient load.
    bir::Program p = prog("b.ne x1, x4, end\n"
                          "ldr x6, [x5, x3]\n"
                          "ldr x8, [x7, x6]\n"
                          "end: ret\n");
    bir::Program inst = bir::instrumentSpeculation(p);

    struct Probe : Annotator {
        mutable std::vector<std::pair<int, bool>> loads;
        std::string name() const override { return "probe"; }
        void
        observe(expr::ExprContext &, const InstrContext &ic,
                std::vector<Obs> &) const override
        {
            if (ic.transient && ic.instr->kind == bir::InstrKind::Load)
                loads.emplace_back(ic.transientLoadOrdinal,
                                   ic.addrDependsOnTransientLoad);
        }
    } probe;
    auto paths = execute(ctx, inst, probe, names);
    ASSERT_EQ(paths.size(), 2u);
    ASSERT_EQ(probe.loads.size(), 2u);
    EXPECT_EQ(probe.loads[0], (std::pair<int, bool>{0, false}));
    EXPECT_EQ(probe.loads[1], (std::pair<int, bool>{1, true}));
}

TEST_F(SymTest, SuffixControlsVariableNames)
{
    SymNames other{"_2"};
    auto annot = obs::makeModel(obs::ModelKind::Mct);
    auto paths = execute(ctx, prog("ldr x1, [x0]\nret\n"), *annot, other);
    EXPECT_EQ(paths[0].memAddrs[0], ctx.bvVar("x0_2"));
}

TEST_F(SymTest, ProjectSplitsByTag)
{
    bir::Program p = prog("b.ne x1, x4, end\n"
                          "ldr x6, [x5, x2]\n"
                          "end: ret\n");
    bir::Program inst = bir::instrumentSpeculation(p);
    obs::RefinementPair pair(obs::makeModel(obs::ModelKind::Mct),
                             obs::makeModel(obs::ModelKind::Mspec));
    auto paths = execute(ctx, inst, pair, names);
    for (const auto &path : paths) {
        auto base = path.project(ObsTag::Base);
        auto refined = path.project(ObsTag::RefinedOnly);
        EXPECT_EQ(base.size() + refined.size(), path.obs.size());
        if (path.decisions[0]) {
            EXPECT_EQ(refined.size(), 1u); // the transient load
        }
    }
}

} // namespace
} // namespace scamv::sym
