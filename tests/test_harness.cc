/** @file Unit tests for the experiment platform and Flush+Reload. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "bir/asm.hh"
#include "core/expdb.hh"
#include "harness/flush_reload.hh"
#include "harness/platform.hh"

namespace scamv::harness {
namespace {

bir::Program
prog(const char *src)
{
    auto r = bir::assemble(src);
    EXPECT_TRUE(r.ok()) << r.error;
    return r.program;
}

ProgramInput
input(std::initializer_list<std::pair<int, std::uint64_t>> regs,
      MemInit mem = {})
{
    ProgramInput in;
    for (auto [r, v] : regs)
        in.regs.regs[r] = v;
    in.mem = std::move(mem);
    return in;
}

TEST(Platform, IdenticalStatesIndistinguishable)
{
    Platform platform(PlatformConfig{});
    auto p = prog("ldr x1, [x0]\nret\n");
    TestCase tc;
    tc.s1 = input({{0, 0x80000}});
    tc.s2 = input({{0, 0x80000}});
    auto r = platform.runExperiment(p, tc);
    EXPECT_EQ(r.verdict, Verdict::Indistinguishable);
    EXPECT_EQ(r.differingReps, 0);
    EXPECT_EQ(r.totalReps, 10);
}

TEST(Platform, DifferentLinesDistinguishable)
{
    Platform platform(PlatformConfig{});
    auto p = prog("ldr x1, [x0]\nret\n");
    TestCase tc;
    tc.s1 = input({{0, 0x80000}});
    tc.s2 = input({{0, 0x80000 + 64}});
    auto r = platform.runExperiment(p, tc);
    EXPECT_EQ(r.verdict, Verdict::Counterexample);
    EXPECT_EQ(r.differingReps, r.totalReps);
}

TEST(Platform, VisibleRangeRestrictsObservation)
{
    PlatformConfig cfg;
    cfg.visibleLoSet = 61;
    cfg.visibleHiSet = 127;
    Platform platform(cfg);
    auto p = prog("ldr x1, [x0]\nret\n");
    TestCase tc;
    // Both addresses map to sets < 61: invisible to the attacker.
    tc.s1 = input({{0, 0x80000}});
    tc.s2 = input({{0, 0x80000 + 10 * 64}});
    EXPECT_EQ(platform.runExperiment(p, tc).verdict,
              Verdict::Indistinguishable);
    // Addresses in the visible range are distinguishable.
    tc.s1 = input({{0, 0x80000 + 70 * 64}});
    tc.s2 = input({{0, 0x80000 + 80 * 64}});
    EXPECT_EQ(platform.runExperiment(p, tc).verdict,
              Verdict::Counterexample);
}

TEST(Platform, MemoryInitializationApplied)
{
    Platform platform(PlatformConfig{});
    // Pointer chase: the loaded value is the next address.
    auto p = prog("ldr x1, [x0]\nldr x2, [x1]\nret\n");
    TestCase tc;
    tc.s1 = input({{0, 0x80000}}, {{0x80000, 0x90000}});
    tc.s2 = input({{0, 0x80000}}, {{0x80000, 0xa0000}});
    EXPECT_EQ(platform.runExperiment(p, tc).verdict,
              Verdict::Counterexample);
    // Same pointer: indistinguishable.
    tc.s2 = input({{0, 0x80000}}, {{0x80000, 0x90000}});
    EXPECT_EQ(platform.runExperiment(p, tc).verdict,
              Verdict::Indistinguishable);
}

TEST(Platform, PrefetchSpillDetectedAcrossColourBoundary)
{
    // The Mpart counterexample end-to-end: strides outside AR whose
    // prefetch lands inside AR for s1 but not for s2.
    PlatformConfig cfg;
    cfg.visibleLoSet = 61;
    cfg.visibleHiSet = 127;
    Platform platform(cfg);
    auto p = prog("ldr x1, [x0]\n"
                  "ldr x2, [x0, #64]\n"
                  "ldr x3, [x0, #128]\n"
                  "ret\n");
    TestCase tc;
    // s1 strides sets 58,59,60 -> prefetch 61 (visible!).
    tc.s1 = input({{0, 0x80000 + 58 * 64}});
    // s2 strides sets 10,11,12 -> prefetch 13 (invisible).
    tc.s2 = input({{0, 0x80000 + 10 * 64}});
    EXPECT_EQ(platform.runExperiment(p, tc).verdict,
              Verdict::Counterexample);
}

TEST(Platform, TrainingEnablesSpeculativeDistinction)
{
    // SiSCloak end-to-end: architecturally equivalent states that
    // differ only in the speculatively accessed address.
    Platform platform(PlatformConfig{});
    auto p = prog("ldr x2, [x0, x1]\n"
                  "b.ne x1, x4, end\n"
                  "ldr x6, [x5, x2]\n"
                  "end: ret\n");
    TestCase tc;
    // Branch taken in both states (x1 != x4): body only speculated.
    // mem[x0+x1] differs: transient load address differs.
    tc.s1 = input({{0, 0x80000}, {1, 8}, {4, 99}, {5, 0}},
                  {{0x80008, 0x90000}});
    tc.s2 = input({{0, 0x80000}, {1, 8}, {4, 99}, {5, 0}},
                  {{0x80008, 0xa0000}});
    // Training input takes the fall-through (x1 == x4).
    ProgramInput train = input({{0, 0x80000}, {1, 8}, {4, 8}, {5, 0}},
                               {{0x80008, 0x88000}});
    auto with_training = platform.runExperiment(p, tc, train);
    EXPECT_EQ(with_training.verdict, Verdict::Counterexample);
    // Without training the branch is predicted correctly (not-taken
    // initial counters never predict taken) — no transient leak.
    auto without = platform.runExperiment(p, tc);
    EXPECT_EQ(without.verdict, Verdict::Indistinguishable);
}

TEST(Platform, NoiseProducesInconclusives)
{
    PlatformConfig cfg;
    cfg.noiseProbability = 0.5; // heavy interference
    Platform platform(cfg, 7);
    auto p = prog("ldr x1, [x0]\nret\n");
    TestCase tc;
    tc.s1 = input({{0, 0x80000}});
    tc.s2 = input({{0, 0x80000}});
    int inconclusive = 0;
    for (int i = 0; i < 20; ++i) {
        auto r = platform.runExperiment(p, tc);
        inconclusive += r.verdict == Verdict::Inconclusive;
    }
    EXPECT_GT(inconclusive, 0);
}

TEST(Platform, NoNoiseNoInconclusives)
{
    Platform platform(PlatformConfig{});
    auto p = prog("ldr x1, [x0]\nret\n");
    TestCase tc;
    tc.s1 = input({{0, 0x80000}});
    tc.s2 = input({{0, 0x81000}});
    for (int i = 0; i < 5; ++i)
        EXPECT_NE(platform.runExperiment(p, tc).verdict,
                  Verdict::Inconclusive);
}

TEST(Platform, InputFromAssignmentExtractsState)
{
    expr::ExprContext ctx;
    expr::Assignment a;
    a.setBv(ctx.bvVar("x0_1"), 123);
    a.setBv(ctx.bvVar("x5_1"), 456);
    a.setBv(ctx.bvVar("x0_2"), 789); // other state, ignored for suffix _1
    a.memOf(ctx.memVar("mem_1")).storeWord(0x1000, 42);
    auto in = inputFromAssignment(a, stateVars(ctx, "_1"));
    EXPECT_EQ(in.regs.regs[0], 123u);
    EXPECT_EQ(in.regs.regs[5], 456u);
    EXPECT_EQ(in.regs.regs[7], 0u);
    ASSERT_EQ(in.mem.size(), 1u);
    EXPECT_EQ(in.mem[0].first, 0x1000u);
    EXPECT_EQ(in.mem[0].second, 42u);
}

TEST(Platform, StateVarsResolveWithoutInterning)
{
    // A new node would shift creation ids, and with them operand
    // order and SAT variable order: resolving never interns.
    expr::ExprContext ctx;
    const expr::Expr x3 = ctx.bvVar("x3_1");
    const expr::Expr mem = ctx.memVar("mem_1");
    const std::size_t nodes = ctx.size();
    const StateVars s1 = stateVars(ctx, "_1");
    const StateVars s2 = stateVars(ctx, "_2");
    const StateVars st = stateVars(ctx, "_t");
    EXPECT_EQ(ctx.size(), nodes);
    EXPECT_EQ(s1.regs[3], x3);
    EXPECT_EQ(s1.mem, mem);
    EXPECT_EQ(s1.regs[0], nullptr);
    EXPECT_EQ(s2.mem, nullptr);
    EXPECT_EQ(st.regs[3], nullptr);

    // An unresolved state reads as all-zero registers, no memory.
    expr::Assignment a;
    a.setBv(x3, 9);
    EXPECT_EQ(inputFromAssignment(a, s1).regs.regs[3], 9u);
    EXPECT_EQ(inputFromAssignment(a, s2), ProgramInput{});
    EXPECT_EQ(ctx.size(), nodes);
}

/** @return the bytes ExperimentDb::exportCsv writes for one record
 *  holding `model`'s test case. */
std::string
csvOf(const expr::ExprContext &ctx, const expr::Assignment &model,
      const std::string &path)
{
    core::ExperimentRecord r;
    r.programName = "p";
    r.testCase.s1 = inputFromAssignment(model, stateVars(ctx, "_1"));
    r.testCase.s2 = inputFromAssignment(model, stateVars(ctx, "_2"));
    core::ExperimentDb db;
    db.add(r);
    EXPECT_TRUE(db.exportCsv(path));
    std::ifstream f(path);
    std::stringstream bytes;
    bytes << f.rdbuf();
    std::remove(path.c_str());
    return bytes.str();
}

TEST(Platform, InputFromAssignmentSortsMemoryByAddress)
{
    // The same words in both memories of two models, inserted in
    // opposite orders; model b's maps are also pushed past a rehash
    // first, so the two models' maps iterate in different orders.
    expr::ExprContext ctx;
    const MemInit words = {{0, 0}, {304, 1}, {216, 2}, {112, 1}, {296, 2}};
    expr::Assignment a, b;
    for (const char *name : {"mem_1", "mem_2"}) {
        for (const auto &[addr, v] : words)
            a.memOf(ctx.memVar(name)).storeWord(addr, v);
        expr::ConcreteMemory &mem = b.memOf(ctx.memVar(name));
        for (std::uint64_t i = 1; i <= 64; ++i)
            mem.storeWord(8 * i + 1, 0);
        for (std::uint64_t i = 1; i <= 64; ++i)
            mem.erase(8 * i + 1);
        for (auto w = words.rbegin(); w != words.rend(); ++w)
            mem.storeWord(w->first, w->second);
    }

    const MemInit ascending = {
        {0, 0}, {112, 1}, {216, 2}, {296, 2}, {304, 1}};
    for (const char *suffix : {"_1", "_2"}) {
        const StateVars vars = stateVars(ctx, suffix);
        EXPECT_EQ(inputFromAssignment(a, vars).mem, ascending);
        EXPECT_EQ(inputFromAssignment(b, vars).mem, ascending);
    }
    const std::string dir = ::testing::TempDir();
    EXPECT_EQ(csvOf(ctx, a, dir + "scamv_sorted_mem_a.csv"),
              csvOf(ctx, b, dir + "scamv_sorted_mem_b.csv"));
}

TEST(FlushReload, RecoversVictimAccess)
{
    hw::Core core;
    const std::uint64_t array_b = 0x90000;
    FlushReloadAttacker attacker(array_b, 16);
    attacker.flush(core);
    // Victim touches line 5 of the monitored array.
    core.cache().access(array_b + 5 * 64);
    auto hot = attacker.hotLines(core);
    ASSERT_EQ(hot.size(), 1u);
    EXPECT_EQ(hot[0], 5);
}

TEST(FlushReload, NoAccessNoHotLines)
{
    hw::Core core;
    FlushReloadAttacker attacker(0x90000, 8);
    attacker.flush(core);
    EXPECT_TRUE(attacker.hotLines(core).empty());
}

TEST(FlushReload, ReloadLatenciesSplitAroundThreshold)
{
    hw::Core core;
    FlushReloadAttacker attacker(0x90000, 4);
    attacker.flush(core);
    core.cache().access(0x90000);
    auto lat = attacker.reload(core);
    ASSERT_EQ(lat.size(), 4u);
    EXPECT_EQ(lat[0], core.config().hitLatency);
    for (int i = 1; i < 4; ++i)
        EXPECT_EQ(lat[i], core.config().missLatency);
}

} // namespace
} // namespace scamv::harness
