/** @file Unit tests for the Cortex-A53-like core model. */

#include <gtest/gtest.h>

#include <optional>

#include "bir/asm.hh"
#include "harness/platform.hh"
#include "hw/core.hh"
#include "support/metrics.hh"

namespace scamv::hw {
namespace {

bir::Program
prog(const char *src)
{
    auto r = bir::assemble(src);
    EXPECT_TRUE(r.ok()) << r.error;
    return r.program;
}

ArchState
state(std::initializer_list<std::pair<int, std::uint64_t>> regs)
{
    ArchState s;
    for (auto [r, v] : regs)
        s.regs[r] = v;
    return s;
}

TEST(Core, AluAndMovSemantics)
{
    Core core;
    auto r = core.run(prog("mov x1, #6\n"
                           "mov x2, #7\n"
                           "mul x3, x1, x2\n"
                           "add x4, x3, #1\n"
                           "sub x5, x4, x1\n"
                           "eor x6, x5, x5\n"
                           "lsl x7, x1, #4\n"
                           "ret\n"),
                      ArchState{});
    EXPECT_EQ(r.finalState.regs[3], 42u);
    EXPECT_EQ(r.finalState.regs[4], 43u);
    EXPECT_EQ(r.finalState.regs[5], 37u);
    EXPECT_EQ(r.finalState.regs[6], 0u);
    EXPECT_EQ(r.finalState.regs[7], 96u);
    EXPECT_EQ(r.instructions, 8u);
}

TEST(Core, LoadStoreRoundTrip)
{
    Core core;
    auto r = core.run(prog("mov x0, #0x80000\n"
                           "mov x1, #99\n"
                           "str x1, [x0]\n"
                           "ldr x2, [x0]\n"
                           "ret\n"),
                      ArchState{});
    EXPECT_EQ(r.finalState.regs[2], 99u);
    EXPECT_TRUE(core.cache().probe(0x80000));
}

TEST(Core, UnwrittenMemoryIsDeterministicJunk)
{
    Core a(CoreConfig{}, 1), b(CoreConfig{}, 1), c(CoreConfig{}, 2);
    auto p = prog("mov x0, #0x80000\nldr x1, [x0]\nret\n");
    const std::uint64_t v1 = a.run(p, ArchState{}).finalState.regs[1];
    const std::uint64_t v2 = b.run(p, ArchState{}).finalState.regs[1];
    const std::uint64_t v3 = c.run(p, ArchState{}).finalState.regs[1];
    EXPECT_EQ(v1, v2); // same board seed
    EXPECT_NE(v1, v3); // different board
    EXPECT_NE(v1, 0u); // junk, not zero
}

TEST(Core, BranchDirectionsBothWork)
{
    auto p = prog("b.lt x0, x1, end\nmov x2, #1\nend: ret\n");
    Core core;
    auto taken = core.run(p, state({{0, 1}, {1, 5}}));
    EXPECT_EQ(taken.finalState.regs[2], 0u);
    auto not_taken = core.run(p, state({{0, 5}, {1, 1}}));
    EXPECT_EQ(not_taken.finalState.regs[2], 1u);
}

TEST(Core, SignedVsUnsignedBranches)
{
    auto p = prog("b.ltu x0, x1, end\nmov x2, #1\nend: ret\n");
    Core core;
    // -1 unsigned is max: not below 5.
    auto r = core.run(p, state({{0, ~0ULL}, {1, 5}}));
    EXPECT_EQ(r.finalState.regs[2], 1u);
    auto p2 = prog("b.lt x0, x1, end\nmov x2, #1\nend: ret\n");
    auto r2 = core.run(p2, state({{0, ~0ULL}, {1, 5}}));
    EXPECT_EQ(r2.finalState.regs[2], 0u); // signed: -1 < 5, taken
}

TEST(Core, JumpSkipsDeadCode)
{
    Core core;
    auto r = core.run(prog("b end\nmov x1, #1\nend: ret\n"),
                      ArchState{});
    EXPECT_EQ(r.finalState.regs[1], 0u);
}

TEST(Core, CyclesGrowWithMisses)
{
    Core core;
    auto p = prog("mov x0, #0x80000\nldr x1, [x0]\nldr x2, [x0]\nret\n");
    auto r = core.run(p, ArchState{});
    // One miss (150) + one hit (4) + ALU-ish costs.
    EXPECT_GT(r.cycles, core.config().missLatency);
    EXPECT_LT(r.cycles, 2 * core.config().missLatency);
}

TEST(Core, MispredictTriggersTransientExecution)
{
    // Train not-taken, then run taken: the wrong path (fall-through)
    // is executed transiently and its load fills the cache.
    auto p = prog("b.eq x0, x1, end\n"
                  "ldr x2, [x3]\n"
                  "end: ret\n");
    Core core;
    // Train: x0 != x1 -> fall-through (not taken).
    for (int i = 0; i < 4; ++i)
        core.run(p, state({{0, 1}, {1, 2}, {3, 0x90000}}));
    core.cache().reset();
    // Measured run: x0 == x1 -> taken, but predicted not-taken.
    auto r = core.run(p, state({{0, 5}, {1, 5}, {3, 0x90000}}));
    EXPECT_EQ(r.mispredicts, 1u);
    EXPECT_EQ(r.transientLoadsIssued, 1u);
    EXPECT_TRUE(core.cache().probe(0x90000)); // SiSCloak footprint
    // Architectural state untouched by the squashed load.
    EXPECT_EQ(r.finalState.regs[2], 0u);
}

TEST(Core, NoMispredictNoTransientExecution)
{
    auto p = prog("b.eq x0, x1, end\n"
                  "ldr x2, [x3]\n"
                  "end: ret\n");
    Core core;
    // Train taken.
    for (int i = 0; i < 4; ++i)
        core.run(p, state({{0, 5}, {1, 5}, {3, 0x90000}}));
    core.cache().reset();
    auto r = core.run(p, state({{0, 7}, {1, 7}, {3, 0x90000}}));
    EXPECT_EQ(r.mispredicts, 0u);
    EXPECT_EQ(r.transientLoadsIssued, 0u);
    EXPECT_FALSE(core.cache().probe(0x90000));
}

TEST(Core, DependentTransientLoadBlocked)
{
    // The A53 rule (Section 6.4): a transient load whose address
    // depends on a transient result does not issue.
    auto p = prog("b.eq x0, x1, end\n"
                  "ldr x2, [x3]\n"
                  "ldr x4, [x2]\n" // depends on transient x2
                  "end: ret\n");
    Core core;
    for (int i = 0; i < 4; ++i)
        core.run(p, state({{0, 1}, {1, 2}, {3, 0x90000}}));
    core.cache().reset();
    auto r = core.run(p, state({{0, 5}, {1, 5}, {3, 0x90000}}));
    EXPECT_EQ(r.mispredicts, 1u);
    EXPECT_EQ(r.transientLoadsIssued, 1u);
    EXPECT_EQ(r.transientLoadsBlocked, 1u);
}

TEST(Core, IndependentTransientLoadsBothIssue)
{
    auto p = prog("b.eq x0, x1, end\n"
                  "ldr x2, [x3]\n"
                  "ldr x4, [x5]\n" // independent
                  "end: ret\n");
    Core core;
    for (int i = 0; i < 4; ++i)
        core.run(p, state({{0, 1}, {1, 2}, {3, 0x90000}, {5, 0xa0000}}));
    core.cache().reset();
    auto r = core.run(p,
                      state({{0, 5}, {1, 5}, {3, 0x90000}, {5, 0xa0000}}));
    EXPECT_EQ(r.transientLoadsIssued, 2u);
    EXPECT_TRUE(core.cache().probe(0x90000));
    EXPECT_TRUE(core.cache().probe(0xa0000));
}

TEST(Core, TransientAluResultBlocksConsumer)
{
    // Arithmetic between the loads keeps the dependency (Template C).
    auto p = prog("b.eq x0, x1, end\n"
                  "ldr x2, [x3]\n"
                  "add x2, x2, #64\n"
                  "ldr x4, [x2]\n"
                  "end: ret\n");
    Core core;
    for (int i = 0; i < 4; ++i)
        core.run(p, state({{0, 1}, {1, 2}, {3, 0x90000}}));
    core.cache().reset();
    auto r = core.run(p, state({{0, 5}, {1, 5}, {3, 0x90000}}));
    EXPECT_EQ(r.transientLoadsIssued, 1u);
    EXPECT_EQ(r.transientLoadsBlocked, 1u);
}

TEST(Core, ForwardingAblationAllowsDependentLoads)
{
    CoreConfig cfg;
    cfg.forwardTransientResults = true; // OoO-style core
    auto p = prog("b.eq x0, x1, end\n"
                  "ldr x2, [x3]\n"
                  "ldr x4, [x2]\n"
                  "end: ret\n");
    Core core(cfg);
    for (int i = 0; i < 4; ++i)
        core.run(p, state({{0, 1}, {1, 2}, {3, 0x90000}}));
    core.cache().reset();
    core.memory().store(0x90000, 0xa0000); // pointer to follow
    auto r = core.run(p, state({{0, 5}, {1, 5}, {3, 0x90000}}));
    EXPECT_EQ(r.transientLoadsIssued, 2u);
    EXPECT_TRUE(core.cache().probe(0xa0000)); // Spectre-PHT leak
}

TEST(Core, TransientWindowBounds)
{
    CoreConfig cfg;
    cfg.transientWindow = 2;
    auto p = prog("b.eq x0, x1, end\n"
                  "ldr x2, [x3]\n"
                  "ldr x4, [x5]\n"
                  "ldr x6, [x7]\n"
                  "end: ret\n");
    Core core(cfg);
    for (int i = 0; i < 4; ++i)
        core.run(p, state({{0, 1}, {1, 2}, {3, 0x90000}, {5, 0xa0000},
                           {7, 0xb0000}}));
    core.cache().reset();
    auto r = core.run(p, state({{0, 5}, {1, 5}, {3, 0x90000},
                                {5, 0xa0000}, {7, 0xb0000}}));
    EXPECT_EQ(r.transientLoadsIssued, 2u); // third is past the window
    EXPECT_FALSE(core.cache().probe(0xb0000));
}

TEST(Core, TransientStoresHaveNoEffect)
{
    auto p = prog("b.eq x0, x1, end\n"
                  "str x2, [x3]\n"
                  "end: ret\n");
    Core core;
    // Training takes the fall-through path, whose store executes
    // architecturally — point it at a different address.
    for (int i = 0; i < 4; ++i)
        core.run(p, state({{0, 1}, {1, 2}, {2, 55}, {3, 0xa0000}}));
    core.cache().reset();
    core.run(p, state({{0, 5}, {1, 5}, {2, 55}, {3, 0x90000}}));
    EXPECT_FALSE(core.cache().probe(0x90000));
    EXPECT_NE(core.memory().load(0x90000), 55u);
}

TEST(Core, NoStraightLineSpeculationByDefault)
{
    auto p = prog("b end\nldr x1, [x2]\nend: ret\n");
    Core core;
    auto r = core.run(p, state({{2, 0x90000}}));
    EXPECT_EQ(r.transientLoadsIssued, 0u);
    EXPECT_FALSE(core.cache().probe(0x90000));
}

TEST(Core, StraightLineSpeculationAblation)
{
    CoreConfig cfg;
    cfg.straightLineSpeculation = true;
    auto p = prog("b end\nldr x1, [x2]\nend: ret\n");
    Core core(cfg);
    auto r = core.run(p, state({{2, 0x90000}}));
    EXPECT_EQ(r.transientLoadsIssued, 1u);
    EXPECT_TRUE(core.cache().probe(0x90000));
}

TEST(Core, TransientWindowStopsAtControlFlow)
{
    // Wrong path contains a branch: speculation stops there.
    auto p = prog("b.eq x0, x1, end\n"
                  "ldr x2, [x3]\n"
                  "b.eq x2, #0, end\n"
                  "ldr x4, [x5]\n"
                  "end: ret\n");
    Core core;
    for (int i = 0; i < 4; ++i)
        core.run(p, state({{0, 1}, {1, 2}, {3, 0x90000}, {5, 0xa0000}}));
    core.cache().reset();
    auto r = core.run(p,
                      state({{0, 5}, {1, 5}, {3, 0x90000}, {5, 0xa0000}}));
    EXPECT_EQ(r.transientLoadsIssued, 1u);
    EXPECT_FALSE(core.cache().probe(0xa0000));
}

TEST(Core, TransientMarkedInstructionsSkippedArchitecturally)
{
    // A program containing shadow statements (as produced by the
    // instrumentation) must behave as if they were absent.
    bir::Program p = prog("mov x1, #5\n"
                          "@t mov x1, #99\n"
                          "ret\n");
    Core core;
    auto r = core.run(p, ArchState{});
    EXPECT_EQ(r.finalState.regs[1], 5u);
    EXPECT_EQ(r.instructions, 2u);
}

TEST(Core, TimedLoadDistinguishesHitMiss)
{
    Core core;
    const std::uint64_t miss = core.timedLoad(0x80000);
    const std::uint64_t hit = core.timedLoad(0x80000);
    EXPECT_EQ(miss, core.config().missLatency);
    EXPECT_EQ(hit, core.config().hitLatency);
}

TEST(Core, LoadsTrainThePrefetcher)
{
    Core core;
    auto p = prog("ldr x1, [x0]\n"
                  "ldr x2, [x0, #64]\n"
                  "ldr x3, [x0, #128]\n"
                  "ret\n");
    auto r = core.run(p, state({{0, 0x80000}}));
    EXPECT_EQ(r.prefetches, 1u);
    EXPECT_TRUE(core.cache().probe(0x80000 + 192));
}

// ---- Counter handles and validation ---------------------------------

std::uint64_t
runs(const metrics::Registry &reg)
{
    const auto snap = reg.snapshot();
    auto it = snap.counters.find("hw.runs");
    return it == snap.counters.end() ? 0 : it->second;
}

TEST(CoreCounters, RegistryReplacedInTheSameSlotGetsItsOwnCounts)
{
    // One storage slot, three registries: the core's cached counter
    // handles must follow the live one, never write to a destroyed
    // one (ASan builds catch a dangling handle here).
    Core core;
    const bir::Program p = prog("ldr x1, [x0]\nret\n");
    std::optional<metrics::Registry> slot;
    for (std::uint64_t round = 1; round <= 3; ++round) {
        slot.emplace();
        {
            metrics::ScopedRegistry scope(*slot);
            for (std::uint64_t i = 0; i < round; ++i)
                core.run(p, state({{0, 0x80000}}));
        }
        EXPECT_EQ(runs(*slot), round);
        EXPECT_EQ(slot->snapshot().counters.at("hw.instructions"),
                  2 * round);
        slot.reset();
    }
}

TEST(CoreCounters, RegistryResetDropsCachedHandles)
{
    Core core;
    const bir::Program p = prog("ldr x1, [x0]\nret\n");
    metrics::Registry reg;
    metrics::ScopedRegistry scope(reg);
    core.run(p, state({{0, 0x80000}}));
    const std::uint64_t epoch = reg.epoch();
    reg.reset();
    EXPECT_NE(reg.epoch(), epoch);
    core.run(p, state({{0, 0x80000}}));
    core.run(p, state({{0, 0x80000}}));
    EXPECT_EQ(runs(reg), 2u);
}

TEST(CoreCounters, NestedScopesCountIntoTheInnermost)
{
    Core core;
    const bir::Program p = prog("ret\n");
    metrics::Registry outer, inner;
    metrics::ScopedRegistry s1(outer);
    core.run(p, state({}));
    {
        metrics::ScopedRegistry s2(inner);
        core.run(p, state({}));
        core.run(p, state({}));
    }
    core.run(p, state({}));
    EXPECT_EQ(runs(outer), 2u);
    EXPECT_EQ(runs(inner), 2u);
}

/** A program whose second instruction reads register 99. */
bir::Program
invalidProgram()
{
    bir::Program p;
    p.push(bir::Instr::movImm(1, 5));
    p.push(bir::Instr::alu(bir::AluOp::Add, 2, 99, 1));
    p.push(bir::Instr::halt());
    return p;
}

TEST(CoreValidationDeathTest, EveryEntryPointRejectsAnInvalidProgram)
{
    const bir::Program bad = invalidProgram();
    ASSERT_EQ(bad.validate(), "instr 1: source register out of range");
    Core core;
    EXPECT_DEATH(core.run(bad, state({})), "invalid program");
    harness::Platform platform(harness::PlatformConfig{});
    harness::TestCase tc;
    EXPECT_DEATH(platform.runExperiment(bad, tc), "invalid program");
    EXPECT_DEATH(platform.measureOnce(bad, tc.s1), "invalid program");
    harness::PlatformConfig probing;
    probing.channel = harness::Channel::PrimeProbe;
    harness::Platform prober(probing);
    EXPECT_DEATH(prober.probeOnce(bad, tc.s1), "invalid program");
}

} // namespace
} // namespace scamv::hw
