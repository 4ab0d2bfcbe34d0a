/**
 * @file
 * Allocation gate for the per-experiment loop: once warmed up,
 * Platform::runExperiment (snapshot and Prime+Probe channels) and
 * expr::evalBool of a relation formula make no heap allocation.
 *
 * This binary replaces the global operator new/delete with counting
 * versions, so it is its own executable.  The counts are exact and
 * wall-clock free: a regression that reintroduces an allocation per
 * experiment fails here deterministically.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>

#include "bir/asm.hh"
#include "bir/transform.hh"
#include "harness/platform.hh"
#include "obs/models.hh"
#include "rel/relation.hh"
#include "smt/solver.hh"
#include "support/metrics.hh"
#include "sym/symexec.hh"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t n, std::size_t align)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (n == 0)
        n = 1;
    void *p = align > alignof(std::max_align_t)
                  ? std::aligned_alloc(align, (n + align - 1) / align * align)
                  : std::malloc(n);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n, 0); }
void *operator new[](std::size_t n) { return countedAlloc(n, 0); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n, 0);
    } catch (...) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n, 0);
    } catch (...) {
        return nullptr;
    }
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace scamv {
namespace {

constexpr int kCalls = 50;

/** @return heap allocations made by `fn()`. */
template <class Fn>
std::uint64_t
allocationsOf(Fn &&fn)
{
    const std::uint64_t before = g_allocs.load();
    fn();
    return g_allocs.load() - before;
}

bir::Program
prog(const char *src)
{
    auto r = bir::assemble(src);
    EXPECT_TRUE(r.ok()) << r.error;
    return r.program;
}

/** A branch guarding two dependent loads and a store: training,
 *  mispredicted transient loads and memory writes all happen. */
const char *const kVictim = "b.ge x0, x1, end\n"
                            "ldr x2, [x3, x0]\n"
                            "ldr x4, [x5, x2]\n"
                            "str x4, [x6]\n"
                            "end: ret\n";

harness::TestCase
testCase()
{
    harness::TestCase tc;
    tc.s1.regs.regs = {5, 4, 0, 0x80000, 0, 0x90000, 0xa0000};
    tc.s2 = tc.s1;
    tc.s2.regs.regs[0] = 64;
    tc.s1.mem = {{0x80000 + 5, 0x40}, {0x90040, 7}};
    tc.s2.mem = {{0x80000 + 64, 0x1c0}, {0x901c0, 9}};
    return tc;
}

void
expectAllocationFreeExperiments(harness::Channel channel)
{
    harness::PlatformConfig cfg;
    cfg.channel = channel;
    cfg.noiseProbability = 0.3; // exercises the stray-access replay
    harness::Platform platform(cfg, 7);
    const bir::Program p = prog(kVictim);
    const harness::TestCase tc = testCase();
    std::optional<harness::ProgramInput> training = tc.s1;
    training->regs.regs[0] = 1000;

    metrics::Registry reg;
    metrics::ScopedRegistry scope(reg);
    platform.runExperiment(p, tc, training); // warm-up
    platform.runExperiment(p, tc);
    EXPECT_EQ(allocationsOf([&] {
                  for (int i = 0; i < kCalls; ++i) {
                      platform.runExperiment(p, tc, training);
                      platform.runExperiment(p, tc);
                  }
              }),
              0u);
    EXPECT_EQ(reg.snapshot().counters.at("platform.experiments"),
              2u * (kCalls + 1));
}

TEST(Alloc, CountingAllocatorSeesAllocations)
{
    EXPECT_GE(allocationsOf([] {
                  std::vector<int> v(100);
                  EXPECT_EQ(v.size(), 100u);
              }),
              1u);
}

TEST(Alloc, SnapshotExperimentIsAllocationFree)
{
    expectAllocationFreeExperiments(harness::Channel::TrustZoneSnapshot);
}

TEST(Alloc, PrimeProbeExperimentIsAllocationFree)
{
    expectAllocationFreeExperiments(harness::Channel::PrimeProbe);
}

TEST(Alloc, RelationEvaluationIsAllocationFree)
{
    expr::ExprContext ctx;
    const bir::Program p = bir::instrumentSpeculation(prog(kVictim));
    const auto annot = obs::makeModel(obs::ModelKind::Mspec);
    auto p1 = sym::execute(ctx, p, *annot, {"_1"});
    auto p2 = sym::execute(ctx, p, *annot, {"_2"});
    rel::RelationSynthesizer relation(ctx, std::move(p1), std::move(p2),
                                      rel::RelationConfig{});
    ASSERT_FALSE(relation.pairs().empty());
    const expr::Expr formula = relation.formulaFor(relation.pairs()[0]);
    smt::SmtSolver solver(ctx, formula);
    ASSERT_EQ(solver.solve(-1), smt::Outcome::Sat);
    const expr::Assignment model = solver.model();

    ASSERT_TRUE(expr::evalBool(formula, model)); // warm-up
    bool all = true;
    EXPECT_EQ(allocationsOf([&] {
                  for (int i = 0; i < kCalls; ++i)
                      all = all && expr::evalBool(formula, model);
              }),
              0u);
    EXPECT_TRUE(all);
}

} // namespace
} // namespace scamv
