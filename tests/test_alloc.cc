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
#include "sat/solver.hh"
#include "smt/solver.hh"
#include "support/metrics.hh"
#include "support/rng.hh"
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

TEST(Alloc, SatClauseIntakeAllocatesOnlyAmortizedGrowth)
{
    sat::Solver s;
    constexpr int kVars = 200;
    for (int v = 0; v < kVars; ++v)
        s.newVar();
    // Drawn up front: three distinct variables per clause, so no
    // clause is tautological or shortened.
    Rng rng(11);
    std::vector<std::array<sat::Lit, 3>> cs(10000);
    for (auto &c : cs) {
        sat::Var v[3];
        v[0] = static_cast<sat::Var>(rng.below(kVars));
        do
            v[1] = static_cast<sat::Var>(rng.below(kVars));
        while (v[1] == v[0]);
        do
            v[2] = static_cast<sat::Var>(rng.below(kVars));
        while (v[2] == v[0] || v[2] == v[1]);
        for (int k = 0; k < 3; ++k)
            c[k] = sat::mkLit(v[k], rng.chance(0.5));
    }
    const std::uint64_t n = allocationsOf([&] {
        for (const auto &c : cs)
            s.addTernary(c[0], c[1], c[2]);
    });
    // 46 with libstdc++'s doubling growth: the literal arena, the
    // watch arena and the clause headers.  A vector per watch list made
    // 2,761 (mostly the 400 lists' growth), and copying each clause
    // into its own vectors as well made 42,746, about four per clause.
    EXPECT_LE(n, 64u);
}

TEST(Alloc, SatVariableAndWatchGrowthIsAmortized)
{
    // A corpus-sized CNF: every variable and every watch list comes
    // from a handful of arenas and per-variable vectors that double.
    constexpr int kVars = 50000;
    constexpr int kClauses = 100000;
    Rng rng(5);
    std::vector<std::array<sat::Lit, 2>> cs(kClauses);
    for (auto &c : cs) {
        const auto v0 = static_cast<sat::Var>(rng.below(kVars));
        sat::Var v1;
        do
            v1 = static_cast<sat::Var>(rng.below(kVars));
        while (v1 == v0);
        c = {sat::mkLit(v0, rng.chance(0.5)), sat::mkLit(v1, rng.chance(0.5))};
    }
    std::optional<sat::Solver> s;
    const std::uint64_t n = allocationsOf([&] {
        s.emplace();
        for (int v = 0; v < kVars; ++v)
            s->newVar();
        for (const auto &c : cs)
            s->addBinary(c[0], c[1]);
    });
    // 204 with libstdc++'s doubling growth.  A vector per watch list
    // made at least one allocation per watched literal (about 100,000).
    EXPECT_LE(n, 240u);
}

TEST(Alloc, SatConflictsAllocateNothingPerConflict)
{
    // PHP(8, 7): unsat, and every budget below runs out on conflicts.
    sat::Solver s;
    constexpr int kPigeons = 8, kHoles = 7;
    for (int v = 0; v < kPigeons * kHoles; ++v)
        s.newVar();
    auto x = [](int p, int h) { return sat::mkLit(p * kHoles + h); };
    std::vector<sat::Lit> c;
    for (int p = 0; p < kPigeons; ++p) {
        c.clear();
        for (int h = 0; h < kHoles; ++h)
            c.push_back(x(p, h));
        s.addClause(c);
    }
    for (int h = 0; h < kHoles; ++h)
        for (int p1 = 0; p1 < kPigeons; ++p1)
            for (int p2 = p1 + 1; p2 < kPigeons; ++p2)
                s.addBinary(~x(p1, h), ~x(p2, h));

    metrics::Registry reg;
    metrics::ScopedRegistry scope(reg);
    ASSERT_EQ(s.solve(2000), sat::Result::Unknown); // warm-up
    const std::uint64_t c0 = s.conflicts();
    const std::uint64_t n = allocationsOf(
        [&] { EXPECT_EQ(s.solve(1000), sat::Result::Unknown); });
    ASSERT_EQ(s.conflicts() - c0, 1000u);
    // None: after the warm-up the arenas and the clause headers have
    // room for these learnt clauses.  Growing a vector per watch list
    // made 58 here, and a `seen` and a learnt vector per conflict as
    // well made 6,798.
    EXPECT_LE(n, 8u);
}

} // namespace
} // namespace scamv
