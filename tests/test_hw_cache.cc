/** @file Unit tests for the set-associative LRU cache. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "hw/cache.hh"
#include "support/rng.hh"

namespace scamv::hw {
namespace {

TEST(Cache, MissThenHit)
{
    Cache c;
    EXPECT_FALSE(c.access(0x80000));
    EXPECT_TRUE(c.access(0x80000));
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_EQ(c.hits(), 1u);
}

TEST(Cache, SameLineDifferentOffsetHits)
{
    Cache c;
    c.access(0x80000);
    EXPECT_TRUE(c.access(0x80000 + 63)); // same 64-byte line
    EXPECT_FALSE(c.access(0x80000 + 64)); // next line
}

TEST(Cache, ProbeDoesNotAllocate)
{
    Cache c;
    EXPECT_FALSE(c.probe(0x80000));
    EXPECT_FALSE(c.access(0x80000)); // still a miss
    EXPECT_TRUE(c.probe(0x80000));
}

TEST(Cache, FlushLineRemoves)
{
    Cache c;
    c.access(0x80000);
    c.flushLine(0x80000);
    EXPECT_FALSE(c.probe(0x80000));
}

TEST(Cache, ResetClearsEverything)
{
    Cache c;
    c.access(0x80000);
    c.access(0x90000);
    c.reset();
    EXPECT_FALSE(c.probe(0x80000));
    EXPECT_FALSE(c.probe(0x90000));
}

TEST(Cache, AssociativityHoldsConflictingTags)
{
    Cache c; // 4 ways
    const obs::CacheGeometry g = c.geometry();
    const std::uint64_t set_stride = g.lineBytes * g.numSets; // same set
    for (int i = 0; i < 4; ++i)
        c.access(0x80000 + i * set_stride);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(c.probe(0x80000 + i * set_stride)) << i;
}

TEST(Cache, LruEviction)
{
    Cache c;
    const obs::CacheGeometry g = c.geometry();
    const std::uint64_t stride = g.lineBytes * g.numSets;
    for (int i = 0; i < 4; ++i)
        c.access(0x80000 + i * stride);
    c.access(0x80000); // refresh way 0: way 1 is now LRU
    c.access(0x80000 + 4 * stride); // evicts tag 1
    EXPECT_TRUE(c.probe(0x80000));
    EXPECT_FALSE(c.probe(0x80000 + 1 * stride));
    EXPECT_TRUE(c.probe(0x80000 + 2 * stride));
    EXPECT_TRUE(c.probe(0x80000 + 4 * stride));
}

TEST(Cache, SnapshotReflectsContents)
{
    Cache c;
    c.access(0x80000);          // set 0 (0x80000 is set-aligned)
    c.access(0x80000 + 5 * 64); // set 5
    const CacheState snap = c.snapshot();
    ASSERT_EQ(snap.size(), 128u);
    const auto g = c.geometry();
    EXPECT_EQ(snap[g.setOf(0x80000)].size(), 1u);
    EXPECT_EQ(snap[g.setOf(0x80000 + 5 * 64)].size(), 1u);
}

TEST(Cache, SnapshotRangeRestricts)
{
    Cache c;
    const auto g = c.geometry();
    // Addresses with set index 10 and 100.
    c.access(0x80000 + 10 * 64);
    c.access(0x80000 + 100 * 64);
    ASSERT_EQ(g.setOf(0x80000 + 10 * 64), 10u);
    const CacheState snap = c.snapshot(61, 127);
    ASSERT_EQ(snap.size(), 67u);
    EXPECT_EQ(snap[100 - 61].size(), 1u);
    // Set 10 excluded entirely.
    std::size_t total = 0;
    for (const auto &s : snap)
        total += s.size();
    EXPECT_EQ(total, 1u);
}

TEST(Cache, SnapshotsAreOrderCanonical)
{
    Cache a, b;
    const auto g = a.geometry();
    const std::uint64_t stride = g.lineBytes * g.numSets;
    a.access(0x80000);
    a.access(0x80000 + stride);
    b.access(0x80000 + stride);
    b.access(0x80000);
    EXPECT_TRUE(sameCacheState(a.snapshot(), b.snapshot()));
}

TEST(Cache, DifferentContentsDetected)
{
    Cache a, b;
    a.access(0x80000);
    b.access(0x80000 + 64);
    EXPECT_FALSE(sameCacheState(a.snapshot(), b.snapshot()));
}

TEST(Cache, CustomGeometry)
{
    obs::CacheGeometry g;
    g.lineBytes = 32;
    g.numSets = 16;
    g.ways = 2;
    Cache c(g);
    EXPECT_FALSE(c.access(0));
    EXPECT_FALSE(c.access(32 * 16)); // same set, different tag
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.access(2 * 32 * 16)); // evicts LRU (tag 0)
    EXPECT_FALSE(c.probe(0));
}

/**
 * Reference LRU cache: one vector of (tag, lru) ways per set, wiped
 * whole on reset and copied whole on assignment — the behaviour the
 * dirty-set Cache must reproduce.
 */
class NaiveCache
{
  public:
    explicit NaiveCache(const obs::CacheGeometry &g)
        : geom(g), sets(g.numSets)
    {}

    void
    reset()
    {
        for (auto &set : sets)
            set.clear();
        clock = 0;
    }

    bool
    access(std::uint64_t addr)
    {
        auto &set = sets[geom.setOf(addr)];
        const std::uint64_t tag = geom.tagOf(addr);
        ++clock;
        for (Way &w : set) {
            if (w.tag == tag) {
                w.lru = clock;
                ++hits;
                return true;
            }
        }
        ++misses;
        if (set.size() < geom.ways) {
            set.push_back({tag, clock});
        } else {
            auto victim = std::min_element(
                set.begin(), set.end(),
                [](const Way &a, const Way &b) { return a.lru < b.lru; });
            *victim = {tag, clock};
        }
        return false;
    }

    void
    flushLine(std::uint64_t addr)
    {
        auto &set = sets[geom.setOf(addr)];
        const std::uint64_t tag = geom.tagOf(addr);
        set.erase(std::remove_if(set.begin(), set.end(),
                                 [&](const Way &w) { return w.tag == tag; }),
                  set.end());
    }

    bool
    probe(std::uint64_t addr) const
    {
        for (const Way &w : sets[geom.setOf(addr)])
            if (w.tag == geom.tagOf(addr))
                return true;
        return false;
    }

    CacheState
    snapshot(std::uint64_t lo, std::uint64_t hi) const
    {
        CacheState out;
        for (std::uint64_t s = lo; s <= hi; ++s) {
            CacheSetState tags;
            for (const Way &w : sets[s])
                tags.push_back(w.tag);
            std::sort(tags.begin(), tags.end());
            out.push_back(tags);
        }
        return out;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    struct Way {
        std::uint64_t tag;
        std::uint64_t lru;
    };

    obs::CacheGeometry geom;
    std::vector<std::vector<Way>> sets;
    std::uint64_t clock = 0;
};

/**
 * Random access / flushLine / reset / copy-assign / snapshot
 * sequences on two caches and their references, checked after every
 * step.  Addresses come from a small pool of lines so that sets fill,
 * evict and are revisited after resets.
 */
void
checkAgainstReference(const obs::CacheGeometry &g, std::uint64_t seed)
{
    Rng rng(seed);
    std::array<Cache, 2> caches{Cache(g), Cache(g)};
    std::array<NaiveCache, 2> refs{NaiveCache(g), NaiveCache(g)};
    // Buffers reused across snapshots, like the platform's.
    std::array<CacheState, 2> snaps;
    const std::uint64_t set_stride = g.lineBytes * g.numSets;
    auto addr = [&] {
        const std::uint64_t set = rng.below(std::min<std::uint64_t>(
            g.numSets, 12)) * (g.numSets / 12 + 1) % g.numSets;
        const std::uint64_t tag = rng.below(g.ways + 3);
        return 0x80000 + tag * set_stride + set * g.lineBytes +
               rng.below(g.lineBytes);
    };
    for (int step = 0; step < 4000; ++step) {
        const int i = static_cast<int>(rng.below(2));
        Cache &c = caches[i];
        NaiveCache &ref = refs[i];
        const std::uint64_t op = rng.below(100);
        if (op < 70) {
            const std::uint64_t a = addr();
            ASSERT_EQ(c.access(a), ref.access(a)) << "step " << step;
        } else if (op < 80) {
            const std::uint64_t a = addr();
            c.flushLine(a);
            ref.flushLine(a);
        } else if (op < 85) {
            c.reset();
            ref.reset();
        } else if (op < 90) {
            caches[1 - i] = c;
            refs[1 - i] = ref;
        } else {
            const std::uint64_t lo = rng.below(g.numSets);
            const std::uint64_t hi = lo + rng.below(g.numSets - lo);
            c.snapshot(lo, hi, snaps[i]);
            ASSERT_EQ(snaps[i], ref.snapshot(lo, hi)) << "step " << step;
            ASSERT_EQ(c.snapshot(), ref.snapshot(0, g.numSets - 1))
                << "step " << step;
        }
        const std::uint64_t probe = addr();
        ASSERT_EQ(c.probe(probe), ref.probe(probe)) << "step " << step;
        ASSERT_EQ(c.hits(), ref.hits) << "step " << step;
        ASSERT_EQ(c.misses(), ref.misses) << "step " << step;
    }
}

TEST(CacheReference, A53MatchesFullWipeModel)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        checkAgainstReference(obs::CacheGeometry{}, seed);
}

TEST(CacheReference, CustomGeometryMatchesFullWipeModel)
{
    obs::CacheGeometry g;
    g.lineBytes = 32;
    g.numSets = 16;
    g.ways = 2;
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        checkAgainstReference(g, seed);
}

TEST(CacheReference, AssignmentAcrossGeometriesCopiesEverything)
{
    obs::CacheGeometry small;
    small.numSets = 16;
    small.ways = 2;
    Cache a;
    Cache b(small);
    a.access(0x80000);
    a.access(0x80000 + 70 * 64);
    b = a;
    EXPECT_EQ(b.snapshot(), a.snapshot());
    b.reset();
    EXPECT_EQ(b.snapshot(), Cache().snapshot());
    EXPECT_FALSE(b.access(0x80000));
}

} // namespace
} // namespace scamv::hw
