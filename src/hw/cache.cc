#include "hw/cache.hh"

#include <algorithm>

#include "support/logging.hh"

namespace scamv::hw {

Cache::Cache(const obs::CacheGeometry &geom)
    : geom(geom),
      lines(static_cast<std::size_t>(geom.numSets) * geom.ways)
{}

void
Cache::reset()
{
    for (Line &l : lines)
        l = Line{};
    lruClock = 0;
}

bool
Cache::access(std::uint64_t addr)
{
    const std::uint64_t set_idx = geom.setOf(addr);
    const std::uint64_t tag = geom.tagOf(addr);
    Line *const set = &line(set_idx, 0);
    ++lruClock;

    for (std::uint64_t w = 0; w < geom.ways; ++w) {
        Line &l = set[w];
        if (l.valid && l.tag == tag) {
            l.lru = lruClock;
            ++nHits;
            return true;
        }
    }
    ++nMisses;
    // Allocate: pick an invalid way, else the LRU way.
    Line *victim = &set[0];
    for (std::uint64_t w = 0; w < geom.ways; ++w) {
        Line &l = set[w];
        if (!l.valid) {
            victim = &l;
            break;
        }
        if (l.lru < victim->lru)
            victim = &l;
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lru = lruClock;
    return false;
}

bool
Cache::probe(std::uint64_t addr) const
{
    const std::uint64_t set_idx = geom.setOf(addr);
    const std::uint64_t tag = geom.tagOf(addr);
    for (std::uint64_t w = 0; w < geom.ways; ++w) {
        const Line &l = line(set_idx, w);
        if (l.valid && l.tag == tag)
            return true;
    }
    return false;
}

void
Cache::flushLine(std::uint64_t addr)
{
    const std::uint64_t set_idx = geom.setOf(addr);
    const std::uint64_t tag = geom.tagOf(addr);
    for (std::uint64_t w = 0; w < geom.ways; ++w) {
        Line &l = line(set_idx, w);
        if (l.valid && l.tag == tag)
            l = Line{};
    }
}

CacheState
Cache::snapshot(std::uint64_t lo_set, std::uint64_t hi_set) const
{
    SCAMV_ASSERT(lo_set <= hi_set && hi_set < geom.numSets,
                 "snapshot range out of bounds");
    CacheState state;
    state.reserve(hi_set - lo_set + 1);
    for (std::uint64_t s = lo_set; s <= hi_set; ++s) {
        CacheSetState tags;
        for (std::uint64_t w = 0; w < geom.ways; ++w) {
            const Line &l = line(s, w);
            if (l.valid)
                tags.push_back(l.tag);
        }
        std::sort(tags.begin(), tags.end());
        state.push_back(std::move(tags));
    }
    return state;
}

bool
sameCacheState(const CacheState &a, const CacheState &b)
{
    return a == b;
}

} // namespace scamv::hw
