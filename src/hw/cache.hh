/**
 * @file
 * Set-associative L1 data cache with LRU replacement.
 *
 * Models the Cortex-A53 L1D of the evaluation platform (32 KiB,
 * 4-way, 64-byte lines, 128 set indexes).  The experiment harness
 * snapshots the final cache state the way the paper's TrustZone
 * platform module inspects it with privileged debug instructions:
 * per set, the set of valid line tags.
 */

#ifndef SCAMV_HW_CACHE_HH
#define SCAMV_HW_CACHE_HH

#include <cstdint>
#include <vector>

#include "obs/layout.hh"

namespace scamv::hw {

/** Per-set snapshot: sorted valid tags. */
using CacheSetState = std::vector<std::uint64_t>;

/** Full-cache snapshot: one CacheSetState per set index. */
using CacheState = std::vector<CacheSetState>;

/**
 * LRU set-associative cache.
 *
 * A run touches a handful of sets, so the cache keeps the list of
 * sets allocated into since the last reset: reset() and copy
 * assignment cost the dirty sets, not the whole line array.  Every
 * set not on the list holds only default (invalid, tag 0, lru 0)
 * lines.
 */
class Cache
{
  public:
    explicit Cache(const obs::CacheGeometry &geom = {});

    Cache(const Cache &) = default;
    Cache(Cache &&) = default;
    Cache &operator=(Cache &&) = default;
    /** Same geometry: resets, then copies only `other`'s dirty sets. */
    Cache &operator=(const Cache &other);

    /** Invalidate every line (the platform clears before each run). */
    void reset();

    /**
     * Demand access (read or write, read-allocate policy).
     * @return true on hit.
     */
    bool access(std::uint64_t addr);

    /** Non-allocating presence check (no LRU update). */
    bool probe(std::uint64_t addr) const;

    /** Invalidate the line containing addr if present. */
    void flushLine(std::uint64_t addr);

    /**
     * Write the snapshot of sets [lo_set, hi_set] inclusive into
     * `out`, reusing its storage: after the first call with a range,
     * later calls with the same range do not allocate.
     */
    void snapshot(std::uint64_t lo_set, std::uint64_t hi_set,
                  CacheState &out) const;

    /** @return snapshot of sets [lo_set, hi_set] inclusive. */
    CacheState
    snapshot(std::uint64_t lo_set, std::uint64_t hi_set) const
    {
        CacheState state;
        snapshot(lo_set, hi_set, state);
        return state;
    }

    /** @return snapshot of the whole cache. */
    CacheState snapshot() const { return snapshot(0, geom.numSets - 1); }

    const obs::CacheGeometry &geometry() const { return geom; }

    /** Statistics. */
    std::uint64_t hits() const { return nHits; }
    std::uint64_t misses() const { return nMisses; }

  private:
    struct Line {
        bool valid = false;
        std::uint64_t tag = 0;
        std::uint64_t lru = 0; ///< higher = more recently used
    };

    Line &line(std::uint64_t set, std::uint64_t way)
    {
        return lines[set * geom.ways + way];
    }
    const Line &line(std::uint64_t set, std::uint64_t way) const
    {
        return lines[set * geom.ways + way];
    }

    /** Put `set` on the dirty list (first allocation since reset). */
    void markDirty(std::uint64_t set)
    {
        if (!dirty[set]) {
            dirty[set] = 1;
            dirtySets.push_back(static_cast<std::uint32_t>(set));
        }
    }

    obs::CacheGeometry geom;
    /** Flat set-major line array: index `set * ways + way`.  A single
     * contiguous allocation instead of one vector per set — the hot
     * access() scan walks `ways` adjacent elements. */
    std::vector<Line> lines;
    /** Per set: 1 iff it is on `dirtySets`. */
    std::vector<std::uint8_t> dirty;
    /** Sets allocated into since the last reset, first touch first. */
    std::vector<std::uint32_t> dirtySets;
    std::uint64_t lruClock = 0;
    std::uint64_t nHits = 0;
    std::uint64_t nMisses = 0;
};

/** @return true iff the two snapshots are identical. */
bool sameCacheState(const CacheState &a, const CacheState &b);

} // namespace scamv::hw

#endif // SCAMV_HW_CACHE_HH
