/**
 * @file
 * Data TLB model.
 *
 * Section 2.3 notes that Scam-V supports side channels beyond the
 * data cache — "e.g., caused by TLB state" — by adding an observation
 * module and extending the executor's measurement.  This TLB is the
 * hardware half of that extension: a small fully-associative LRU
 * translation cache over 4 KiB virtual page numbers, filled by every
 * demand access *and by transient loads* (address translation happens
 * before a speculative access can be squashed — the property that
 * makes the TLB a speculative side channel too).
 */

#ifndef SCAMV_HW_TLB_HH
#define SCAMV_HW_TLB_HH

#include <cstdint>
#include <vector>

namespace scamv::hw {

/** TLB configuration. */
struct TlbConfig {
    /** Number of entries (Cortex-A53 micro-TLB: 10; we default 16). */
    int entries = 16;
    /** Page size in bytes. */
    std::uint64_t pageBytes = 4096;
};

/** Snapshot: sorted resident virtual page numbers. */
using TlbState = std::vector<std::uint64_t>;

/** Fully-associative LRU TLB. */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &config = {});

    /** Invalidate all entries. */
    void reset();

    /**
     * Translate an access to addr (filling on miss).
     * @return true on hit.
     */
    bool access(std::uint64_t addr);

    /** Presence check without LRU update or fill. */
    bool probe(std::uint64_t addr) const;

    /** Write the sorted resident page numbers into `out`, reusing
     *  its storage. */
    void snapshot(TlbState &out) const;

    /** @return sorted resident page numbers. */
    TlbState
    snapshot() const
    {
        TlbState vpns;
        snapshot(vpns);
        return vpns;
    }

    std::uint64_t hits() const { return nHits; }
    std::uint64_t misses() const { return nMisses; }

    const TlbConfig &config() const { return cfg; }

  private:
    struct Entry {
        bool valid = false;
        std::uint64_t vpn = 0;
        std::uint64_t lru = 0;
    };

    std::uint64_t vpnOf(std::uint64_t addr) const
    {
        return addr / cfg.pageBytes;
    }

    TlbConfig cfg;
    std::vector<Entry> table;
    std::uint64_t lruClock = 0;
    std::uint64_t nHits = 0;
    std::uint64_t nMisses = 0;
};

} // namespace scamv::hw

#endif // SCAMV_HW_TLB_HH
