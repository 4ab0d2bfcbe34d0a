#include "hw/tlb.hh"

#include <algorithm>

#include "support/logging.hh"

namespace scamv::hw {

Tlb::Tlb(const TlbConfig &config) : cfg(config)
{
    SCAMV_ASSERT(cfg.entries > 0, "TLB needs at least one entry");
    table.resize(cfg.entries);
}

void
Tlb::reset()
{
    for (Entry &e : table)
        e = Entry{};
    lruClock = 0;
}

bool
Tlb::access(std::uint64_t addr)
{
    const std::uint64_t vpn = vpnOf(addr);
    ++lruClock;
    for (Entry &e : table) {
        if (e.valid && e.vpn == vpn) {
            e.lru = lruClock;
            ++nHits;
            return true;
        }
    }
    ++nMisses;
    Entry *victim = &table[0];
    for (Entry &e : table) {
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lru < victim->lru)
            victim = &e;
    }
    victim->valid = true;
    victim->vpn = vpn;
    victim->lru = lruClock;
    return false;
}

bool
Tlb::probe(std::uint64_t addr) const
{
    const std::uint64_t vpn = vpnOf(addr);
    for (const Entry &e : table)
        if (e.valid && e.vpn == vpn)
            return true;
    return false;
}

TlbState
Tlb::snapshot() const
{
    TlbState vpns;
    for (const Entry &e : table)
        if (e.valid)
            vpns.push_back(e.vpn);
    std::sort(vpns.begin(), vpns.end());
    return vpns;
}

} // namespace scamv::hw
