#include "hw/memory.hh"

namespace scamv::hw {

std::uint64_t
Memory::junk(std::uint64_t addr) const
{
    // splitmix64-style mix of (addr, boardSeed).
    std::uint64_t z = (addr & ~7ULL) + boardSeed + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

namespace {

/** Home slot of a word address in a table of `mask + 1` slots. */
std::uint32_t
homeSlot(std::uint64_t key, std::size_t mask)
{
    return static_cast<std::uint32_t>(
        ((key >> 3) * 0x9e3779b97f4a7c15ULL >> 32) & mask);
}

} // namespace

void
Memory::clear()
{
    for (const Word &w : words)
        slots[w.slot] = kNone;
    words.clear();
}

std::uint32_t
Memory::find(std::uint64_t key) const
{
    if (slots.empty())
        return kNone;
    const std::size_t mask = slots.size() - 1;
    for (std::size_t i = homeSlot(key, mask);; i = (i + 1) & mask) {
        const std::uint32_t w = slots[i];
        if (w == kNone || words[w].key == key)
            return w;
    }
}

void
Memory::grow()
{
    const std::size_t size = slots.empty() ? 16 : 2 * slots.size();
    slots.assign(size, kNone);
    const std::size_t mask = size - 1;
    for (std::uint32_t w = 0; w < words.size(); ++w) {
        std::size_t i = homeSlot(words[w].key, mask);
        while (slots[i] != kNone)
            i = (i + 1) & mask;
        slots[i] = w;
        words[w].slot = static_cast<std::uint32_t>(i);
    }
}

std::uint64_t
Memory::load(std::uint64_t addr) const
{
    const std::uint64_t key = addr & ~7ULL;
    const std::uint32_t w = find(key);
    return w == kNone ? junk(key) : words[w].value;
}

void
Memory::store(std::uint64_t addr, std::uint64_t value)
{
    const std::uint64_t key = addr & ~7ULL;
    if (const std::uint32_t w = find(key); w != kNone) {
        words[w].value = value;
        return;
    }
    if (2 * (words.size() + 1) > slots.size())
        grow();
    const std::size_t mask = slots.size() - 1;
    std::size_t i = homeSlot(key, mask);
    while (slots[i] != kNone)
        i = (i + 1) & mask;
    slots[i] = static_cast<std::uint32_t>(words.size());
    words.push_back({key, value, static_cast<std::uint32_t>(i)});
}

} // namespace scamv::hw
