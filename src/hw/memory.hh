/**
 * @file
 * Sparse 64-bit main memory with deterministic "junk" fill.
 *
 * Cells never written hold an arbitrary-but-fixed value derived from
 * the address and a board seed — like real DRAM contents on the
 * evaluation board, identical across the two measured runs of a test
 * case but not all-zero (all-zero defaults would accidentally make
 * distinct speculative reads alias).
 */

#ifndef SCAMV_HW_MEMORY_HH
#define SCAMV_HW_MEMORY_HH

#include <cstdint>
#include <vector>

namespace scamv::hw {

/**
 * Word-addressed (8-byte) sparse memory.
 *
 * Written words live in a flat array indexed by an open-addressing
 * table, and clear() empties both in the number of written words
 * while keeping their storage: the platform clears and refills the
 * memory several times per experiment without allocating.
 */
class Memory
{
  public:
    explicit Memory(std::uint64_t board_seed = 0xb0a2dULL)
        : boardSeed(board_seed)
    {}

    /** Remove all explicit writes (junk fill persists). */
    void clear();

    /** @return the word containing addr (addr rounded down to 8). */
    std::uint64_t load(std::uint64_t addr) const;

    /** Store a word at addr (rounded down to 8). */
    void store(std::uint64_t addr, std::uint64_t value);

    /** @return true iff the cell was explicitly written. */
    bool written(std::uint64_t addr) const
    {
        return find(addr & ~7ULL) != kNone;
    }

  private:
    struct Word {
        std::uint64_t key;   ///< word address (multiple of 8)
        std::uint64_t value;
        std::uint32_t slot;  ///< its position in `slots`
    };

    static constexpr std::uint32_t kNone = ~0U;

    std::uint64_t junk(std::uint64_t addr) const;
    /** @return the index in `words` of word address key, or kNone. */
    std::uint32_t find(std::uint64_t key) const;
    /** Double the index table and re-insert every word. */
    void grow();

    std::uint64_t boardSeed;
    /** Written words, in first-write order. */
    std::vector<Word> words;
    /** Power-of-two table of indexes into `words` (kNone = empty),
     *  kept at most half full; linear probing. */
    std::vector<std::uint32_t> slots;
};

} // namespace scamv::hw

#endif // SCAMV_HW_MEMORY_HH
