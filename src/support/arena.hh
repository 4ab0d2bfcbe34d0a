/**
 * @file
 * Bump-pointer arena allocator for simulation state.
 *
 * A caller that rebuilds hw::Core objects in a loop can carve their
 * containers (cache line array, TLB entry table, predictor PHT) out
 * of one arena and rewind it (`reset()`) between rebuilds: previously
 * allocated blocks are kept and reused, so the steady state performs
 * no allocation at all.  harness::Platform no longer needs this — it
 * keeps one core for its whole lifetime and resets it in place.
 *
 * Lifecycle contract: `reset()` invalidates every object previously
 * allocated from the arena.  Callers must destroy arena-backed
 * containers *before* resetting.
 *
 * `ArenaAllocator<T>` adapts the arena to the standard allocator
 * interface so ordinary containers (`std::vector<T, ArenaAllocator<T>>`)
 * can live in it.  A default-constructed / null-arena allocator falls
 * back to the global heap, which keeps arena-aware types usable
 * without an arena (every hw component takes an optional `Arena *`).
 * `deallocate` on an arena is a no-op — memory is reclaimed wholesale
 * by `reset()`.
 */

#ifndef SCAMV_SUPPORT_ARENA_HH
#define SCAMV_SUPPORT_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace scamv::support {

/** Growable bump allocator; blocks survive reset() for reuse. */
class Arena
{
  public:
    /** @param block_bytes size of each backing block. */
    explicit Arena(std::size_t block_bytes = 64 * 1024);

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * Allocate `bytes` with the given alignment (power of two).
     * Requests larger than the block size get a dedicated block.
     * Never returns nullptr (allocation failure panics, matching the
     * no-exceptions convention).
     */
    void *allocate(std::size_t bytes, std::size_t alignment);

    /**
     * Rewind every block to empty, keeping the backing memory for
     * reuse.  All previously allocated objects become invalid.
     */
    void reset();

    /** Total bytes handed out since construction or last reset(). */
    std::size_t used() const { return usedBytes; }

    /** Total backing-block bytes currently held. */
    std::size_t capacity() const { return capacityBytes; }

  private:
    struct Block {
        std::unique_ptr<std::byte[]> data;
        std::size_t size = 0;
        std::size_t offset = 0;
    };

    Block &grow(std::size_t min_bytes);

    std::size_t blockBytes;
    std::size_t usedBytes = 0;
    std::size_t capacityBytes = 0;
    std::vector<Block> blocks;
    std::size_t active = 0; ///< blocks[0..active) may hold data
};

/**
 * Standard-allocator adapter over Arena, with heap fallback when the
 * arena pointer is null.  Deallocation into an arena is a no-op; the
 * heap fallback frees normally.
 */
template <class T>
class ArenaAllocator
{
  public:
    using value_type = T;

    ArenaAllocator() = default;
    explicit ArenaAllocator(Arena *arena) : arena(arena) {}
    template <class U>
    ArenaAllocator(const ArenaAllocator<U> &other) : arena(other.arena)
    {}

    T *
    allocate(std::size_t n)
    {
        if (arena)
            return static_cast<T *>(
                arena->allocate(n * sizeof(T), alignof(T)));
        return static_cast<T *>(
            ::operator new(n * sizeof(T), std::align_val_t(alignof(T))));
    }

    void
    deallocate(T *p, std::size_t n)
    {
        (void)n;
        if (!arena)
            ::operator delete(p, std::align_val_t(alignof(T)));
        // Arena memory is reclaimed wholesale by Arena::reset().
    }

    bool
    operator==(const ArenaAllocator &other) const
    {
        return arena == other.arena;
    }

    Arena *arena = nullptr;
};

} // namespace scamv::support

#endif // SCAMV_SUPPORT_ARENA_HH
