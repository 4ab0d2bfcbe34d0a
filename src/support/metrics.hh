/**
 * @file
 * Thread-safe metrics registry: named counters, gauges and
 * fixed-bucket latency histograms, plus RAII phase timers.
 *
 * The campaign pipeline is instrumented with these primitives to make
 * a long-running search loop observable: where wall-clock goes
 * (generation vs. SMT solving vs. hardware simulation), how many
 * solver queries of each outcome were issued, and what the simulated
 * hardware did (cache hits/misses, prefetches, mispredictions).
 *
 * Two usage modes share one implementation:
 *
 *  - a process-global registry (`Registry::global()`), safe for
 *    concurrent increments from any thread (all hot-path mutation is
 *    on atomics);
 *  - per-task registries installed with `ScopedRegistry`: the pipeline
 *    gives each program task its own registry (accessible through the
 *    thread-local `current()`), snapshots it when the task finishes,
 *    and merges the snapshots **in program-index order** after the
 *    campaign barrier — the same invariant that makes `RunStats`
 *    bit-identical for any `SCAMV_THREADS` (see DESIGN.md,
 *    "Observability").
 *
 * Snapshots are plain sorted maps; `toJson` renders them with fixed
 * key order and `%.17g` doubles, so two structurally equal snapshots
 * produce byte-identical JSON.
 *
 * Timing sources: a registry constructed with `ClockMode::Wall` reads
 * the steady clock; `ClockMode::Deterministic` returns a synthetic
 * monotonically increasing time (one microsecond per `now()` call),
 * making every duration a pure function of the instrumented call
 * sequence.  The pipeline's determinism tests use the latter to check
 * that the merged snapshot — timings included — is byte-identical
 * across thread counts.
 */

#ifndef SCAMV_SUPPORT_METRICS_HH
#define SCAMV_SUPPORT_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "support/table.hh"

namespace scamv::metrics {

/**
 * Monotonically increasing event count.
 *
 * Cache-line aligned: counters from one registry are allocated
 * individually but frequently end up adjacent on the heap; padding
 * them to a line keeps a hot per-task counter from false-sharing with
 * its neighbours when several worker threads increment concurrently.
 */
class alignas(64) Counter
{
  public:
    /** Add n (relaxed; totals are read after a barrier). */
    void add(std::uint64_t n) { v.fetch_add(n, std::memory_order_relaxed); }
    /** Increment by one. */
    void inc() { add(1); }
    /** @return current value. */
    std::uint64_t value() const { return v.load(std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> v{0};
};

/** Settable/accumulating scalar.  Line-aligned like Counter. */
class alignas(64) Gauge
{
  public:
    /** Overwrite the value. */
    void set(double x) { v.store(x, std::memory_order_relaxed); }
    /** Atomically add x (CAS loop; no fetch_add on doubles pre-C++20 ABI). */
    void add(double x);
    /** @return current value. */
    double value() const { return v.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> v{0.0};
};

/**
 * Fixed-bucket histogram.  `bounds` are inclusive upper bounds in
 * ascending order; an implicit overflow bucket catches everything
 * above the last bound, so there are bounds.size() + 1 buckets.
 */
struct HistogramData;

class Histogram
{
  public:
    explicit Histogram(std::vector<double> bounds);

    /** Record one sample. */
    void observe(double x);

    /**
     * Fold a plain-data histogram into this one: bucket counts, sum
     * and count add.  Bounds must agree.  Used when replaying a
     * captured metric delta (see Registry::merge).
     */
    void accumulate(const HistogramData &data);

    const std::vector<double> &bounds() const { return bnds; }
    /** @return count of bucket i (i <= bounds().size()). */
    std::uint64_t bucketCount(std::size_t i) const;
    /** @return total number of samples. */
    std::uint64_t count() const { return n.load(std::memory_order_relaxed); }
    /** @return sum of all samples. */
    double sum() const { return total.load(std::memory_order_relaxed); }

  private:
    std::vector<double> bnds;
    std::unique_ptr<std::atomic<std::uint64_t>[]> counts;
    std::atomic<double> total{0.0};
    std::atomic<std::uint64_t> n{0};
};

/** Default latency bucket bounds (seconds), 1 µs .. 10 s decades. */
const std::vector<double> &latencyBounds();

/** Plain-data copy of one histogram. */
struct HistogramData {
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts; ///< bounds.size() + 1 entries
    double sum = 0.0;
    std::uint64_t count = 0;

    /**
     * Estimate the q-th quantile (0 <= q <= 1) by cumulative bucket
     * walk with linear interpolation inside the containing bucket.
     * Samples in the overflow bucket clamp to the last bound (the
     * usual Prometheus convention); an empty histogram returns 0.
     */
    double quantile(double q) const;

    bool operator==(const HistogramData &) const = default;
};

/**
 * Plain-data copy of a registry: sorted maps, mergeable and
 * comparable.  This is what crosses task boundaries and what the
 * exporters consume.
 */
struct Snapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramData> histograms;

    /**
     * Fold `other` into this snapshot: counters, gauges, histogram
     * buckets and sums add; histogram bounds must agree.  Merging is
     * associative but *not* commutative over doubles, so callers must
     * fold in a deterministic order (the pipeline uses program-index
     * order).
     */
    void merge(const Snapshot &other);

    bool operator==(const Snapshot &) const = default;
};

/** Registry time source (see file comment). */
enum class ClockMode { Wall, Deterministic };

/** Named-metric registry; all members are thread-safe. */
class Registry
{
  public:
    explicit Registry(ClockMode clock_mode = ClockMode::Wall);

    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Find or create a counter. The reference stays valid. */
    Counter &counter(std::string_view name);
    /** Find or create a gauge. */
    Gauge &gauge(std::string_view name);
    /**
     * Find or create a histogram.  `bounds` is used only on creation;
     * a later lookup with different bounds panics (one name, one
     * bucket layout).
     */
    Histogram &histogram(std::string_view name,
                         const std::vector<double> &bounds =
                             latencyBounds());

    /**
     * Current time in seconds.  Wall mode: steady clock.
     * Deterministic mode: a synthetic clock advancing 1 µs per call.
     */
    double now();

    /** Copy out all metrics (sorted by name). */
    Snapshot snapshot() const;

    /**
     * Apply a snapshot into this live registry: counters and gauges
     * add, histogram buckets/sums accumulate (bounds must agree).
     * The inverse of capturing work in a scratch registry: merging
     * the captured snapshot makes the registry look exactly as if
     * the work had run against it directly — the query cache uses
     * this to replay a cached query's solver metrics on a hit.
     */
    void merge(const Snapshot &snap);

    /**
     * Drop every metric.  Outstanding Counter/Gauge/Histogram
     * references become dangling — only use on registries with no
     * concurrent users (e.g. the global registry between tests).
     * Gives the registry a fresh epoch, so CounterHandles re-resolve.
     */
    void reset();

    ClockMode clockMode() const { return mode; }

    /**
     * Process-unique identity of this registry's current metric set:
     * drawn at construction and again by reset(), never reused.  A
     * registry built in the stack slot of a destroyed one therefore
     * has a different epoch even at the same address.
     */
    std::uint64_t epoch() const
    {
        return epoch_.load(std::memory_order_relaxed);
    }

    /** The process-wide default registry. */
    static Registry &global();

  private:
    struct SvHash {
        using is_transparent = void;
        std::size_t
        operator()(std::string_view s) const
        {
            return std::hash<std::string_view>{}(s);
        }
    };
    struct SvEq {
        using is_transparent = void;
        bool
        operator()(std::string_view a, std::string_view b) const
        {
            return a == b;
        }
    };
    template <class T>
    using Map =
        std::unordered_map<std::string, std::unique_ptr<T>, SvHash, SvEq>;

    mutable std::mutex m;
    ClockMode mode;
    std::atomic<std::uint64_t> epoch_;
    std::atomic<std::uint64_t> ticks{0};
    Map<Counter> counters;
    Map<Gauge> gauges;
    Map<Histogram> histograms;
};

/**
 * @return the calling thread's scoped registry if one is installed,
 * otherwise the global registry.  Instrumented code (solver, hardware
 * model, platform) reports here, so the same instrumentation feeds a
 * per-program registry inside a pipeline task and the global registry
 * everywhere else.
 */
Registry &current();

/**
 * Counters of `current()` resolved once per registry instead of once
 * per increment: slot i names counter `names[i]`, created in the
 * registry on its first use (exactly when a by-name lookup would
 * create it) and cached until `current()` has a different epoch —
 * another registry, or the same one after reset().  `in(reg, i)` does
 * the same against a fixed registry (the query cache's global
 * counters).  Not thread-safe: one owner (a core, a platform, a
 * mutex) serializes its uses.
 */
template <std::size_t N>
class CounterHandles
{
  public:
    explicit constexpr CounterHandles(
        const std::array<std::string_view, N> &names)
        : names(names)
    {}

    /** @return counter `i` of the calling thread's `current()`. */
    Counter &operator[](std::size_t i) { return in(current(), i); }

    /** @return counter `i` of `reg`. */
    Counter &
    in(Registry &reg, std::size_t i)
    {
        if (reg.epoch() != epoch) {
            slots.fill(nullptr);
            epoch = reg.epoch();
        }
        if (!slots[i])
            slots[i] = &reg.counter(names[i]);
        return *slots[i];
    }

  private:
    std::array<std::string_view, N> names;
    std::array<Counter *, N> slots{};
    std::uint64_t epoch = 0; ///< 0: nothing resolved (epochs start at 1)
};

/** Install a registry as the calling thread's `current()` (RAII). */
class ScopedRegistry
{
  public:
    explicit ScopedRegistry(Registry &registry);
    ~ScopedRegistry();

    ScopedRegistry(const ScopedRegistry &) = delete;
    ScopedRegistry &operator=(const ScopedRegistry &) = delete;

  private:
    Registry *prev;
};

/**
 * RAII phase timer: on destruction, records the elapsed registry time
 * into the histogram `phase.<name>_seconds`.  The histogram's `sum`
 * is the phase's total wall-clock and its buckets the per-scope
 * (typically per-program or per-test) distribution.
 */
class PhaseTimer
{
  public:
    PhaseTimer(Registry &registry, std::string_view phase);
    /** Times into `current()`. */
    explicit PhaseTimer(std::string_view phase);
    ~PhaseTimer();

    PhaseTimer(const PhaseTimer &) = delete;
    PhaseTimer &operator=(const PhaseTimer &) = delete;

  private:
    Registry &reg;
    std::string name;
    double start;
};

/**
 * Render a snapshot as JSON (schema "scamv-metrics-v1"): sorted keys,
 * `%.17g` doubles — structurally equal snapshots render to
 * byte-identical strings.
 */
std::string toJson(const Snapshot &snap);

/** Write toJson(snap) to a file. @return success. */
bool writeJson(const Snapshot &snap, const std::string &path);

/** Render a snapshot as an aligned text table (support/table). */
TextTable toTable(const Snapshot &snap);

} // namespace scamv::metrics

#endif // SCAMV_SUPPORT_METRICS_HH
