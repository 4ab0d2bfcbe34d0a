/**
 * @file
 * Experiment platform: the stand-in for the paper's TrustZone-resident
 * bare-metal module (Section 6.1).
 *
 * For each experiment it (1) clears the data cache and resets the
 * prefetcher, (2) initializes memory from the test case, (3) trains
 * the branch predictor with extra inputs that take the other path
 * (Section 5.3), (4) runs the program from each of the two test-case
 * states, (5) inspects the final data-cache state restricted to the
 * attacker-visible set range, and (6) repeats the measurement
 * `repeats` times (the paper uses 10), classifying the experiment as
 * *inconclusive* unless all repetitions agree.
 *
 * The simulated board is deterministic, so steps (1)-(4) are
 * simulated once per experiment and only what differs between
 * repetitions is replayed per repetition: the noise and fault draws
 * of each measured run, applied to a copy of that run's final cache.
 *
 * Optional measurement noise (a stray access to a random line with a
 * configurable probability per run) reproduces the real platform's
 * inconclusive outcomes.
 */

#ifndef SCAMV_HARNESS_PLATFORM_HH
#define SCAMV_HARNESS_PLATFORM_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "expr/eval.hh"
#include "hw/core.hh"
#include "support/metrics.hh"
#include "support/rng.hh"

namespace scamv::harness {

/**
 * Initial memory contents of one state: (address, word) pairs in
 * ascending address order, each address at most once.
 * inputFromAssignment() fixes this order, so every consumer of a test
 * case (the db CSV, shard records, findings, the minimizer and the
 * platform) sees the same bytes whatever the solver map's history.
 */
using MemInit = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/** One program input: registers + initial memory words. */
struct ProgramInput {
    hw::ArchState regs;
    MemInit mem;

    bool operator==(const ProgramInput &) const = default;
};

/** A relational test case: the two equivalent states (Section 2.3). */
struct TestCase {
    ProgramInput s1;
    ProgramInput s2;

    bool operator==(const TestCase &) const = default;
};

/**
 * Solver variables of one state: register i is the bv variable
 * "x<i><suffix>" and memory the memory variable "mem<suffix>" (the
 * sym::SymNames scheme).  Resolved once per program context; an entry
 * is nullptr where the context holds no such variable, which reads
 * as 0 like a variable the model leaves unset.
 */
struct StateVars {
    std::array<expr::Expr, bir::kNumRegs> regs{};
    expr::Expr mem = nullptr;
};

/**
 * @return the variables of the state named by `suffix` in `ctx`
 * ("_1", "_2" or "_t" in the pipeline), found without interning: a
 * new node would shift creation ids, and with them operand order and
 * SAT variable order.
 */
StateVars stateVars(const expr::ExprContext &ctx,
                    const std::string &suffix);

/**
 * Convert a solver model into the ProgramInput for one state, whose
 * memory words are sorted by address (the one place that decides
 * test-case memory order).
 */
ProgramInput inputFromAssignment(const expr::Assignment &a,
                                 const StateVars &vars);

/** Experiment classification (Section 2.3 / 6.1). */
enum class Verdict {
    Indistinguishable, ///< same cache state in every repetition
    Counterexample,    ///< distinguishable in every repetition
    Inconclusive       ///< repetitions disagreed (noise)
};

/**
 * How the side channel is measured (Section 6.1).
 *
 * `TrustZoneSnapshot` models the paper's privileged platform module:
 * the final data-cache state (per-set tag sets) is inspected directly
 * with debug instructions.  `PrimeProbe` models the paper's "more
 * realistic setting": an attacker primes the visible sets with his
 * own lines before the victim runs and afterwards times a reload of
 * every primed line with the PMC cycle counter; victim activity in a
 * set evicts attacker ways and shows up as added latency.
 */
enum class Channel {
    TrustZoneSnapshot,
    PrimeProbe,
    /** Inspect the final data-TLB state (resident page numbers). */
    TlbSnapshot
};

/** Platform configuration. */
struct PlatformConfig {
    hw::CoreConfig core;
    /** Attacker-visible cache set range (inclusive). */
    std::uint64_t visibleLoSet = 0;
    std::uint64_t visibleHiSet = 127;
    /** Repetitions per experiment. */
    int repeats = 10;
    /** Predictor-training runs per repetition (Section 5.3). */
    int trainingRuns = 4;
    /** Probability of a stray cache access per measured run. */
    double noiseProbability = 0.0;
    /** Board seed (junk memory fill). */
    std::uint64_t boardSeed = 0xb0a2dULL;
    /** Side-channel measurement mechanism. */
    Channel channel = Channel::TrustZoneSnapshot;
    /** Base address of the attacker's prime array (PrimeProbe). */
    std::uint64_t attackerArrayBase = 0x4000000;
};

/** Details of one experiment execution. */
struct ExperimentResult {
    Verdict verdict = Verdict::Indistinguishable;
    /** Repetitions in which the two snapshots differed. */
    int differingReps = 0;
    int totalReps = 0;
    /** Repetitions polluted by an injected measurement fault. */
    int flakedReps = 0;
};

/** The experiment executor. */
class Platform
{
  public:
    Platform(const PlatformConfig &config, std::uint64_t noise_seed = 1);

    /**
     * Run one relational experiment.
     * @param program  the original (uninstrumented) program
     * @param tc       the two observationally-equivalent inputs
     * @param training optional input taking a different path, used to
     *                 mistrain the branch predictor before measuring
     */
    ExperimentResult runExperiment(
        const bir::Program &program, const TestCase &tc,
        const std::optional<ProgramInput> &training = std::nullopt);

    /**
     * Run a single input and @return the visible cache snapshot
     * (exposed for tests and the attack demos).
     */
    hw::CacheState measureOnce(const bir::Program &program,
                               const ProgramInput &input);

    /**
     * Run a single input under the Prime+Probe channel and @return
     * the per-visible-set probe latencies in cycles.
     */
    std::vector<std::uint64_t> probeOnce(const bir::Program &program,
                                         const ProgramInput &input);

    const PlatformConfig &config() const { return cfg; }

  private:
    /** One channel measurement: snapshot or probe latencies.  Only
     *  the configured channel's field is ever filled. */
    struct Measurement {
        hw::CacheState cache;
        std::vector<std::uint64_t> probeLatencies;
        hw::TlbState tlb;

        bool operator==(const Measurement &) const = default;
    };

    /** Stray accesses of one measured run (noise, then flake). */
    struct Strays {
        std::array<std::uint64_t, 2> addrs{};
        int count = 0;
    };

    /** Reset the board's memory and caches, install `input`, prime
     * (PrimeProbe) and run: the deterministic part of a measurement. */
    void simulate(const bir::Program &program, const ProgramInput &input);
    /** Draw the stray accesses that land after one measured run. */
    Strays drawStrays();
    /** Read the channel from the board's current state into `m`,
     *  reusing its storage. */
    void observe(Measurement &m);
    /** One complete measurement on a freshly reset board, into
     *  `scratch[0]`. */
    const Measurement &measure(const bir::Program &program,
                               const ProgramInput &input);

    PlatformConfig cfg;
    Rng noiseRng;
    /** The simulated board, reset at the start of every experiment. */
    hw::Core core;
    /** Each measured state's cache right after its run (s1, s2). */
    std::array<hw::Cache, 2> postRun;
    /** Reused run-result buffer (trace capacity persists). */
    hw::RunResult runScratch;
    /** Per state (s1, s2): the noise-free measurement and the one of
     *  the current repetition.  Members, so their buffers keep their
     *  capacity from one experiment to the next. */
    std::array<Measurement, 2> base;
    std::array<Measurement, 2> scratch;
    /** Slots of `counters`. */
    enum PlatformCounter : std::size_t {
        kExperiments, kRepetitions, kTrainingRuns, kNoiseInjections,
        kNumPlatformCounters
    };
    /** The platform.* counters of metrics::current(). */
    metrics::CounterHandles<kNumPlatformCounters> counters{{
        "platform.experiments", "platform.repetitions",
        "platform.training_runs", "platform.noise_injections"}};
};

} // namespace scamv::harness

#endif // SCAMV_HARNESS_PLATFORM_HH
