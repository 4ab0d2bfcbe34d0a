/**
 * @file
 * In-order core model with bounded transient execution
 * (Cortex-A53-like, Section 6.1).
 *
 * Architectural semantics follow the BIR definition exactly; the
 * microarchitectural side effects are:
 *
 *  - every demand load/store allocates in the L1D cache and trains the
 *    stride prefetcher;
 *  - conditional branches consult the PHT predictor; on a
 *    misprediction the core *transiently* executes up to
 *    `transientWindow` instructions of the wrong path before the
 *    squash.  Transient loads issue real memory requests (allocating
 *    cache lines — the Spectre/SiSCloak channel) **only if no source
 *    register was produced by an earlier transient instruction**: the
 *    A53 has no register renaming and a short pipeline, so a
 *    speculated result never forwards (Section 6.4).  This single rule
 *    reproduces all three findings of Section 6.5: single-load leakage
 *    (SiSCloak), multiple *independent* transient loads, and no
 *    dependent (Spectre-PHT-style) transient load.
 *  - transient stores stay in the store buffer: no cache effect;
 *  - direct unconditional jumps do not trigger straight-line
 *    speculation (ARM's claim, validated in Section 6.5); a config
 *    switch enables it for ablation;
 *  - a cycle counter (PMC) accumulates rough latencies, enough for
 *    Flush+Reload timing decisions.
 */

#ifndef SCAMV_HW_CORE_HH
#define SCAMV_HW_CORE_HH

#include <array>
#include <cstdint>

#include "bir/bir.hh"
#include "hw/cache.hh"
#include "hw/memory.hh"
#include "hw/predictor.hh"
#include "hw/prefetcher.hh"
#include "hw/tlb.hh"

namespace scamv::hw {

/** Initial architectural register file of a run. */
struct ArchState {
    std::array<std::uint64_t, bir::kNumRegs> regs{};

    bool operator==(const ArchState &) const = default;
};

/** Core configuration (latencies and speculation behaviour). */
struct CoreConfig {
    obs::CacheGeometry geom;
    PrefetcherConfig prefetcher;
    PredictorConfig predictor;
    TlbConfig tlb;

    /** Max transient instructions executed after a misprediction. */
    int transientWindow = 8;
    /**
     * Allow a transient instruction to consume results produced by
     * earlier transient instructions (real A53: false).
     */
    bool forwardTransientResults = false;
    /** Speculate past direct unconditional jumps (real A53: false). */
    bool straightLineSpeculation = false;
    /** Transient loads train the prefetcher too. */
    bool transientTrainsPrefetcher = true;

    // Latency model (cycles).
    std::uint64_t aluLatency = 1;
    std::uint64_t hitLatency = 4;
    std::uint64_t missLatency = 150;
    std::uint64_t mispredictPenalty = 8;
    std::uint64_t tlbMissLatency = 20;

    /** Safety limit on architecturally executed instructions. */
    std::uint64_t maxInstructions = 100000;
};

/** Counters produced by one program run. */
struct RunResult {
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t transientLoadsIssued = 0;
    std::uint64_t transientLoadsBlocked = 0;
    std::uint64_t prefetches = 0;
    std::uint64_t tlbMisses = 0;
    /** Final architectural registers. */
    ArchState finalState;
    /** Architectural memory-access addresses, in program order. */
    std::vector<std::uint64_t> memTrace;
    /** Transient load addresses actually issued, in order. */
    std::vector<std::uint64_t> transientTrace;

    /**
     * Zero the counters and clear (but keep the capacity of) the
     * trace vectors, so a long-lived result buffer can be reused
     * across runs without reallocating.
     */
    void
    reset()
    {
        cycles = instructions = mispredicts = 0;
        transientLoadsIssued = transientLoadsBlocked = 0;
        prefetches = tlbMisses = 0;
        finalState = ArchState{};
        memTrace.clear();
        transientTrace.clear();
    }
};

/** The processor: core + cache + prefetcher + predictor + memory. */
class Core
{
  public:
    explicit Core(const CoreConfig &config = {},
                  std::uint64_t board_seed = 0xb0a2dULL);

    /** Run a program from an initial register state. */
    RunResult run(const bir::Program &program, const ArchState &init);

    /**
     * Allocation-free variant: resets `out` (keeping its trace
     * capacity) and runs into it.  Behaviourally identical to the
     * returning overload.
     */
    void run(const bir::Program &program, const ArchState &init,
             RunResult &out);

    /**
     * Restore every microarchitectural structure to its
     * post-construction state in place: cache, TLB, prefetcher and
     * predictor reset, memory cleared.  Equivalent to constructing a
     * fresh Core with the same config and board seed (each
     * component's reset() restores exactly its constructor state, and
     * Memory junk fill is a pure function of address and board seed),
     * but without any allocation — harness::Platform calls this once
     * per experiment on its long-lived core.
     */
    void resetMicroarch();

    /**
     * Timed single load, as an attacker's measured reload: accesses
     * addr and @return the latency in cycles (Flush+Reload probe).
     */
    std::uint64_t timedLoad(std::uint64_t addr);

    Cache &cache() { return dcache; }
    Tlb &tlb() { return dtlb; }
    Memory &memory() { return mem; }
    BranchPredictor &predictor() { return bpred; }
    StridePrefetcher &prefetcher() { return pf; }
    const CoreConfig &config() const { return cfg; }

  private:
    /** Transiently execute the wrong path starting at wrong_pc. */
    void speculate(const bir::Program &program, int wrong_pc,
                   const std::array<std::uint64_t, bir::kNumRegs> &regs,
                   RunResult &result);

    std::uint64_t aluOp(bir::AluOp op, std::uint64_t a,
                        std::uint64_t b) const;
    bool cmpOp(bir::CmpOp op, std::uint64_t a, std::uint64_t b) const;

    CoreConfig cfg;
    Cache dcache;
    Tlb dtlb;
    StridePrefetcher pf;
    BranchPredictor bpred;
    Memory mem;
};

} // namespace scamv::hw

#endif // SCAMV_HW_CORE_HH
