/**
 * @file
 * The Scam-V validation pipeline with observation refinement
 * (Fig. 1 / Fig. 8, Sections 3 and 5).
 *
 * For each generated program the pipeline:
 *
 *  1. instruments the program with observations for the model under
 *     validation M1 and (when refinement is enabled) the refined model
 *     M2, via the tag-based RefinementPair (Section 5.1) — for
 *     speculative models this includes the shadow-statement transform;
 *  2. symbolically executes the instrumented program once per state
 *     variable set (s1, s2, and a training set st), caching the result
 *     for all test cases of the program;
 *  3. synthesizes per-path-pair relations (Section 5.4) requiring
 *     equal M1 observations and, with refinement, different M2-only
 *     observations (Section 3, step 4);
 *  4. asks the SMT-lite solver for models, enumerating distinct test
 *     cases via blocking clauses and round-robin path-pair/line
 *     coverage;
 *  5. optionally synthesizes a branch-predictor training input that
 *     takes the other path (Section 5.3);
 *  6. executes each test case on the simulated platform and tallies
 *     counterexamples / inconclusive runs / timing, producing the
 *     statistics reported in Table 1 and Fig. 7.
 *
 * Programs are independent experiments, so the campaign loop runs
 * them on a thread pool (`PipelineConfig::threads`), one task per
 * program index.  Each task derives its own seed from
 * `deriveProgramSeed(cfg.seed, prog_i)` and owns its generator, Rng,
 * ExprContext and Platform; per-program results are merged in index
 * order afterwards, so every statistic and database record is
 * bit-identical for any thread count (see DESIGN.md, "Concurrency
 * model").
 *
 * The campaign is instrumented end to end against the metrics
 * registry (support/metrics.hh): each task owns a private registry
 * receiving phase timings (generate / symbolic_exec /
 * relation_synthesis / smt / hw_run) plus the solver and hardware
 * counters reported from the layers below; task snapshots are merged
 * in program-index order — the RunStats counters are rebuilt from
 * that merged snapshot, which is also exported via `RunStats::metrics`
 * and the SCAMV_METRICS / SCAMV_METRICS_TABLE environment variables
 * (see DESIGN.md, "Observability").
 */

#ifndef SCAMV_CORE_PIPELINE_HH
#define SCAMV_CORE_PIPELINE_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/expdb.hh"
#include "cover/ledger.hh"
#include "front/front.hh"
#include "gen/templates.hh"
#include "harness/platform.hh"
#include "obs/models.hh"
#include "support/faults.hh"
#include "support/metrics.hh"
#include "triage/findings.hh"

namespace scamv::qcache {
class QueryCache;
}

namespace scamv::cover {
struct RoundPlan;
}

namespace scamv::core {

/** Support-model coverage driving test-case enumeration (4.1). */
enum class Coverage {
    Pc,       ///< path-pair coverage only (Mpc)
    PcAndLine ///< Mpc + cache-set-index classes (Mline)
};

/** Campaign budget allocation policy (see src/cover, DESIGN.md §10). */
enum class Schedule {
    Uniform, ///< spend the budget uniformly (the pre-cover behaviour)
    Adaptive ///< deterministic rounds planned from the coverage ledger
};

/** Test-generation strategy (how models are drawn from the relation). */
enum class SolveStrategy {
    Canonical,    ///< CDCL, default polarities: minimal Z3-like models
    RandomPhases, ///< CDCL with randomized polarities per test case
    Sampler       ///< randomized repair sampler, CDCL fallback
};

/** Full pipeline configuration for one experiment campaign. */
struct PipelineConfig {
    gen::TemplateKind templateKind = gen::TemplateKind::A;
    /**
     * Multi-template campaigns: when non-empty, programs draw their
     * template from this list instead of `templateKind` — round-robin
     * under the Uniform schedule, coverage-weighted under Adaptive
     * (undecided / low-coverage templates get more budget).
     */
    std::vector<gen::TemplateKind> templateKinds;
    /**
     * Corpus workload (src/front): when set and non-empty, the
     * campaign validates these compiled SC kernels instead of drawing
     * from the generator templates — program prog_i runs corpus entry
     * prog_i % corpus->size(), its `public` qualifiers feed the
     * relation's low-input constraints, and its coverage-ledger bucket
     * is "corpus:<name>".  Unset resolves from SCAMV_CORPUS_DIR /
     * SCAMV_PROGRAM_FILE in resolveCampaignEnv() (shared_ptr so shard
     * workers and the service share one immutable load).
     */
    std::shared_ptr<const std::vector<front::CompiledProgram>> corpus;
    /** Model under validation (M1). */
    obs::ModelKind model = obs::ModelKind::Mct;
    /** Refined model (M2); disabled when unset. */
    std::optional<obs::ModelKind> refinement;
    Coverage coverage = Coverage::Pc;
    /** Rewrite direct jumps before instrumentation (Mspec'). */
    bool rewriteJumps = false;
    /** Train the branch predictor to mispredict (Section 5.3). */
    bool train = false;

    int programs = 50;
    int testsPerProgram = 40;
    std::uint64_t seed = 1;
    /**
     * Worker threads for program-level parallelism.  0 = auto: the
     * validated SCAMV_THREADS environment variable if set, otherwise
     * hardware_concurrency().  1 runs the campaign serially on the
     * calling thread (the reference path).  Results are identical
     * for every value (see DESIGN.md, "Concurrency model").
     */
    int threads = 0;
    /**
     * Use the deterministic metrics clock (see support/metrics.hh):
     * every duration in the campaign's metrics snapshot becomes a
     * pure function of the instrumented call sequence, so the
     * exported JSON is byte-identical for any thread count.  Used by
     * the determinism tests; production runs keep wall-clock timing.
     */
    bool deterministicMetricsTiming = false;

    obs::ModelParams modelParams;
    obs::MemoryRegion region;
    harness::PlatformConfig platform;

    /**
     * Budget allocation policy.  Unset resolves from the validated
     * SCAMV_SCHEDULE environment variable ("uniform" | "adaptive"),
     * defaulting to Uniform.  Uniform without coverage tracking (no
     * ledger, no SCAMV_COVERAGE_FILE) takes the exact pre-cover code
     * path: no extra rng draws, counters or clock reads, so campaign
     * results stay byte-identical to earlier releases.  Adaptive runs
     * the campaign in deterministic rounds planned from the coverage
     * ledger (see src/cover/scheduler.hh and DESIGN.md §10).
     */
    std::optional<Schedule> schedule;
    /**
     * Campaign coverage ledger (see src/cover/ledger.hh).  When set,
     * per-program coverage deltas are folded into it in program-index
     * order; when unset, run() uses an internal ledger whenever one
     * is needed (Adaptive schedule or SCAMV_COVERAGE_FILE).  Not
     * owned; must outlive the pipeline run.
     */
    cover::CoverageLedger *coverageLedger = nullptr;

    SolveStrategy strategy = SolveStrategy::Canonical;
    std::int64_t conflictBudget = 200000;
    /** Redraws of an unsatisfiable Mline coverage class per test. */
    int coverageRetries = 8;
    /**
     * Bits per variable participating in model-blocking clauses.
     * Low values make successive canonical test cases differ only in
     * the low address bits — the "too similar" unguided enumeration
     * of Section 1.  12 bits allow within-page drift, so unguided
     * search occasionally crosses a cache line and gets lucky, as the
     * paper's baseline does.
     */
    int blockingBits = 12;
    /**
     * Canonical-strategy model symmetrization (see DESIGN.md): after
     * solving, each register/memory difference between s1 and s2 that
     * the relation does not *require* is removed with this
     * probability.  Z3's structurally-canonical models behave this
     * way, which is what makes the paper's unguided baseline nearly
     * blind; the residual probability models search noise and
     * reproduces the rare lucky baseline counterexamples.
     */
    double similarityBias = 0.98;
    /**
     * Optional experiment log: when set, every executed experiment is
     * recorded (program, test case, verdict) for post-hoc analysis.
     * Not owned; must outlive the pipeline run.
     */
    ExperimentDb *database = nullptr;

    /**
     * Semantic SMT query cache (support/qcache).  When unset, run()
     * consults SCAMV_QCACHE_MB / SCAMV_QCACHE_FILE via
     * qcache::QueryCache::sharedFromEnv(); both unset leaves solving
     * uncached — the byte-exact pre-cache behaviour.  Hits replay the
     * original solve exactly (outcome, model, metric delta), so
     * campaign results are identical with a cold, warm or absent
     * cache; with a persistence file the cache doubles as a
     * checkpoint for interrupted campaigns.  Ignored (with a global
     * `qcache.bypass_faults` count) whenever the resolved fault plan
     * is enabled, keeping fault-injection campaigns byte-identical.
     * Not owned; must outlive the pipeline run.
     */
    qcache::QueryCache *queryCache = nullptr;

    /**
     * Fault-injection plan (see support/faults.hh).  Disabled by
     * default; a disabled plan is overlaid with SCAMV_FAULT_RATE /
     * SCAMV_FAULT_PLAN from the environment at run() time.  When the
     * resolved plan stays disabled no injector is installed and the
     * instrumented sites reduce to a thread-local null test.
     */
    faults::FaultPlan faultPlan;
    /**
     * Maximum extra attempts per stage when the previous attempt was
     * polluted by an injected fault.  -1 = resolve from the validated
     * SCAMV_RETRY_MAX environment variable, defaulting to 2.  Retries
     * are delta-gated on the injected-fault count, so genuine
     * (non-injected) failures are never retried and a fault-free
     * campaign behaves exactly as before.
     */
    int retryMax = -1;
    /**
     * Quarantine a program after this many *consecutive* test
     * iterations that failed attributably to injected faults: the
     * remaining tests of the program are abandoned and the program is
     * listed in RunStats::quarantinedPrograms instead of stalling the
     * campaign.
     */
    int quarantineAfter = 3;

    /**
     * Abstract-cache pre-screen (src/triage/screen.hh).  Programs the
     * abstraction proves boring — no M2-only observation can differ
     * across any relation pair — skip symbolic execution, relation
     * synthesis and SMT (counted `triage.screened` plus a per-reason
     * counter), and the screen's class mask gates adaptive coverage
     * draws so provably-unreachable classes don't consume the budget.
     * The screen may only skip provably fruitless work, never change
     * a verdict or database record (ctest's differential test).  Only
     * consulted under refinement.  -1 = resolve from SCAMV_TRIAGE
     * (0|1, default off).
     */
    int triageScreen = -1;
    /**
     * Counterexample minimizer (src/triage/minimize.hh): shrink each
     * confirmed counterexample to a minimal leaking core via ddmin
     * over statements and initial-state bits, re-validated through
     * the experiment platform.  Findings are clustered by mechanism
     * signature into RunStats::findings.  -1 = resolve from
     * SCAMV_MINIMIZE (0|1, default off).
     */
    int triageMinimize = -1;
    /**
     * Findings export path (scamv-findings-v1 JSON, see
     * src/triage/findings.hh).  Unset resolves from
     * SCAMV_FINDINGS_FILE.  Findings are collected (and classified)
     * whenever this is set or the minimizer is on; they are shrunk
     * only when the minimizer is on.
     */
    std::optional<std::string> findingsFile;
    /**
     * Optional per-program completion hook, invoked once per program
     * task right after its outcome slot is filled.  Purely
     * observational: the campaign's artifacts are byte-identical with
     * or without a hook installed (it runs outside the instrumented
     * registries and must not touch them).  Under SCAMV_THREADS > 1
     * the hook is called concurrently from pool workers, so it must
     * be thread-safe; `scamvd` uses it to stream live progress
     * counters to attached clients (src/svc).
     */
    std::function<void(int prog_i)> progressHook;
};

/** Campaign statistics, mirroring a column of Table 1 / Fig. 7. */
struct RunStats {
    std::string label;
    int programs = 0;
    int programsWithCex = 0;
    std::int64_t experiments = 0;
    std::int64_t counterexamples = 0;
    std::int64_t inconclusive = 0;
    std::int64_t generationFailures = 0;
    /** Faults injected by the active fault plan (0 when disabled). */
    std::int64_t faultsInjected = 0;
    /** Delta-gated stage retries taken after injected faults. */
    std::int64_t retryAttempts = 0;
    /** Programs abandoned after repeated injected failures. */
    int quarantined = 0;
    /** Degraded outcomes: quarantined/failed programs and accepted
     *  experiments whose repetitions carried injected flakes. */
    int degraded = 0;
    /** Program tasks that died with an exception (campaign survived). */
    int programFailures = 0;
    /** Database records dropped after exhausting write retries. */
    std::int64_t dbWriteDrops = 0;
    /** Coverage accounting ran (Adaptive schedule, a configured
     *  ledger, or SCAMV_COVERAGE_FILE). */
    bool coverageTracked = false;
    /** Distinct Mline classes covered, summed over templates. */
    std::int64_t coveredClasses = 0;
    /** Mline class universe, summed over templates (0: Pc-only). */
    std::uint64_t classUniverse = 0;
    /** Programs not run: adaptive early-stop on saturation. */
    int earlyStopped = 0;
    /** Programs proven boring by the triage pre-screen (skipped
     *  symbolic execution and SMT). */
    std::int64_t screened = 0;
    /** Findings kept unminimized after a minimizer flake. */
    std::int64_t triageDegraded = 0;
    /** Minimized counterexamples, in program-index order (collected
     *  when the minimizer or a findings export is enabled; export
     *  with triage::findingsToJson or via SCAMV_FINDINGS_FILE). */
    std::vector<triage::Finding> findings;
    /** Coverage deltas dropped by injected ledger-merge faults. */
    std::int64_t ledgerMergeDrops = 0;
    /** Adaptive scheduling degraded to uniform after merge faults. */
    bool schedulerDegraded = false;
    /** Final coverage-ledger snapshot (empty when untracked); export
     *  with cover::toJson, or via SCAMV_COVERAGE_FILE. */
    cover::Snapshot coverage;
    /** Names of quarantined programs, in program-index order. */
    std::vector<std::string> quarantinedPrograms;
    /** Names of failed program tasks, in program-index order. */
    std::vector<std::string> failedPrograms;
    double totalGenSeconds = 0.0;
    double totalExeSeconds = 0.0;
    /** Wall-clock seconds to the first counterexample (-1: none). */
    double ttcSeconds = -1.0;
    /**
     * Merged campaign metrics (per-phase time histograms, solver and
     * hardware counters) — the registry snapshot all counter fields
     * above are rebuilt from, folded in program-index order so it is
     * identical for any thread count.  Export with metrics::toJson /
     * metrics::toTable, or via the SCAMV_METRICS environment
     * variable (see README).
     */
    metrics::Snapshot metrics;

    double
    avgGenSeconds() const
    {
        const auto n = experiments + generationFailures;
        return n ? totalGenSeconds / static_cast<double>(n) : 0.0;
    }

    double
    avgExeSeconds() const
    {
        return experiments
                   ? totalExeSeconds / static_cast<double>(experiments)
                   : 0.0;
    }
};

/** The validation pipeline. */
class Pipeline
{
  public:
    explicit Pipeline(const PipelineConfig &config);

    /** Run the whole campaign. */
    RunStats run();

  private:
    PipelineConfig cfg;
};

/** @return true if the configuration requires shadow instrumentation. */
bool needsSpecInstrumentation(const PipelineConfig &cfg);

/**
 * One program's slot in the campaign schedule.  Under the Uniform
 * schedule the template is the round-robin draw and `plan` is null;
 * the adaptive scheduler assigns templates by coverage weight and
 * points `plan` at the round's class plan (not owned; must outlive
 * the task).  `slot`/`stride` stratify a round's tests over the
 * plan's classes (see src/cover/scheduler.hh).
 */
struct ProgramTask {
    int prog_i = 0;
    gen::TemplateKind templ = gen::TemplateKind::A;
    /** Corpus entry to run instead of generating (-1: generator). */
    int corpusIndex = -1;
    /** Collect a cover::ProgramDelta for the campaign ledger. */
    bool collectCover = false;
    /** Adaptive round plan for this program (nullptr: unguided). */
    const cover::RoundPlan *plan = nullptr;
    /** First class-plan slot this program's tests walk. */
    int slot = 0;
    /** Stride of the slot walk (the round's program count). */
    int stride = 1;
};

/**
 * Everything one program task produces, merged in program-index order
 * by the campaign tail (or exported per shard and merged by
 * shard::mergeCampaign).  Cache-line aligned: outcome slots are
 * written concurrently by neighbouring pool workers.
 */
struct alignas(64) ProgramOutcome {
    bool hasCex = false;
    bool failed = false;
    bool quarantined = false;
    std::string name;
    /** Offset of the first counterexample inside the task (-1: none),
     *  in task-clock seconds; the merge rebuilds the campaign
     *  time-to-counterexample from these on the sequential clock. */
    double firstCexOffsetSeconds = -1.0;
    double taskSeconds = 0.0;
    /** Experiment-log rows, flushed by the merge thread in order. */
    std::vector<ExperimentRecord> records;
    /** Coverage delta (empty unless ProgramTask::collectCover). */
    cover::ProgramDelta coverDelta;
    /** The task's private metrics registry snapshot. */
    metrics::Snapshot metrics;
    /** Triage findings of this program (see RunStats::findings). */
    std::vector<triage::Finding> findings;
};

/**
 * Resolve every environment-dependent knob of a campaign config the
 * way Pipeline::run() does — fault plan (SCAMV_FAULT_RATE /
 * SCAMV_FAULT_PLAN), retry budget (SCAMV_RETRY_MAX), schedule
 * (SCAMV_SCHEDULE) and query cache
 * (SCAMV_QCACHE_MB / SCAMV_QCACHE_FILE, bypassed when the resolved
 * fault plan is enabled).  Idempotent.  Shard workers and the merge
 * coordinator resolve once and pass the result to the slice / merge
 * entry points below, so every process answers environment questions
 * identically.
 */
PipelineConfig resolveCampaignEnv(PipelineConfig cfg);

/**
 * @return true when the resolved config tracks coverage: Adaptive
 * schedule, a configured ledger, or SCAMV_COVERAGE_FILE set.
 */
bool coverageTracked(const PipelineConfig &cfg);

/**
 * Run one program task under the campaign task guard (fresh
 * per-program registry and fault injector, exceptions contained as a
 * failed outcome).  `cfg` must be resolved (`resolveCampaignEnv`).
 * Pure function of (cfg, task): reruns — including a coordinator
 * re-dispatch of a lost shard slice — reproduce the outcome
 * byte-identically.
 */
ProgramOutcome runProgramTask(const PipelineConfig &cfg,
                              const ProgramTask &task);

/** Result of running a contiguous campaign slice (one shard). */
struct CampaignSlice {
    /** First program index of the slice. */
    int first = 0;
    /** Programs in the slice; `outcomes[k]` is program `first + k`. */
    int count = 0;
    std::vector<ProgramOutcome> outcomes;
    /** Slice programs skipped by adaptive early-stop. */
    int earlyStopped = 0;
    /** Adaptive rounds were planned locally over the slice (see
     *  DESIGN.md §12: recorded as `shard.schedule_local`). */
    bool scheduleLocal = false;
};

/**
 * Run programs [first, first + count) of the campaign.  `cfg` must be
 * resolved.  Under the Uniform schedule this executes exactly the
 * tasks a full run would give those indices, so concatenating slices
 * and merging with `mergeCampaignOutcomes` is byte-identical to
 * `Pipeline::run()`.  Under Adaptive the slice plans rounds locally
 * (its own throwaway ledger over its own budget) — deterministic for
 * a fixed partition, but not bit-equal to a global adaptive run.
 */
CampaignSlice runCampaignSlice(const PipelineConfig &cfg, int first,
                               int count);

/** Options for `mergeCampaignOutcomes`. */
struct MergeTailOptions {
    /** Programs skipped before the merge (adaptive early-stop). */
    int earlyStopped = 0;
    /** Honour SCAMV_COVERAGE_FILE / SCAMV_METRICS /
     *  SCAMV_METRICS_TABLE exports (workers building per-shard
     *  artifacts turn this off). */
    bool honorEnvExports = true;
};

/**
 * The campaign merge tail: fold `slots` (indexed by program) in
 * program-index order into a RunStats exactly as Pipeline::run()
 * does — coverage ledger fold, experiment-log flush with per-program
 * fault injectors and delta-gated retries, metrics snapshot merge on
 * the deterministic clock, counter rebuild and optional exports.
 * `cfg` must be resolved; empty slots (skipped or lost programs)
 * merge as no-ops.  Byte-identical to the tail of a 1-process run
 * for the same slots.
 */
RunStats mergeCampaignOutcomes(const PipelineConfig &cfg,
                               std::vector<ProgramOutcome> &slots,
                               const MergeTailOptions &opts = {});

/**
 * Per-program seed: a splitmix64-style avalanche over the campaign
 * seed and the program index.  Program prog_i's entire experiment
 * (generation, solving, platform noise) is a pure function of this
 * value, which is what makes the parallel campaign deterministic.
 */
std::uint64_t deriveProgramSeed(std::uint64_t seed, int prog_i);

/** The solver variables of a program's two test-case states. */
struct ModelVars {
    harness::StateVars s1;
    harness::StateVars s2;
    /** (s1, s2) variables of each register the program uses, in
     *  ascending register order. */
    std::vector<std::pair<expr::Expr, expr::Expr>> usedRegs;
};

/**
 * @return the ModelVars of `program` in `ctx`, resolved once per
 * program and without interning (harness::stateVars).  Both states
 * must have a memory variable and one for every register the program
 * uses, as symbolic execution of the two states leaves them.
 */
ModelVars modelVars(const expr::ExprContext &ctx,
                    const bir::Program &program);

/**
 * Canonical-model symmetrization (see PipelineConfig::similarityBias):
 * greedily copy s1's registers and memory words into s2 wherever
 * `formula` stays satisfied.  Differences the relation *requires*
 * (path conditions, refinement disequalities) survive; incidental
 * solver asymmetry is removed with probability `bias` per component.
 */
void symmetrizeModel(expr::Expr formula, const ModelVars &vars,
                     expr::Assignment &model, Rng &rng, double bias);

/**
 * Scale factor from the SCAMV_SCALE environment variable (default
 * `fallback`); benches multiply program/test counts by it.
 */
double scaleFromEnv(double fallback);

/** @return max(1, round(n * scale)). */
int scaled(int n, double scale);

} // namespace scamv::core

#endif // SCAMV_CORE_PIPELINE_HH
