/**
 * @file
 * Hot-path engine tests: histogram quantiles (p50/p99 export), and
 * campaign identity — the incremental per-pair solver must produce
 * identical verdicts, experiment logs and metrics for any thread
 * count, cold or warm query cache, and under fault injection.  The
 * platform's simulate-once replay is checked against a
 * per-repetition reference executor, and gated on its hw.runs count.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/expdb.hh"
#include "core/pipeline.hh"
#include "gen/templates.hh"
#include "harness/platform.hh"
#include "hw/core.hh"
#include "obs/models.hh"
#include "support/env.hh"
#include "support/faults.hh"
#include "support/metrics.hh"
#include "support/qcache/qcache.hh"
#include "support/rng.hh"

namespace scamv {
namespace {

// ---------------------------------------------------------------------
// Histogram quantiles (p50/p99 metric export)

TEST(HistogramQuantile, EmptyHistogramIsZero)
{
    metrics::HistogramData h;
    h.bounds = {1.0, 2.0};
    h.counts = {0, 0, 0};
    EXPECT_EQ(h.quantile(0.5), 0.0);
    EXPECT_EQ(h.quantile(0.99), 0.0);
}

TEST(HistogramQuantile, InterpolatesWithinBucket)
{
    metrics::HistogramData h;
    h.bounds = {1.0, 2.0};
    h.counts = {4, 0, 0}; // all mass in [0, 1)
    h.count = 4;
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.5);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.0);

    h.counts = {2, 2, 0};
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.75), 1.5);
}

TEST(HistogramQuantile, OverflowBucketClampsToLastBound)
{
    metrics::HistogramData h;
    h.bounds = {1.0, 2.0};
    h.counts = {0, 0, 3}; // all mass beyond the last bound
    h.count = 3;
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 2.0);
}

TEST(HistogramQuantile, P50NeverExceedsP99)
{
    metrics::Registry reg(metrics::ClockMode::Deterministic);
    auto &h = reg.histogram("t");
    for (int i = 0; i < 100; ++i)
        h.observe(0.001 * i);
    const auto snap = reg.snapshot();
    const auto &data = snap.histograms.at("t");
    EXPECT_LE(data.quantile(0.5), data.quantile(0.99));
}

TEST(HistogramQuantile, JsonExportCarriesPercentiles)
{
    metrics::Registry reg(metrics::ClockMode::Deterministic);
    reg.histogram("lat").observe(0.5);
    const std::string json = metrics::toJson(reg.snapshot());
    EXPECT_NE(json.find("\"p50\":"), std::string::npos);
    EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

// ---------------------------------------------------------------------
// Campaign identity

/** Campaign artifacts two runs must agree on, byte for byte. */
struct Artifacts {
    std::string metricsJson;
    std::string csv;
    std::int64_t counterexamples = 0;
};

std::string
csvOf(const core::ExperimentDb &db, const char *tag)
{
    const std::string path =
        std::string(::testing::TempDir()) + "scamv_hotpath_" + tag +
        ".csv";
    EXPECT_TRUE(db.exportCsv(path));
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    std::remove(path.c_str());
    return text.str();
}

/** PcAndLine campaign: exercises solveWith on the live solver. */
core::PipelineConfig
lineCampaign()
{
    core::PipelineConfig cfg;
    cfg.templateKind = gen::TemplateKind::Stride;
    cfg.model = obs::ModelKind::Mpart;
    cfg.refinement = obs::ModelKind::MpartRefined;
    cfg.coverage = core::Coverage::PcAndLine;
    cfg.programs = 4;
    cfg.testsPerProgram = 4;
    cfg.seed = 7;
    cfg.deterministicMetricsTiming = true;
    return cfg;
}

/** Pc campaign with training: exercises plain solve + solveOnce. */
core::PipelineConfig
pcCampaign()
{
    core::PipelineConfig cfg;
    cfg.templateKind = gen::TemplateKind::A;
    cfg.model = obs::ModelKind::Mct;
    cfg.refinement = obs::ModelKind::Mspec;
    cfg.train = true;
    cfg.programs = 4;
    cfg.testsPerProgram = 5;
    cfg.seed = 42;
    cfg.deterministicMetricsTiming = true;
    return cfg;
}

Artifacts
runArtifacts(core::PipelineConfig cfg, int threads, const char *tag,
             qcache::QueryCache *qc = nullptr)
{
    core::ExperimentDb db;
    cfg.threads = threads;
    cfg.queryCache = qc;
    cfg.database = &db;
    const core::RunStats stats = core::Pipeline(cfg).run();
    return {metrics::toJson(stats.metrics), csvOf(db, tag),
            stats.counterexamples};
}

TEST(CampaignIdentity, LineCoverageAcrossThreads)
{
    const Artifacts ref = runArtifacts(lineCampaign(), 1, "line_ref");
    EXPECT_FALSE(ref.csv.empty());
    const Artifacts got = runArtifacts(lineCampaign(), 4, "line");
    EXPECT_EQ(got.metricsJson, ref.metricsJson);
    EXPECT_EQ(got.csv, ref.csv);
    EXPECT_EQ(got.counterexamples, ref.counterexamples);
}

TEST(CampaignIdentity, PcCoverageColdAndWarmCache)
{
    // Cached and uncached campaigns differ in their metric tick
    // sequences (the cache layer makes its own clock observations),
    // so metrics are compared within a cache configuration — the repo
    // invariant is cold == warm == any thread count — and the
    // experiment log across both.
    const Artifacts ref = runArtifacts(pcCampaign(), 1, "pc_ref");
    EXPECT_FALSE(ref.csv.empty());

    // Cold through a fresh cache, then warm: the second campaign
    // through the same cache replays every enumeration step from
    // cached entries, at a different thread count.
    qcache::QueryCache qc({8 << 20, ""});
    const Artifacts cold = runArtifacts(pcCampaign(), 1, "pc_cold", &qc);
    EXPECT_EQ(cold.csv, ref.csv);
    const Artifacts warm = runArtifacts(pcCampaign(), 4, "pc_warm", &qc);
    EXPECT_EQ(warm.metricsJson, cold.metricsJson);
    EXPECT_EQ(warm.csv, cold.csv);
}

TEST(CampaignIdentity, FaultInjectionAllSites)
{
    // SCAMV_FAULT_PLAN=all equivalent: every site armed.  The fault
    // campaign must replay byte-identically at any thread count.
    faults::FaultPlan plan;
    plan.rate = 0.3;
    plan.mask = faults::FaultPlan::maskAll();

    core::PipelineConfig base = pcCampaign();
    base.faultPlan = plan;
    base.retryMax = 2;

    const Artifacts ref = runArtifacts(base, 1, "fault_ref");
    const Artifacts got = runArtifacts(base, 4, "fault");
    EXPECT_EQ(got.metricsJson, ref.metricsJson);
    EXPECT_EQ(got.csv, ref.csv);
}

TEST(CampaignIdentity, LineCoverageFaultCampaign)
{
    faults::FaultPlan plan;
    plan.rate = 0.3;
    plan.mask = faults::FaultPlan::maskAll();

    core::PipelineConfig base = lineCampaign();
    base.faultPlan = plan;
    base.retryMax = 2;

    const Artifacts ref = runArtifacts(base, 1, "lfault_ref");
    const Artifacts got = runArtifacts(base, 4, "lfault");
    EXPECT_EQ(got.metricsJson, ref.metricsJson);
    EXPECT_EQ(got.csv, ref.csv);
}

// ---------------------------------------------------------------------
// Simulation replay

/** SCAMV_FUZZ_ITERS scale, like test_solver_fuzz. */
int
fuzzScale()
{
    return static_cast<int>(
        envLong("SCAMV_FUZZ_ITERS", 1, 1000).value_or(1));
}

/**
 * Reference executor: the per-repetition loop that
 * harness::Platform::runExperiment replays.  Every repetition builds a
 * fresh core and trains it; then, for each state, it prepares, primes,
 * runs, applies the noise and flake draws and reads the channel.
 */
class PerRepReference
{
  public:
    PerRepReference(const harness::PlatformConfig &config,
                    std::uint64_t noise_seed)
        : cfg(config), noiseRng(noise_seed)
    {}

    harness::ExperimentResult
    runExperiment(const bir::Program &program, const harness::TestCase &tc,
                  const std::optional<harness::ProgramInput> &training)
    {
        harness::ExperimentResult result;
        result.totalReps = cfg.repeats;
        int clean_differing = 0;
        for (int rep = 0; rep < cfg.repeats; ++rep) {
            const std::uint64_t faults_before = faults::injectedCount();
            hw::Core core(cfg.core, cfg.boardSeed);
            const harness::ProgramInput &warmup =
                training ? *training : tc.s1;
            for (int t = 0; t < cfg.trainingRuns; ++t) {
                core.cache().reset();
                core.prefetcher().reset();
                core.memory().clear();
                for (const auto &[addr, val] : warmup.mem)
                    core.memory().store(addr, val);
                core.run(program, warmup.regs);
            }
            const Measurement m1 = measure(core, program, tc.s1);
            const Measurement m2 = measure(core, program, tc.s2);
            const bool flaked = faults::injectedCount() != faults_before;
            if (flaked)
                ++result.flakedReps;
            if (!(m1 == m2)) {
                ++result.differingReps;
                if (!flaked)
                    ++clean_differing;
            }
        }
        const int clean = result.totalReps - result.flakedReps;
        if (result.flakedReps == 0 && result.differingReps == 0)
            result.verdict = harness::Verdict::Indistinguishable;
        else if (clean > 0 && clean_differing == clean)
            result.verdict = harness::Verdict::Counterexample;
        else
            result.verdict = harness::Verdict::Inconclusive;
        return result;
    }

  private:
    struct Measurement {
        hw::CacheState cache;
        std::vector<std::uint64_t> probe;
        hw::TlbState tlb;

        bool operator==(const Measurement &) const = default;
    };

    std::uint64_t
    lineAddr(std::uint64_t set, std::uint64_t way) const
    {
        const int shift = cfg.core.geom.lineShift();
        return cfg.attackerArrayBase +
               way * (cfg.core.geom.numSets << shift) + (set << shift);
    }

    void
    strayAccess(hw::Core &core, std::uint64_t tag_base)
    {
        const int shift = cfg.core.geom.lineShift();
        const std::uint64_t set =
            cfg.visibleLoSet +
            noiseRng.below(cfg.visibleHiSet - cfg.visibleLoSet + 1);
        const std::uint64_t tag = tag_base + noiseRng.below(16);
        core.cache().access(
            (tag << (shift + cfg.core.geom.setShift())) | (set << shift));
    }

    Measurement
    measure(hw::Core &core, const bir::Program &program,
            const harness::ProgramInput &input)
    {
        core.cache().reset();
        core.tlb().reset();
        core.prefetcher().reset();
        core.memory().clear();
        for (const auto &[addr, val] : input.mem)
            core.memory().store(addr, val);
        const bool probing = cfg.channel == harness::Channel::PrimeProbe;
        if (probing)
            for (std::uint64_t set = cfg.visibleLoSet;
                 set <= cfg.visibleHiSet; ++set)
                for (std::uint64_t way = 0; way < cfg.core.geom.ways;
                     ++way)
                    core.cache().access(lineAddr(set, way));
        core.run(program, input.regs);

        if (cfg.noiseProbability > 0.0 &&
            noiseRng.chance(cfg.noiseProbability)) {
            metrics::current().counter("platform.noise_injections").inc();
            strayAccess(core, 0x7fffULL);
        }
        if (faults::maybeInject(faults::Site::HwFlake))
            strayAccess(core, 0x6eefULL);

        Measurement m;
        if (cfg.channel == harness::Channel::TlbSnapshot) {
            m.tlb = core.tlb().snapshot();
        } else if (probing) {
            for (std::uint64_t set = cfg.visibleLoSet;
                 set <= cfg.visibleHiSet; ++set) {
                std::uint64_t total = 0;
                for (std::uint64_t way = cfg.core.geom.ways; way > 0;
                     --way)
                    total += core.timedLoad(lineAddr(set, way - 1));
                m.probe.push_back(total);
            }
        } else {
            m.cache = core.cache().snapshot(cfg.visibleLoSet,
                                            cfg.visibleHiSet);
        }
        return m;
    }

    harness::PlatformConfig cfg;
    Rng noiseRng;
};

/** Random input: mostly line-aligned addresses into a 512 KiB region. */
harness::ProgramInput
randomInput(Rng &rng)
{
    auto word = [&rng] {
        return rng.chance(0.8) ? 0x80000 + rng.below(0x80000 / 8) * 8
                               : rng.below(1024);
    };
    harness::ProgramInput in;
    for (std::uint64_t &r : in.regs.regs)
        r = word();
    for (int k = 0; k < 4; ++k)
        in.mem.emplace_back(0x80000 + rng.below(0x80000 / 8) * 8, word());
    return in;
}

struct Experiment {
    harness::TestCase tc;
    std::optional<harness::ProgramInput> training;
};

/** Results and replay-sensitive counters of one executor's run. */
struct Replay {
    std::vector<harness::ExperimentResult> results;
    std::map<std::string, std::uint64_t> counters;
};

/**
 * Run `exps` back to back through one executor, under one fault
 * injector: a drift in the number of noise or fault draws one
 * experiment makes shifts every draw of the next.
 */
template <class Executor>
Replay
runBackToBack(Executor &exec, const bir::Program &program,
              const std::vector<Experiment> &exps,
              const faults::FaultPlan &plan, int prog)
{
    metrics::Registry reg(metrics::ClockMode::Deterministic);
    metrics::ScopedRegistry reg_scope(reg);
    faults::Injector injector(plan, 42, prog);
    faults::ScopedInjector inj_scope(injector);
    Replay out;
    for (const Experiment &e : exps)
        out.results.push_back(
            exec.runExperiment(program, e.tc, e.training));
    for (const auto &[name, value] : reg.snapshot().counters)
        if (name.starts_with("faults.injected") ||
            name == "platform.noise_injections" ||
            name.starts_with("hw.probe."))
            out.counters[name] = value;
    return out;
}

/**
 * Differential check of Platform::runExperiment against the
 * per-repetition reference over every channel, noise off and on, and
 * with and without a mistraining input.
 */
void
expectReplayMatchesReference(const faults::FaultPlan &plan)
{
    const int programs = 3 * fuzzScale();
    std::map<harness::Verdict, int> verdicts;
    int flaked_reps = 0;
    for (harness::Channel channel :
         {harness::Channel::TrustZoneSnapshot,
          harness::Channel::PrimeProbe, harness::Channel::TlbSnapshot}) {
        for (double noise : {0.0, 0.3}) {
            for (bool train : {false, true}) {
                harness::PlatformConfig pc;
                pc.channel = channel;
                pc.noiseProbability = noise;
                gen::ProgramGenerator gen(gen::TemplateKind::A, 11);
                Rng rng(29);
                for (int i = 0; i < programs; ++i) {
                    SCOPED_TRACE(::testing::Message()
                                 << "channel " << static_cast<int>(channel)
                                 << " noise " << noise << " train "
                                 << train << " program " << i);
                    const bir::Program program = gen.next();
                    std::vector<Experiment> exps(2);
                    for (Experiment &e : exps) {
                        e.tc.s1 = randomInput(rng);
                        e.tc.s2 =
                            rng.chance(0.5) ? e.tc.s1 : randomInput(rng);
                        if (train)
                            e.training = randomInput(rng);
                    }
                    const std::uint64_t seed = 0x5eed0 + i;
                    PerRepReference ref_exec(pc, seed);
                    harness::Platform platform(pc, seed);
                    const Replay ref =
                        runBackToBack(ref_exec, program, exps, plan, i);
                    const Replay got =
                        runBackToBack(platform, program, exps, plan, i);
                    ASSERT_EQ(got.results.size(), ref.results.size());
                    for (std::size_t k = 0; k < ref.results.size(); ++k) {
                        const auto &a = got.results[k];
                        const auto &b = ref.results[k];
                        EXPECT_EQ(a.verdict, b.verdict) << "exp " << k;
                        EXPECT_EQ(a.differingReps, b.differingReps)
                            << "exp " << k;
                        EXPECT_EQ(a.totalReps, b.totalReps);
                        EXPECT_EQ(a.flakedReps, b.flakedReps)
                            << "exp " << k;
                        ++verdicts[b.verdict];
                        flaked_reps += b.flakedReps;
                    }
                    EXPECT_EQ(got.counters, ref.counters);
                }
            }
        }
    }
    // The comparison must not pass vacuously.  Flaked repetitions
    // can never certify agreement, so a fault plan this dense leaves
    // no room for Indistinguishable verdicts.
    EXPECT_GT(verdicts[harness::Verdict::Counterexample], 0);
    EXPECT_GT(verdicts[harness::Verdict::Inconclusive], 0);
    if (plan.enabled()) {
        EXPECT_GT(flaked_reps, 0);
    } else {
        EXPECT_GT(verdicts[harness::Verdict::Indistinguishable], 0);
    }
}

TEST(SimReplayFuzz, MatchesPerRepReference)
{
    expectReplayMatchesReference(faults::FaultPlan{});
}

TEST(SimReplayFuzz, MatchesPerRepReferenceUnderFaults)
{
    faults::FaultPlan plan;
    plan.rate = 0.3;
    plan.mask = faults::FaultPlan::maskAll();
    expectReplayMatchesReference(plan);
}

TEST(SimReplayCounters, HwRunsCountOneSimulationPerState)
{
    // Deterministic gate on the replay: each experiment simulates its
    // training runs and its two measured states once, whatever the
    // repetition count.  A return to per-repetition simulation
    // multiplies hw.runs by `repeats` and fails here.
    core::PipelineConfig cfg = pcCampaign();
    const core::RunStats stats = core::Pipeline(cfg).run();
    const auto &c = stats.metrics.counters;
    const std::uint64_t experiments = c.at("platform.experiments");
    ASSERT_GT(experiments, 0u);
    EXPECT_EQ(c.at("hw.runs"),
              experiments *
                  static_cast<std::uint64_t>(cfg.platform.trainingRuns + 2));
    EXPECT_EQ(c.at("platform.repetitions"),
              experiments *
                  static_cast<std::uint64_t>(cfg.platform.repeats));
    EXPECT_EQ(c.at("platform.training_runs"),
              experiments *
                  static_cast<std::uint64_t>(cfg.platform.repeats *
                                             cfg.platform.trainingRuns));
}

} // namespace
} // namespace scamv
