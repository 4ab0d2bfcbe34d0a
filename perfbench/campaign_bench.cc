/**
 * @file
 * Campaign benchmark program: one closed-loop batch campaign in flight,
 * one thread, one workload per process.
 *
 *   campaign_bench --workload NAME --seed N --seconds S --corpus DIR
 *                  [--trace-out FILE]
 *   campaign_bench --setup-only --workload NAME --seed N --corpus DIR
 *
 * With --setup-only it sets the workload up, prints when set-up ended
 * and exits.  Otherwise it sets the workload up, runs one untimed
 * warm-up campaign through the public slice/merge entry points (which also yields the
 * per-program verdicts the checks need), then times Pipeline::run()
 * trials until S seconds have passed.  With
 * --trace-out it then runs the campaign once more with spans recorded
 * around the layers' public entry points (trace.cc) and writes them to
 * FILE.  It prints one JSON record on stdout; perfbench/run.py turns
 * records into metrics and checks them.
 */

#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "shard/shard.hh"
#include "support/metrics.hh"
#include "support/qcache/qcache.hh"
#include "trace.hh"

extern char **environ;

namespace {

using namespace scamv;
namespace trace = perfbench::trace;
using core::PipelineConfig;
using core::RunStats;

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------
// Workloads.  Each is a paper configuration at a size where one
// campaign takes 1-3 s on one core, so a run holds several trials.

/** Table 1, Mct / Template A with Mspec refinement (SiSCloak). */
PipelineConfig
mctASpec(std::uint64_t seed, const std::string &)
{
    PipelineConfig cfg;
    cfg.templateKind = gen::TemplateKind::A;
    cfg.model = obs::ModelKind::Mct;
    cfg.refinement = obs::ModelKind::Mspec;
    cfg.train = true;
    cfg.programs = 120;
    cfg.testsPerProgram = 40;
    cfg.seed = seed;
    cfg.platform.noiseProbability = 0.0005;
    return cfg;
}

/** The SC example corpus compiled through front (Mpc refined by Mct). */
PipelineConfig
corpusSc(std::uint64_t seed, const std::string &corpus_dir)
{
    return shard::corpusWorkload(20, 20, seed, /*adaptive=*/false,
                                 corpus_dir);
}

struct Workload {
    const char *name;
    PipelineConfig (*config)(std::uint64_t, const std::string &);
    /** Campaigns run against an in-memory query cache that an
     *  untimed cold campaign filled during set-up. */
    bool warmCache = false;
};

const Workload kWorkloads[] = {
    {"mct_a_spec", mctASpec},
    {"corpus_sc", corpusSc},
    {"mct_a_warm", mctASpec, /*warmCache=*/true},
};

/** A workload ready to run: resolved config plus the cache it uses. */
struct Prepared {
    PipelineConfig cfg;
    std::unique_ptr<qcache::QueryCache> cache;
    double fillSeconds = 0.0;
};

Prepared
prepare(const Workload &w, std::uint64_t seed,
        const std::string &corpus_dir)
{
    Prepared p;
    p.cfg = w.config(seed, corpus_dir);
    p.cfg.threads = 1;
    p.cfg.schedule = core::Schedule::Uniform;
    p.cfg = core::resolveCampaignEnv(std::move(p.cfg));
    if (w.warmCache) {
        qcache::CacheConfig cc;
        cc.maxBytes = std::size_t{1} << 30;
        p.cache = std::make_unique<qcache::QueryCache>(cc);
        p.cfg.queryCache = p.cache.get();
        const double t0 = wallNow();
        core::Pipeline(p.cfg).run();
        p.fillSeconds = wallNow() - t0;
    }
    return p;
}

// ---------------------------------------------------------------
// Deterministic work counters.

const char *const kRunCounters[] = {
    "smt.queries",   "smt.sat",        "sat.decisions",
    "sat.propagations", "sat.conflicts", "hw.runs",
    "hw.instructions", "platform.repetitions",
};
// The query cache counts into the process-global registry.
const char *const kGlobalCounters[] = {"qcache.hit", "qcache.miss"};

std::uint64_t
counterOf(const metrics::Snapshot &s, const char *name)
{
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
}

/** One campaign's verdict and work counters. */
struct Tally {
    std::int64_t programs = 0, programsWithCex = 0, experiments = 0,
                 counterexamples = 0, generationFailures = 0,
                 programFailures = 0, quarantined = 0;
    std::vector<std::pair<const char *, std::uint64_t>> counters;
};

Tally
tally(const RunStats &stats, const metrics::Snapshot &global0,
      const metrics::Snapshot &global1)
{
    Tally t;
    t.programs = stats.programs;
    t.programsWithCex = stats.programsWithCex;
    t.experiments = stats.experiments;
    t.counterexamples = stats.counterexamples;
    t.generationFailures = stats.generationFailures;
    t.programFailures = stats.programFailures;
    t.quarantined = stats.quarantined;
    for (const char *name : kRunCounters)
        t.counters.emplace_back(name, counterOf(stats.metrics, name));
    for (const char *name : kGlobalCounters)
        t.counters.emplace_back(name, counterOf(global1, name) -
                                          counterOf(global0, name));
    return t;
}

// ---------------------------------------------------------------
// JSON output.

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonDoubles(const std::vector<double> &v)
{
    std::string out = "[";
    char buf[32];
    for (std::size_t i = 0; i < v.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "", v[i]);
        out += buf;
    }
    return out + "]";
}

std::string
jsonTally(const Tally &t)
{
    std::string out =
        "\"programs\":" + std::to_string(t.programs) +
        ",\"programs_with_cex\":" + std::to_string(t.programsWithCex) +
        ",\"experiments\":" + std::to_string(t.experiments) +
        ",\"counterexamples\":" + std::to_string(t.counterexamples) +
        ",\"generation_failures\":" +
        std::to_string(t.generationFailures) +
        ",\"program_failures\":" + std::to_string(t.programFailures) +
        ",\"quarantined\":" + std::to_string(t.quarantined) +
        ",\"counters\":{";
    for (std::size_t i = 0; i < t.counters.size(); ++i)
        out += std::string(i ? "," : "") + "\"" + t.counters[i].first +
               "\":" + std::to_string(t.counters[i].second);
    return out + "}";
}

// ---------------------------------------------------------------

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "campaign_bench: %s\nusage: campaign_bench --workload "
                 "NAME --seed N --seconds S --corpus DIR "
                 "[--trace-out FILE]\n"
                 "       campaign_bench --setup-only --workload NAME "
                 "--seed N --corpus DIR\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, corpus_dir, trace_out;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool setup_only = false;
    int argi = 1;
    if (argc > 1 && std::strcmp(argv[1], "--setup-only") == 0) {
        setup_only = true;
        seconds = 1.0;
        ++argi;
    }
    if ((argc - argi) % 2 != 0)
        return usage("missing or malformed arguments");
    for (int i = argi; i + 1 < argc; i += 2) {
        const std::string flag = argv[i], val = argv[i + 1];
        if (flag == "--workload")
            workload = val;
        else if (flag == "--seed")
            seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            seconds = std::strtod(val.c_str(), nullptr);
        else if (flag == "--corpus")
            corpus_dir = val;
        else if (flag == "--trace-out")
            trace_out = val;
        else
            return usage(("unknown flag " + flag).c_str());
    }
    if (seconds <= 0.0 || corpus_dir.empty())
        return usage("missing or malformed arguments");

    // Pipeline::run() resolves SCAMV_* variables even on an explicit
    // config (SCAMV_FAULT_* is overlaid on a disabled fault plan), so a
    // stray one would silently change the measured program.
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "SCAMV_", 6) == 0) {
            std::fprintf(stderr, "campaign_bench: refusing to run with "
                                 "%s set\n", *e);
            return 2;
        }
    }

    const Workload *w = nullptr;
    for (const Workload &cand : kWorkloads)
        if (workload == cand.name)
            w = &cand;
    if (!w)
        return usage(("unknown workload " + workload).c_str());

    // Set-up ends where the timed work could begin.  run.py takes
    // setup_s from its spawn time to this reading (the steady clock is
    // CLOCK_MONOTONIC on both sides).
    Prepared prepared = prepare(*w, seed, corpus_dir);
    char head[128];
    std::snprintf(head, sizeof head,
                  "\"ready_clock\":%.9f,\"qcache_fill_s\":%.9g",
                  wallNow(), prepared.fillSeconds);
    if (setup_only) {
        std::printf("{%s}\n", head);
        return 0;
    }
    const PipelineConfig &cfg = prepared.cfg;
    if (cfg.corpus && cfg.corpus->empty()) {
        std::fprintf(stderr, "campaign_bench: no kernels in %s\n",
                     corpus_dir.c_str());
        return 1;
    }

    // Warm-up campaign through the public slice/merge entry points
    // (byte-identical to Pipeline::run()); its per-program outcomes
    // carry the verdicts the checks need.  A cached workload warms up
    // without its cache: that campaign is the uncached reference its
    // cached trials must reproduce.
    PipelineConfig ref_cfg = cfg;
    if (w->warmCache)
        ref_cfg.queryCache = nullptr;
    metrics::Snapshot g0 = metrics::Registry::global().snapshot();
    core::CampaignSlice slice =
        core::runCampaignSlice(ref_cfg, 0, cfg.programs);
    const std::vector<core::ProgramOutcome> outcomes = slice.outcomes;
    const RunStats warm_stats =
        core::mergeCampaignOutcomes(ref_cfg, slice.outcomes);
    metrics::Snapshot g1 = metrics::Registry::global().snapshot();
    const Tally warm = tally(warm_stats, g0, g1);

    // Timed trials.  The progress hook runs in program order on the
    // calling thread; its timestamps split each trial into per-program
    // wall and CPU times (the stretch after the last program is the
    // merge tail).  run.py takes each program's minimum over trials.
    //
    // Each trial runs pinned to the next core the process may use, in
    // turn: on a shared host one core can stay slow for longer than a
    // run, and the per-program minimum then still sees the others.
    struct Trial {
        double wall = 0.0, cpu = 0.0;
        int core = -1;
        std::vector<double> programWall, programCpu;
        Tally tally;
    };
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    std::vector<int> cores;
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed))
                cores.push_back(c);
    std::vector<Trial> trials;
    const double run_t0 = wallNow();
    do {
        Trial trial;
        if (!cores.empty()) {
            cpu_set_t one;
            CPU_ZERO(&one);
            trial.core = cores[trials.size() % cores.size()];
            CPU_SET(trial.core, &one);
            if (sched_setaffinity(0, sizeof one, &one) != 0)
                trial.core = -1;
        }
        PipelineConfig tcfg = cfg;
        double last_wall = 0.0, last_cpu = 0.0;
        tcfg.progressHook = [&](int) {
            const double t = wallNow(), c = cpuNow();
            trial.programWall.push_back(t - last_wall);
            trial.programCpu.push_back(c - last_cpu);
            last_wall = t;
            last_cpu = c;
        };
        g0 = metrics::Registry::global().snapshot();
        last_cpu = cpuNow();
        last_wall = wallNow();
        const double t0 = last_wall, c0 = last_cpu;
        const RunStats stats = core::Pipeline(tcfg).run();
        trial.wall = wallNow() - t0;
        trial.cpu = cpuNow() - c0;
        g1 = metrics::Registry::global().snapshot();
        trial.tally = tally(stats, g0, g1);
        trials.push_back(std::move(trial));
    } while (wallNow() - run_t0 < seconds);
    if (!cores.empty())
        sched_setaffinity(0, sizeof allowed, &allowed);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    std::string out = "{\"workload\":" + jsonString(w->name) +
                      ",\"seed\":" + std::to_string(seed) +
                      ",\"tests_per_program\":" +
                      std::to_string(cfg.testsPerProgram) +
                      ",\"build\":{\"compiler\":" +
                      jsonString(PERFBENCH_COMPILER) +
                      ",\"build_type\":" +
                      jsonString(PERFBENCH_BUILD_TYPE) +
                      ",\"flags\":" + jsonString(PERFBENCH_FLAGS) + "}";
    out += std::string(",") + head;
    out += ",\"peak_rss_kb\":" + std::to_string(ru.ru_maxrss);
    out += ",\"warmup\":{" + jsonTally(warm) + ",\"per_program\":[";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const core::ProgramOutcome &o = outcomes[i];
        out += std::string(i ? "," : "") +
               "{\"name\":" + jsonString(o.name) +
               ",\"cex\":" + (o.hasCex ? "true" : "false") +
               ",\"failed\":" + (o.failed ? "true" : "false") +
               ",\"experiments\":" +
               std::to_string(
                   counterOf(o.metrics, "pipeline.experiments")) +
               "}";
    }
    out += "]},\"trials\":[";
    for (std::size_t i = 0; i < trials.size(); ++i) {
        const Trial &t = trials[i];
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "%s{\"wall_s\":%.9g,\"cpu_s\":%.9g,\"core\":%d,",
                      i ? "," : "", t.wall, t.cpu, t.core);
        out += buf + jsonTally(t.tally) +
               ",\"program_wall_s\":" + jsonDoubles(t.programWall) +
               ",\"program_cpu_s\":" + jsonDoubles(t.programCpu) + "}";
    }
    out += "]";

    if (!trace_out.empty()) {
        // Traced run: the workload's configuration once more (so the
        // corpus compile shows as a front span; the prepared config and
        // cache are reused), then the same campaign program by program
        // through runCampaignSlice and the merge, with spans recorded.
        std::vector<core::ProgramOutcome> slots(
            static_cast<std::size_t>(cfg.programs));
        g0 = metrics::Registry::global().snapshot();
        trace::enable(true);
        {
            trace::setProgram(-1);
            trace::Scope setup("setup");
            w->config(seed, corpus_dir);
        }
        const double c0 = wallNow();
        for (int k = 0; k < cfg.programs; ++k) {
            trace::setProgram(k);
            trace::Scope span("program");
            core::CampaignSlice one = core::runCampaignSlice(cfg, k, 1);
            slots[static_cast<std::size_t>(k)] =
                std::move(one.outcomes.front());
        }
        trace::setProgram(-1);
        RunStats traced;
        {
            trace::Scope span("core.merge");
            traced = core::mergeCampaignOutcomes(cfg, slots);
        }
        const double campaign_wall = wallNow() - c0;
        trace::enable(false);
        g1 = metrics::Registry::global().snapshot();
        if (!trace::writeChromeTrace(trace_out))
            std::fprintf(stderr, "campaign_bench: cannot write %s\n",
                         trace_out.c_str());

        const trace::Counts &n = trace::counts();
        char wall_buf[64];
        std::snprintf(wall_buf, sizeof wall_buf, "%.9g", campaign_wall);
        out += ",\"trace\":{\"campaign_s\":" + std::string(wall_buf) +
               "," + jsonTally(tally(traced, g0, g1)) +
               ",\"sym_paths\":" + std::to_string(n.symPaths) +
               ",\"rel_pairs\":" + std::to_string(n.relPairs) +
               ",\"solve_with_unsat\":" +
               std::to_string(n.solveWithUnsat) +
               ",\"front_kernels\":" + std::to_string(n.frontKernels) +
               ",\"spans\":{";
        bool first = true;
        for (const auto &[name, a] : trace::aggregate()) {
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "%s\"%s\":{\"calls\":%lld,\"total_s\":%.9g,"
                          "\"self_s\":%.9g}",
                          first ? "" : ",", name.c_str(),
                          static_cast<long long>(a.calls),
                          a.totalSeconds, a.selfSeconds);
            out += buf;
            first = false;
        }
        out += "}}";
    }
    out += "}";
    std::printf("%s\n", out.c_str());
    return 0;
}
