/**
 * @file
 * Shared bench helper: measure the hot-path solver engine
 * (incremental per-pair solving) against the oneshot solver baseline
 * on the paper's stride workload and emit `BENCH_hotpath.json`
 * (schema "scamv-hotpath-v1").
 *
 * Three configurations run the same campaign (same seed, programs,
 * tests) on the platform's single simulation path:
 *
 *  - baseline_oneshot: SolverMode::Oneshot (fresh solver per test,
 *    op-log replay) — the quadratic-solving shape the hot-path engine
 *    replaces;
 *  - hotpath_incremental: SolverMode::Incremental — one live solver
 *    per pair;
 *  - hotpath_portfolio: like incremental, plus the sampler scout on
 *    genuine budget exhaustion (never fires on this workload).
 *
 * All three must produce byte-identical campaign artifacts (verdict
 * counters and the ExperimentDb CSV) — the report's "deterministic"
 * field — and the incremental configuration must beat the baseline by
 * `kMinSpeedup` end-to-end, which is the report's self-gate.
 * Per-program latency percentiles come from the campaign's
 * `pipeline.program_seconds` histogram (wall-clock registry).
 */

#ifndef SCAMV_BENCH_HOTPATH_REPORT_HH
#define SCAMV_BENCH_HOTPATH_REPORT_HH

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/expdb.hh"
#include "core/pipeline.hh"
#include "gen/templates.hh"
#include "obs/models.hh"
#include "smt/modes.hh"
#include "support/stopwatch.hh"

namespace scamv::benchsupport {

/** Required baseline : hotpath end-to-end wall-clock advantage. */
inline constexpr double kMinSpeedup = 1.5;

namespace hotpath_detail {

struct ModeResult {
    core::RunStats stats;
    double wallSeconds = 0.0;
    double p50 = 0.0; ///< per-program latency median (seconds)
    double p99 = 0.0; ///< per-program latency tail (seconds)
    std::string csv;  ///< ExperimentDb export (determinism witness)
};

inline core::PipelineConfig
strideWorkload()
{
    core::PipelineConfig cfg;
    cfg.templateKind = gen::TemplateKind::Stride;
    cfg.model = obs::ModelKind::Mpart;
    cfg.refinement = obs::ModelKind::MpartRefined;
    cfg.coverage = core::Coverage::PcAndLine;
    cfg.testsPerProgram = 8;
    cfg.seed = 99;
    cfg.threads = 1;
    cfg.modelParams.attacker.loSet = 61;
    cfg.platform.visibleLoSet = 61;
    cfg.platform.visibleHiSet = 127;
    cfg.programs =
        std::max(8, core::scaled(16, core::scaleFromEnv(1.0)));
    return cfg;
}

inline ModeResult
runMode(smt::SolverMode mode)
{
    core::ExperimentDb db;
    core::PipelineConfig cfg = strideWorkload();
    cfg.solverMode = mode;
    cfg.database = &db;
    ModeResult r;
    Stopwatch watch;
    r.stats = core::Pipeline(cfg).run();
    r.wallSeconds = watch.seconds();

    const auto hist =
        r.stats.metrics.histograms.find("pipeline.program_seconds");
    if (hist != r.stats.metrics.histograms.end()) {
        r.p50 = hist->second.quantile(0.5);
        r.p99 = hist->second.quantile(0.99);
    }

    const std::string path =
        std::string("hotpath_") + smt::solverModeName(mode) + ".csv";
    if (db.exportCsv(path)) {
        std::ifstream in(path);
        std::ostringstream text;
        text << in.rdbuf();
        r.csv = text.str();
        std::remove(path.c_str());
    }
    return r;
}

/** Campaign artifacts the modes must agree on, byte for byte. */
inline bool
sameArtifacts(const ModeResult &a, const ModeResult &b)
{
    return a.csv == b.csv && !a.csv.empty() &&
           a.stats.experiments == b.stats.experiments &&
           a.stats.counterexamples == b.stats.counterexamples &&
           a.stats.inconclusive == b.stats.inconclusive &&
           a.stats.generationFailures == b.stats.generationFailures;
}

inline void
appendMode(std::string &out, const char *name, const char *solver,
           const ModeResult &r)
{
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "    \"%s\": {\"solver\": \"%s\", "
        "\"wall_s\": %.4f, \"p50_program_s\": %.6f, "
        "\"p99_program_s\": %.6f, \"experiments\": %lld, "
        "\"counterexamples\": %lld}",
        name, solver, r.wallSeconds, r.p50, r.p99,
        static_cast<long long>(r.stats.experiments),
        static_cast<long long>(r.stats.counterexamples));
    out += buf;
}

} // namespace hotpath_detail

/**
 * Run the baseline/hotpath comparison and write `path` in the
 * "scamv-hotpath-v1" schema.
 * @return false when the report cannot be written, the modes diverge,
 * or the hotpath engine fails the kMinSpeedup gate.
 */
inline bool
writeHotpathReport(const std::string &path = "BENCH_hotpath.json")
{
    using hotpath_detail::ModeResult;

    const ModeResult baseline =
        hotpath_detail::runMode(smt::SolverMode::Oneshot);
    const ModeResult hotpath =
        hotpath_detail::runMode(smt::SolverMode::Incremental);
    const ModeResult portfolio =
        hotpath_detail::runMode(smt::SolverMode::Portfolio);

    const bool deterministic =
        hotpath_detail::sameArtifacts(baseline, hotpath) &&
        hotpath_detail::sameArtifacts(baseline, portfolio);
    const double speedup = hotpath.wallSeconds > 0
                               ? baseline.wallSeconds /
                                     hotpath.wallSeconds
                               : 0.0;

    std::printf("[hotpath] baseline (oneshot solver):  "
                "%.3fs  p50 %.4fs  p99 %.4fs\n",
                baseline.wallSeconds, baseline.p50, baseline.p99);
    std::printf("[hotpath] hotpath  (incremental):     "
                "%.3fs  p50 %.4fs  p99 %.4fs\n",
                hotpath.wallSeconds, hotpath.p50, hotpath.p99);
    std::printf("[hotpath] hotpath  (portfolio):       "
                "%.3fs  p50 %.4fs  p99 %.4fs\n",
                portfolio.wallSeconds, portfolio.p50, portfolio.p99);
    std::printf("[hotpath] speedup: %.2fx (gate: %.1fx)  "
                "deterministic: %s\n",
                speedup, kMinSpeedup, deterministic ? "yes" : "NO");

    const core::PipelineConfig wl = hotpath_detail::strideWorkload();
    std::string body = "{\n  \"schema\": \"scamv-hotpath-v1\",\n";
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "  \"workload\": {\"template\": \"stride\", "
                  "\"programs\": %d, \"tests_per_program\": %d, "
                  "\"seed\": %llu},\n",
                  wl.programs, wl.testsPerProgram,
                  static_cast<unsigned long long>(wl.seed));
    body += buf;
    body += "  \"modes\": {\n";
    hotpath_detail::appendMode(body, "baseline_oneshot", "oneshot",
                               baseline);
    body += ",\n";
    hotpath_detail::appendMode(body, "hotpath_incremental",
                               "incremental", hotpath);
    body += ",\n";
    hotpath_detail::appendMode(body, "hotpath_portfolio", "portfolio",
                               portfolio);
    body += "\n  },\n";
    std::snprintf(buf, sizeof buf,
                  "  \"speedup\": %.3f,\n  \"min_speedup\": %.2f,\n"
                  "  \"deterministic\": %s\n}\n",
                  speedup, kMinSpeedup,
                  deterministic ? "true" : "false");
    body += buf;

    std::ofstream out(path);
    if (!out || !(out << body))
        return false;
    out.close();
    return deterministic && speedup >= kMinSpeedup;
}

} // namespace scamv::benchsupport

#endif // SCAMV_BENCH_HOTPATH_REPORT_HH
