/**
 * @file
 * The deterministic campaign workload shared by the scamv_worker and
 * scamv_merge binaries and the ShardTest suite.
 */

#include "shard/shard.hh"

namespace scamv::shard {

core::PipelineConfig
defaultWorkload(int programs, int tests, std::uint64_t seed,
                bool adaptive, bool line)
{
    core::PipelineConfig cfg;
    cfg.templateKind = gen::TemplateKind::Stride;
    cfg.model = obs::ModelKind::Mpart;
    cfg.refinement = obs::ModelKind::MpartRefined;
    cfg.coverage =
        line ? core::Coverage::PcAndLine : core::Coverage::Pc;
    cfg.programs = programs;
    cfg.testsPerProgram = tests;
    cfg.seed = seed;
    // One worker thread per process: shard-level parallelism comes
    // from running N worker processes, and the byte-identity
    // reference is the 1-process, 1-thread run.
    cfg.threads = 1;
    // Artifacts are diffed byte-for-byte across process counts, so
    // every duration must come from the deterministic clock.
    cfg.deterministicMetricsTiming = true;
    // Pin the schedule explicitly: workers and coordinator must
    // answer the uniform/adaptive question identically even if their
    // environments diverge.
    cfg.schedule =
        adaptive ? core::Schedule::Adaptive : core::Schedule::Uniform;
    cfg.modelParams.attacker.loSet = 61;
    cfg.platform.visibleLoSet = 61;
    cfg.platform.visibleHiSet = 127;
    return cfg;
}

core::PipelineConfig
corpusWorkload(int programs, int tests, std::uint64_t seed,
               bool adaptive, const std::string &corpus_dir)
{
    core::PipelineConfig cfg =
        defaultWorkload(programs, tests, seed, adaptive, /*line=*/false);
    // Validate the cacheless model refined by the ct model: the
    // refinement disequality asks for two low-equivalent states whose
    // *addresses* differ — exactly what a secret-indexed table lookup
    // provides and a constant-time kernel cannot.
    cfg.model = obs::ModelKind::Mpc;
    cfg.refinement = obs::ModelKind::Mct;
    // Mline support coverage: unguided canonical models make the two
    // states' addresses differ by a few bytes — same cache line, so
    // the platform cannot distinguish them (the paper's "too similar"
    // enumeration).  Pinning per-test set-index classes spreads the
    // states across lines, which is what flushes out the S-box leak.
    cfg.coverage = core::Coverage::PcAndLine;
    // Corpus arrays span the whole region; make every set observable.
    cfg.modelParams.attacker.loSet = 0;
    cfg.platform.visibleLoSet = 0;

    front::CompileOptions fopts;
    fopts.arrayBase = cfg.region.base;
    fopts.arrayLimit = cfg.region.base + cfg.region.size;
    std::vector<front::CompiledProgram> loaded =
        front::loadCorpusDir(corpus_dir, fopts);
    cfg.corpus = std::make_shared<
        const std::vector<front::CompiledProgram>>(std::move(loaded));
    return cfg;
}

} // namespace scamv::shard
