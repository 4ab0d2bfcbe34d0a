/**
 * @file
 * Corpus campaign tests: the `.sc` kernels of examples/corpus are a
 * first-class workload.  Verifies the headline validation result —
 * under the cacheless Mpc model refined by constant-time Mct, the
 * secret-indexed kernels (sbox, stride_walker) produce
 * counterexamples while ct_select yields no experiments at all and
 * the public-indexed kernels (branchy_parser, memcmp_early) generate
 * no distinguishing tests — and the determinism matrix: campaign
 * artifacts are byte-identical across {1,4} worker threads, {1,4}
 * shards, standalone vs service, and explicit-config vs
 * SCAMV_CORPUS_DIR env resolution.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.hh"
#include "shard/shard.hh"
#include "svc/svc.hh"

namespace fs = std::filesystem;
using namespace scamv;

namespace {

std::string
repoPath(const std::string &rel)
{
    return std::string(SCAMV_REPO_ROOT) + "/" + rel;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return in ? ss.str() : std::string("<unreadable:" + path + ">");
}

/** Fresh per-test scratch directory under the gtest temp root. */
std::string
freshDir(const std::string &name)
{
    const std::string dir =
        testing::TempDir() + "scamv_corpus_" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

core::PipelineConfig
corpusCfg(int programs, int tests = 3, std::uint64_t seed = 99,
          bool adaptive = false)
{
    return shard::corpusWorkload(programs, tests, seed, adaptive,
                                 repoPath("examples/corpus"));
}

/** 1-process reference run writing the campaign artifact set. */
core::RunStats
runReference(core::PipelineConfig cfg, const std::string &dir)
{
    fs::create_directories(dir);
    cover::CoverageLedger ledger;
    core::ExperimentDb db;
    cfg.coverageLedger = &ledger;
    cfg.database = &db;
    core::Pipeline pipeline(cfg);
    const core::RunStats stats = pipeline.run();
    EXPECT_TRUE(shard::writeCampaignArtifacts(stats, &db, dir));
    return stats;
}

/** Worker/merge run, the scamv_worker + scamv_merge CLI path. */
shard::MergeResult
runSharded(const core::PipelineConfig &cfg, int shards,
           const std::string &root)
{
    for (int i = 0; i < shards; ++i) {
        core::PipelineConfig wcfg = cfg;
        cover::CoverageLedger ledger;
        wcfg.coverageLedger = &ledger;
        const shard::WorkerResult res = shard::runWorker(
            wcfg, shard::ShardSpec{i, shards},
            shard::shardDir(root, i));
        EXPECT_TRUE(res.ok);
    }
    core::PipelineConfig mcfg = cfg;
    cover::CoverageLedger ledger;
    core::ExperimentDb db;
    mcfg.coverageLedger = &ledger;
    mcfg.database = &db;
    shard::MergeOptions opts;
    opts.rerunMissing = true;
    return shard::mergeCampaign(mcfg, shards, root, opts);
}

void
expectArtifactsEqual(const std::string &dir, const std::string &ref)
{
    for (const char *f :
         {shard::kMetricsFile, shard::kCoverageFile, shard::kDbFile,
          shard::kStatsFile})
        EXPECT_EQ(readFile(dir + "/" + f), readFile(ref + "/" + f))
            << "artifact " << f << " differs between " << dir
            << " and " << ref;
}

/** db.csv rows whose program name starts with `prefix` and whose
 *  verdict column matches `verdict` ("" counts all rows). */
int
dbRows(const std::string &db_path, const std::string &prefix,
       const std::string &verdict = "")
{
    std::istringstream in(readFile(db_path));
    std::string line;
    int count = 0;
    std::getline(in, line); // header
    while (std::getline(in, line)) {
        if (line.rfind(prefix, 0) != 0)
            continue;
        if (verdict.empty() ||
            line.find("," + verdict + ",") != std::string::npos)
            ++count;
    }
    return count;
}

class CorpusTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        for (const char *var :
             {"SCAMV_QCACHE_MB", "SCAMV_QCACHE_FILE",
              "SCAMV_FAULT_RATE", "SCAMV_FAULT_PLAN",
              "SCAMV_SCHEDULE", "SCAMV_COVERAGE_FILE",
              "SCAMV_METRICS", "SCAMV_METRICS_TABLE",
              "SCAMV_THREADS", "SCAMV_RETRY_MAX",
              "SCAMV_SHARD", "SCAMV_SHARD_DIR", "SCAMV_TRIAGE",
              "SCAMV_MINIMIZE", "SCAMV_FINDINGS_FILE",
              "SCAMV_CORPUS_DIR", "SCAMV_PROGRAM_FILE",
              "SCAMV_UNROLL_BUDGET"})
            unsetenv(var);
    }
};

} // namespace

// ---------------------------------------------------------------
// Validation verdicts (the paper's refinement story on real kernels)

TEST_F(CorpusTest, SboxAndStrideLeakCtSelectDoesNot)
{
    const std::string dir = freshDir("verdicts");
    // 10 programs over 5 kernels: every kernel runs twice.
    const core::RunStats stats =
        runReference(corpusCfg(10), dir);
    EXPECT_EQ(stats.programs, 10);
    EXPECT_GT(stats.counterexamples, 0);

    const std::string db = dir + "/" + shard::kDbFile;
    // Secret-indexed loads: refinement disequality satisfiable, the
    // synthesized experiments distinguish the two states on hardware.
    EXPECT_GT(dbRows(db, "sbox#", "counterexample"), 0);
    EXPECT_GT(dbRows(db, "stride_walker#", "counterexample"), 0);
    // Branchless, load-free select: the refined-only observation set
    // is empty, the path pairs are discarded before synthesis — no
    // experiments at all, not merely no counterexamples.
    EXPECT_EQ(dbRows(db, "ct_select#"), 0);
    // Public-indexed loads: both models observe the same addresses,
    // the refinement disequality is Unsat — no distinguishing tests.
    EXPECT_EQ(dbRows(db, "branchy_parser#", "counterexample"), 0);
    EXPECT_EQ(dbRows(db, "memcmp_early#", "counterexample"), 0);

    // Corpus programs get their own coverage-ledger buckets; the
    // load-free ct_select never reaches class enumeration, so it has
    // no bucket at all.
    const std::string coverage =
        readFile(dir + "/" + shard::kCoverageFile);
    EXPECT_NE(coverage.find("corpus:sbox"), std::string::npos);
    EXPECT_NE(coverage.find("corpus:stride_walker"),
              std::string::npos);
    EXPECT_EQ(coverage.find("corpus:ct_select"), std::string::npos);
}

// ---------------------------------------------------------------
// Determinism matrix

TEST_F(CorpusTest, ThreadCountDoesNotChangeArtifacts)
{
    const std::string d1 = freshDir("threads1");
    const std::string d4 = freshDir("threads4");
    runReference(corpusCfg(5), d1);
    core::PipelineConfig cfg = corpusCfg(5);
    cfg.threads = 4;
    runReference(cfg, d4);
    expectArtifactsEqual(d4, d1);
}

TEST_F(CorpusTest, ShardCountDoesNotChangeArtifacts)
{
    const std::string ref = freshDir("shardref");
    runReference(corpusCfg(5), ref);
    for (const int shards : {1, 4}) {
        const std::string root =
            freshDir("shards" + std::to_string(shards));
        const shard::MergeResult res =
            runSharded(corpusCfg(5), shards, root);
        EXPECT_TRUE(res.missingPrograms.empty());
        expectArtifactsEqual(root, ref);
    }
}

TEST_F(CorpusTest, ServiceCampaignMatchesStandalone)
{
    const std::string root = freshDir("svc");
    svc::SubmissionSpec spec;
    spec.programs = 5;
    spec.tests = 3;
    spec.seed = 99;
    spec.corpusDir = repoPath("examples/corpus");

    svc::ServiceConfig cfg;
    cfg.dir = root + "/svc";
    cfg.workers = 2;
    cfg.shards = 2;
    std::uint64_t id = 0;
    {
        svc::Service service(cfg);
        const svc::SubmitResult res = service.submit(spec);
        ASSERT_TRUE(res.accepted) << res.error;
        id = res.id;
        EXPECT_TRUE(service.wait(id));
        const auto st = service.status(id);
        ASSERT_TRUE(st.has_value());
        EXPECT_EQ(st->state, svc::SubmissionState::Done);
        EXPECT_GT(st->counterexamples, 0);
    }
    // Standalone reference through the same campaignConfig — the spec
    // round-trips its corpus path through the scamv-rpc-v1 codec.
    std::string err;
    const auto back = svc::specFromArgs(svc::specToArgs(spec), err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(*back, spec);
    const std::string ref = root + "/ref";
    const shard::MergeResult res =
        runSharded(svc::campaignConfig(*back), 2, ref);
    EXPECT_TRUE(res.missingPrograms.empty());
    expectArtifactsEqual(root + "/svc/campaign-" + std::to_string(id),
                         ref);
}

TEST_F(CorpusTest, EnvCorpusMatchesExplicitConfig)
{
    // SCAMV_CORPUS_DIR resolution (core::resolveCampaignEnv) feeds
    // the same corpus the explicit config carries: a run configured
    // only through the environment is byte-identical.
    const std::string ref = freshDir("envref");
    runReference(corpusCfg(5), ref);

    const std::string env_dir = freshDir("envrun");
    core::PipelineConfig cfg = corpusCfg(5);
    cfg.corpus.reset(); // force env resolution
    setenv("SCAMV_CORPUS_DIR",
           repoPath("examples/corpus").c_str(), 1);
    runReference(cfg, env_dir);
    unsetenv("SCAMV_CORPUS_DIR");
    expectArtifactsEqual(env_dir, ref);
}
