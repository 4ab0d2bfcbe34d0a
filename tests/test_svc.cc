/**
 * @file
 * Campaign service tests: scamv-rpc-v1 codec round-trip and damage
 * handling, submission-queue ordering determinism, and the service
 * byte-identity contract (ARCHITECTURE.md, invariant 10) — a
 * campaign submitted through `svc::Service` produces artifacts
 * byte-identical to the same campaign run standalone through the
 * shard worker/merge machinery with an equivalently warmed qcache,
 * across {1,2} concurrent submissions x {cold, warm} x
 * fault-plan-all, with `svc_worker_lost` recovery and
 * `svc_accept_drop` rejection.
 */

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.hh"
#include "shard/shard.hh"
#include "support/faults.hh"
#include "support/metrics.hh"
#include "svc/svc.hh"

namespace fs = std::filesystem;
using namespace scamv;

namespace {

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
    const std::string dir = testing::TempDir() + "scamv_svc_" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::uint64_t
globalCounter(const std::string &name)
{
    const metrics::Snapshot snap =
        metrics::Registry::global().snapshot();
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

/**
 * Standalone reference: the same campaign run through the shard
 * worker/merge machinery directly — the scamv_worker/scamv_merge CLI
 * path — optionally with every shard seeded from a checkpoint file
 * (the "equivalently warmed cache" of invariant 10).
 */
shard::MergeResult
runStandalone(const svc::SubmissionSpec &spec, int shards,
              const std::string &root,
              const std::string &seed_ckpt = "")
{
    std::error_code ec;
    for (int i = 0; i < shards; ++i) {
        const std::string sdir = shard::shardDir(root, i);
        fs::create_directories(sdir, ec);
        if (!seed_ckpt.empty())
            fs::copy_file(seed_ckpt,
                          sdir + "/" + shard::kQcacheFile,
                          fs::copy_options::overwrite_existing, ec);
    }
    for (int i = 0; i < shards; ++i) {
        core::PipelineConfig cfg = svc::campaignConfig(spec);
        cover::CoverageLedger ledger;
        cfg.coverageLedger = &ledger;
        const shard::WorkerResult res = shard::runWorker(
            cfg, shard::ShardSpec{i, shards},
            shard::shardDir(root, i));
        EXPECT_TRUE(res.ok);
    }
    core::PipelineConfig cfg = svc::campaignConfig(spec);
    cover::CoverageLedger ledger;
    core::ExperimentDb db;
    cfg.coverageLedger = &ledger;
    cfg.database = &db;
    if (spec.minimize)
        cfg.findingsFile = root + "/findings.json";
    shard::MergeOptions opts;
    opts.rerunMissing = true;
    return shard::mergeCampaign(cfg, shards, root, opts);
}

void
expectArtifactsEqual(const std::string &dir, const std::string &ref,
                     bool with_qcache, bool with_findings = false)
{
    std::vector<std::string> files = {
        shard::kMetricsFile, shard::kCoverageFile, shard::kDbFile,
        shard::kStatsFile};
    if (with_qcache)
        files.push_back(shard::kQcacheFile);
    if (with_findings)
        files.push_back("findings.json");
    for (const std::string &f : files)
        EXPECT_EQ(readFile(dir + "/" + f), readFile(ref + "/" + f))
            << "artifact " << f << " differs between " << dir
            << " and " << ref;
}

svc::SubmissionSpec
smallSpec(std::uint64_t seed = 7)
{
    svc::SubmissionSpec spec;
    spec.programs = 6;
    spec.tests = 3;
    spec.seed = seed;
    return spec;
}

class SvcTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        // The byte-identity contract assumes the service fleet and
        // the standalone reference answer environment questions
        // identically; scrub every knob the campaign machinery and
        // the service consult.
        for (const char *var :
             {"SCAMV_QCACHE_MB", "SCAMV_QCACHE_FILE",
              "SCAMV_FAULT_RATE", "SCAMV_FAULT_PLAN",
              "SCAMV_SCHEDULE", "SCAMV_COVERAGE_FILE",
              "SCAMV_METRICS", "SCAMV_METRICS_TABLE",
              "SCAMV_THREADS", "SCAMV_RETRY_MAX",
              "SCAMV_SHARD", "SCAMV_SHARD_DIR", "SCAMV_TRIAGE",
              "SCAMV_MINIMIZE", "SCAMV_FINDINGS_FILE",
              "SCAMV_SVC_DIR", "SCAMV_SVC_SOCKET",
              "SCAMV_SVC_WORKERS", "SCAMV_SVC_SHARDS",
              "SCAMV_SVC_QUEUE_MAX"})
            unsetenv(var);
    }
};

} // namespace

// ---------------------------------------------------------------
// scamv-rpc-v1 codec

TEST(SvcRpc, PayloadRoundTrip)
{
    const std::vector<svc::Frame> frames = {
        {"PING", {}},
        {"SUBMIT", {"programs=8", "seed=7"}},
        {"OK", {"", "-", "with space", "percent%sign", "a\nb",
                "tab\tfield"}},
        {"PROGRESS", {"1", "running", "3", "8"}},
    };
    for (const svc::Frame &frame : frames) {
        const std::string payload = svc::encodePayload(frame);
        EXPECT_EQ(payload.find('\n'), std::string::npos);
        const auto back = svc::decodePayload(payload);
        ASSERT_TRUE(back.has_value()) << payload;
        EXPECT_EQ(*back, frame);
    }
}

TEST(SvcRpc, PayloadDamageIsRejectedWhole)
{
    const svc::Frame frame{"SUBMIT", {"programs=8", "name with space"}};
    const std::string good = svc::encodePayload(frame);
    ASSERT_TRUE(svc::decodePayload(good).has_value());
    // Any single-byte flip breaks the checksum (payload bytes) or
    // the checksum's own hex encoding; the frame is dropped whole.
    for (std::size_t i = 0; i < good.size(); ++i) {
        std::string bad = good;
        bad[i] = bad[i] == 'x' ? 'y' : 'x';
        EXPECT_FALSE(svc::decodePayload(bad).has_value())
            << "byte " << i;
    }
    EXPECT_FALSE(svc::decodePayload("").has_value());
    EXPECT_FALSE(svc::decodePayload("PING").has_value());
}

TEST(SvcRpc, WireFramingIsIncremental)
{
    const svc::Frame frame{"STATUS", {"42"}};
    const std::string wire = svc::encodeFrame(frame);
    svc::Frame out;
    std::size_t consumed = 0;
    // Every strict prefix wants more bytes; the full buffer decodes.
    for (std::size_t n = 0; n < wire.size(); ++n)
        EXPECT_EQ(svc::decodeFrame(wire.substr(0, n), out, consumed),
                  svc::FrameStatus::NeedMore)
            << "prefix " << n;
    ASSERT_EQ(svc::decodeFrame(wire, out, consumed),
              svc::FrameStatus::Ok);
    EXPECT_EQ(out, frame);
    EXPECT_EQ(consumed, wire.size());

    // Two frames back to back: the first decode consumes exactly one.
    const std::string two = wire + svc::encodeFrame(frame);
    ASSERT_EQ(svc::decodeFrame(two, out, consumed),
              svc::FrameStatus::Ok);
    EXPECT_EQ(consumed, wire.size());

    // Damaged prefix and oversized length are Bad, not NeedMore.
    EXPECT_EQ(svc::decodeFrame("zzzzzzzz\nrest", out, consumed),
              svc::FrameStatus::Bad);
    EXPECT_EQ(svc::decodeFrame("ffffffff\n", out, consumed),
              svc::FrameStatus::Bad);
    std::string flipped = wire;
    flipped[10] = flipped[10] == 'x' ? 'y' : 'x';
    EXPECT_EQ(svc::decodeFrame(flipped, out, consumed),
              svc::FrameStatus::Bad);
}

TEST(SvcRpc, SpecArgsRoundTripAndValidation)
{
    svc::SubmissionSpec spec;
    spec.programs = 12;
    spec.tests = 5;
    spec.seed = 0xdeadbeef;
    spec.adaptive = true;
    spec.line = true;
    spec.priority = 3;
    spec.shards = 4;
    spec.faultRate = 0.25;
    spec.faultSites = "svc_worker_lost,db_write";
    spec.retryMax = 1;
    spec.triage = true;
    spec.minimize = true;

    std::string err;
    const auto back = svc::specFromArgs(svc::specToArgs(spec), err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_EQ(*back, spec);

    for (const char *bad :
         {"programs=0", "programs=x", "nonsense=1", "tests=-3",
          "fault_rate=2", "shards=65", "priority=101", "noequals"}) {
        EXPECT_FALSE(svc::specFromArgs({bad}, err).has_value())
            << bad;
    }
}

TEST(SvcRpc, FaultPlanForCoversSvcSites)
{
    svc::SubmissionSpec spec;
    spec.faultRate = 1.0;
    spec.faultSites = "svc_accept_drop svc_worker_lost";
    const faults::FaultPlan plan = svc::faultPlanFor(spec);
    EXPECT_TRUE(plan.enabled());
    EXPECT_TRUE(plan.covers(faults::Site::SvcAcceptDrop));
    EXPECT_TRUE(plan.covers(faults::Site::SvcWorkerLost));
    EXPECT_FALSE(plan.covers(faults::Site::DbWrite));
    // "all" includes the service sites.
    spec.faultSites = "all";
    EXPECT_TRUE(svc::faultPlanFor(spec).covers(
        faults::Site::SvcWorkerLost));
    // Canonical names round-trip through the site registry.
    EXPECT_EQ(faults::siteFromName("svc_accept_drop"),
              faults::Site::SvcAcceptDrop);
    EXPECT_EQ(faults::siteFromName("svc_worker_lost"),
              faults::Site::SvcWorkerLost);
}

// ---------------------------------------------------------------
// Submission queue

TEST(SvcQueue, PriorityThenFifoDeterministic)
{
    svc::SubmissionQueue q;
    q.push(1, 0);
    q.push(2, 5);
    q.push(3, 0);
    q.push(4, 5);
    q.push(5, -1);
    const std::vector<std::uint64_t> want = {2, 4, 1, 3, 5};
    for (const std::uint64_t id : want) {
        const auto got = q.pop();
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, id);
    }
    EXPECT_FALSE(q.pop().has_value());

    // Replaying the same push sequence replays the same pop order.
    svc::SubmissionQueue r;
    r.push(1, 0);
    r.push(2, 5);
    r.push(3, 0);
    r.push(4, 5);
    r.push(5, -1);
    for (const std::uint64_t id : want)
        EXPECT_EQ(r.pop(), id);
}

// ---------------------------------------------------------------
// Service byte-identity (invariant 10)

TEST_F(SvcTest, ColdCampaignMatchesStandalone)
{
    const std::string root = freshDir("cold");
    svc::ServiceConfig cfg;
    cfg.dir = root + "/svc";
    cfg.workers = 2;
    cfg.shards = 2;
    std::uint64_t id = 0;
    {
        svc::Service service(cfg);
        const svc::SubmitResult res = service.submit(smallSpec());
        ASSERT_TRUE(res.accepted) << res.error;
        id = res.id;
        EXPECT_TRUE(service.wait(id));
        const auto st = service.status(id);
        ASSERT_TRUE(st.has_value());
        EXPECT_EQ(st->state, svc::SubmissionState::Done);
        EXPECT_EQ(st->programsDone, st->programsTotal);
    }
    runStandalone(smallSpec(), 2, root + "/ref");
    // No cache env: compare the deterministic artifact set.
    expectArtifactsEqual(root + "/svc/campaign-" + std::to_string(id),
                         root + "/ref", /*with_qcache=*/false);
}

TEST_F(SvcTest, SharedCacheSequentialWarmMatrix)
{
    setenv("SCAMV_QCACHE_MB", "8", 1);
    const std::string root = freshDir("warm");
    svc::ServiceConfig cfg;
    cfg.dir = root + "/svc";
    cfg.workers = 2;
    cfg.shards = 2;
    {
        svc::Service service(cfg);
        const std::uint64_t m0 = globalCounter("qcache.miss");
        const auto r1 = service.submit(smallSpec());
        ASSERT_TRUE(r1.accepted);
        EXPECT_TRUE(service.wait(r1.id));
        const std::uint64_t m1 = globalCounter("qcache.miss");
        const auto r2 = service.submit(smallSpec());
        ASSERT_TRUE(r2.accepted);
        EXPECT_TRUE(service.wait(r2.id));
        const std::uint64_t m2 = globalCounter("qcache.miss");
        service.drain();
        // The shared checkpoint must pay for itself: the second
        // submission re-solves at most 70% of what the first did.
        EXPECT_GT(m1 - m0, 0u);
        EXPECT_LE(10 * (m2 - m1), 7 * (m1 - m0))
            << "first submission missed " << m1 - m0
            << " times, second " << m2 - m1;
        // The shared checkpoint exists after the ordered folds.
        EXPECT_TRUE(fs::exists(service.checkpointPath()));
    }
    // Reference 1: cold standalone run.
    runStandalone(smallSpec(), 2, root + "/ref1");
    expectArtifactsEqual(root + "/svc/campaign-1", root + "/ref1",
                         /*with_qcache=*/true);
    // Reference 2: standalone run warmed with campaign 1's
    // checkpoint — exactly what the service seeded campaign 2 with.
    runStandalone(smallSpec(), 2, root + "/ref2",
                  root + "/ref1/" + shard::kQcacheFile);
    expectArtifactsEqual(root + "/svc/campaign-2", root + "/ref2",
                         /*with_qcache=*/true);
    // Warm == cold (invariant 5) lifts to the service: both
    // submissions produced identical deterministic artifacts.
    expectArtifactsEqual(root + "/svc/campaign-1",
                         root + "/svc/campaign-2",
                         /*with_qcache=*/false);
    unsetenv("SCAMV_QCACHE_MB");
}

TEST_F(SvcTest, ConcurrentSubmissionsMatchStandalone)
{
    setenv("SCAMV_QCACHE_MB", "8", 1);
    const std::string root = freshDir("concurrent");
    svc::ServiceConfig cfg;
    cfg.dir = root + "/svc";
    cfg.workers = 2;
    cfg.shards = 2;
    {
        svc::Service service(cfg);
        // Pre-warm the shared checkpoint, then two concurrent
        // submissions racing over it.
        const auto warm = service.submit(smallSpec(3));
        ASSERT_TRUE(warm.accepted);
        EXPECT_TRUE(service.wait(warm.id));
        const auto ra = service.submit(smallSpec(7));
        const auto rb = service.submit(smallSpec(11));
        ASSERT_TRUE(ra.accepted);
        ASSERT_TRUE(rb.accepted);
        EXPECT_TRUE(service.wait(ra.id));
        EXPECT_TRUE(service.wait(rb.id));
    }
    // Whatever checkpoint each campaign was seeded with, warm ==
    // cold makes the deterministic artifact set byte-identical to a
    // cold standalone run (the qcache checkpoint itself encodes the
    // seeding history and is compared only in the sequential test).
    runStandalone(smallSpec(7), 2, root + "/refa");
    runStandalone(smallSpec(11), 2, root + "/refb");
    expectArtifactsEqual(root + "/svc/campaign-2", root + "/refa",
                         /*with_qcache=*/false);
    expectArtifactsEqual(root + "/svc/campaign-3", root + "/refb",
                         /*with_qcache=*/false);
    unsetenv("SCAMV_QCACHE_MB");
}

TEST_F(SvcTest, FaultPlanAllMatchesStandalone)
{
    // Full fault plan, cache env set: campaigns bypass the cache
    // (resolveCampaignEnv) and the svc sites fire in the service's
    // own accept/worker paths; artifacts must still match the
    // standalone run under the identical plan.
    setenv("SCAMV_QCACHE_MB", "8", 1);
    const std::string root = freshDir("faults");
    svc::SubmissionSpec spec = smallSpec();
    spec.faultRate = 0.05;
    spec.faultSites = "all";
    spec.retryMax = 2;
    svc::ServiceConfig cfg;
    cfg.dir = root + "/svc";
    cfg.workers = 2;
    cfg.shards = 2;
    std::uint64_t id = 0;
    {
        svc::Service service(cfg);
        // The plan covers svc_accept_drop, but at 5% per attempt a
        // retried accept (3 deterministic attempts) goes through.
        const svc::SubmitResult res = service.submit(spec);
        ASSERT_TRUE(res.accepted) << res.error;
        id = res.id;
        EXPECT_TRUE(service.wait(id));
    }
    runStandalone(spec, 2, root + "/ref");
    expectArtifactsEqual(root + "/svc/campaign-" + std::to_string(id),
                         root + "/ref", /*with_qcache=*/false);
    unsetenv("SCAMV_QCACHE_MB");
}

TEST_F(SvcTest, WorkerLostRecoveryIsByteIdentical)
{
    const std::string root = freshDir("workerlost");
    svc::SubmissionSpec spec = smallSpec();
    spec.faultRate = 1.0;
    spec.faultSites = "svc_worker_lost";
    svc::ServiceConfig cfg;
    cfg.dir = root + "/svc";
    cfg.workers = 2;
    cfg.shards = 2;
    const std::uint64_t lost_before =
        globalCounter("svc.worker_lost");
    std::uint64_t id = 0;
    {
        svc::Service service(cfg);
        const svc::SubmitResult res = service.submit(spec);
        ASSERT_TRUE(res.accepted) << res.error;
        id = res.id;
        // Every shard's artifacts are deleted after its run; the
        // always-on rerunMissing merge path must recover the whole
        // campaign.
        EXPECT_TRUE(service.wait(id));
    }
    EXPECT_EQ(globalCounter("svc.worker_lost"), lost_before + 2);
    // Standalone reference under the same plan: the site never fires
    // outside the service, so this is simply the campaign's bytes.
    runStandalone(spec, 2, root + "/ref");
    expectArtifactsEqual(root + "/svc/campaign-" + std::to_string(id),
                         root + "/ref", /*with_qcache=*/false);
}

TEST_F(SvcTest, AcceptDropRejectsDeterministically)
{
    const std::string root = freshDir("acceptdrop");
    svc::SubmissionSpec spec = smallSpec();
    spec.faultRate = 1.0;
    spec.faultSites = "svc_accept_drop";
    spec.retryMax = 2;
    svc::ServiceConfig cfg;
    cfg.dir = root + "/svc";
    cfg.workers = 1;
    const std::uint64_t drops_before =
        globalCounter("svc.accept_drop");
    svc::Service service(cfg);
    // Rate 1.0 drops every retried attempt: deterministic rejection.
    const svc::SubmitResult res = service.submit(spec);
    EXPECT_FALSE(res.accepted);
    EXPECT_NE(res.error.find("accept_drop"), std::string::npos);
    EXPECT_EQ(globalCounter("svc.accept_drop"), drops_before + 1);
    // A fault-free submission on the same service is unaffected
    // (per-campaign isolation).
    const svc::SubmitResult ok = service.submit(smallSpec());
    ASSERT_TRUE(ok.accepted);
    EXPECT_TRUE(service.wait(ok.id));
}

TEST_F(SvcTest, MinimizeFindingsMatchStandalone)
{
    const std::string root = freshDir("minimize");
    svc::SubmissionSpec spec = smallSpec();
    spec.minimize = true;
    svc::ServiceConfig cfg;
    cfg.dir = root + "/svc";
    cfg.workers = 2;
    cfg.shards = 2;
    std::uint64_t id = 0;
    {
        svc::Service service(cfg);
        const svc::SubmitResult res = service.submit(spec);
        ASSERT_TRUE(res.accepted);
        id = res.id;
        EXPECT_TRUE(service.wait(id));
    }
    runStandalone(spec, 2, root + "/ref");
    expectArtifactsEqual(root + "/svc/campaign-" + std::to_string(id),
                         root + "/ref", /*with_qcache=*/false,
                         /*with_findings=*/true);
}

// ---------------------------------------------------------------
// Socket front-end

TEST_F(SvcTest, SocketSubmitWatchDrain)
{
    const std::string root = freshDir("socket");
    const std::string sock = root + "/scamvd.sock";
    svc::ServiceConfig cfg;
    cfg.dir = root + "/svc";
    cfg.workers = 2;
    cfg.shards = 2;
    svc::Service service(cfg);
    std::atomic<bool> stop{false};
    std::thread server([&] {
        EXPECT_TRUE(svc::serveLoop(service, sock, stop));
    });
    // Wait for the socket to appear.
    for (int i = 0; i < 100 && !fs::exists(sock); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));

    svc::Client client;
    ASSERT_TRUE(client.connectTo(sock));
    const auto pong = client.call(svc::Frame{"PING", {}});
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(pong->type, "OK");

    const auto bad_status =
        client.call(svc::Frame{"STATUS", {"999"}});
    ASSERT_TRUE(bad_status.has_value());
    EXPECT_EQ(bad_status->type, "ERR");

    const auto submitted = client.call(
        svc::Frame{"SUBMIT", svc::specToArgs(smallSpec())});
    ASSERT_TRUE(submitted.has_value());
    ASSERT_EQ(submitted->type, "OK");
    const std::string id = submitted->args.at(0);

    // Ids parse whole and unsigned: no trailing bytes, no blanks, no
    // sign, no overflow.
    for (const std::string &bad : std::vector<std::string>{
             id + "x", " " + id, "-1", "", "18446744073709551616"}) {
        for (const char *req : {"STATUS", "WATCH"}) {
            const auto reply = client.call(svc::Frame{req, {bad}});
            ASSERT_TRUE(reply.has_value()) << req << " '" << bad << "'";
            EXPECT_EQ(reply->type, "ERR") << req << " '" << bad << "'";
            EXPECT_EQ(reply->args,
                      std::vector<std::string>{"bad submission id"});
        }
    }

    // WATCH streams PROGRESS frames and finishes with DONE.
    ASSERT_TRUE(client.send(svc::Frame{"WATCH", {id}}));
    bool done = false;
    for (int i = 0; i < 10000 && !done; ++i) {
        const auto frame = client.recv();
        ASSERT_TRUE(frame.has_value());
        if (frame->type == "DONE") {
            EXPECT_EQ(frame->args.at(1), "done");
            done = true;
        } else {
            EXPECT_EQ(frame->type, "PROGRESS");
        }
    }
    EXPECT_TRUE(done);

    // DRAIN drains and stops the serve loop.
    svc::Client drainer;
    ASSERT_TRUE(drainer.connectTo(sock));
    const auto drained = drainer.call(svc::Frame{"DRAIN", {}});
    ASSERT_TRUE(drained.has_value());
    EXPECT_EQ(drained->type, "OK");
    server.join();
    EXPECT_TRUE(stop.load());
}
