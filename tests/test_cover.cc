/** @file Tests for the coverage ledger and adaptive scheduler. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/expdb.hh"
#include "core/pipeline.hh"
#include "cover/ledger.hh"
#include "cover/scheduler.hh"
#include "support/faults.hh"
#include "support/metrics.hh"
#include "support/qcache/qcache.hh"

namespace scamv::cover {
namespace {

std::string
tmpPath(const char *tag)
{
    return ::testing::TempDir() + std::string("scamv_cover_") + tag +
           ".txt";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

ProgramDelta
strideDelta(int cls, int hits)
{
    ProgramDelta d;
    d.templ = "Stride";
    d.model = "Mpart";
    d.universe = 128;
    for (int k = 0; k < hits; ++k) {
        d.countDraw(cls);
        d.countHit(cls);
    }
    d.chargeSolver(cls, 0.25);
    d.pathPairs["p0|p0"] += hits;
    d.verdicts.experiments += hits;
    return d;
}

// ---------------------------------------------------------------------
// Ledger

TEST(Cover, LedgerMergeFoldsDeltas)
{
    CoverageLedger ledger;
    EXPECT_TRUE(ledger.merge(strideDelta(3, 2)));
    EXPECT_TRUE(ledger.merge(strideDelta(3, 1)));
    EXPECT_TRUE(ledger.merge(strideDelta(7, 1)));

    const Snapshot snap = ledger.snapshot();
    ASSERT_EQ(snap.templates.count("Stride"), 1u);
    const TemplateCoverage &tc = snap.templates.at("Stride");
    EXPECT_EQ(tc.universe, 128u);
    EXPECT_EQ(tc.classes.at(3).hits, 3);
    EXPECT_EQ(tc.classes.at(3).draws, 3);
    EXPECT_DOUBLE_EQ(tc.classes.at(3).solverSeconds, 0.5);
    EXPECT_EQ(tc.classes.at(7).hits, 1);
    EXPECT_EQ(tc.coveredClasses(), 2);
    EXPECT_EQ(tc.pathPairs.at("p0|p0"), 4);
    EXPECT_EQ(tc.models.at("Mpart").experiments, 4);
}

TEST(Cover, LedgerIgnoresEmptyDeltaAndClears)
{
    CoverageLedger ledger;
    EXPECT_TRUE(ledger.merge(ProgramDelta{}));
    EXPECT_TRUE(ledger.snapshot().templates.empty());

    EXPECT_TRUE(ledger.merge(strideDelta(0, 1)));
    EXPECT_FALSE(ledger.snapshot().templates.empty());
    ledger.clear();
    EXPECT_TRUE(ledger.snapshot().templates.empty());
}

TEST(Cover, DeltaCountsDistinctClasses)
{
    ProgramDelta d;
    d.countDraw(5);
    d.countDraw(5);
    d.countHit(5);
    d.countDraw(-1); // no class drawn: must not be accounted
    d.countHit(-1);
    EXPECT_EQ(d.classes.size(), 1u);
    EXPECT_EQ(d.classes.at(5).draws, 2);
    EXPECT_EQ(d.classes.at(5).hits, 1);
}

TEST(Cover, ToJsonIsStableAndSorted)
{
    CoverageLedger a, b;
    // Merge in different orders: the rendered JSON must not care.
    EXPECT_TRUE(a.merge(strideDelta(7, 1)));
    EXPECT_TRUE(a.merge(strideDelta(3, 2)));
    EXPECT_TRUE(b.merge(strideDelta(3, 2)));
    EXPECT_TRUE(b.merge(strideDelta(7, 1)));

    const std::string ja = toJson(a.snapshot());
    EXPECT_EQ(ja, toJson(b.snapshot()));
    EXPECT_NE(ja.find("\"schema\": \"scamv-coverage-v1\""),
              std::string::npos);
    EXPECT_NE(ja.find("\"Stride\""), std::string::npos);
    EXPECT_NE(ja.find("\"universe\": 128"), std::string::npos);
    EXPECT_NE(ja.find("\"covered\": 2"), std::string::npos);
    // Class keys render sorted: class 3 before class 7.
    EXPECT_LT(ja.find("\"3\""), ja.find("\"7\""));
}

TEST(Cover, WriteJsonCreatesFile)
{
    CoverageLedger ledger;
    EXPECT_TRUE(ledger.merge(strideDelta(1, 1)));
    const std::string path = tmpPath("write_json");
    EXPECT_TRUE(writeJson(ledger.snapshot(), path));
    EXPECT_EQ(readFile(path), toJson(ledger.snapshot()));
    std::remove(path.c_str());
}

TEST(Cover, LedgerMergeFaultDropsDelta)
{
    faults::FaultPlan plan;
    plan.rate = 1.0;
    plan.mask = 1u << static_cast<int>(faults::Site::CoverLedgerMerge);
    faults::Injector injector(plan, 42, 0);
    faults::ScopedInjector scope(injector);

    CoverageLedger ledger;
    EXPECT_FALSE(ledger.merge(strideDelta(3, 1)));
    EXPECT_TRUE(ledger.snapshot().templates.empty());
    EXPECT_GT(injector.injectedCount(), 0u);
}

// ---------------------------------------------------------------------
// Scheduler

Snapshot
snapshotWith(TemplateCoverage tc, const std::string &templ = "Stride")
{
    Snapshot snap;
    snap.templates[templ] = std::move(tc);
    return snap;
}

TEST(Cover, PlanRoundIsLeastCoveredFirst)
{
    TemplateCoverage tc;
    tc.universe = 8;
    tc.classes[0] = {2, 2, 0.0}; // most covered: must come last
    tc.classes[1] = {1, 1, 0.0};
    const Snapshot snap = snapshotWith(std::move(tc));

    const RoundPlan plan = planRound(snap, "Stride", 42, 0, 8);
    ASSERT_EQ(plan.classOrder.size(), 8u);
    EXPECT_FALSE(plan.saturated);
    // The six never-drawn classes precede both drawn ones.
    EXPECT_EQ(plan.classOrder[6], 1);
    EXPECT_EQ(plan.classOrder[7], 0);
}

TEST(Cover, PlanRoundDrawTieBreaksOnDraws)
{
    TemplateCoverage tc;
    tc.universe = 4;
    tc.classes[0] = {1, 3, 0.0};
    tc.classes[1] = {1, 1, 0.0}; // same hits, fewer draws: earlier
    tc.classes[2] = {0, 1, 0.0}; // hitless, not yet exhausted: first
    tc.classes[3] = {2, 2, 0.0};
    const Snapshot snap = snapshotWith(std::move(tc));

    const RoundPlan plan = planRound(snap, "Stride", 42, 0, 4);
    ASSERT_EQ(plan.classOrder.size(), 4u);
    EXPECT_EQ(plan.classOrder[0], 2);
    EXPECT_EQ(plan.classOrder[1], 1);
    EXPECT_EQ(plan.classOrder[2], 0);
    EXPECT_EQ(plan.classOrder[3], 3);
}

TEST(Cover, PlanRoundExcludesExhaustedAndSaturates)
{
    TemplateCoverage tc;
    tc.universe = 4;
    tc.classes[0] = {1, 1, 0.0};
    tc.classes[1] = {5, 6, 0.0};
    tc.classes[2] = {2, 2, 0.0};
    tc.classes[3] = {0, 3, 0.0}; // 3 hitless draws: exhausted
    const Snapshot snap = snapshotWith(std::move(tc));

    const RoundPlan plan = planRound(snap, "Stride", 42, 0, 4);
    EXPECT_TRUE(plan.saturated);
    ASSERT_EQ(plan.classOrder.size(), 3u);
    for (int cls : plan.classOrder)
        EXPECT_NE(cls, 3);
}

TEST(Cover, PlanRoundNeverSaturatesWithUndrawnClasses)
{
    TemplateCoverage tc;
    tc.universe = 4;
    tc.classes[0] = {1, 1, 0.0};
    const Snapshot snap = snapshotWith(std::move(tc));
    EXPECT_FALSE(planRound(snap, "Stride", 42, 0, 4).saturated);
    // A Pc-only campaign (no universe) has no line plan at all.
    const RoundPlan none = planRound(snap, "Stride", 42, 0, 0);
    EXPECT_TRUE(none.classOrder.empty());
    EXPECT_FALSE(none.saturated);
}

TEST(Cover, PlanRoundIsSeededAndRoundVarying)
{
    const Snapshot empty; // all 128 classes tie at zero coverage
    const RoundPlan a = planRound(empty, "Stride", 42, 0, 128);
    const RoundPlan b = planRound(empty, "Stride", 42, 0, 128);
    const RoundPlan c = planRound(empty, "Stride", 42, 1, 128);
    const RoundPlan d = planRound(empty, "Stride", 43, 0, 128);
    EXPECT_EQ(a.classOrder, b.classOrder); // pure function of args
    EXPECT_NE(a.classOrder, c.classOrder); // tie-break varies by round
    EXPECT_NE(a.classOrder, d.classOrder); // ... and by seed
}

TEST(Cover, PlanClassStratifiesSlots)
{
    RoundPlan plan;
    plan.classOrder = {5, 6, 7, 8};
    // Slot s's draw d targets classOrder[(s + d*stride) % n].
    EXPECT_EQ(planClass(plan, 0, 0, 2), 5);
    EXPECT_EQ(planClass(plan, 1, 0, 2), 6);
    EXPECT_EQ(planClass(plan, 0, 1, 2), 7);
    EXPECT_EQ(planClass(plan, 1, 1, 2), 8);
    EXPECT_EQ(planClass(plan, 0, 2, 2), 5); // wraps
    EXPECT_EQ(planClass(RoundPlan{}, 0, 0, 1), -1);
}

TEST(Cover, TemplateWeightsFavorUnknownAndUndecided)
{
    TemplateCoverage decided;
    decided.universe = 4;
    decided.classes[0] = {1, 1, 0.0};
    decided.models["Mpart"].counterexamples = 3;

    TemplateCoverage undecided;
    undecided.universe = 4;
    undecided.classes[0] = {1, 1, 0.0};
    undecided.models["Mpart"].experiments = 3;

    Snapshot snap;
    snap.templates["Template A"] = decided;
    snap.templates["Template B"] = undecided;

    const std::vector<std::string> templates{"Template A", "Template B",
                                             "Template C"};
    const std::vector<double> w = templateWeights(snap, templates, 4);
    ASSERT_EQ(w.size(), 3u);
    EXPECT_LT(w[0], w[1]); // decided templates yield budget
    EXPECT_LT(w[1], w[2]); // never-seen templates get the most
}

TEST(Cover, TemplateWeightsZeroForSaturatedDecided)
{
    TemplateCoverage tc;
    tc.universe = 1;
    tc.classes[0] = {1, 1, 0.0};
    tc.models["Mct"].counterexamples = 1;
    const Snapshot snap = snapshotWith(std::move(tc), "Template A");
    const std::vector<double> w =
        templateWeights(snap, {"Template A"}, 1);
    ASSERT_EQ(w.size(), 1u);
    EXPECT_EQ(w[0], 0.0);
}

TEST(Cover, WeightedAssignmentApportionsAndInterleaves)
{
    const std::vector<int> a = weightedAssignment({3.0, 1.0}, 4);
    ASSERT_EQ(a.size(), 4u);
    EXPECT_EQ(std::count(a.begin(), a.end(), 0), 3);
    EXPECT_EQ(std::count(a.begin(), a.end(), 1), 1);
    // Round-robin interleave: the round must not start single-template.
    EXPECT_EQ(a[0], 0);
    EXPECT_EQ(a[1], 1);

    // All-zero weights fall back to uniform.
    const std::vector<int> u = weightedAssignment({0.0, 0.0}, 4);
    EXPECT_EQ(std::count(u.begin(), u.end(), 0), 2);
    EXPECT_EQ(std::count(u.begin(), u.end(), 1), 2);
}

TEST(Cover, RoundSizeIsPureAndClamped)
{
    EXPECT_EQ(roundSizeFor(1), 2);   // floor
    EXPECT_EQ(roundSizeFor(40), 8);  // programs / 5
    EXPECT_EQ(roundSizeFor(500), 16); // ceiling
    EXPECT_EQ(roundSizeFor(40), roundSizeFor(40));
}

// ---------------------------------------------------------------------
// Pipeline integration

core::PipelineConfig
strideConfig()
{
    core::PipelineConfig cfg;
    cfg.templateKind = gen::TemplateKind::Stride;
    cfg.model = obs::ModelKind::Mpart;
    cfg.refinement = obs::ModelKind::MpartRefined;
    cfg.coverage = core::Coverage::PcAndLine;
    cfg.programs = 6;
    cfg.testsPerProgram = 6;
    cfg.seed = 42;
    cfg.modelParams.attacker.loSet = 61;
    cfg.platform.visibleLoSet = 61;
    cfg.platform.visibleHiSet = 127;
    cfg.deterministicMetricsTiming = true;
    return cfg;
}

std::string
dbCsv(const core::ExperimentDb &db, const char *tag)
{
    const std::string path = tmpPath(tag);
    EXPECT_TRUE(db.exportCsv(path));
    const std::string text = readFile(path);
    std::remove(path.c_str());
    return text;
}

void
clearScheduleEnv()
{
    ::unsetenv("SCAMV_SCHEDULE");
    ::unsetenv("SCAMV_COVERAGE_FILE");
}

TEST(CoverPipeline, UniformUntrackedEmitsNoCoverageAccounting)
{
    clearScheduleEnv();
    core::PipelineConfig cfg = strideConfig();
    const core::RunStats stats = core::Pipeline(cfg).run();
    EXPECT_FALSE(stats.coverageTracked);
    EXPECT_EQ(stats.coveredClasses, 0);
    EXPECT_EQ(stats.classUniverse, 0u);
    EXPECT_TRUE(stats.coverage.templates.empty());
    for (const auto &[name, value] : stats.metrics.counters)
        EXPECT_NE(name.rfind("cover.", 0), 0u)
            << name << " = " << value;
}

TEST(CoverPipeline, UniformTrackedMatchesUntrackedResults)
{
    clearScheduleEnv();
    core::ExperimentDb db_plain, db_tracked;
    core::PipelineConfig plain = strideConfig();
    plain.database = &db_plain;
    const core::RunStats a = core::Pipeline(plain).run();

    CoverageLedger ledger;
    core::PipelineConfig tracked = strideConfig();
    tracked.database = &db_tracked;
    tracked.coverageLedger = &ledger;
    const core::RunStats b = core::Pipeline(tracked).run();

    // Accounting must observe, never steer: same campaign results.
    EXPECT_EQ(a.programs, b.programs);
    EXPECT_EQ(a.experiments, b.experiments);
    EXPECT_EQ(a.counterexamples, b.counterexamples);
    EXPECT_EQ(a.inconclusive, b.inconclusive);
    EXPECT_EQ(a.generationFailures, b.generationFailures);
    EXPECT_EQ(dbCsv(db_plain, "uni_plain"),
              dbCsv(db_tracked, "uni_tracked"));

    EXPECT_FALSE(a.coverageTracked);
    EXPECT_TRUE(b.coverageTracked);
    EXPECT_GT(b.coveredClasses, 0);
    EXPECT_EQ(b.classUniverse, 128u);
    EXPECT_EQ(b.coverage, ledger.snapshot());
}

TEST(CoverPipeline, DbRecordsCarryChosenLineClasses)
{
    clearScheduleEnv();
    core::ExperimentDb db;
    core::PipelineConfig cfg = strideConfig();
    cfg.database = &db;
    const core::RunStats stats = core::Pipeline(cfg).run();
    ASSERT_GT(stats.experiments, 0);
    ASSERT_GT(db.size(), 0u);
    int with_class = 0;
    for (const core::ExperimentRecord &r : db.all()) {
        if (r.lineClass1 >= 0) {
            ++with_class;
            EXPECT_LT(r.lineClass1, 128);
        }
    }
    // PcAndLine campaigns pin a class on essentially every test.
    EXPECT_GT(with_class, 0);
    const std::string csv = dbCsv(db, "line_cls");
    EXPECT_NE(csv.find("line_class1"), std::string::npos);
    EXPECT_NE(csv.find("line_class2"), std::string::npos);
}

std::string
runAdaptive(const core::PipelineConfig &base, int threads,
            CoverageLedger &ledger, core::ExperimentDb &db,
            core::RunStats *stats_out = nullptr,
            qcache::QueryCache *qc = nullptr)
{
    core::PipelineConfig cfg = base;
    cfg.schedule = core::Schedule::Adaptive;
    cfg.threads = threads;
    cfg.coverageLedger = &ledger;
    cfg.database = &db;
    cfg.queryCache = qc;
    const core::RunStats stats = core::Pipeline(cfg).run();
    if (stats_out)
        *stats_out = stats;
    return metrics::toJson(stats.metrics);
}

TEST(CoverPipeline, AdaptiveLedgerIsThreadCountByteIdentical)
{
    clearScheduleEnv();
    const core::PipelineConfig cfg = strideConfig();

    CoverageLedger ledger1, ledger4;
    core::ExperimentDb db1, db4;
    const std::string j1 = runAdaptive(cfg, 1, ledger1, db1);
    const std::string j4 = runAdaptive(cfg, 4, ledger4, db4);

    EXPECT_EQ(toJson(ledger1.snapshot()), toJson(ledger4.snapshot()));
    EXPECT_EQ(j1, j4);
    EXPECT_EQ(dbCsv(db1, "adaptive_t1"), dbCsv(db4, "adaptive_t4"));
}

TEST(CoverPipeline, AdaptiveWarmQcacheIsByteIdentical)
{
    clearScheduleEnv();
    // Branchy template + training: under PcAndLine coverage the
    // branch-predictor training solves are the cacheable queries, so
    // a warm cache replays them while the adaptive plan re-runs.
    core::PipelineConfig cfg = strideConfig();
    cfg.templateKind = gen::TemplateKind::A;
    cfg.model = obs::ModelKind::Mct;
    cfg.refinement = obs::ModelKind::Mspec;
    cfg.train = true;
    const std::string path = tmpPath("qcache");
    std::remove(path.c_str());

    CoverageLedger led_cold, led_warm1, led_warm4;
    core::ExperimentDb db_cold, db_warm1, db_warm4;
    std::string j_cold, j_warm1, j_warm4;
    {
        qcache::QueryCache cold({8 << 20, path});
        j_cold = runAdaptive(cfg, 1, led_cold, db_cold, nullptr, &cold);
    }
    const std::uint64_t h0 =
        metrics::Registry::global().counter("qcache.hit").value();
    {
        qcache::QueryCache warm({8 << 20, path});
        j_warm1 =
            runAdaptive(cfg, 1, led_warm1, db_warm1, nullptr, &warm);
    }
    EXPECT_GT(metrics::Registry::global().counter("qcache.hit").value(),
              h0);
    {
        qcache::QueryCache warm({8 << 20, path});
        j_warm4 =
            runAdaptive(cfg, 4, led_warm4, db_warm4, nullptr, &warm);
    }
    std::remove(path.c_str());

    const std::string ledger_json = toJson(led_cold.snapshot());
    EXPECT_EQ(ledger_json, toJson(led_warm1.snapshot()));
    EXPECT_EQ(ledger_json, toJson(led_warm4.snapshot()));
    EXPECT_EQ(j_cold, j_warm1);
    EXPECT_EQ(j_warm1, j_warm4);
    EXPECT_EQ(dbCsv(db_cold, "qc_cold"), dbCsv(db_warm1, "qc_warm1"));
    EXPECT_EQ(dbCsv(db_warm1, "qc_warm1b"),
              dbCsv(db_warm4, "qc_warm4"));
}

TEST(CoverPipeline, AdaptiveSaturationStopsEarly)
{
    clearScheduleEnv();
    core::PipelineConfig cfg = strideConfig();
    // Shrink the class universe so a small campaign can saturate it.
    cfg.modelParams.geom.numSets = 16;
    cfg.platform.core.geom.numSets = 16;
    cfg.platform.visibleHiSet = 15;
    cfg.platform.visibleLoSet = 8;
    cfg.modelParams.attacker.loSet = 8;
    cfg.programs = 24;
    cfg.testsPerProgram = 8;

    CoverageLedger ledger;
    core::ExperimentDb db;
    core::RunStats stats;
    runAdaptive(cfg, 1, ledger, db, &stats);

    EXPECT_TRUE(stats.coverageTracked);
    EXPECT_EQ(stats.classUniverse, 16u);
    EXPECT_GT(stats.earlyStopped, 0);
    EXPECT_LT(stats.programs, cfg.programs);
    EXPECT_EQ(stats.metrics.counters.count("cover.early_stop"), 1u);
    // Saturation means every class was covered or exhausted.
    const TemplateCoverage &tc =
        stats.coverage.templates.at("Stride");
    for (std::uint64_t cls = 0; cls < 16; ++cls) {
        const auto it = tc.classes.find(static_cast<int>(cls));
        ASSERT_NE(it, tc.classes.end()) << "class " << cls;
        EXPECT_TRUE(it->second.hits > 0 || it->second.draws >= 3)
            << "class " << cls;
    }
}

TEST(CoverPipeline, AdaptiveTargetsFreshClasses)
{
    clearScheduleEnv();
    CoverageLedger ledger;
    core::ExperimentDb db;
    core::RunStats a;
    runAdaptive(strideConfig(), 1, ledger, db, &a);

    // Far from saturation (36 tests, 128 classes) the least-covered
    // walk pins a *fresh* class on nearly every experiment; a uniform
    // draw would repeat itself long before that.
    EXPECT_GT(a.experiments, 0);
    EXPECT_GE(a.coveredClasses * 4, a.experiments * 3);
}

TEST(CoverPipeline, AdaptiveBeatsUniformClassesPerProgram)
{
    // The scheduler's coverage economics on a budget large enough for
    // the uniform baseline's diminishing returns to show: adaptive
    // must buy at least 1.5x the classes per program that ran.
    clearScheduleEnv();
    core::PipelineConfig cfg = strideConfig();
    cfg.programs = 32;
    cfg.testsPerProgram = 8;
    cfg.seed = 99;

    CoverageLedger uniform_ledger;
    core::PipelineConfig uniform_cfg = cfg;
    uniform_cfg.coverageLedger = &uniform_ledger;
    const core::RunStats uniform = core::Pipeline(uniform_cfg).run();

    CoverageLedger adaptive_ledger;
    core::ExperimentDb db;
    core::RunStats adaptive;
    runAdaptive(cfg, 1, adaptive_ledger, db, &adaptive);

    ASSERT_GT(uniform.programs, 0);
    ASSERT_GT(adaptive.programs, 0);
    ASSERT_GT(uniform.coveredClasses, 0);
    // adaptive/programs >= 1.5 * uniform/programs, in integers.
    EXPECT_GE(2 * adaptive.coveredClasses * uniform.programs,
              3 * uniform.coveredClasses * adaptive.programs)
        << "uniform " << uniform.coveredClasses << " classes / "
        << uniform.programs << " programs, adaptive "
        << adaptive.coveredClasses << " / " << adaptive.programs;
}

TEST(CoverPipeline, EnvScheduleAndCoverageFile)
{
    const std::string path = tmpPath("env_export");
    std::remove(path.c_str());
    ::setenv("SCAMV_SCHEDULE", "adaptive", 1);
    ::setenv("SCAMV_COVERAGE_FILE", path.c_str(), 1);
    core::PipelineConfig cfg = strideConfig();
    cfg.programs = 3;
    cfg.testsPerProgram = 4;
    const core::RunStats stats = core::Pipeline(cfg).run();
    clearScheduleEnv();

    EXPECT_TRUE(stats.coverageTracked);
    EXPECT_EQ(stats.metrics.counters.count("cover.rounds"), 1u);
    EXPECT_EQ(readFile(path), toJson(stats.coverage));
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Fault campaigns

TEST(CoverFaultCampaign, MergeFaultsDegradeToUniform)
{
    clearScheduleEnv();
    core::PipelineConfig cfg = strideConfig();
    cfg.faultPlan.rate = 1.0;
    cfg.faultPlan.mask =
        1u << static_cast<int>(faults::Site::CoverLedgerMerge);

    CoverageLedger ledger1, ledger4;
    core::ExperimentDb db1, db4;
    core::RunStats s1, s4;
    const std::string j1 = runAdaptive(cfg, 1, ledger1, db1, &s1);
    const std::string j4 = runAdaptive(cfg, 4, ledger4, db4, &s4);

    // Every merge drops: the campaign still completes every program,
    // degraded to uniform scheduling, and reports the drops.
    EXPECT_EQ(s1.programs, cfg.programs);
    EXPECT_GT(s1.experiments, 0);
    EXPECT_TRUE(s1.schedulerDegraded);
    EXPECT_GT(s1.ledgerMergeDrops, 0);
    EXPECT_EQ(s1.metrics.counters.count("cover.degraded"), 1u);
    EXPECT_TRUE(ledger1.snapshot().templates.empty());

    // Degradation decisions happen on the merge thread, so fault
    // campaigns stay byte-identical across thread counts too.
    EXPECT_EQ(j1, j4);
    EXPECT_EQ(dbCsv(db1, "fault_t1"), dbCsv(db4, "fault_t4"));
    EXPECT_EQ(s1.ledgerMergeDrops, s4.ledgerMergeDrops);
}

} // namespace
} // namespace scamv::cover
