/**
 * @file
 * Triage-layer tests: abstract-domain units, the pre-screen's
 * soundness criteria, ddmin laws, the counterexample minimizer,
 * mechanism clustering, findings-export byte-identity across
 * threads / shards / cache temperature, fault-site degradation, and
 * the screen-on/off campaign differential.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/expdb.hh"
#include "core/pipeline.hh"
#include "cover/scheduler.hh"
#include "shard/shard.hh"
#include "support/qcache/qcache.hh"
#include "triage/absdom.hh"
#include "triage/findings.hh"
#include "triage/minimize.hh"
#include "triage/screen.hh"

namespace scamv::triage {
namespace {

using core::Coverage;
using core::PipelineConfig;
using core::RunStats;

// ---- Abstract domain ------------------------------------------------

TEST(AbsDom, ConstantAndSetBasics)
{
    const AbsValue c = AbsValue::constant(42);
    EXPECT_EQ(c.asConstant(), 42u);
    EXPECT_TRUE(c.contains(42));
    EXPECT_FALSE(c.contains(41));

    const AbsValue s = AbsValue::setOf({7, 3, 3, 9});
    EXPECT_EQ(s.kind, AbsValue::Kind::Set);
    EXPECT_EQ(s.elems, (std::vector<std::uint64_t>{3, 7, 9}));
    EXPECT_FALSE(s.asConstant().has_value());
    EXPECT_TRUE(s.subsumes(AbsValue::constant(7)));
    EXPECT_FALSE(s.subsumes(AbsValue::constant(8)));
    EXPECT_TRUE(AbsValue::top().subsumes(s));
    EXPECT_FALSE(s.subsumes(AbsValue::top()));
}

TEST(AbsDom, SetOverCapHullsToInterval)
{
    std::vector<std::uint64_t> members;
    for (std::uint64_t i = 0; i <= kSetCap; ++i)
        members.push_back(i * 10 + 5);
    const AbsValue v = AbsValue::setOf(members);
    EXPECT_EQ(v.kind, AbsValue::Kind::Interval);
    EXPECT_EQ(v.lo, 5u);
    EXPECT_EQ(v.hi, kSetCap * 10 + 5);
    EXPECT_TRUE(v.contains(6)); // hull over-approximates
}

TEST(AbsDom, JoinUnionsAndHulls)
{
    const AbsValue a = AbsValue::setOf({1, 2});
    const AbsValue b = AbsValue::setOf({2, 3});
    const AbsValue j = join(a, b);
    EXPECT_EQ(j.elems, (std::vector<std::uint64_t>{1, 2, 3}));

    const AbsValue k = join(AbsValue::interval(0, 10),
                            AbsValue::constant(20));
    EXPECT_EQ(k.kind, AbsValue::Kind::Interval);
    EXPECT_EQ(k.lo, 0u);
    EXPECT_EQ(k.hi, 20u);

    EXPECT_TRUE(join(AbsValue::top(), a).isTop());
    EXPECT_TRUE(join(a, AbsValue::top()).isTop());
}

TEST(AbsDom, WidenKeepsSubsumedElseTop)
{
    const AbsValue prev = AbsValue::interval(0, 100);
    EXPECT_EQ(widen(prev, AbsValue::interval(5, 50)), prev);
    EXPECT_TRUE(widen(prev, AbsValue::interval(0, 200)).isTop());
}

TEST(AbsDom, TransferConstantsExact)
{
    EXPECT_EQ(transfer(bir::AluOp::Add, AbsValue::constant(3),
                       AbsValue::constant(4)),
              AbsValue::constant(7));
    const AbsValue s = transfer(bir::AluOp::Add,
                                AbsValue::setOf({1, 2}),
                                AbsValue::constant(10));
    EXPECT_EQ(s.elems, (std::vector<std::uint64_t>{11, 12}));
    // Wrapping semantics, like the concrete core.
    EXPECT_EQ(transfer(bir::AluOp::Add, AbsValue::constant(~0ULL),
                       AbsValue::constant(1)),
              AbsValue::constant(0));
}

TEST(AbsDom, TransferIntervalAddImm)
{
    const AbsValue v = transfer(bir::AluOp::Add,
                                AbsValue::interval(0x100, 0x200),
                                AbsValue::constant(0x10));
    EXPECT_EQ(v.kind, AbsValue::Kind::Interval);
    EXPECT_EQ(v.lo, 0x110u);
    EXPECT_EQ(v.hi, 0x210u);
    // Potential wrap: must go Top, not a wrong interval.
    EXPECT_TRUE(transfer(bir::AluOp::Add,
                         AbsValue::interval(~0ULL - 1, ~0ULL),
                         AbsValue::constant(2))
                    .isTop());
}

TEST(AbsDom, TransferShiftAndMaskBounds)
{
    const AbsValue lsr = transfer(bir::AluOp::Lsr,
                                  AbsValue::interval(0x1000, 0x2000),
                                  AbsValue::constant(6));
    EXPECT_EQ(lsr.lo, 0x40u);
    EXPECT_EQ(lsr.hi, 0x80u);

    const AbsValue andv = transfer(bir::AluOp::And, AbsValue::top(),
                                   AbsValue::constant(0x7f));
    EXPECT_EQ(andv.kind, AbsValue::Kind::Interval);
    EXPECT_EQ(andv.lo, 0u);
    EXPECT_EQ(andv.hi, 0x7fu);

    // Shift by a non-constant amount over-approximates to Top.
    EXPECT_TRUE(transfer(bir::AluOp::Lsl, AbsValue::constant(1),
                         AbsValue::interval(0, 8))
                    .isTop());
}

TEST(AbsDom, ClassBoundProjection)
{
    obs::CacheGeometry geom; // 64B lines, 128 sets
    const auto mask_c = classBound(AbsValue::constant(0x80000), geom);
    ASSERT_EQ(mask_c.size(), geom.numSets);
    EXPECT_TRUE(mask_c[geom.setOf(0x80000)]);
    EXPECT_EQ(std::count(mask_c.begin(), mask_c.end(), true), 1);

    // Two lines within one set-stride: exactly two classes.
    const auto mask_i =
        classBound(AbsValue::interval(0x80000, 0x80000 + 64), geom);
    EXPECT_EQ(std::count(mask_i.begin(), mask_i.end(), true), 2);

    // Top and full-cache-span intervals mark every class.
    const auto mask_t = classBound(AbsValue::top(), geom);
    EXPECT_EQ(std::count(mask_t.begin(), mask_t.end(), true),
              static_cast<long>(geom.numSets));
    const auto mask_span =
        classBound(AbsValue::interval(0, 64 * 128 * 2), geom);
    EXPECT_EQ(std::count(mask_span.begin(), mask_span.end(), true),
              static_cast<long>(geom.numSets));
}

TEST(AbsDom, AnalyzeConstantAddressProgram)
{
    bir::Program p("const");
    p.push(bir::Instr::movImm(0, 0x80000));
    p.push(bir::Instr::loadImm(1, 0, 0x40));
    p.push(bir::Instr::halt());
    const AbstractResult r = analyzeProgram(p);
    ASSERT_EQ(r.accesses.size(), 1u);
    EXPECT_EQ(r.accesses[0].addr.asConstant(), 0x80040u);
    EXPECT_TRUE(r.accesses[0].isLoad);
    EXPECT_TRUE(r.allConstant());

    obs::CacheGeometry geom;
    const auto mask = r.archClassMask(geom);
    EXPECT_TRUE(mask[geom.setOf(0x80040)]);
    EXPECT_EQ(std::count(mask.begin(), mask.end(), true), 1);
}

TEST(AbsDom, AnalyzeLoadDestAndEntryRegsAreTop)
{
    bir::Program p("top");
    p.push(bir::Instr::movImm(0, 0x80000));
    p.push(bir::Instr::loadImm(1, 0, 0));  // x1 = mem[...]: Top dest
    p.push(bir::Instr::loadImm(2, 1, 0));  // address via loaded value
    p.push(bir::Instr::loadImm(3, 4, 0));  // address via entry reg x4
    p.push(bir::Instr::halt());
    const AbstractResult r = analyzeProgram(p);
    ASSERT_EQ(r.accesses.size(), 3u);
    EXPECT_FALSE(r.accesses[0].addr.isTop());
    EXPECT_TRUE(r.accesses[1].addr.isTop());
    EXPECT_TRUE(r.accesses[2].addr.isTop());
    EXPECT_FALSE(r.allConstant());
    EXPECT_FALSE(r.allArchConstant());
}

// ---- Pre-screen criteria --------------------------------------------

TEST(Screen, IdenticalModelsAreBoring)
{
    bir::Program p("id");
    p.push(bir::Instr::loadImm(1, 0, 0));
    p.push(bir::Instr::halt());
    const auto r = screenProgram(p, obs::ModelKind::Mct,
                                 obs::ModelKind::Mct, {});
    EXPECT_EQ(r.verdict, ScreenVerdict::Boring);
    EXPECT_EQ(r.reason, "identical-models");
}

TEST(Screen, SpecPairWithoutTransientAccessIsBoring)
{
    bir::Program p("notrans");
    p.push(bir::Instr::loadImm(1, 0, 0)); // architectural only
    p.push(bir::Instr::halt());
    const auto r = screenProgram(p, obs::ModelKind::Mct,
                                 obs::ModelKind::Mspec, {});
    EXPECT_EQ(r.verdict, ScreenVerdict::Boring);
    EXPECT_EQ(r.reason, "no-transient");

    // Mspec1 only observes transient *loads*: a transient store
    // alone is still boring, but not for Mspec.
    bir::Program q("tstore");
    bir::Instr st = bir::Instr::storeImm(1, 0, 0);
    st.transient = true;
    q.push(st);
    q.push(bir::Instr::halt());
    EXPECT_EQ(screenProgram(q, obs::ModelKind::Mct,
                            obs::ModelKind::Mspec1, {})
                  .reason,
              "no-transient");
    EXPECT_EQ(screenProgram(q, obs::ModelKind::Mct,
                            obs::ModelKind::Mspec, {})
                  .verdict,
              ScreenVerdict::Interesting);
}

TEST(Screen, SpecPairWithTransientLoadIsInteresting)
{
    bir::Program p("trans");
    bir::Instr ld = bir::Instr::loadImm(1, 0, 0); // Top address
    ld.transient = true;
    p.push(ld);
    p.push(bir::Instr::halt());
    EXPECT_EQ(screenProgram(p, obs::ModelKind::Mct,
                            obs::ModelKind::Mspec, {})
                  .verdict,
              ScreenVerdict::Interesting);
}

TEST(Screen, MpartPairContainedInAttackerWindowIsBoring)
{
    bir::Program p("win");
    p.push(bir::Instr::loadImm(1, 0, 0)); // Top address: all classes
    p.push(bir::Instr::halt());
    obs::ModelParams params;
    params.attacker.loSet = 0;
    params.attacker.hiSet = 127; // full window: AR(addr) always true
    const auto r = screenProgram(p, obs::ModelKind::Mpart,
                                 obs::ModelKind::MpartRefined, params);
    EXPECT_EQ(r.verdict, ScreenVerdict::Boring);
    EXPECT_EQ(r.reason, "ar-contained");
}

TEST(Screen, MpartPairOutsideWindowIsInteresting)
{
    bir::Program p("nowin");
    p.push(bir::Instr::loadImm(1, 0, 0)); // Top: escapes [61,127]
    p.push(bir::Instr::halt());
    obs::ModelParams params; // default window [61, 127]
    EXPECT_EQ(screenProgram(p, obs::ModelKind::Mpart,
                            obs::ModelKind::MpartRefined, params)
                  .verdict,
              ScreenVerdict::Interesting);
}

TEST(Screen, ConstantFootprintIsBoring)
{
    bir::Program p("const");
    p.push(bir::Instr::movImm(0, 0x80000));
    p.push(bir::Instr::loadImm(1, 0, 0));
    p.push(bir::Instr::halt());
    const auto r = screenProgram(p, obs::ModelKind::Mline,
                                 obs::ModelKind::Mct, {});
    EXPECT_EQ(r.verdict, ScreenVerdict::Boring);
    EXPECT_EQ(r.reason, "constant-footprint");
}

TEST(Screen, BranchyConstantProgramIsInteresting)
{
    // With branches the relation keeps cross pairs whose refined
    // observation lists differ in length (no disequality needed), so
    // constant addresses prove nothing: must stay Interesting.
    bir::Program p("branchy");
    p.push(bir::Instr::branchImm(bir::CmpOp::Eq, 0, 0, 3));
    p.push(bir::Instr::movImm(2, 0x80000));
    p.push(bir::Instr::jump(4));
    p.push(bir::Instr::movImm(2, 0x80040));
    p.push(bir::Instr::halt());
    EXPECT_EQ(screenProgram(p, obs::ModelKind::Mline,
                            obs::ModelKind::Mct, {})
                  .verdict,
              ScreenVerdict::Interesting);
}

// ---- ddmin laws -----------------------------------------------------

TEST(Ddmin, FindsOneMinimalCore)
{
    const Predicate pred = [](const KeepMask &keep) {
        return keep[2] && keep[5];
    };
    int budget = 1000;
    const KeepMask result = ddmin(8, pred, budget);
    KeepMask expected(8, false);
    expected[2] = expected[5] = true;
    EXPECT_EQ(result, expected);
    EXPECT_LT(budget, 1000); // evaluations were charged
}

TEST(Ddmin, DeterministicAndBudgetRespected)
{
    const Predicate pred = [](const KeepMask &keep) {
        return keep[0] && keep[7] && keep[11];
    };
    int b1 = 500, b2 = 500;
    EXPECT_EQ(ddmin(12, pred, b1), ddmin(12, pred, b2));
    EXPECT_EQ(b1, b2);

    // Zero budget: no evaluations, everything kept (valid, unshrunk).
    int b0 = 0;
    EXPECT_EQ(ddmin(12, pred, b0), KeepMask(12, true));
    EXPECT_EQ(b0, 0);
}

TEST(Ddmin, DropInstrsRemapsBranchTargets)
{
    bir::Program p("remap");
    p.push(bir::Instr::branchImm(bir::CmpOp::Eq, 0, 0, 3));
    p.push(bir::Instr::movImm(1, 1));
    p.push(bir::Instr::movImm(2, 2));
    p.push(bir::Instr::halt());
    KeepMask keep{true, false, true, true};
    const bir::Program q = dropInstrs(p, keep);
    ASSERT_EQ(q.size(), 3u);
    EXPECT_EQ(q[0].target, 2); // 3 -> first survivor at/after 3
    EXPECT_TRUE(q.validate().empty());

    // Dropping the branch's own target lands on the next survivor.
    KeepMask keep2{true, true, true, false};
    const bir::Program r = dropInstrs(p, keep2);
    EXPECT_EQ(r[0].target, 3); // one past the end (validate rejects)
}

// ---- Minimizer ------------------------------------------------------

bir::Program
leakProgram()
{
    bir::Program p("leak");
    p.push(bir::Instr::movImm(5, 7));   // junk
    p.push(bir::Instr::movImm(6, 9));   // junk
    p.push(bir::Instr::alu(bir::AluOp::Add, 7, 5, 6)); // junk
    p.push(bir::Instr::loadImm(1, 0, 0));
    p.push(bir::Instr::halt());
    return p;
}

harness::TestCase
leakCase()
{
    harness::TestCase tc;
    tc.s1.regs.regs[0] = 0x80000; // cache set 0
    tc.s2.regs.regs[0] = 0x81000; // cache set 64
    return tc;
}

TEST(Minimize, ShrinksLeakWitnessToCore)
{
    const bir::Program p = leakProgram();
    const harness::TestCase tc = leakCase();
    MinimizeConfig cfg;
    cfg.seed = 17;

    // Sanity: the witness is a counterexample on the eval platform.
    harness::Platform platform(cfg.platform, cfg.seed ^ 0x7a1a6eULL);
    ASSERT_EQ(platform.runExperiment(p, tc).verdict,
              harness::Verdict::Counterexample);

    const MinimizeResult r = minimizeCounterexample(p, tc, cfg);
    EXPECT_EQ(r.program.size(), 2u); // ld + halt
    EXPECT_GT(r.evalsUsed, 1);
    EXPECT_TRUE(r.program.validate().empty());
    // The shrunk witness still reproduces.
    EXPECT_EQ(platform.runExperiment(r.program, r.tc).verdict,
              harness::Verdict::Counterexample);
    // State shrank too (greedy bit-clearing).
    EXPECT_LT(stateBitCount(r.tc), stateBitCount(tc));
}

TEST(Minimize, Deterministic)
{
    MinimizeConfig cfg;
    cfg.seed = 17;
    const MinimizeResult a =
        minimizeCounterexample(leakProgram(), leakCase(), cfg);
    const MinimizeResult b =
        minimizeCounterexample(leakProgram(), leakCase(), cfg);
    EXPECT_EQ(a.program.toString(), b.program.toString());
    EXPECT_EQ(a.tc, b.tc);
    EXPECT_EQ(a.evalsUsed, b.evalsUsed);
}

// ---- Mechanism clustering / findings export -------------------------

TEST(Findings, ShapeSignatureTokens)
{
    bir::Program p("sig");
    p.push(bir::Instr::movImm(0, 1));
    p.push(bir::Instr::alu(bir::AluOp::Eor, 1, 0, 0));
    bir::Instr ld = bir::Instr::loadImm(2, 0, 0);
    ld.transient = true;
    p.push(ld);
    p.push(bir::Instr::branchImm(bir::CmpOp::Eq, 0, 0, 4));
    p.push(bir::Instr::halt());
    EXPECT_EQ(shapeSignature(p), "mov,eor,t:ld,br,halt");
}

TEST(Findings, StateBitCountAndJsonStability)
{
    harness::TestCase tc = leakCase();
    EXPECT_EQ(stateBitCount(tc), 1 + 2); // 0x80000 + 0x81000 bits

    Finding f;
    f.progIndex = 3;
    f.program = "prog \"quoted\"";
    f.mechanism = "cache_set_collision";
    f.signature = "cache_set_collision/ld,halt";
    f.minimized = true;
    f.instrsBefore = 5;
    f.instrsAfter = 2;
    f.core = "ld x1, [x0]\nhalt";
    f.tc = tc;
    const std::string json = findingsToJson({f, f});
    EXPECT_NE(json.find("\"schema\": \"scamv-findings-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
    EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
    EXPECT_NE(json.find("\\n"), std::string::npos);
    // Pure function: byte-identical on re-render.
    EXPECT_EQ(json, findingsToJson({f, f}));
    // Clusters sort by signature; distinct signatures split.
    Finding g = f;
    g.signature = "prefetch_spill/ld,ld,halt";
    g.mechanism = "prefetch_spill";
    const std::string two = findingsToJson({f, g});
    EXPECT_NE(two.find("\"findings\": 2"), std::string::npos);
    EXPECT_LT(two.find("cache_set_collision/"),
              two.find("prefetch_spill/"));
}

TEST(Findings, ClassifyMechanism)
{
    // Speculative refinements classify structurally.
    EXPECT_EQ(classifyMechanism(leakProgram(), leakCase(), std::nullopt,
                                true, {}, 1),
              "speculative_load");
    // A plain set-collision leak survives with the prefetcher off.
    EXPECT_EQ(classifyMechanism(leakProgram(), leakCase(), std::nullopt,
                                false, {}, 1),
              "cache_set_collision");
}

// ---- Scheduler gating ----------------------------------------------

TEST(ScreenScheduler, PlanClassAllowedSkipsAndCounts)
{
    cover::RoundPlan plan;
    plan.classOrder = {0, 1, 2, 3};
    std::vector<bool> allowed{false, false, true, false};
    int draw = 0;
    std::int64_t skipped = 0;
    EXPECT_EQ(cover::planClassAllowed(plan, 0, draw, 1, allowed,
                                      &skipped),
              2);
    EXPECT_EQ(draw, 3); // consumed the two skipped draws + the hit
    EXPECT_EQ(skipped, 2);
}

TEST(ScreenScheduler, PlanClassAllowedFallsBackWhenNoneAllowed)
{
    cover::RoundPlan plan;
    plan.classOrder = {5, 6};
    std::vector<bool> allowed(8, false);
    int draw = 0;
    std::int64_t skipped = 0;
    const int cls = cover::planClassAllowed(plan, 0, draw, 1, allowed,
                                            &skipped);
    EXPECT_EQ(cls, 5); // one unfiltered fallback draw
    EXPECT_EQ(skipped, 2);
    EXPECT_EQ(draw, 3);
}

// ---- Campaign-level behaviour --------------------------------------

PipelineConfig
strideCfg()
{
    PipelineConfig cfg;
    cfg.templateKind = gen::TemplateKind::Stride;
    cfg.model = obs::ModelKind::Mpart;
    cfg.refinement = obs::ModelKind::MpartRefined;
    cfg.coverage = Coverage::PcAndLine;
    cfg.programs = 8;
    cfg.testsPerProgram = 6;
    cfg.seed = 42;
    cfg.threads = 1;
    cfg.deterministicMetricsTiming = true;
    cfg.modelParams.attacker.loSet = 61;
    cfg.platform.visibleLoSet = 61;
    cfg.platform.visibleHiSet = 127;
    cfg.triageScreen = 0;
    cfg.triageMinimize = 0;
    return cfg;
}

/** A campaign counter, 0 when the campaign never touched it. */
std::uint64_t
counterOf(const RunStats &stats, const char *name)
{
    const auto it = stats.metrics.counters.find(name);
    return it == stats.metrics.counters.end() ? 0 : it->second;
}

TEST(ScreenCampaign, StrideFullWindowScreensEveryProgram)
{
    // Attacker window = every set: ar-contained proves each Stride
    // program boring, so the screened campaign runs zero SMT.
    PipelineConfig cfg = strideCfg();
    cfg.modelParams.attacker.loSet = 0;
    cfg.platform.visibleLoSet = 0;
    cfg.triageScreen = 1;
    const RunStats on = core::Pipeline(cfg).run();
    EXPECT_EQ(on.screened, cfg.programs);
    EXPECT_EQ(on.experiments, 0);
    EXPECT_EQ(on.metrics.histograms.count("phase.smt_seconds"), 0u);
    EXPECT_EQ(counterOf(on, "smt.queries"), 0u);

    // The unscreened run pays symexec + SMT for the same nothing.
    cfg.triageScreen = 0;
    const RunStats off = core::Pipeline(cfg).run();
    EXPECT_EQ(off.screened, 0);
    EXPECT_EQ(off.experiments, 0);
    EXPECT_EQ(off.counterexamples, on.counterexamples);
    EXPECT_GT(off.metrics.histograms.count("phase.smt_seconds"), 0u);
    EXPECT_GT(counterOf(off, "smt.queries"), 0u);
}

/** Campaign findings rendered as the canonical JSON export. */
std::string
findingsJsonOf(const RunStats &stats)
{
    return findingsToJson(stats.findings);
}

TEST(FindingsIdentity, ByteIdenticalAcrossThreads)
{
    PipelineConfig cfg = strideCfg();
    cfg.triageMinimize = 1;
    const RunStats t1 = core::Pipeline(cfg).run();
    ASSERT_GT(t1.counterexamples, 0);
    ASSERT_FALSE(t1.findings.empty());
    cfg.threads = 4;
    const RunStats t4 = core::Pipeline(cfg).run();
    EXPECT_EQ(findingsJsonOf(t1), findingsJsonOf(t4));
    EXPECT_EQ(t1.metrics, t4.metrics);
}

TEST(FindingsIdentity, ByteIdenticalAcrossShards)
{
    PipelineConfig base = strideCfg();
    base.triageMinimize = 1;
    const PipelineConfig cfg = core::resolveCampaignEnv(base);

    const auto run_sharded = [&](int shards) {
        std::vector<core::ProgramOutcome> slots(
            static_cast<std::size_t>(cfg.programs));
        for (int s = 0; s < shards; ++s) {
            const shard::Slice sl =
                shard::planShard(cfg.seed, cfg.programs, shards, s);
            core::CampaignSlice slice =
                core::runCampaignSlice(cfg, sl.first, sl.count);
            for (int k = 0; k < slice.count; ++k)
                slots[static_cast<std::size_t>(sl.first + k)] =
                    std::move(
                        slice.outcomes[static_cast<std::size_t>(k)]);
        }
        core::MergeTailOptions opts;
        opts.honorEnvExports = false;
        return core::mergeCampaignOutcomes(cfg, slots, opts);
    };
    const RunStats one = run_sharded(1);
    const RunStats four = run_sharded(4);
    ASSERT_FALSE(one.findings.empty());
    EXPECT_EQ(findingsJsonOf(one), findingsJsonOf(four));

    // And both equal the unsharded campaign's export.
    const RunStats whole = core::Pipeline(base).run();
    EXPECT_EQ(findingsJsonOf(whole), findingsJsonOf(one));
}

TEST(FindingsIdentity, ByteIdenticalColdVsWarmQcache)
{
    qcache::QueryCache cache({8 << 20, ""});
    PipelineConfig cfg = strideCfg();
    cfg.triageMinimize = 1;
    cfg.queryCache = &cache;
    const RunStats cold = core::Pipeline(cfg).run();
    const RunStats warm = core::Pipeline(cfg).run();
    ASSERT_FALSE(cold.findings.empty());
    EXPECT_EQ(findingsJsonOf(cold), findingsJsonOf(warm));
}

TEST(FindingsIdentity, ExportWritesFile)
{
    PipelineConfig cfg = strideCfg();
    cfg.triageMinimize = 1;
    const std::string path =
        testing::TempDir() + "/scamv-findings-test.json";
    cfg.findingsFile = path;
    const RunStats stats = core::Pipeline(cfg).run();
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), findingsJsonOf(stats));
    std::remove(path.c_str());
}

TEST(TriageFaultCampaign, MinimizerFlakeKeepsUnminimizedFinding)
{
    PipelineConfig cfg = strideCfg();
    cfg.triageMinimize = 1;
    cfg.faultPlan.rate = 1.0;
    cfg.faultPlan.mask =
        1u << static_cast<int>(faults::Site::TriageMinimizeFlake);
    const RunStats stats = core::Pipeline(cfg).run();
    ASSERT_GT(stats.counterexamples, 0);
    ASSERT_FALSE(stats.findings.empty());
    EXPECT_GT(stats.triageDegraded, 0);
    for (const Finding &f : stats.findings) {
        EXPECT_TRUE(f.degraded);
        EXPECT_FALSE(f.minimized);
        EXPECT_EQ(f.instrsBefore, f.instrsAfter);
    }
    // Degradation is deterministic, like every fault decision.
    const RunStats again = core::Pipeline(cfg).run();
    EXPECT_EQ(findingsJsonOf(stats), findingsJsonOf(again));
}

/** Screen-on/off differential scaffolding shared by the plain and
 *  fault-plan variants: identical db records and verdict counters
 *  (the screen may skip work, never change an outcome). */
void
expectScreenDifferentialHolds(PipelineConfig cfg)
{
    core::ExperimentDb db_on, db_off;
    cfg.triageScreen = 1;
    cfg.database = &db_on;
    const RunStats on = core::Pipeline(cfg).run();
    cfg.triageScreen = 0;
    cfg.database = &db_off;
    const RunStats off = core::Pipeline(cfg).run();

    EXPECT_GT(on.screened, 0);
    EXPECT_EQ(off.screened, 0);
    EXPECT_EQ(on.experiments, off.experiments);
    EXPECT_EQ(on.counterexamples, off.counterexamples);
    EXPECT_EQ(on.inconclusive, off.inconclusive);

    const std::string p_on = testing::TempDir() + "/scamv-diff-on.csv";
    const std::string p_off =
        testing::TempDir() + "/scamv-diff-off.csv";
    ASSERT_TRUE(db_on.exportCsv(p_on));
    ASSERT_TRUE(db_off.exportCsv(p_off));
    const auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        std::stringstream buf;
        buf << in.rdbuf();
        return buf.str();
    };
    EXPECT_EQ(slurp(p_on), slurp(p_off));
    std::remove(p_on.c_str());
    std::remove(p_off.c_str());
}

PipelineConfig
differentialCfg()
{
    PipelineConfig cfg;
    cfg.templateKinds = {gen::TemplateKind::Stride,
                         gen::TemplateKind::C};
    cfg.model = obs::ModelKind::Mct;
    cfg.refinement = obs::ModelKind::Mspec;
    cfg.coverage = Coverage::PcAndLine;
    cfg.testsPerProgram = 2;
    cfg.seed = 7;
    cfg.threads = 4;
    cfg.deterministicMetricsTiming = true;
    cfg.triageMinimize = 0;
    return cfg;
}

TEST(ScreenDifferential, TwoHundredProgramsIdenticalVerdicts)
{
    PipelineConfig cfg = differentialCfg();
    cfg.programs = 200;
    expectScreenDifferentialHolds(cfg);
}

TEST(TriageFaultCampaign, ScreenDifferentialHoldsUnderFaultPlan)
{
    // Nightly runs this under SCAMV_FAULT_PLAN=all: injected faults
    // may quarantine boring programs in the unscreened run, but never
    // give them an experiment — the verdict set still matches.
    PipelineConfig cfg = differentialCfg();
    cfg.programs = 40;
    // Honour the nightly's SCAMV_FAULT_RATE/SCAMV_FAULT_PLAN when
    // set; arm an all-sites plan ourselves otherwise.
    if (!core::resolveCampaignEnv(cfg).faultPlan.enabled()) {
        cfg.faultPlan.rate = 0.2;
        cfg.faultPlan.mask = faults::FaultPlan::maskAll();
    }
    expectScreenDifferentialHolds(cfg);
}

TEST(ScreenCampaign, AdaptiveScheduleGatesCoverageDraws)
{
    // Stride programs touch few classes; under the adaptive schedule
    // with the screen on, draws for unreachable classes are skipped
    // (counted) and campaign results remain deterministic.
    PipelineConfig cfg = strideCfg();
    cfg.schedule = core::Schedule::Adaptive;
    cfg.triageScreen = 1;
    const RunStats a = core::Pipeline(cfg).run();
    const RunStats b = core::Pipeline(cfg).run();
    EXPECT_EQ(a.metrics, b.metrics);
    EXPECT_GT(a.experiments, 0);
}

} // namespace
} // namespace scamv::triage
