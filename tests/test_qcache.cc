/** @file Tests for the semantic SMT query cache (support/qcache). */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/expdb.hh"
#include "core/pipeline.hh"
#include "expr/eval.hh"
#include "expr/expr.hh"
#include "smt/sampler.hh"
#include "smt/solver.hh"
#include "support/faults.hh"
#include "support/metrics.hh"
#include "support/qcache/cached_solve.hh"
#include "support/qcache/qcache.hh"

namespace scamv::qcache {
namespace {

using expr::Expr;

std::uint64_t
globalCounter(const char *name)
{
    return metrics::Registry::global().counter(name).value();
}

std::string
tmpPath(const char *tag)
{
    return ::testing::TempDir() + std::string("scamv_qcache_") + tag +
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

// ---------------------------------------------------------------------
// Canonicalization

TEST(Canon, AlphaRenameSameKeyAndFingerprint)
{
    expr::ExprContext a, b;
    const Expr fa =
        a.land(a.eq(a.add(a.bvVar("x"), a.bvVar("y")), a.bv(5)),
               a.ult(a.bvVar("x"), a.bv(4)));
    const Expr fb =
        b.land(b.eq(b.add(b.bvVar("p"), b.bvVar("q")), b.bv(5)),
               b.ult(b.bvVar("p"), b.bv(4)));
    const CanonForm ca = canonicalize(fa);
    const CanonForm cb = canonicalize(fb);
    EXPECT_EQ(ca.key, cb.key);
    EXPECT_EQ(ca.fingerprint, cb.fingerprint);

    // A genuinely different formula must not collide.
    const Expr fc =
        a.land(a.eq(a.add(a.bvVar("x"), a.bvVar("y")), a.bv(6)),
               a.ult(a.bvVar("x"), a.bv(4)));
    EXPECT_FALSE(canonicalize(fc).key == ca.key);
}

TEST(Canon, CommutativeOperandSwapIsAFullHit)
{
    // Alpha indices follow traversal order, so swapping the operands
    // of a commutative node and the roles of the variables yields the
    // same canonical key *and* the same exactness fingerprint.
    expr::ExprContext ctx;
    const Expr x = ctx.bvVar("x");
    const Expr y = ctx.bvVar("y");
    const Expr f1 = ctx.eq(ctx.add(x, y), ctx.bv(5));
    const Expr f2 = ctx.eq(ctx.add(y, x), ctx.bv(5));
    const CanonForm c1 = canonicalize(f1);
    const CanonForm c2 = canonicalize(f2);
    EXPECT_EQ(c1.key, c2.key);
    EXPECT_EQ(c1.fingerprint, c2.fingerprint);
    // The name maps differ (x is v0 in f1, y is v0 in f2) — exactly
    // what makes the shared model replay correctly for both.
    EXPECT_EQ(c1.toCanon.at("x"), "v0");
    EXPECT_EQ(c2.toCanon.at("y"), "v0");
}

TEST(Canon, ShapeDistinctReorderSharesKeyNotFingerprint)
{
    // Reordering operands of *different shape* keeps the semantic
    // key (same cache slot) but changes the fingerprint: the entry is
    // reachable only by formulas that replay the original solver
    // trajectory exactly.  (`add` does not normalize non-constant
    // operand order, so the two sums really are distinct nodes.)
    expr::ExprContext ctx;
    const Expr x = ctx.bvVar("x");
    const Expr y = ctx.bvVar("y");
    const Expr t1 = ctx.mul(x, y);
    const Expr t2 = ctx.bvAnd(x, ctx.bv(7));
    const CanonForm c1 =
        canonicalize(ctx.eq(ctx.add(t1, t2), ctx.bv(5)));
    const CanonForm c2 =
        canonicalize(ctx.eq(ctx.add(t2, t1), ctx.bv(5)));
    EXPECT_EQ(c1.key, c2.key);
    EXPECT_NE(c1.fingerprint, c2.fingerprint);
}

TEST(Canon, ModelTranslationRoundTrips)
{
    expr::ExprContext ctx;
    const Expr f = ctx.land(ctx.eq(ctx.bvVar("addr"), ctx.bv(5)),
                            ctx.boolVar("flag"));
    const CanonForm form = canonicalize(f);

    expr::Assignment orig;
    orig.bvVars["addr"] = 5;
    orig.boolVars["flag"] = true;
    const expr::Assignment canon = toCanonical(form, orig);
    EXPECT_EQ(canon.bvVars.at("v0"), 5u);
    EXPECT_EQ(canon.boolVars.at("b0"), true);
    const expr::Assignment back = toOriginal(form, canon);
    EXPECT_EQ(back.bvVars.at("addr"), 5u);
    EXPECT_EQ(back.boolVars.at("flag"), true);
}

// ---------------------------------------------------------------------
// Cache semantics

TEST(Cache, AlphaRenamedQueriesShareAnEntry)
{
    QueryCache cache({1 << 20, ""});
    expr::ExprContext a, b;
    const Expr fa =
        a.land(a.eq(a.add(a.bvVar("x"), a.bvVar("y")), a.bv(5)),
               a.ult(a.bvVar("x"), a.bv(4)));
    // Same query in another context: renamed and operand-swapped.
    const Expr fb =
        b.land(b.eq(b.add(b.bvVar("q"), b.bvVar("p")), b.bv(5)),
               b.ult(b.bvVar("q"), b.bv(4)));

    const std::uint64_t h0 = globalCounter("qcache.hit");
    const SolveResult r1 = solveOnce(a, fa, 200000, &cache);
    ASSERT_EQ(r1.outcome, smt::Outcome::Sat);
    ASSERT_TRUE(r1.model);
    EXPECT_TRUE(expr::evalBool(fa, *r1.model));
    EXPECT_EQ(cache.size(), 1u);

    const SolveResult r2 = solveOnce(b, fb, 200000, &cache);
    ASSERT_EQ(r2.outcome, smt::Outcome::Sat);
    ASSERT_TRUE(r2.model);
    EXPECT_TRUE(expr::evalBool(fb, *r2.model));
    EXPECT_EQ(globalCounter("qcache.hit"), h0 + 1);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(Cache, UnsatResultsAreCached)
{
    QueryCache cache({1 << 20, ""});
    expr::ExprContext ctx;
    const Expr f = ctx.ult(ctx.bvVar("x"), ctx.bv(0)); // x < 0: unsat
    const std::uint64_t h0 = globalCounter("qcache.hit");
    EXPECT_EQ(solveOnce(ctx, f, 200000, &cache).outcome,
              smt::Outcome::Unsat);
    const SolveResult r = solveOnce(ctx, f, 200000, &cache);
    EXPECT_EQ(r.outcome, smt::Outcome::Unsat);
    EXPECT_FALSE(r.model);
    EXPECT_EQ(globalCounter("qcache.hit"), h0 + 1);
}

TEST(Cache, FpConflictRecomputesInsteadOfReplaying)
{
    QueryCache cache({1 << 20, ""});
    expr::ExprContext ctx;
    const Expr x = ctx.bvVar("x");
    const Expr y = ctx.bvVar("y");
    const Expr t1 = ctx.mul(x, y);
    const Expr t2 = ctx.bvAnd(x, ctx.bv(7));
    const Expr f1 = ctx.eq(ctx.add(t1, t2), ctx.bv(5));
    const Expr f2 = ctx.eq(ctx.add(t2, t1), ctx.bv(5));

    ASSERT_EQ(solveOnce(ctx, f1, 200000, &cache).outcome,
              smt::Outcome::Sat);
    const std::uint64_t c0 = globalCounter("qcache.fp_conflict");
    const SolveResult r = solveOnce(ctx, f2, 200000, &cache);
    EXPECT_EQ(r.outcome, smt::Outcome::Sat);
    ASSERT_TRUE(r.model);
    EXPECT_TRUE(expr::evalBool(f2, *r.model));
    EXPECT_EQ(globalCounter("qcache.fp_conflict"), c0 + 1);
    // Keep-first: the semantic cousin never displaces the original.
    EXPECT_EQ(cache.size(), 1u);
}

TEST(Cache, CachedModelsAreRevalidatedBeforeUse)
{
    QueryCache cache({1 << 20, ""});
    expr::ExprContext ctx;
    const Expr f = ctx.eq(ctx.bvVar("x"), ctx.bv(5));
    const CanonForm form = canonicalize(f);

    // Plant a poisoned entry (as a damaged persistence file could):
    // right key and fingerprint, wrong model.
    Entry poison;
    poison.sat = true;
    poison.fingerprint = form.fingerprint;
    poison.model.bvVars["v0"] = 6;
    cache.store(solveKey(form, 200000), poison);

    const std::uint64_t d0 = globalCounter("qcache.validation_dropped");
    const SolveResult r = solveOnce(ctx, f, 200000, &cache);
    ASSERT_EQ(r.outcome, smt::Outcome::Sat);
    ASSERT_TRUE(r.model);
    EXPECT_EQ(r.model->bvVars.at("x"), 5u);
    EXPECT_EQ(globalCounter("qcache.validation_dropped"), d0 + 1);

    // The recomputed result replaced the poisoned entry: next query
    // hits and replays the *valid* model.
    const std::uint64_t h0 = globalCounter("qcache.hit");
    const SolveResult r2 = solveOnce(ctx, f, 200000, &cache);
    ASSERT_TRUE(r2.model);
    EXPECT_EQ(r2.model->bvVars.at("x"), 5u);
    EXPECT_EQ(globalCounter("qcache.hit"), h0 + 1);
}

TEST(Cache, EvictionRespectsByteBoundAndLru)
{
    // An empty entry costs 128 estimated bytes: a 300-byte bound
    // holds two entries, never three.
    QueryCache cache({300, ""});
    Entry e;
    e.fingerprint = 7;
    cache.store(Key{1, 1}, e);
    cache.store(Key{2, 2}, e);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_LE(cache.totalBytes(), cache.maxBytes());

    // Touch {1,1} so {2,2} is the least recently used...
    EXPECT_TRUE(cache.lookup(Key{1, 1}, 7).has_value());
    const std::uint64_t e0 = globalCounter("qcache.evict");
    cache.store(Key{3, 3}, e);
    // ...and gets evicted to make room.
    EXPECT_TRUE(cache.contains(Key{1, 1}));
    EXPECT_FALSE(cache.contains(Key{2, 2}));
    EXPECT_TRUE(cache.contains(Key{3, 3}));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_LE(cache.totalBytes(), cache.maxBytes());
    EXPECT_EQ(globalCounter("qcache.evict"), e0 + 1);
}

// ---------------------------------------------------------------------
// Persistence

TEST(Persist, RoundTripReplaysWithoutSolving)
{
    const std::string path = tmpPath("roundtrip");
    std::remove(path.c_str());
    expr::ExprContext ctx;
    const Expr sat_f =
        ctx.land(ctx.eq(ctx.add(ctx.bvVar("x"), ctx.bvVar("y")),
                        ctx.bv(5)),
                 ctx.ult(ctx.bvVar("x"), ctx.bv(4)));
    const Expr unsat_f = ctx.ult(ctx.bvVar("x"), ctx.bv(0));
    {
        QueryCache cache({1 << 20, path});
        ASSERT_EQ(solveOnce(ctx, sat_f, 200000, &cache).outcome,
                  smt::Outcome::Sat);
        ASSERT_EQ(solveOnce(ctx, unsat_f, 200000, &cache).outcome,
                  smt::Outcome::Unsat);
        EXPECT_EQ(cache.size(), 2u);
    }

    QueryCache reloaded({1 << 20, path});
    EXPECT_EQ(reloaded.size(), 2u);
    EXPECT_EQ(reloaded.loadDropped(), 0u);

    const std::uint64_t h0 = globalCounter("qcache.hit");
    const SolveResult r = solveOnce(ctx, sat_f, 200000, &reloaded);
    ASSERT_EQ(r.outcome, smt::Outcome::Sat);
    ASSERT_TRUE(r.model);
    EXPECT_TRUE(expr::evalBool(sat_f, *r.model));
    EXPECT_EQ(solveOnce(ctx, unsat_f, 200000, &reloaded).outcome,
              smt::Outcome::Unsat);
    EXPECT_EQ(globalCounter("qcache.hit"), h0 + 2);
    std::remove(path.c_str());
}

TEST(Persist, CorruptRecordsAreDroppedAndCounted)
{
    const std::string path = tmpPath("corrupt");
    std::remove(path.c_str());
    {
        QueryCache cache({1 << 20, path});
        Entry e;
        e.sat = true;
        e.fingerprint = 9;
        e.model.bvVars["v0"] = 5;
        cache.store(Key{10, 11}, e);
    }
    // Damage the file: garbage, a truncated record, a flipped
    // checksum.
    const std::string good = readFile(path);
    {
        std::ofstream out(path, std::ios::app);
        out << "deadbeef this is not a record\n";
        const std::string valid_line =
            good.substr(good.find('\n') + 1); // first real record
        out << valid_line.substr(0, valid_line.size() / 2) << "\n";
        std::string flipped = valid_line;
        flipped[flipped.size() - 2] =
            flipped[flipped.size() - 2] == '0' ? '1' : '0';
        out << flipped; // ends with its own '\n'
    }

    const std::uint64_t d0 = globalCounter("qcache.load_dropped");
    QueryCache reloaded({1 << 20, path});
    EXPECT_EQ(reloaded.size(), 1u);
    EXPECT_TRUE(reloaded.contains(Key{10, 11}));
    EXPECT_GE(reloaded.loadDropped(), 2u);
    EXPECT_GE(globalCounter("qcache.load_dropped") - d0, 2u);
    std::remove(path.c_str());
}

TEST(Persist, ParentFormatCheckpointLoads)
{
    // A record for `x <u 6` exactly as scamv-qcache-v1 writers before
    // support/linecodec wrote it: the checksum field is unpadded %llx
    // (15 digits here), not the 16 digits records carry today.
    const std::string record =
        "c9a66795b1089492 f2246c2d225f91e2 f9a36eee0659cbde S - "
        "v!v0:0#c!smt.queries:1 221bc781c7a258e";
    ASSERT_EQ(record.size() - record.rfind(' ') - 1, 15u);
    const std::string path = tmpPath("parent_format");
    {
        std::ofstream out(path);
        out << kFileHeader << "\n" << record << "\n";
    }
    const std::uint64_t d0 = globalCounter("qcache.load_dropped");
    QueryCache cache({1 << 20, path});
    EXPECT_EQ(globalCounter("qcache.load_dropped"), d0);
    EXPECT_EQ(cache.loadDropped(), 0u);
    ASSERT_EQ(cache.size(), 1u);

    expr::ExprContext ctx;
    const Expr f = ctx.ult(ctx.bvVar("x"), ctx.bv(6));
    const std::uint64_t h0 = globalCounter("qcache.hit");
    const std::uint64_t m0 = globalCounter("qcache.miss");
    const SolveResult r = solveOnce(ctx, f, 200000, &cache);
    ASSERT_EQ(r.outcome, smt::Outcome::Sat);
    ASSERT_TRUE(r.model);
    EXPECT_EQ(r.model->bvVars.at("x"), 0u);
    EXPECT_EQ(globalCounter("qcache.hit"), h0 + 1);
    EXPECT_EQ(globalCounter("qcache.miss"), m0);
    std::remove(path.c_str());
}

TEST(Persist, ForeignHeaderDisablesPersistence)
{
    const std::string path = tmpPath("foreign");
    {
        std::ofstream out(path);
        out << "somebody-elses-format-v9\n";
    }
    QueryCache cache({1 << 20, path});
    EXPECT_EQ(cache.size(), 0u);
    Entry e;
    e.fingerprint = 1;
    cache.store(Key{1, 2}, e);
    // The store stayed in memory: the foreign file was not touched.
    EXPECT_EQ(readFile(path), "somebody-elses-format-v9\n");
    std::remove(path.c_str());
}

TEST(Persist, ConfigFromEnv)
{
    unsetenv("SCAMV_QCACHE_MB");
    unsetenv("SCAMV_QCACHE_FILE");
    EXPECT_EQ(QueryCache::configFromEnv().maxBytes, 0u);
    EXPECT_TRUE(QueryCache::configFromEnv().filePath.empty());

    setenv("SCAMV_QCACHE_MB", "4", 1);
    setenv("SCAMV_QCACHE_FILE", "/tmp/q.txt", 1);
    CacheConfig c = QueryCache::configFromEnv();
    EXPECT_EQ(c.maxBytes, std::size_t{4} << 20);
    EXPECT_EQ(c.filePath, "/tmp/q.txt");

    setenv("SCAMV_QCACHE_MB", "not-a-number", 1);
    EXPECT_EQ(QueryCache::configFromEnv().maxBytes, 0u);
    setenv("SCAMV_QCACHE_MB", "1048577", 1); // over the 1 TiB cap
    EXPECT_EQ(QueryCache::configFromEnv().maxBytes, 0u);

    unsetenv("SCAMV_QCACHE_MB");
    unsetenv("SCAMV_QCACHE_FILE");
}

// ---------------------------------------------------------------------
// Fault injection

TEST(Faults, QcacheCorruptSiteDropsRecordsOnLoad)
{
    const std::string path = tmpPath("faultsite");
    std::remove(path.c_str());
    expr::ExprContext ctx;
    const Expr f = ctx.eq(ctx.bvVar("x"), ctx.bv(5));
    const Expr g = ctx.ult(ctx.bvVar("x"), ctx.bv(0));
    {
        QueryCache cache({1 << 20, path});
        solveOnce(ctx, f, 200000, &cache);
        solveOnce(ctx, g, 200000, &cache);
        ASSERT_EQ(cache.size(), 2u);
    }

    faults::FaultPlan plan;
    plan.rate = 1.0;
    plan.mask = 1u << static_cast<int>(faults::Site::QcacheCorrupt);
    faults::Injector inj(plan, 1, 0);
    {
        faults::ScopedInjector scope(inj);
        QueryCache damaged({1 << 20, path});
        // Every persisted record was corrupted before parsing...
        EXPECT_EQ(damaged.size(), 0u);
        EXPECT_EQ(damaged.loadDropped(), 2u);
        // ...and the campaign recomputes instead of failing.
        const SolveResult r = solveOnce(ctx, f, 200000, &damaged);
        ASSERT_EQ(r.outcome, smt::Outcome::Sat);
        EXPECT_EQ(r.model->bvVars.at("x"), 5u);
    }
    EXPECT_EQ(inj.injectedCount(), 2u);

    // Without the injector the same file loads cleanly.
    QueryCache clean({1 << 20, path});
    EXPECT_EQ(clean.size(), 2u);
    std::remove(path.c_str());
}

TEST(Faults, QcacheCorruptSiteIsEnvSelectable)
{
    setenv("SCAMV_FAULT_RATE", "0.5", 1);
    setenv("SCAMV_FAULT_PLAN", "qcache_corrupt", 1);
    const faults::FaultPlan plan = faults::FaultPlan::fromEnv();
    EXPECT_TRUE(plan.enabled());
    EXPECT_TRUE(plan.covers(faults::Site::QcacheCorrupt));
    EXPECT_FALSE(plan.covers(faults::Site::SmtUnknown));
    unsetenv("SCAMV_FAULT_RATE");
    unsetenv("SCAMV_FAULT_PLAN");
}

// ---------------------------------------------------------------------
// Enumeration

TEST(Enumerator, ColdWarmAndUncachedStreamsAgree)
{
    expr::ExprContext ctx;
    const Expr x = ctx.bvVar("x");
    const Expr f = ctx.ult(x, ctx.bv(3));
    const std::vector<Expr> bvars{x};

    // Reference: the pre-cache incremental solver loop.
    std::vector<std::uint64_t> ref;
    {
        smt::SmtSolver solver(ctx, f);
        while (solver.solve(200000) == smt::Outcome::Sat) {
            ref.push_back(solver.model().bvVars.at("x"));
            if (!solver.blockCurrentModel(bvars, 12))
                break;
        }
    }
    ASSERT_EQ(ref.size(), 3u);

    auto drain = [&](CachedEnumerator &en) {
        std::vector<std::uint64_t> out;
        for (int i = 0; i < 8; ++i) {
            const CachedEnumerator::Step s = en.next(200000);
            if (s.outcome != smt::Outcome::Sat)
                break;
            out.push_back(s.model->bvVars.at("x"));
            if (en.dead())
                break;
        }
        return out;
    };

    QueryCache cache({1 << 20, ""});
    CachedEnumerator cold(ctx, f, bvars, 12, &cache);
    const std::vector<std::uint64_t> cold_models = drain(cold);
    EXPECT_EQ(cold_models, ref);

    const std::uint64_t h0 = globalCounter("qcache.hit");
    CachedEnumerator warm(ctx, f, bvars, 12, &cache);
    const std::vector<std::uint64_t> warm_models = drain(warm);
    EXPECT_EQ(warm_models, ref);
    EXPECT_EQ(warm.dead(), cold.dead());
    EXPECT_GE(globalCounter("qcache.hit") - h0, ref.size());

    // The uncached enumerator leg reproduces the same stream.
    CachedEnumerator direct(ctx, f, bvars, 12, nullptr);
    EXPECT_FALSE(direct.usesCache());
    EXPECT_EQ(drain(direct), ref);
}

// ---------------------------------------------------------------------
// Sampler seeding

TEST(Sampler, SeedOracleIsValidatedBeforeUse)
{
    expr::ExprContext ctx;
    const Expr f = ctx.eq(ctx.bvVar("x"), ctx.bv(5));
    smt::SamplerConfig config;

    config.seedOracle = [](Expr) {
        expr::Assignment a;
        a.bvVars["x"] = 5;
        return std::optional<expr::Assignment>(a);
    };
    Rng rng(7);
    const std::uint64_t s0 = globalCounter("smt.sampler.seeded");
    smt::RepairSampler good(ctx, f, rng, config);
    const auto m = good.sample();
    ASSERT_TRUE(m);
    EXPECT_EQ(m->bvVars.at("x"), 5u);
    EXPECT_EQ(globalCounter("smt.sampler.seeded"), s0 + 1);

    config.seedOracle = [](Expr) {
        expr::Assignment a;
        a.bvVars["x"] = 6; // violates the formula
        return std::optional<expr::Assignment>(a);
    };
    const std::uint64_t r0 = globalCounter("smt.sampler.seed_rejected");
    smt::RepairSampler bad(ctx, f, rng, config);
    const auto m2 = bad.sample();
    ASSERT_TRUE(m2); // the stochastic search still finds x == 5
    EXPECT_TRUE(expr::evalBool(f, *m2));
    EXPECT_EQ(globalCounter("smt.sampler.seed_rejected"), r0 + 1);
}

TEST(Sampler, CacheBackedSeedOracleReplaysStoredModels)
{
    QueryCache cache({1 << 20, ""});
    expr::ExprContext ctx;
    const Expr f =
        ctx.land(ctx.eq(ctx.add(ctx.bvVar("x"), ctx.bvVar("y")),
                        ctx.bv(5)),
                 ctx.ult(ctx.bvVar("x"), ctx.bv(4)));
    ASSERT_EQ(solveOnce(ctx, f, 200000, &cache).outcome,
              smt::Outcome::Sat);

    const auto oracle = samplerSeedOracle(&cache, 200000);
    const auto seed = oracle(f);
    ASSERT_TRUE(seed);
    EXPECT_TRUE(expr::evalBool(f, *seed));

    const auto none = samplerSeedOracle(nullptr, 200000)(f);
    EXPECT_FALSE(none);
}

// ---------------------------------------------------------------------
// Campaign-level determinism

core::PipelineConfig
campaignConfig()
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

std::string
runCampaign(const core::PipelineConfig &base, int threads,
            QueryCache *qc, core::ExperimentDb *db)
{
    core::PipelineConfig cfg = base;
    cfg.threads = threads;
    cfg.queryCache = qc;
    cfg.database = db;
    return metrics::toJson(core::Pipeline(cfg).run().metrics);
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

TEST(Campaign, WarmPersistedCacheIsThreadCountByteIdentical)
{
    const core::PipelineConfig cfg = campaignConfig();
    const std::string path = tmpPath("campaign");
    std::remove(path.c_str());

    core::ExperimentDb db_cold, db_warm1, db_warm4;
    std::string j_cold, j_warm1, j_warm4;
    {
        QueryCache cold({8 << 20, path});
        j_cold = runCampaign(cfg, 1, &cold, &db_cold);
    }
    const std::uint64_t h0 = globalCounter("qcache.hit");
    {
        QueryCache warm({8 << 20, path});
        j_warm1 = runCampaign(cfg, 1, &warm, &db_warm1);
    }
    EXPECT_GT(globalCounter("qcache.hit") - h0, 0u);
    {
        QueryCache warm({8 << 20, path});
        j_warm4 = runCampaign(cfg, 4, &warm, &db_warm4);
    }

    EXPECT_EQ(j_cold, j_warm1);
    EXPECT_EQ(j_warm1, j_warm4);
    EXPECT_EQ(dbCsv(db_cold, "db_cold"), dbCsv(db_warm1, "db_warm1"));
    EXPECT_EQ(dbCsv(db_warm1, "db_warm1b"),
              dbCsv(db_warm4, "db_warm4"));
    std::remove(path.c_str());
}

TEST(Campaign, ResumeAfterTruncatedCheckpointMatchesCold)
{
    const core::PipelineConfig cfg = campaignConfig();
    const std::string path = tmpPath("resume");
    std::remove(path.c_str());

    core::ExperimentDb db_cold, db_resumed;
    std::string j_cold, j_resumed;
    {
        QueryCache cold({8 << 20, path});
        j_cold = runCampaign(cfg, 1, &cold, &db_cold);
    }

    // Simulate a campaign killed mid-write: keep the first half of
    // the checkpoint and cut the last surviving record in two.
    const std::string full = readFile(path);
    {
        std::ofstream out(path, std::ios::trunc);
        out << full.substr(0, full.size() / 2);
    }

    const std::uint64_t d0 = globalCounter("qcache.load_dropped");
    {
        QueryCache resumed({8 << 20, path});
        j_resumed = runCampaign(cfg, 1, &resumed, &db_resumed);
    }
    // The torn record was dropped, not trusted...
    EXPECT_GE(globalCounter("qcache.load_dropped") - d0, 1u);
    // ...and the resumed campaign is byte-identical to the cold one.
    EXPECT_EQ(j_cold, j_resumed);
    EXPECT_EQ(dbCsv(db_cold, "db_cold2"),
              dbCsv(db_resumed, "db_resumed"));
    std::remove(path.c_str());
}

TEST(Campaign, FaultPlansBypassTheCache)
{
    // A fault-injection campaign must not consult the cache (replay
    // would change which sites fire): run() nulls the cache and
    // counts the bypass.
    core::PipelineConfig cfg = campaignConfig();
    cfg.programs = 2;
    cfg.testsPerProgram = 3;
    cfg.faultPlan.rate = 0.05;
    cfg.faultPlan.mask = faults::FaultPlan::maskAll();

    QueryCache cache({8 << 20, ""});
    cfg.queryCache = &cache;
    const std::uint64_t b0 = globalCounter("qcache.bypass_faults");
    core::Pipeline(cfg).run();
    EXPECT_EQ(globalCounter("qcache.bypass_faults"), b0 + 1);
    EXPECT_EQ(cache.size(), 0u);
}

} // namespace
} // namespace scamv::qcache
