/** @file Tests for the semantic SMT query cache (support/qcache). */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bir/transform.hh"
#include "core/expdb.hh"
#include "core/pipeline.hh"
#include "expr/eval.hh"
#include "expr/expr.hh"
#include "gen/templates.hh"
#include "obs/models.hh"
#include "rel/relation.hh"
#include "smt/solver.hh"
#include "support/faults.hh"
#include "support/linecodec.hh"
#include "support/metrics.hh"
#include "support/qcache/cached_solve.hh"
#include "support/qcache/qcache.hh"
#include "support/rng.hh"
#include "sym/symexec.hh"

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

/**
 * @return v's value in `m`.  Fails the test when `m` leaves v unset:
 * an unset slot reads as 0 through Assignment::bv, which would hide a
 * variable that a model lost on the way.
 */
std::uint64_t
bvAt(const expr::Assignment &m, Expr v)
{
    const std::uint64_t *value = m.bvVars.find(v->slot);
    if (!value) {
        ADD_FAILURE() << "model leaves " << v->name << " unset";
        return ~std::uint64_t{0};
    }
    return *value;
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
    // The variable orders differ (x is v0 in f1, y is v0 in f2) —
    // exactly what makes the shared model replay correctly for both.
    EXPECT_EQ(c1.bvs, (std::vector<Expr>{x, y}));
    EXPECT_EQ(c2.bvs, (std::vector<Expr>{y, x}));
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
    const Expr addr = ctx.bvVar("addr");
    const Expr flag = ctx.boolVar("flag");
    const Expr mem = ctx.memVar("mem");
    const Expr f = ctx.land(ctx.eq(addr, ctx.read(mem, ctx.bv(8))), flag);
    const CanonForm form = canonicalize(f);

    expr::Assignment orig;
    orig.setBv(addr, 5);
    orig.setBool(flag, true);
    orig.memOf(mem).storeWord(8, 5);
    const CanonModel canon = toCanonical(form, orig);
    ASSERT_TRUE(canon.bvVars.has(0) && canon.boolVars.has(0) &&
                canon.mems.has(0));
    EXPECT_EQ(*canon.bvVars.find(0), 5u);
    EXPECT_EQ(*canon.boolVars.find(0), true);
    EXPECT_EQ(canon.mems.find(0)->load(8), 5u);
    const expr::Assignment back = toOriginal(form, canon);
    EXPECT_EQ(bvAt(back, addr), 5u);
    EXPECT_EQ(back.boolean(flag), true);
    ASSERT_TRUE(back.mem(mem));
    EXPECT_EQ(back.mem(mem)->load(8), 5u);
}

TEST(Canon, PresenceSurvivesTranslation)
{
    // Only set variables come back, and a set zero or false stays
    // set: presence decides which variables a record lists.
    expr::ExprContext ctx;
    const Expr x = ctx.bvVar("x");
    const Expr y = ctx.bvVar("y");
    const Expr p = ctx.boolVar("p");
    const Expr q = ctx.boolVar("q");
    const Expr f = ctx.land(ctx.land(ctx.ult(x, y), p), q);
    const CanonForm form = canonicalize(f);

    expr::Assignment orig;
    orig.setBv(y, 0);
    orig.setBool(q, false);
    const expr::Assignment back = toOriginal(form, toCanonical(form, orig));
    EXPECT_FALSE(back.bvVars.has(x->slot));
    EXPECT_TRUE(back.bvVars.has(y->slot));
    EXPECT_FALSE(back.boolVars.has(p->slot));
    EXPECT_TRUE(back.boolVars.has(q->slot));
    EXPECT_TRUE(back.mems.empty());
    // Unset slots read as zero and false, like set zeros.
    EXPECT_EQ(back.bv(x), 0u);
    EXPECT_FALSE(back.boolean(p));
}

// ---------------------------------------------------------------------
// Differential canonicalization against the map-based implementation

/**
 * canonicalize() as it was before the flat tables: node-keyed maps,
 * a separate alpha-assignment walk per order, and one Merkle walk per
 * hash lane.  Returns the canonical name of every variable.
 */
namespace mapcanon {

using expr::Kind;

constexpr std::uint64_t kSeedLaneHi = 0x5ca77e5700010001ULL;
constexpr std::uint64_t kSeedLaneLo = 0x5ca77e5700020002ULL;
constexpr std::uint64_t kSeedShape = 0x5ca77e5700030003ULL;
constexpr std::uint64_t kSeedFp = 0x5ca77e5700040004ULL;

bool
isVar(Expr e)
{
    return e->kind == Kind::BvVar || e->kind == Kind::BoolVar ||
           e->kind == Kind::MemVar;
}

bool
isCommutative(Kind k)
{
    switch (k) {
      case Kind::Add: case Kind::Mul: case Kind::BvAnd: case Kind::BvOr:
      case Kind::BvXor: case Kind::Eq: case Kind::And: case Kind::Or:
        return true;
      default:
        return false;
    }
}

std::uint64_t
kindTag(Expr e)
{
    return (static_cast<std::uint64_t>(e->kind) << 8) |
           static_cast<std::uint64_t>(e->sort);
}

std::uint64_t
shapeOf(Expr e, std::unordered_map<Expr, std::uint64_t> &memo)
{
    if (auto it = memo.find(e); it != memo.end())
        return it->second;
    std::uint64_t h = mixKey(kSeedShape, kindTag(e));
    if (e->isConst()) {
        h = mixKey(h, e->value);
    } else if (!isVar(e)) {
        std::vector<std::uint64_t> kid_hashes;
        for (Expr kid : e->kids)
            kid_hashes.push_back(shapeOf(kid, memo));
        if (isCommutative(e->kind))
            std::stable_sort(kid_hashes.begin(), kid_hashes.end());
        for (std::uint64_t kh : kid_hashes)
            h = mixKey(h, kh);
        h = mixKey(h, kid_hashes.size());
    }
    memo.emplace(e, h);
    return h;
}

template <class KidsOf>
void
assignAlpha(Expr root, KidsOf &&kids_of,
            std::unordered_map<Expr, std::uint64_t> &index)
{
    std::uint64_t counters[3] = {0, 0, 0};
    std::unordered_map<Expr, bool> visited;
    auto dfs = [&](auto &&self, Expr e) -> void {
        if (visited.count(e))
            return;
        visited.emplace(e, true);
        if (isVar(e)) {
            index.emplace(e, counters[static_cast<int>(e->sort)]++);
            return;
        }
        for (Expr kid : kids_of(e))
            self(self, kid);
    };
    dfs(dfs, root);
}

template <class KidsOf>
std::uint64_t
merkle(Expr root, std::uint64_t seed, KidsOf &&kids_of,
       const std::unordered_map<Expr, std::uint64_t> &index)
{
    std::unordered_map<Expr, std::uint64_t> memo;
    auto walk = [&](auto &&self, Expr e) -> std::uint64_t {
        if (auto it = memo.find(e); it != memo.end())
            return it->second;
        std::uint64_t h = mixKey(seed, kindTag(e));
        if (e->isConst()) {
            h = mixKey(h, e->value);
        } else if (isVar(e)) {
            h = mixKey(h, index.at(e));
        } else {
            for (Expr kid : kids_of(e))
                h = mixKey(h, self(self, kid));
            h = mixKey(h, e->kids.size());
        }
        memo.emplace(e, h);
        return h;
    };
    return walk(walk, root);
}

struct Form {
    Key key;
    std::uint64_t fingerprint = 0;
    std::unordered_map<std::string, std::string> toCanon;
};

Form
canonicalize(Expr formula)
{
    Form form;
    std::unordered_map<Expr, std::uint64_t> shape_memo;
    shapeOf(formula, shape_memo);
    std::unordered_map<Expr, std::vector<Expr>> sorted_memo;
    auto sorted_kids = [&](Expr e) -> const std::vector<Expr> & {
        if (!isCommutative(e->kind))
            return e->kids;
        auto it = sorted_memo.find(e);
        if (it == sorted_memo.end()) {
            std::vector<Expr> kids = e->kids;
            std::stable_sort(kids.begin(), kids.end(),
                             [&](Expr a, Expr b) {
                                 return shape_memo.at(a) <
                                        shape_memo.at(b);
                             });
            it = sorted_memo.emplace(e, std::move(kids)).first;
        }
        return it->second;
    };
    auto original_kids = [](Expr e) -> const std::vector<Expr> & {
        return e->kids;
    };
    std::unordered_map<Expr, std::uint64_t> sem_index;
    assignAlpha(formula, sorted_kids, sem_index);
    form.key.hi = merkle(formula, kSeedLaneHi, sorted_kids, sem_index);
    form.key.lo = merkle(formula, kSeedLaneLo, sorted_kids, sem_index);
    std::unordered_map<Expr, std::uint64_t> fp_index;
    assignAlpha(formula, original_kids, fp_index);
    form.fingerprint = merkle(formula, kSeedFp, original_kids, fp_index);
    for (const auto &[node, index] : sem_index) {
        const char *prefix = node->kind == Kind::BvVar     ? "v"
                             : node->kind == Kind::BoolVar ? "b"
                                                           : "m";
        form.toCanon.emplace(node->name,
                             prefix + std::to_string(index));
    }
    return form;
}

} // namespace mapcanon

/**
 * Random formulas for the differential test: several variables of
 * each sort, commutative operands in random order, reads through
 * store chains, and subterms shared through a pool.
 */
struct RandomFormula {
    expr::ExprContext &ctx;
    Rng rng;
    std::vector<Expr> bvs, bools, mems;

    RandomFormula(expr::ExprContext &c, std::uint64_t seed)
        : ctx(c), rng(seed)
    {
        for (int i = 0; i < 5; ++i)
            bvs.push_back(ctx.bvVar("x" + std::to_string(i)));
        for (int i = 0; i < 3; ++i)
            bools.push_back(ctx.boolVar("p" + std::to_string(i)));
        for (int i = 0; i < 2; ++i)
            mems.push_back(ctx.memVar("m" + std::to_string(i)));
        bvs.push_back(ctx.bv(8));
        bvs.push_back(ctx.bv(0x80000));
    }

    Expr
    pick(const std::vector<Expr> &pool)
    {
        return pool[rng.below(pool.size())];
    }

    Expr
    bv(int depth)
    {
        if (depth == 0 || rng.chance(0.25))
            return pick(bvs);
        Expr a = bv(depth - 1), b = bv(depth - 1);
        if (rng.chance(0.5))
            std::swap(a, b);
        Expr t;
        switch (rng.below(9)) {
          case 0: t = ctx.add(a, b); break;
          case 1: t = ctx.mul(a, b); break;
          case 2: t = ctx.bvXor(a, b); break;
          case 3: t = ctx.bvAnd(a, b); break;
          case 4: t = ctx.sub(a, b); break;
          case 5: t = ctx.lshr(a, ctx.bv(rng.below(8))); break;
          case 6: t = ctx.ite(boolean(depth - 1), a, b); break;
          case 7: t = ctx.read(mem(depth - 1), a); break;
          default: t = ctx.bvOr(a, b); break;
        }
        bvs.push_back(t); // shared by later picks
        return t;
    }

    Expr
    mem(int depth)
    {
        Expr m = pick(mems);
        for (int i = 0, n = static_cast<int>(rng.below(3)); i < n; ++i)
            m = ctx.store(m, bv(depth > 0 ? depth - 1 : 0), pick(bvs));
        return m;
    }

    Expr
    boolean(int depth)
    {
        if (depth == 0 || rng.chance(0.2))
            return pick(bools);
        switch (rng.below(5)) {
          case 0: return ctx.eq(bv(depth - 1), bv(depth - 1));
          case 1: return ctx.ult(bv(depth - 1), bv(depth - 1));
          case 2: return ctx.land(boolean(depth - 1), boolean(depth - 1));
          case 3: return ctx.lor(boolean(depth - 1), boolean(depth - 1));
          default: return ctx.lnot(boolean(depth - 1));
        }
    }
};

TEST(Canon, MatchesMapBasedCanonicalization)
{
    int vars_checked = 0;
    for (std::uint64_t seed = 1; seed <= 400; ++seed) {
        expr::ExprContext ctx;
        RandomFormula gen(ctx, seed);
        const Expr f = gen.boolean(5);
        const CanonForm form = canonicalize(f);
        const mapcanon::Form ref = mapcanon::canonicalize(f);
        ASSERT_EQ(form.key.hi, ref.key.hi) << "seed " << seed;
        ASSERT_EQ(form.key.lo, ref.key.lo) << "seed " << seed;
        ASSERT_EQ(form.fingerprint, ref.fingerprint) << "seed " << seed;
        ASSERT_EQ(form.bvs.size() + form.bools.size() + form.mems.size(),
                  ref.toCanon.size())
            << "seed " << seed;
        for (Expr v : expr::collectVars(f)) {
            const int index = canonicalIndex(form, v);
            ASSERT_GE(index, 0) << "seed " << seed;
            EXPECT_EQ(canonicalName(v->sort,
                                    static_cast<std::uint32_t>(index)),
                      ref.toCanon.at(v->name))
                << "seed " << seed << " var " << v->name;
            ++vars_checked;
        }
    }
    EXPECT_GT(vars_checked, 1500);
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

/** @return the names of the global registry's qcache.* metrics and
 *  their values (a histogram's value is its sample count). */
std::map<std::string, std::uint64_t>
globalQcacheMetrics()
{
    std::map<std::string, std::uint64_t> out;
    const metrics::Snapshot snap = metrics::Registry::global().snapshot();
    for (const auto &[name, value] : snap.counters)
        if (name.starts_with("qcache."))
            out[name] = value;
    for (const auto &[name, h] : snap.histograms)
        if (name.starts_with("qcache."))
            out[name] = h.count;
    return out;
}

TEST(Cache, GlobalCountersAreCreatedOnFirstUseAndFollowReset)
{
    using Metrics = std::map<std::string, std::uint64_t>;
    QueryCache cache({1 << 20, ""});
    expr::ExprContext ctx;
    const Expr f = ctx.ult(ctx.bvVar("x"), ctx.bv(9));
    metrics::Registry::global().reset();

    ASSERT_EQ(solveOnce(ctx, f, 200000, &cache).outcome, smt::Outcome::Sat);
    // No hit yet, so no zero-valued hit or fp_conflict metric.
    EXPECT_EQ(globalQcacheMetrics(),
              (Metrics{{"qcache.miss", 1}, {"qcache.store", 1}}));
    ASSERT_EQ(solveOnce(ctx, f, 200000, &cache).outcome, smt::Outcome::Sat);
    EXPECT_EQ(globalQcacheMetrics(),
              (Metrics{{"qcache.hit", 1},
                       {"qcache.hit_seconds", 1},
                       {"qcache.miss", 1},
                       {"qcache.store", 1}}));

    // reset() frees every metric: the cache must resolve its handles
    // again instead of counting into the freed ones.
    metrics::Registry::global().reset();
    ASSERT_EQ(solveOnce(ctx, f, 200000, &cache).outcome, smt::Outcome::Sat);
    EXPECT_EQ(globalQcacheMetrics(),
              (Metrics{{"qcache.hit", 1}, {"qcache.hit_seconds", 1}}));
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
    poison.model.bvVars[0] = 6;
    cache.store(solveKey(form, 200000), poison);

    const std::uint64_t d0 = globalCounter("qcache.validation_dropped");
    const SolveResult r = solveOnce(ctx, f, 200000, &cache);
    ASSERT_EQ(r.outcome, smt::Outcome::Sat);
    ASSERT_TRUE(r.model);
    EXPECT_EQ(bvAt(*r.model, ctx.bvVar("x")), 5u);
    EXPECT_EQ(globalCounter("qcache.validation_dropped"), d0 + 1);

    // The recomputed result replaced the poisoned entry: next query
    // hits and replays the *valid* model.
    const std::uint64_t h0 = globalCounter("qcache.hit");
    const SolveResult r2 = solveOnce(ctx, f, 200000, &cache);
    ASSERT_TRUE(r2.model);
    EXPECT_EQ(bvAt(*r2.model, ctx.bvVar("x")), 5u);
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
    EXPECT_NE(cache.lookup(Key{1, 1}, 7), nullptr);
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

/** Relation formulas of `programs` Template-A programs (seeds 7..),
 *  one per path pair, Mct refined by Mspec. */
std::vector<Expr>
relationFormulas(expr::ExprContext &ctx, int programs)
{
    std::vector<Expr> formulas;
    for (int i = 0; i < programs; ++i) {
        gen::ProgramGenerator g(gen::TemplateKind::A,
                                static_cast<std::uint64_t>(7 + i));
        const bir::Program p = bir::instrumentSpeculation(g.next());
        obs::RefinementPair annot(obs::makeModel(obs::ModelKind::Mct),
                                  obs::makeModel(obs::ModelKind::Mspec));
        rel::RelationConfig cfg;
        cfg.refine = true;
        rel::RelationSynthesizer rel(ctx,
                                     sym::execute(ctx, p, annot, {"_1"}),
                                     sym::execute(ctx, p, annot, {"_2"}),
                                     cfg);
        for (const auto &pair : rel.pairs())
            formulas.push_back(rel.formulaFor(pair));
    }
    return formulas;
}

TEST(Cache, RepeatedRelationQueriesSolveOnlyOnFirstPass)
{
    // The pipeline's dominant pattern: the same relation formulas
    // queried again and again.  Only the first pass may reach the
    // solver; every later pass is answered from the cache.
    constexpr int kPasses = 5;
    expr::ExprContext ctx;
    const std::vector<Expr> formulas = relationFormulas(ctx, 6);
    ASSERT_EQ(formulas.size(), 6u);
    QueryCache cache({std::size_t{64} << 20, ""});

    const std::uint64_t m0 = globalCounter("qcache.miss");
    for (Expr f : formulas)
        solveOnce(ctx, f, 200000, &cache);
    const std::uint64_t first_misses = globalCounter("qcache.miss") - m0;
    EXPECT_GT(first_misses, 0u);
    EXPECT_LE(first_misses, formulas.size());

    const std::uint64_t m1 = globalCounter("qcache.miss");
    const std::uint64_t h1 = globalCounter("qcache.hit");
    for (int pass = 1; pass < kPasses; ++pass)
        for (Expr f : formulas)
            solveOnce(ctx, f, 200000, &cache);
    EXPECT_EQ(globalCounter("qcache.miss"), m1);
    EXPECT_EQ(globalCounter("qcache.hit") - h1,
              (kPasses - 1) * formulas.size());
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
        e.model.bvVars[0] = 5;
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
    EXPECT_EQ(bvAt(*r.model, ctx.bvVar("x")), 0u);
    EXPECT_EQ(globalCounter("qcache.hit"), h0 + 1);
    EXPECT_EQ(globalCounter("qcache.miss"), m0);
    std::remove(path.c_str());
}

TEST(Persist, EnumeratorStepKeysArePinned)
{
    // The keys of an enumeration's first two steps, as computed before
    // models were keyed by variable slot: the chain salt hashes each
    // blocked variable's canonical name text (z, outside the formula,
    // gets its index from extendVars), so a change to canonical
    // indices, names or the salt shows here.
    expr::ExprContext ctx;
    const Expr x = ctx.bvVar("x");
    const Expr y = ctx.bvVar("y");
    const Expr z = ctx.bvVar("z");
    const Expr f = ctx.land(ctx.ult(x, ctx.bv(6)),
                            ctx.eq(y, ctx.add(x, ctx.bv(1))));
    const std::string path = tmpPath("step_keys");
    std::remove(path.c_str());
    {
        QueryCache cache({1 << 20, path});
        CachedEnumerator en(ctx, f, {y, z, x}, 12, &cache);
        ASSERT_EQ(en.next(200000).outcome, smt::Outcome::Sat);
        ASSERT_EQ(en.next(200000).outcome, smt::Outcome::Sat);
    }
    std::istringstream lines(readFile(path));
    std::string line;
    std::vector<std::string> keys;
    while (std::getline(lines, line))
        if (line != kFileHeader)
            keys.push_back(line.substr(0, 33)); // "<hi> <lo>"
    EXPECT_EQ(keys, (std::vector<std::string>{
                        "8e4b1ab08efd64d0 c375fcabe1adf79e",
                        "ee8b961b3c2bd354 56facd14706d2260"}));
    std::remove(path.c_str());
}

TEST(Persist, NonCanonicalModelNamesAreDropped)
{
    // Models are stored by canonical index, so a record naming a
    // variable any other way is foreign or damaged: dropped and
    // counted, never half-loaded.
    const std::string body = "c9a66795b1089492 f2246c2d225f91e2 "
                             "f9a36eee0659cbde S - ";
    const std::vector<std::string> bad = {
        "v!x:0#",  "v!v01:0#", "v!b0:0#",    "v!v:0#",
        "o!v0:1#", "M!v0@8:1#", "v!v-1:0#", "v!v99999999:0#"};
    for (const std::string &model : bad)
        EXPECT_FALSE(decodeRecord(linecodec::seal(body + model)))
            << model;
    const std::string good = linecodec::seal(body + "v!v10:1,v!v2:0#");
    const auto rec = decodeRecord(good);
    ASSERT_TRUE(rec);
    EXPECT_EQ(*rec->second.model.bvVars.find(10), 1u);
    EXPECT_EQ(*rec->second.model.bvVars.find(2), 0u);
    // Re-encoding lists the names sorted as strings, v10 before v2.
    EXPECT_EQ(encodeRecord(rec->first, rec->second), good);

    const std::string path = tmpPath("non_canonical");
    {
        std::ofstream out(path);
        out << kFileHeader << "\n"
            << linecodec::seal(body + "v!x:0#") << "\n";
    }
    const std::uint64_t d0 = globalCounter("qcache.load_dropped");
    QueryCache cache({1 << 20, path});
    EXPECT_EQ(globalCounter("qcache.load_dropped"), d0 + 1);
    EXPECT_EQ(cache.loadDropped(), 1u);
    EXPECT_EQ(cache.size(), 0u);
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
        EXPECT_EQ(bvAt(*r.model, ctx.bvVar("x")), 5u);
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
            ref.push_back(bvAt(solver.model(), ctx.bvVar("x")));
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
            out.push_back(bvAt(*s.model, ctx.bvVar("x")));
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
    EXPECT_EQ(drain(direct), ref);

    // The assumption step is the hand-driven solveWith + model +
    // blockCurrentModel loop, one step at a time, under an assumption
    // that changes between steps.
    const Expr y = ctx.bvVar("y");
    const Expr g = ctx.ult(y, ctx.bv(6));
    const std::vector<Expr> yvars{y};
    auto assumption = [&](int i) {
        return i % 2 ? ctx.ult(ctx.bv(1), y) : ctx.ult(y, ctx.bv(4));
    };
    std::vector<std::pair<smt::Outcome, std::uint64_t>> hand, stepped;
    {
        smt::SmtSolver solver(ctx, g);
        for (int i = 0; i < 8; ++i) {
            const smt::Outcome o = solver.solveWith(assumption(i), 200000);
            if (o != smt::Outcome::Sat) {
                hand.emplace_back(o, 0);
                continue;
            }
            hand.emplace_back(o, bvAt(solver.model(), ctx.bvVar("y")));
            if (!solver.blockCurrentModel(yvars, 12))
                break;
        }
    }
    CachedEnumerator assumed(ctx, g, yvars, 12, nullptr);
    for (int i = 0; i < 8; ++i) {
        const CachedEnumerator::Step s =
            assumed.nextWith(assumption(i), 200000);
        stepped.emplace_back(s.outcome,
                             s.model ? bvAt(*s.model, ctx.bvVar("y")) : 0);
        if (assumed.dead())
            break;
    }
    EXPECT_EQ(stepped, hand);
    // y < 6 has six models and the loop takes eight steps, so both
    // the Sat and the Unsat step shapes are exercised.
    const auto sat_steps =
        std::count_if(hand.begin(), hand.end(), [](const auto &h) {
            return h.first == smt::Outcome::Sat;
        });
    EXPECT_GT(sat_steps, 0);
    EXPECT_LT(sat_steps, static_cast<long>(hand.size()));
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

metrics::Snapshot
runCampaignMetrics(const core::PipelineConfig &base, int threads,
                   QueryCache *qc, core::ExperimentDb *db)
{
    core::PipelineConfig cfg = base;
    cfg.threads = threads;
    cfg.queryCache = qc;
    cfg.database = db;
    return core::Pipeline(cfg).run().metrics;
}

std::string
runCampaign(const core::PipelineConfig &base, int threads,
            QueryCache *qc, core::ExperimentDb *db)
{
    return metrics::toJson(runCampaignMetrics(base, threads, qc, db));
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

    core::ExperimentDb db_cold, db_warm1, db_warm4, db_uncached;
    std::string j_cold, j_warm1, j_warm4;
    metrics::Snapshot m_cold;
    {
        QueryCache cold({8 << 20, path});
        m_cold = runCampaignMetrics(cfg, 1, &cold, &db_cold);
        j_cold = metrics::toJson(m_cold);
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

    // Without a cache the same enumeration steps solve directly: the
    // experiment log and every counter match the cached legs.  Only
    // durations differ — a cached miss solves under a scratch
    // registry whose deterministic clock ticks apart from the task's,
    // so the task clock reads fewer ticks than an uncached solve.
    const metrics::Snapshot m_uncached =
        runCampaignMetrics(cfg, 1, nullptr, &db_uncached);
    EXPECT_EQ(m_uncached.counters, m_cold.counters);
    EXPECT_EQ(dbCsv(db_uncached, "db_uncached"),
              dbCsv(db_cold, "db_cold3"));
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
