/** @file Unit tests for the SMT-lite facade (reads, models, blocking). */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "expr/eval.hh"
#include "smt/solver.hh"
#include "support/metrics.hh"
#include "names.hh"

namespace scamv::smt {
namespace {

using expr::Expr;
using expr::ExprContext;
using expr::Kind;

TEST(Smt, TrivialSatAndUnsat)
{
    ExprContext ctx;
    EXPECT_EQ(checkSat(ctx, ctx.tru()), Outcome::Sat);
    EXPECT_EQ(checkSat(ctx, ctx.fls()), Outcome::Unsat);
}

TEST(Smt, ModelSatisfiesFormula)
{
    ExprContext ctx;
    Expr x = ctx.bvVar("x");
    Expr y = ctx.bvVar("y");
    Expr f = ctx.land(ctx.eq(ctx.add(x, y), ctx.bv(100)),
                      ctx.ult(x, ctx.bv(20)));
    SmtSolver s(ctx, f);
    ASSERT_EQ(s.solve(), Outcome::Sat);
    auto model = s.model();
    EXPECT_TRUE(expr::evalBool(f, model));
    EXPECT_EQ(model.bv(ctx.bvVar("x")) + model.bv(ctx.bvVar("y")), 100u);
    EXPECT_LT(model.bv(ctx.bvVar("x")), 20u);
}

TEST(Smt, MemoryReadProducesInitialMemory)
{
    ExprContext ctx;
    Expr mem = ctx.memVar("mem_1");
    Expr x = ctx.bvVar("x0_1");
    Expr f = ctx.land(ctx.eq(ctx.read(mem, x), ctx.bv(0xAB)),
                      ctx.eq(x, ctx.bv(0x1000)));
    SmtSolver s(ctx, f);
    ASSERT_EQ(s.solve(), Outcome::Sat);
    auto model = s.model();
    ASSERT_TRUE(model.mem(mem));
    EXPECT_EQ(model.memOf(ctx.memVar("mem_1")).load(0x1000), 0xABu);
    EXPECT_TRUE(expr::evalBool(f, model));
}

TEST(Smt, AckermannConsistencySameAddressSameValue)
{
    // read(m, a) != read(m, b) && a == b must be unsat.
    ExprContext ctx;
    Expr mem = ctx.memVar("m");
    Expr a = ctx.bvVar("a");
    Expr b = ctx.bvVar("b");
    Expr f = ctx.land(ctx.neq(ctx.read(mem, a), ctx.read(mem, b)),
                      ctx.eq(a, b));
    EXPECT_EQ(checkSat(ctx, f), Outcome::Unsat);
}

TEST(Smt, DistinctAddressesMayDiffer)
{
    ExprContext ctx;
    Expr mem = ctx.memVar("m");
    Expr a = ctx.bvVar("a");
    Expr b = ctx.bvVar("b");
    Expr f = ctx.neq(ctx.read(mem, a), ctx.read(mem, b));
    SmtSolver s(ctx, f);
    ASSERT_EQ(s.solve(), Outcome::Sat);
    auto model = s.model();
    EXPECT_NE(model.bv(ctx.bvVar("a")), model.bv(ctx.bvVar("b")));
    EXPECT_TRUE(expr::evalBool(f, model));
}

TEST(Smt, ReadOverStoreChainLowered)
{
    // mem' = store(m, a, 7); read(mem', b) == 9 with a == b is unsat.
    ExprContext ctx;
    Expr m = ctx.memVar("m");
    Expr a = ctx.bvVar("a");
    Expr b = ctx.bvVar("b");
    Expr chain = ctx.store(m, a, ctx.bv(7));
    Expr f = ctx.land(ctx.eq(ctx.read(chain, b), ctx.bv(9)),
                      ctx.eq(a, b));
    EXPECT_EQ(checkSat(ctx, f), Outcome::Unsat);
    // Without the alias it is satisfiable.
    Expr g = ctx.eq(ctx.read(chain, b), ctx.bv(9));
    SmtSolver s(ctx, g);
    ASSERT_EQ(s.solve(), Outcome::Sat);
    auto model = s.model();
    EXPECT_NE(model.bv(ctx.bvVar("a")), model.bv(ctx.bvVar("b")));
}

TEST(Smt, NestedReadAddressing)
{
    // mem[mem[x]] == 5 with mem[x] constrained into a region.
    ExprContext ctx;
    Expr mem = ctx.memVar("mem_1");
    Expr x = ctx.bvVar("x");
    Expr inner = ctx.read(mem, x);
    Expr f = ctx.conj({ctx.eq(ctx.read(mem, inner), ctx.bv(5)),
                       ctx.ule(ctx.bv(0x1000), inner),
                       ctx.ult(inner, ctx.bv(0x2000)),
                       ctx.eq(x, ctx.bv(0x500))});
    SmtSolver s(ctx, f);
    ASSERT_EQ(s.solve(), Outcome::Sat);
    auto model = s.model();
    EXPECT_TRUE(expr::evalBool(f, model));
    const std::uint64_t ptr = model.memOf(ctx.memVar("mem_1")).load(0x500);
    EXPECT_GE(ptr, 0x1000u);
    EXPECT_LT(ptr, 0x2000u);
    EXPECT_EQ(model.memOf(ctx.memVar("mem_1")).load(ptr), 5u);
}

TEST(Smt, RequireConjoinsConstraints)
{
    ExprContext ctx;
    Expr x = ctx.bvVar("x");
    SmtSolver s(ctx, ctx.ult(x, ctx.bv(10)));
    ASSERT_EQ(s.solve(), Outcome::Sat);
    s.require(ctx.ult(ctx.bv(3), x));
    ASSERT_EQ(s.solve(), Outcome::Sat);
    auto model = s.model();
    EXPECT_GT(model.bv(ctx.bvVar("x")), 3u);
    EXPECT_LT(model.bv(ctx.bvVar("x")), 10u);
    s.require(ctx.ult(x, ctx.bv(2)));
    EXPECT_EQ(s.solve(), Outcome::Unsat);
}

TEST(Smt, SolveWithIsTemporary)
{
    ExprContext ctx;
    Expr x = ctx.bvVar("x");
    SmtSolver s(ctx, ctx.ult(x, ctx.bv(100)));
    EXPECT_EQ(s.solveWith(ctx.eq(x, ctx.bv(200))), Outcome::Unsat);
    // The temporary constraint must not stick.
    EXPECT_EQ(s.solve(), Outcome::Sat);
    EXPECT_EQ(s.solveWith(ctx.eq(x, ctx.bv(42))), Outcome::Sat);
    EXPECT_EQ(s.model().bv(ctx.bvVar("x")), 42u);
}

TEST(Smt, BlockCurrentModelEnumeratesDistinctModels)
{
    ExprContext ctx;
    Expr x = ctx.bvVar("x");
    SmtSolver s(ctx, ctx.ult(x, ctx.bv(4))); // 4 models
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(s.solve(), Outcome::Sat) << i;
        seen.insert(s.model().bv(ctx.bvVar("x")));
        ASSERT_TRUE(s.blockCurrentModel({x}) || i == 3);
    }
    EXPECT_EQ(seen.size(), 4u);
    EXPECT_EQ(s.solve(), Outcome::Unsat);
}

TEST(Smt, CanonicalModelsAreMinimal)
{
    // With default phases unconstrained bits settle to 0 — the
    // "boring Z3 model" behaviour the paper's baseline exhibits.
    ExprContext ctx;
    Expr x = ctx.bvVar("x");
    SmtSolver s(ctx, ctx.ule(ctx.bv(0), x));
    ASSERT_EQ(s.solve(), Outcome::Sat);
    EXPECT_EQ(s.model().bv(ctx.bvVar("x")), 0u);
}

TEST(Smt, RandomPhasesDiversifyModels)
{
    ExprContext ctx;
    Rng rng(5);
    Expr x = ctx.bvVar("x");
    SmtSolver s(ctx, ctx.ult(ctx.bv(100), x));
    s.randomizePhases(rng);
    ASSERT_EQ(s.solve(), Outcome::Sat);
    const std::uint64_t v1 = s.model().bv(ctx.bvVar("x"));
    s.randomizePhases(rng);
    ASSERT_EQ(s.solve(), Outcome::Sat);
    const std::uint64_t v2 = s.model().bv(ctx.bvVar("x"));
    EXPECT_NE(v1, v2); // astronomically unlikely to collide
}

TEST(Smt, RelationShapedFormula)
{
    // A miniature of the Mct relation for "ldr x2,[x0]": path conds
    // trivially true, base obs equal (x0_1 == x0_2), refined obs
    // differ (mem values differ).
    ExprContext ctx;
    Expr x0_1 = ctx.bvVar("x0_1"), x0_2 = ctx.bvVar("x0_2");
    Expr m1 = ctx.memVar("mem_1"), m2 = ctx.memVar("mem_2");
    Expr f = ctx.conj({
        ctx.eq(x0_1, x0_2),
        ctx.neq(ctx.read(m1, x0_1), ctx.read(m2, x0_2)),
        ctx.ule(ctx.bv(0x80000), x0_1),
        ctx.ult(x0_1, ctx.bv(0x100000)),
    });
    SmtSolver s(ctx, f);
    ASSERT_EQ(s.solve(), Outcome::Sat);
    auto model = s.model();
    EXPECT_TRUE(expr::evalBool(f, model));
    EXPECT_EQ(model.bv(ctx.bvVar("x0_1")), model.bv(ctx.bvVar("x0_2")));
    EXPECT_NE(model.mem(m1)->load(model.bv(x0_1)),
              model.mem(m2)->load(model.bv(x0_2)));
}

TEST(Smt, UnknownOnTinyBudget)
{
    // Multiplication circuit with a 1-conflict budget: Unknown.
    ExprContext ctx;
    Expr x = ctx.bvVar("x");
    Expr y = ctx.bvVar("y");
    Expr f = ctx.land(
        ctx.eq(ctx.mul(x, y), ctx.bv(0x123456789abcdefULL)),
        ctx.land(ctx.ult(ctx.bv(1), x), ctx.ult(ctx.bv(1), y)));
    SmtSolver s(ctx, f);
    const Outcome o = s.solve(1);
    EXPECT_TRUE(o == Outcome::Unknown || o == Outcome::Sat);
}

// ---------------------------------------------------------------
// Ackermannization: distinct constant address pairs are skipped.

/** Counters of `reg` (absent keys read 0). */
std::map<std::string, std::uint64_t>
countersOf(const metrics::Registry &reg)
{
    return reg.snapshot().counters;
}

TEST(Smt, AckermannCountsKeptAndSkippedPairs)
{
    metrics::Registry reg(metrics::ClockMode::Deterministic);
    metrics::ScopedRegistry scope(reg);
    ExprContext ctx;
    Expr m = ctx.memVar("m");
    Expr a = ctx.bvVar("a");
    Expr b = ctx.bvVar("b");
    // Reads of m at a, b, 8 and 16 make six pairs; only (8, 16) has
    // two distinct constant addresses.  The read of m2 pairs with none
    // of them.
    Expr sum = ctx.add(ctx.add(ctx.read(m, a), ctx.read(m, b)),
                       ctx.add(ctx.read(m, ctx.bv(8)),
                               ctx.read(m, ctx.bv(16))));
    Expr f = ctx.eq(ctx.add(sum, ctx.read(ctx.memVar("m2"), ctx.bv(8))),
                    ctx.bv(5));
    SmtSolver s(ctx, f);
    // The tallies wait for the query, whose metrics delta they join.
    EXPECT_EQ(countersOf(reg).count("smt.ack_axioms"), 0u);
    ASSERT_EQ(s.solve(), Outcome::Sat);
    EXPECT_TRUE(expr::evalBool(f, s.model()));
    auto c = countersOf(reg);
    EXPECT_EQ(c["smt.ack_axioms"], 5u);
    EXPECT_EQ(c["smt.ack_skipped"], 1u);

    // A temporary read at 24 pairs with a and b (kept) and with 8 and
    // 16 (skipped).
    ASSERT_EQ(s.solveWith(ctx.eq(ctx.read(m, ctx.bv(24)), ctx.bv(1))),
              Outcome::Sat);
    c = countersOf(reg);
    EXPECT_EQ(c["smt.ack_axioms"], 7u);
    EXPECT_EQ(c["smt.ack_skipped"], 3u);

    // Queries without new reads add nothing.
    ASSERT_EQ(s.solve(), Outcome::Sat);
    EXPECT_EQ(countersOf(reg)["smt.ack_axioms"], 7u);
    EXPECT_EQ(countersOf(reg)["smt.ack_skipped"], 3u);
}

TEST(Smt, ReadFreeQueriesAddNoAckermannMetrics)
{
    metrics::Registry reg(metrics::ClockMode::Deterministic);
    metrics::ScopedRegistry scope(reg);
    ExprContext ctx;
    Expr x = ctx.bvVar("x");
    SmtSolver s(ctx, ctx.ult(x, ctx.bv(10)));
    ASSERT_EQ(s.solve(), Outcome::Sat);
    ASSERT_EQ(s.solveWith(ctx.eq(x, ctx.bv(3))), Outcome::Sat);
    const auto c = countersOf(reg);
    EXPECT_EQ(c.count("smt.ack_axioms"), 0u);
    EXPECT_EQ(c.count("smt.ack_skipped"), 0u);
}

TEST(Smt, ConstantReadsJoinedByLoweringShareOneValue)
{
    // read(store(m, x, 1), 8) and read(store(m, y, 2), 8) are distinct
    // nodes, but lowering turns both into ite cascades over the one
    // read(m, 8): they share its variable, so with neither store
    // hitting address 8 they cannot differ.
    metrics::Registry reg(metrics::ClockMode::Deterministic);
    metrics::ScopedRegistry scope(reg);
    ExprContext ctx;
    Expr m = ctx.memVar("m");
    Expr x = ctx.bvVar("x");
    Expr y = ctx.bvVar("y");
    Expr eight = ctx.bv(8);
    Expr r1 = ctx.read(ctx.store(m, x, ctx.bv(1)), eight);
    Expr r2 = ctx.read(ctx.store(m, y, ctx.bv(2)), eight);
    ASSERT_NE(r1, r2);
    EXPECT_EQ(checkSat(ctx, ctx.conj({ctx.neq(r1, r2),
                                      ctx.neq(x, eight),
                                      ctx.neq(y, eight)})),
              Outcome::Unsat);
    EXPECT_EQ(countersOf(reg).count("smt.ack_axioms"), 0u);

    // A symbolic read forced onto address 8 keeps its axiom with the
    // joined read and must see the same word.
    Expr z = ctx.bvVar("z");
    EXPECT_EQ(checkSat(ctx, ctx.conj({ctx.neq(r1, ctx.read(m, z)),
                                      ctx.neq(x, eight),
                                      ctx.eq(z, eight)})),
              Outcome::Unsat);
    EXPECT_EQ(countersOf(reg)["smt.ack_axioms"], 1u);

    // With store y on address 8 the two reads may differ.
    Expr g = ctx.land(ctx.neq(r1, r2), ctx.neq(x, eight));
    SmtSolver s(ctx, g);
    ASSERT_EQ(s.solve(), Outcome::Sat);
    const expr::Assignment model = s.model();
    EXPECT_TRUE(expr::evalBool(g, model));
    EXPECT_EQ(model.bv(ctx.bvVar("y")), 8u);
}

/**
 * The Ackermannization SmtSolver replaced: read-over-write chains
 * lowered to ite cascades, then every new read asserts the axiom
 * against every earlier read of its memory, built eagerly whether or
 * not its address equality folds to false.  Fresh variables get
 * SmtSolver's names, so in one context both build the same nodes.
 */
class EagerAckermann
{
  public:
    EagerAckermann(ExprContext &ctx_, Expr formula)
        : ctx(ctx_), blaster(sat)
    {
        for (Expr v : expr::collectVars(formula))
            if (v->kind != Kind::MemVar)
                vars.push_back(v);
        blaster.assertTrue(ackermannize(lower(formula)));
    }

    Outcome
    solve()
    {
        switch (sat.solve(-1)) {
          case sat::Result::Sat: return Outcome::Sat;
          case sat::Result::Unsat: return Outcome::Unsat;
          case sat::Result::Unknown: break;
        }
        return Outcome::Unknown;
    }

    expr::Assignment
    model()
    {
        expr::Assignment a;
        for (Expr v : vars) {
            if (v->kind == Kind::BvVar)
                a.setBv(v, blaster.bvModel(v));
            else
                a.setBool(v, blaster.boolModel(v));
        }
        // Addresses are evaluated over their leaves: one that only its
        // read mentions is never bit-blasted.
        for (const ReadInfo &r : reads) {
            expr::Assignment leaves;
            for (Expr v : expr::collectVars(r.addr)) {
                if (v->kind == Kind::BvVar)
                    leaves.setBv(v, blaster.bvModel(v));
                else
                    leaves.setBool(v, blaster.boolModel(v));
            }
            a.memOf(r.mem).storeWord(expr::evalBv(r.addr, leaves),
                                          blaster.bvModel(r.fresh));
        }
        return a;
    }

  private:
    struct ReadInfo {
        Expr mem, addr, fresh;
    };

    Expr
    lower(Expr e)
    {
        if (auto hit = lowered.find(e); hit != lowered.end())
            return hit->second;
        Expr result = e;
        if (!e->kids.empty()) {
            std::vector<Expr> ks;
            for (Expr k : e->kids)
                ks.push_back(lower(k));
            if (e->kind == Kind::Read) {
                // Innermost store first, as the recursive walk does.
                std::vector<Expr> stores;
                Expr m = ks[0];
                for (; m->kind == Kind::Store; m = m->kids[0])
                    stores.push_back(m);
                result = ctx.read(m, ks[1]);
                for (auto it = stores.rbegin(); it != stores.rend(); ++it)
                    result = ctx.ite(ctx.eq((*it)->kids[1], ks[1]),
                                     (*it)->kids[2], result);
            } else {
                result = expr::rebuild(ctx, e->kind, ks);
            }
        }
        lowered.emplace(e, result);
        return result;
    }

    Expr
    ackermannize(Expr n)
    {
        if (auto hit = acked.find(n); hit != acked.end())
            return hit->second;
        Expr result = n;
        if (!n->kids.empty()) {
            std::unordered_map<Expr, Expr> map;
            for (Expr k : n->kids)
                map.emplace(k, ackermannize(k));
            Expr rebuilt = expr::substitute(ctx, n, map);
            result = rebuilt;
            if (rebuilt->kind == Kind::Read) {
                Expr mem = rebuilt->kids[0];
                Expr addr = rebuilt->kids[1];
                result = ctx.bvVar(mem->name + "!rd" +
                                   std::to_string(reads.size()));
                for (const ReadInfo &prev : reads) {
                    if (prev.mem == mem)
                        blaster.assertTrue(ctx.implies(
                            ctx.eq(prev.addr, addr),
                            ctx.eq(prev.fresh, result)));
                }
                reads.push_back({mem, addr, result});
            }
        }
        acked.emplace(n, result);
        return result;
    }

    ExprContext &ctx;
    sat::Solver sat;
    bv::BitBlaster blaster;
    std::vector<Expr> vars;
    std::vector<ReadInfo> reads;
    std::unordered_map<Expr, Expr> lowered, acked;
};

/** Random address: pooled constants (equal and distinct ones both
 *  recur), symbolic registers, offsets and nested reads. */
Expr randomWord(ExprContext &ctx, Rng &rng, int depth);

Expr
randomAddr(ExprContext &ctx, Rng &rng, int depth)
{
    switch (rng.below(depth > 0 ? 4 : 3)) {
      case 0: return ctx.bv(8 * rng.below(4));
      case 1: return ctx.bvVar(indexedName("a", rng.below(3)));
      case 2:
        return ctx.add(ctx.bvVar(indexedName("a", rng.below(3))),
                       ctx.bv(8 * (1 + rng.below(2))));
      default: return randomWord(ctx, rng, depth - 1);
    }
}

/** Random memory: one of two base variables under 0-2 stores. */
Expr
randomMem(ExprContext &ctx, Rng &rng, int depth)
{
    Expr m = ctx.memVar(indexedName("m", rng.below(2)));
    const int stores = static_cast<int>(rng.below(3));
    for (int i = 0; i < stores; ++i)
        m = ctx.store(m, randomAddr(ctx, rng, depth),
                      ctx.bv(rng.below(4)));
    return m;
}

/** Random word: mostly a read, else a small constant or a register. */
Expr
randomWord(ExprContext &ctx, Rng &rng, int depth)
{
    switch (rng.below(5)) {
      case 0: return ctx.bv(rng.below(4));
      case 1: return ctx.bvVar(indexedName("a", rng.below(3)));
      default:
        return ctx.read(randomMem(ctx, rng, depth),
                        randomAddr(ctx, rng, depth));
    }
}

/** Random conjunction of comparisons between words. */
Expr
randomMemFormula(ExprContext &ctx, Rng &rng)
{
    std::vector<Expr> atoms;
    const int n = 1 + static_cast<int>(rng.below(4));
    for (int i = 0; i < n; ++i) {
        Expr l = randomWord(ctx, rng, 2);
        Expr r = randomWord(ctx, rng, 2);
        switch (rng.below(4)) {
          case 0: atoms.push_back(ctx.eq(l, r)); break;
          case 1: atoms.push_back(ctx.neq(l, r)); break;
          case 2: atoms.push_back(ctx.ult(l, r)); break;
          default:
            atoms.push_back(ctx.lor(ctx.eq(l, r),
                                    ctx.eq(randomAddr(ctx, rng, 1),
                                           ctx.bv(8))));
        }
    }
    return ctx.conj(atoms);
}

/** Every value of `a` by variable slot; memories in their map's
 *  iteration order. */
std::string
layout(const expr::Assignment &a)
{
    std::ostringstream out;
    a.bvVars.forEach([&](std::uint32_t slot, std::uint64_t v) {
        out << 'v' << slot << '=' << v << ' ';
    });
    a.boolVars.forEach([&](std::uint32_t slot, bool v) {
        out << 'b' << slot << '=' << v << ' ';
    });
    a.mems.forEach([&](std::uint32_t slot, const expr::ConcreteMemory &mem) {
        out << 'm' << slot << ':';
        for (const auto &[addr, word] : mem.entries())
            out << ' ' << addr << '=' << word;
        out << ';';
    });
    return out.str();
}

TEST(Smt, AckermannSkipMatchesEagerReference)
{
    Rng rng(0xacce55);
    int sat = 0, unsat = 0, skipped = 0;
    for (int iter = 0; iter < 150; ++iter) {
        metrics::Registry reg(metrics::ClockMode::Deterministic);
        metrics::ScopedRegistry scope(reg);
        ExprContext ctx;
        Expr f = randomMemFormula(ctx, rng);
        EagerAckermann ref(ctx, f);
        SmtSolver s(ctx, f);
        const Outcome want = ref.solve();
        ASSERT_EQ(s.solve(-1), want) << "iter " << iter << ' '
                                     << expr::toString(f);
        skipped += static_cast<int>(countersOf(reg)["smt.ack_skipped"]);
        if (want == Outcome::Unsat) {
            ++unsat;
            continue;
        }
        ASSERT_EQ(want, Outcome::Sat);
        ++sat;
        const expr::Assignment model = s.model();
        EXPECT_EQ(layout(model), layout(ref.model()))
            << "iter " << iter << ' ' << expr::toString(f);
        EXPECT_TRUE(expr::evalBool(f, model))
            << "iter " << iter << ' ' << expr::toString(f) << " model "
            << layout(model);
    }
    // The mix exercises both answers and the skip itself.
    EXPECT_GT(sat, 20);
    EXPECT_GT(unsat, 10);
    EXPECT_GT(skipped, 0);
}

} // namespace
} // namespace scamv::smt
