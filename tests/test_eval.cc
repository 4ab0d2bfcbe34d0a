/** @file Unit tests for concrete expression evaluation. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_map>
#include <vector>

#include "expr/eval.hh"
#include "support/rng.hh"

namespace scamv::expr {
namespace {

class EvalTest : public ::testing::Test
{
  protected:
    ExprContext ctx;
    Assignment a;
};

TEST_F(EvalTest, VariablesAndConstants)
{
    a.setBv(ctx.bvVar("x"), 7);
    EXPECT_EQ(evalBv(ctx.bvVar("x"), a), 7u);
    EXPECT_EQ(evalBv(ctx.bv(11), a), 11u);
    EXPECT_EQ(evalBv(ctx.bvVar("unbound"), a), 0u);
    EXPECT_TRUE(evalBool(ctx.tru(), a));
    EXPECT_FALSE(evalBool(ctx.fls(), a));
}

TEST_F(EvalTest, Arithmetic)
{
    a.setBv(ctx.bvVar("x"), 10);
    a.setBv(ctx.bvVar("y"), 3);
    Expr x = ctx.bvVar("x"), y = ctx.bvVar("y");
    EXPECT_EQ(evalBv(ctx.add(x, y), a), 13u);
    EXPECT_EQ(evalBv(ctx.sub(x, y), a), 7u);
    EXPECT_EQ(evalBv(ctx.mul(x, y), a), 30u);
    EXPECT_EQ(evalBv(ctx.neg(y), a), static_cast<std::uint64_t>(-3));
}

TEST_F(EvalTest, WrapAround)
{
    a.setBv(ctx.bvVar("x"), UINT64_MAX);
    Expr x = ctx.bvVar("x");
    EXPECT_EQ(evalBv(ctx.add(x, ctx.bv(1)), a), 0u);
    EXPECT_EQ(evalBv(ctx.mul(x, ctx.bv(2)), a), UINT64_MAX - 1);
}

TEST_F(EvalTest, BitwiseAndShifts)
{
    a.setBv(ctx.bvVar("x"), 0xFF00);
    Expr x = ctx.bvVar("x");
    EXPECT_EQ(evalBv(ctx.bvAnd(x, ctx.bv(0x0F00)), a), 0x0F00u);
    EXPECT_EQ(evalBv(ctx.bvOr(x, ctx.bv(0xFF)), a), 0xFFFFu);
    EXPECT_EQ(evalBv(ctx.bvXor(x, x), a), 0u);
    EXPECT_EQ(evalBv(ctx.bvNot(ctx.bv(0)), a), UINT64_MAX);
    EXPECT_EQ(evalBv(ctx.shl(ctx.bv(1), ctx.bv(12)), a), 4096u);
    EXPECT_EQ(evalBv(ctx.lshr(x, ctx.bv(8)), a), 0xFFu);
    EXPECT_EQ(evalBv(ctx.ashr(ctx.bv(0x8000000000000000ULL),
                              ctx.bv(4)), a),
              0xF800000000000000ULL);
}

TEST_F(EvalTest, ShiftAmountsWrapMod64)
{
    EXPECT_EQ(evalBv(ctx.shl(ctx.bvVar("one"), ctx.bv(64)), a),
              a.bv(ctx.bvVar("one"))); // 64 & 63 == 0
    a.setBv(ctx.bvVar("one"), 1);
    EXPECT_EQ(evalBv(ctx.shl(ctx.bvVar("one"), ctx.bv(65)), a), 2u);
}

TEST_F(EvalTest, Comparisons)
{
    a.setBv(ctx.bvVar("x"), 5);
    a.setBv(ctx.bvVar("y"), static_cast<std::uint64_t>(-5));
    Expr x = ctx.bvVar("x"), y = ctx.bvVar("y");
    EXPECT_TRUE(evalBool(ctx.ult(x, y), a));  // unsigned: 5 < huge
    EXPECT_FALSE(evalBool(ctx.slt(x, y), a)); // signed: 5 > -5
    EXPECT_TRUE(evalBool(ctx.sle(y, x), a));
    EXPECT_TRUE(evalBool(ctx.eq(x, ctx.bv(5)), a));
    EXPECT_TRUE(evalBool(ctx.neq(x, y), a));
}

TEST_F(EvalTest, BooleanConnectives)
{
    a.setBool(ctx.boolVar("p"), true);
    a.setBool(ctx.boolVar("q"), false);
    Expr p = ctx.boolVar("p"), q = ctx.boolVar("q");
    EXPECT_FALSE(evalBool(ctx.land(p, q), a));
    EXPECT_TRUE(evalBool(ctx.lor(p, q), a));
    EXPECT_TRUE(evalBool(ctx.lnot(q), a));
    EXPECT_FALSE(evalBool(ctx.implies(p, q), a));
    EXPECT_TRUE(evalBool(ctx.implies(q, p), a));
}

TEST_F(EvalTest, IteSelectsBranch)
{
    a.setBool(ctx.boolVar("p"), true);
    Expr e = ctx.ite(ctx.boolVar("p"), ctx.bv(1), ctx.bv(2));
    EXPECT_EQ(evalBv(e, a), 1u);
    a.setBool(ctx.boolVar("p"), false);
    EXPECT_EQ(evalBv(e, a), 2u);
}

TEST_F(EvalTest, MemoryReadsDefaultAndExplicit)
{
    a.memOf(ctx.memVar("m")).storeWord(0x100, 77);
    Expr m = ctx.memVar("m");
    EXPECT_EQ(evalBv(ctx.read(m, ctx.bv(0x100)), a), 77u);
    EXPECT_EQ(evalBv(ctx.read(m, ctx.bv(0x200)), a), 0u); // default
}

TEST_F(EvalTest, ReadThroughStoreChain)
{
    Expr m = ctx.memVar("m");
    Expr addr_a = ctx.bvVar("a");
    Expr addr_b = ctx.bvVar("b");
    a.setBv(ctx.bvVar("a"), 0x10);
    a.setBv(ctx.bvVar("b"), 0x20);
    a.memOf(ctx.memVar("m")).storeWord(0x20, 5);
    Expr chain = ctx.store(m, addr_a, ctx.bv(42));
    EXPECT_EQ(evalBv(ctx.read(chain, addr_a), a), 42u);
    EXPECT_EQ(evalBv(ctx.read(chain, addr_b), a), 5u);
}

TEST_F(EvalTest, StoreShadowsWhenAddressesCollideDynamically)
{
    Expr m = ctx.memVar("m");
    Expr addr_a = ctx.bvVar("a");
    Expr addr_b = ctx.bvVar("b");
    a.setBv(ctx.bvVar("a"), 0x30);
    a.setBv(ctx.bvVar("b"), 0x30); // dynamic alias, not syntactic
    Expr chain = ctx.store(m, addr_a, ctx.bv(9));
    EXPECT_EQ(evalBv(ctx.read(chain, addr_b), a), 9u);
}

TEST_F(EvalTest, ConcreteMemoryWordGranularity)
{
    ConcreteMemory mem;
    mem.storeWord(0x100, 1);
    EXPECT_TRUE(mem.contains(0x100));
    EXPECT_FALSE(mem.contains(0x108));
    EXPECT_EQ(mem.load(0x100), 1u);
    mem.defaultValue = 99;
    EXPECT_EQ(mem.load(0x108), 99u);
}

TEST_F(EvalTest, NestedReadAddress)
{
    // mem[mem[a]]: pointer chasing as in the stride template.
    Expr m = ctx.memVar("m");
    a.setBv(ctx.bvVar("a"), 0x40);
    a.memOf(ctx.memVar("m")).storeWord(0x40, 0x80);
    a.memOf(ctx.memVar("m")).storeWord(0x80, 1234);
    Expr inner = ctx.read(m, ctx.bvVar("a"));
    EXPECT_EQ(evalBv(ctx.read(m, inner), a), 1234u);
}

// ---- Differential test against a memo-free reference ---------------

/**
 * Reference semantics: plain recursion over the DAG, no memo, no
 * shared state, so shared subterms are simply re-evaluated.  Shifts
 * take their amount mod 64; a read walks its store chain and falls
 * back to the memory variable's word (0 for an unbound memory).
 */
std::uint64_t refEval(Expr e, const Assignment &a);

std::uint64_t
refRead(Expr mem, std::uint64_t addr, const Assignment &a)
{
    if (mem->kind == Kind::Store)
        return refEval(mem->kids[1], a) == addr
                   ? refEval(mem->kids[2], a)
                   : refRead(mem->kids[0], addr, a);
    const ConcreteMemory *words = a.mems.find(mem->slot);
    return words ? words->load(addr) : 0;
}

std::uint64_t
refEval(Expr e, const Assignment &a)
{
    auto k = [&](int i) { return refEval(e->kids[i], a); };
    auto sk = [&](int i) { return static_cast<std::int64_t>(k(i)); };
    switch (e->kind) {
      case Kind::BvConst:
      case Kind::BoolConst: return e->value;
      case Kind::BvVar: return a.bv(e);
      case Kind::BoolVar: return a.boolean(e);
      case Kind::Add: return k(0) + k(1);
      case Kind::Sub: return k(0) - k(1);
      case Kind::Mul: return k(0) * k(1);
      case Kind::BvAnd: return k(0) & k(1);
      case Kind::BvOr: return k(0) | k(1);
      case Kind::BvXor: return k(0) ^ k(1);
      case Kind::BvNot: return ~k(0);
      case Kind::Neg: return 0 - k(0);
      case Kind::Shl: return k(0) << (k(1) % 64);
      case Kind::Lshr: return k(0) >> (k(1) % 64);
      case Kind::Ashr:
        return static_cast<std::uint64_t>(sk(0) >> (k(1) % 64));
      case Kind::Ite: return k(0) ? k(1) : k(2);
      case Kind::Read: return refRead(e->kids[0], k(1), a);
      case Kind::Eq: return k(0) == k(1);
      case Kind::Ult: return k(0) < k(1);
      case Kind::Ule: return k(0) <= k(1);
      case Kind::Slt: return sk(0) < sk(1);
      case Kind::Sle: return sk(0) <= sk(1);
      case Kind::And: return k(0) && k(1);
      case Kind::Or: return k(0) || k(1);
      case Kind::Not: return !k(0);
      case Kind::Implies: return !k(0) || k(1);
      case Kind::MemVar:
      case Kind::Store: break;
    }
    ADD_FAILURE() << "reference cannot evaluate " << kindName(e->kind);
    return 0;
}

/**
 * A random DAG over five bv variables, two bool variables and one
 * memory: every new node takes its operands from the nodes built so
 * far, so subterms are shared, and depth is capped so the memo-free
 * reference stays cheap.  Addresses and shift amounts come from the
 * same pool as everything else, so stores alias reads dynamically
 * and shifts see amounts of 64 and more.
 */
struct RandomDag {
    std::vector<Expr> bvs, bools, mems;

    RandomDag(ExprContext &ctx, std::uint64_t seed)
    {
        Rng rng(seed);
        for (int i = 0; i < 5; ++i)
            add(bvs, ctx.bvVar("x" + std::to_string(i)), 0);
        for (std::uint64_t c : {0ULL, 8ULL, 63ULL, 64ULL, 65ULL, 127ULL,
                                0x8000000000000000ULL})
            add(bvs, ctx.bv(c), 0);
        add(bools, ctx.boolVar("p"), 0);
        add(bools, ctx.boolVar("q"), 0);
        add(mems, ctx.memVar("m"), 0);

        for (int n = 0; n < 80; ++n) {
            Expr a = pick(rng, bvs), b = pick(rng, bvs);
            Expr c = pick(rng, bools), d = pick(rng, bools);
            Expr m = pick(rng, mems);
            const int dep =
                1 + std::max({depth[a], depth[b], depth[c], depth[d],
                              depth[m]});
            switch (rng.below(22)) {
              case 0: add(bvs, ctx.add(a, b), dep); break;
              case 1: add(bvs, ctx.sub(a, b), dep); break;
              case 2: add(bvs, ctx.mul(a, b), dep); break;
              case 3: add(bvs, ctx.bvAnd(a, b), dep); break;
              case 4: add(bvs, ctx.bvOr(a, b), dep); break;
              case 5: add(bvs, ctx.bvXor(a, b), dep); break;
              case 6: add(bvs, ctx.bvNot(a), dep); break;
              case 7: add(bvs, ctx.neg(a), dep); break;
              case 8: add(bvs, ctx.shl(a, b), dep); break;
              case 9: add(bvs, ctx.lshr(a, b), dep); break;
              case 10: add(bvs, ctx.ashr(a, b), dep); break;
              case 11: add(bvs, ctx.ite(c, a, b), dep); break;
              case 12: add(bvs, ctx.read(m, a), dep); break;
              case 13: add(mems, ctx.store(m, a, b), dep); break;
              case 14: add(bools, ctx.eq(a, b), dep); break;
              case 15: add(bools, ctx.ult(a, b), dep); break;
              case 16: add(bools, ctx.slt(a, b), dep); break;
              case 17: add(bools, ctx.sle(a, b), dep); break;
              case 18: add(bools, ctx.land(c, d), dep); break;
              case 19: add(bools, ctx.lor(c, d), dep); break;
              case 20: add(bools, ctx.lnot(c), dep); break;
              default: add(bools, ctx.implies(c, d), dep); break;
            }
        }
    }

  private:
    static constexpr int kMaxDepth = 6;
    std::unordered_map<Expr, int> depth;

    void
    add(std::vector<Expr> &pool, Expr e, int dep)
    {
        if (depth.count(e) || dep > kMaxDepth)
            return; // folded to an existing node, or too deep
        depth[e] = dep;
        pool.push_back(e);
    }

    Expr
    pick(Rng &rng, const std::vector<Expr> &pool)
    {
        // Favour recent nodes so chains grow deep and share.
        const std::size_t n = pool.size();
        if (rng.chance(0.5))
            return pool[n - 1 - rng.below(std::min<std::size_t>(n, 6))];
        return pool[rng.below(n)];
    }
};

/** An assignment whose values often coincide, so stores alias reads
 *  and comparisons go both ways. */
Assignment
randomAssignment(ExprContext &ctx, Rng &rng)
{
    const std::uint64_t common[] = {0, 8, 16, 64, 0x8000000000000000ULL,
                                    ~0ULL};
    auto value = [&] {
        return rng.chance(0.7) ? common[rng.below(6)] : rng.next();
    };
    Assignment a;
    for (int i = 0; i < 5; ++i)
        if (rng.chance(0.9))
            a.setBv(ctx.bvVar("x" + std::to_string(i)), value());
    a.setBool(ctx.boolVar("p"), rng.chance(0.5));
    if (rng.chance(0.5))
        a.setBool(ctx.boolVar("q"), rng.chance(0.5));
    if (rng.chance(0.8)) {
        ConcreteMemory &m = a.memOf(ctx.memVar("m"));
        m.defaultValue = rng.chance(0.5) ? 0 : value();
        for (int i = 0; i < 4; ++i)
            m.storeWord(common[rng.below(6)], value());
    }
    return a;
}

/** @return the number of nodes of `dag` whose value under `a`
 *  differs from the reference. */
int
mismatches(const RandomDag &dag, const Assignment &a)
{
    int bad = 0;
    for (Expr e : dag.bvs)
        bad += evalBv(e, a) != refEval(e, a);
    for (Expr e : dag.bools)
        bad += evalBool(e, a) != (refEval(e, a) != 0);
    return bad;
}

TEST(EvalDifferential, RandomDagsMatchMemoFreeReference)
{
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        ExprContext ctx;
        const RandomDag dag(ctx, seed);
        Rng rng(seed * 7919);
        for (int i = 0; i < 20; ++i)
            ASSERT_EQ(mismatches(dag, randomAssignment(ctx, rng)), 0)
                << "seed " << seed << " assignment " << i;
    }
}

TEST(EvalDifferential, InterleavedContextsDoNotShareValues)
{
    // Same seed: the two contexts hold the same shapes under the same
    // node ids, at different addresses, evaluated alternately under
    // different assignments.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        ExprContext c1, c2;
        const RandomDag d1(c1, seed), d2(c2, seed);
        ASSERT_EQ(d1.bools.size(), d2.bools.size());
        Rng rng(seed);
        for (int i = 0; i < 10; ++i) {
            // Built identically, the contexts give every variable the
            // same slot, so either assignment serves either DAG.
            const Assignment a1 = randomAssignment(c1, rng);
            const Assignment a2 = randomAssignment(c2, rng);
            for (std::size_t k = 0; k < d1.bools.size(); ++k) {
                ASSERT_EQ(evalBool(d1.bools[k], a1),
                          refEval(d1.bools[k], a1) != 0);
                ASSERT_EQ(evalBool(d2.bools[k], a2),
                          refEval(d2.bools[k], a2) != 0);
            }
            ASSERT_EQ(mismatches(d1, a2), 0) << "seed " << seed;
            ASSERT_EQ(mismatches(d2, a1), 0) << "seed " << seed;
        }
    }
}

TEST(EvalDifferential, ConcurrentThreadsEvaluateIndependently)
{
    std::atomic<int> bad{0};
    auto work = [&bad](std::uint64_t base) {
        for (std::uint64_t seed = base; seed < base + 15; ++seed) {
            ExprContext ctx;
            const RandomDag dag(ctx, seed);
            Rng rng(seed);
            for (int i = 0; i < 10; ++i)
                bad += mismatches(dag, randomAssignment(ctx, rng));
        }
    };
    std::thread t1(work, 100), t2(work, 200);
    t1.join();
    t2.join();
    EXPECT_EQ(bad.load(), 0);
}

} // namespace
} // namespace scamv::expr
