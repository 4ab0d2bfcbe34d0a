/**
 * @file
 * Differential test of the CDCL solver against a reference copy of its
 * previous storage: one heap-allocated literal vector per clause, one
 * watch vector per literal, a fresh `seen` vector and learnt vector
 * per conflict.
 *
 * The reference below (`RefSolver`) is that implementation verbatim
 * except for two counters (reduceDB runs, activity rescales) and the
 * dropped metrics/fault hooks.  Both solvers are driven through the
 * same random incremental sessions: binary, ternary and long clauses
 * added between solves, assumptions, conflict budgets (Unknown),
 * setPhase and randomizePhases.  After every call the result, every
 * model value and the conflict, decision and propagation counts must
 * be equal, so any change in literal order, trail order, watch order
 * or heap order shows up as a diverging count or model.  Pigeonhole
 * sessions push the search past 4,096 learnt clauses (reduceDB) and
 * past ~4,500 conflicts (the 1e100 activity rescale); the test asserts
 * on the reference that both paths ran.  Arena sessions take clauses
 * in rounds between budgeted solves, so that watch spans move while
 * `propagate` walks another span, intake compacts the watch arena and
 * `reduceDB` runs after a compaction; `Solver::events()` shows that
 * each of these happened.
 *
 * Scaled by SCAMV_FUZZ_ITERS like every fuzz-lane test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sat/solver.hh"
#include "support/env.hh"
#include "support/rng.hh"

namespace scamv::sat {
namespace {

int
fuzzIters(int base)
{
    static const int scale = static_cast<int>(
        envLong("SCAMV_FUZZ_ITERS", 1, 1000).value_or(1));
    return base * scale;
}

// ---- Reference: the per-clause-vector solver ---------------------------

std::int64_t
lubyValue(std::int64_t x)
{
    std::int64_t size = 1;
    std::int64_t seq = 0;
    while (size < x + 1) {
        ++seq;
        size = 2 * size + 1;
    }
    while (size - 1 != x) {
        size = (size - 1) >> 1;
        --seq;
        x = x % size;
    }
    return 1LL << seq;
}

constexpr double kVarDecay = 0.95;
constexpr double kClauseDecay = 0.999;
constexpr std::int64_t kRestartBase = 128;

class RefSolver
{
  public:
    int reduceRuns = 0; ///< reduceDB calls that dropped clauses
    int rescales = 0;   ///< variable-activity rescales at 1e100

    Var
    newVar()
    {
        const Var v = numVars();
        assigns.push_back(LBool::Undef);
        savedPhase.push_back(false);
        levels.push_back(0);
        reasons.push_back(kRefUndef);
        activity.push_back(0.0);
        heapIndex.push_back(-1);
        watches.emplace_back();
        watches.emplace_back();
        heapInsert(v);
        return v;
    }

    int numVars() const { return static_cast<int>(assigns.size()); }

    bool
    addClause(std::vector<Lit> lits)
    {
        if (!okay)
            return false;
        std::sort(lits.begin(), lits.end(),
                  [](Lit a, Lit b) { return a.x < b.x; });
        std::vector<Lit> out;
        Lit prev = kLitUndef;
        for (Lit l : lits) {
            if (value(l) == LBool::True || l == ~prev)
                return true;
            if (value(l) != LBool::False && l != prev)
                out.push_back(l);
            prev = l;
        }
        if (out.empty()) {
            okay = false;
            return false;
        }
        if (out.size() == 1) {
            uncheckedEnqueue(out[0], kRefUndef);
            okay = (propagate() == kRefUndef);
            return okay;
        }
        clauses.push_back({std::move(out), false, 0.0});
        attachClause(static_cast<ClauseRef>(clauses.size()) - 1);
        return true;
    }

    Result
    solveAssuming(const std::vector<Lit> &assumptions,
                  std::int64_t conflict_budget)
    {
        if (!okay)
            return Result::Unsat;
        const std::int64_t budget =
            conflict_budget < 0 ? -1 : conflict_budget +
            static_cast<std::int64_t>(nConflicts);
        const Result r = search(budget, assumptions);
        if (r == Result::Sat) {
            for (Var v = 0; v < numVars(); ++v)
                if (assigns[v] != LBool::Undef)
                    savedPhase[v] = assigns[v] == LBool::True;
        }
        cancelUntil(0);
        return r;
    }

    bool modelValue(Var v) const { return savedPhase[v]; }
    void setPhase(Var v, bool value) { savedPhase[v] = value; }

    void
    randomizePhases(Rng &rng)
    {
        for (Var v = 0; v < numVars(); ++v)
            savedPhase[v] = rng.chance(0.5);
    }

    std::uint64_t conflicts() const { return nConflicts; }
    std::uint64_t decisions() const { return nDecisions; }
    std::uint64_t propagations() const { return nPropagations; }

  private:
    struct Clause {
        std::vector<Lit> lits;
        bool learnt = false;
        double activity = 0.0;
    };
    using ClauseRef = std::int32_t;
    static constexpr ClauseRef kRefUndef = -1;

    struct Watcher {
        ClauseRef cref;
        Lit blocker;
    };

    std::vector<Clause> clauses;
    std::vector<std::vector<Watcher>> watches;
    std::vector<LBool> assigns;
    std::vector<bool> savedPhase;
    std::vector<int> levels;
    std::vector<ClauseRef> reasons;
    std::vector<Lit> trail;
    std::vector<int> trailLim;
    std::size_t qhead = 0;
    bool okay = true;

    std::vector<double> activity;
    std::vector<int> heap;
    std::vector<int> heapIndex;
    double varInc = 1.0;
    double claInc = 1.0;
    std::uint64_t nLearnt = 0;

    std::uint64_t nConflicts = 0;
    std::uint64_t nDecisions = 0;
    std::uint64_t nPropagations = 0;

    LBool
    value(Lit l) const
    {
        LBool v = assigns[var(l)];
        if (v == LBool::Undef)
            return LBool::Undef;
        const bool b = (v == LBool::True) != sign(l);
        return b ? LBool::True : LBool::False;
    }

    int decisionLevel() const { return static_cast<int>(trailLim.size()); }

    void
    attachClause(ClauseRef cref)
    {
        const Clause &c = clauses[cref];
        watches[(~c.lits[0]).x].push_back({cref, c.lits[1]});
        watches[(~c.lits[1]).x].push_back({cref, c.lits[0]});
    }

    void
    uncheckedEnqueue(Lit l, ClauseRef from)
    {
        assigns[var(l)] = sign(l) ? LBool::False : LBool::True;
        levels[var(l)] = decisionLevel();
        reasons[var(l)] = from;
        trail.push_back(l);
    }

    ClauseRef
    propagate()
    {
        while (qhead < trail.size()) {
            const Lit p = trail[qhead++];
            ++nPropagations;
            std::vector<Watcher> &ws = watches[p.x];
            std::size_t i = 0, j = 0;
            while (i < ws.size()) {
                Watcher w = ws[i];
                if (value(w.blocker) == LBool::True) {
                    ws[j++] = ws[i++];
                    continue;
                }
                Clause &c = clauses[w.cref];
                const Lit false_lit = ~p;
                if (c.lits[0] == false_lit)
                    std::swap(c.lits[0], c.lits[1]);
                ++i;
                const Lit first = c.lits[0];
                if (first != w.blocker && value(first) == LBool::True) {
                    ws[j++] = {w.cref, first};
                    continue;
                }
                bool found = false;
                for (std::size_t k = 2; k < c.lits.size(); ++k) {
                    if (value(c.lits[k]) != LBool::False) {
                        std::swap(c.lits[1], c.lits[k]);
                        watches[(~c.lits[1]).x].push_back({w.cref, first});
                        found = true;
                        break;
                    }
                }
                if (found)
                    continue;
                ws[j++] = {w.cref, first};
                if (value(first) == LBool::False) {
                    while (i < ws.size())
                        ws[j++] = ws[i++];
                    ws.resize(j);
                    qhead = trail.size();
                    return w.cref;
                }
                uncheckedEnqueue(first, w.cref);
            }
            ws.resize(j);
        }
        return kRefUndef;
    }

    void
    varBumpActivity(Var v)
    {
        activity[v] += varInc;
        if (activity[v] > 1e100) {
            ++rescales;
            for (double &a : activity)
                a *= 1e-100;
            varInc *= 1e-100;
        }
        if (heapIndex[v] != -1)
            percolateUp(heapIndex[v]);
    }

    void
    claBumpActivity(Clause &c)
    {
        c.activity += claInc;
        if (c.activity > 1e20) {
            for (auto &cl : clauses)
                if (cl.learnt)
                    cl.activity *= 1e-20;
            claInc *= 1e-20;
        }
    }

    void
    analyze(ClauseRef confl, std::vector<Lit> &out_learnt, int &out_btlevel)
    {
        out_learnt.clear();
        out_learnt.push_back(kLitUndef);
        std::vector<bool> seen(numVars(), false);
        int path_count = 0;
        Lit p = kLitUndef;
        std::size_t index = trail.size();
        do {
            Clause &c = clauses[confl];
            if (c.learnt)
                claBumpActivity(c);
            const std::size_t start = (p == kLitUndef) ? 0 : 1;
            for (std::size_t k = start; k < c.lits.size(); ++k) {
                const Lit q = c.lits[k];
                if (!seen[var(q)] && levels[var(q)] > 0) {
                    varBumpActivity(var(q));
                    seen[var(q)] = true;
                    if (levels[var(q)] >= decisionLevel())
                        ++path_count;
                    else
                        out_learnt.push_back(q);
                }
            }
            while (!seen[var(trail[index - 1])])
                --index;
            p = trail[index - 1];
            confl = reasons[var(p)];
            seen[var(p)] = false;
            --path_count;
        } while (path_count > 0);
        out_learnt[0] = ~p;
        if (out_learnt.size() == 1) {
            out_btlevel = 0;
        } else {
            std::size_t max_i = 1;
            for (std::size_t k = 2; k < out_learnt.size(); ++k)
                if (levels[var(out_learnt[k])] >
                    levels[var(out_learnt[max_i])])
                    max_i = k;
            std::swap(out_learnt[1], out_learnt[max_i]);
            out_btlevel = levels[var(out_learnt[1])];
        }
    }

    void
    cancelUntil(int level)
    {
        if (decisionLevel() <= level)
            return;
        for (std::size_t c = trail.size();
             c > static_cast<std::size_t>(trailLim[level]); --c) {
            const Var v = var(trail[c - 1]);
            savedPhase[v] = assigns[v] == LBool::True;
            assigns[v] = LBool::Undef;
            reasons[v] = kRefUndef;
            if (heapIndex[v] == -1)
                heapInsert(v);
        }
        trail.resize(trailLim[level]);
        trailLim.resize(level);
        qhead = trail.size();
    }

    Lit
    pickBranchLit()
    {
        while (!heap.empty()) {
            const Var v = heapPop();
            if (assigns[v] == LBool::Undef) {
                ++nDecisions;
                return mkLit(v, !savedPhase[v]);
            }
        }
        return kLitUndef;
    }

    void
    reduceDB()
    {
        std::vector<bool> is_reason(clauses.size(), false);
        for (Var v = 0; v < numVars(); ++v)
            if (assigns[v] != LBool::Undef && reasons[v] != kRefUndef)
                is_reason[reasons[v]] = true;
        std::vector<double> acts;
        for (std::size_t i = 0; i < clauses.size(); ++i)
            if (clauses[i].learnt && !is_reason[i])
                acts.push_back(clauses[i].activity);
        if (acts.size() < 64)
            return;
        ++reduceRuns;
        std::nth_element(acts.begin(), acts.begin() + acts.size() / 2,
                         acts.end());
        const double median = acts[acts.size() / 2];
        std::vector<Clause> kept;
        std::vector<ClauseRef> remap(clauses.size(), kRefUndef);
        for (std::size_t i = 0; i < clauses.size(); ++i) {
            const bool drop = clauses[i].learnt && !is_reason[i] &&
                              clauses[i].activity < median;
            if (!drop) {
                remap[i] = static_cast<ClauseRef>(kept.size());
                kept.push_back(std::move(clauses[i]));
            }
        }
        clauses = std::move(kept);
        nLearnt = 0;
        for (const auto &c : clauses)
            nLearnt += c.learnt;
        for (auto &ws : watches)
            ws.clear();
        for (std::size_t i = 0; i < clauses.size(); ++i)
            attachClause(static_cast<ClauseRef>(i));
        for (Var v = 0; v < numVars(); ++v)
            if (reasons[v] != kRefUndef)
                reasons[v] = remap[reasons[v]];
    }

    Result
    search(std::int64_t conflict_budget, const std::vector<Lit> &assumptions)
    {
        std::int64_t restart_count = 0;
        std::int64_t conflicts_until_restart =
            kRestartBase * lubyValue(restart_count);
        std::int64_t conflicts_this_restart = 0;
        std::uint64_t learnt_limit =
            std::max<std::uint64_t>(4096, clauses.size() * 2);
        while (true) {
            const ClauseRef confl = propagate();
            if (confl != kRefUndef) {
                ++nConflicts;
                ++conflicts_this_restart;
                if (decisionLevel() == 0) {
                    okay = false;
                    return Result::Unsat;
                }
                std::vector<Lit> learnt;
                int bt_level = 0;
                analyze(confl, learnt, bt_level);
                cancelUntil(bt_level);
                if (learnt.size() == 1) {
                    uncheckedEnqueue(learnt[0], kRefUndef);
                } else {
                    clauses.push_back({std::move(learnt), true, 0.0});
                    ++nLearnt;
                    const ClauseRef cref =
                        static_cast<ClauseRef>(clauses.size()) - 1;
                    attachClause(cref);
                    claBumpActivity(clauses[cref]);
                    uncheckedEnqueue(clauses[cref].lits[0], cref);
                }
                varInc /= kVarDecay;
                claInc /= kClauseDecay;
                if (conflict_budget >= 0 &&
                    nConflicts >= static_cast<std::uint64_t>(conflict_budget))
                    return Result::Unknown;
                continue;
            }
            if (conflicts_this_restart >= conflicts_until_restart) {
                cancelUntil(0);
                ++restart_count;
                conflicts_this_restart = 0;
                conflicts_until_restart =
                    kRestartBase * lubyValue(restart_count);
            }
            if (nLearnt > learnt_limit) {
                reduceDB();
                learnt_limit = learnt_limit * 3 / 2;
            }
            Lit next = kLitUndef;
            while (decisionLevel() < static_cast<int>(assumptions.size())) {
                const Lit a = assumptions[decisionLevel()];
                if (value(a) == LBool::True) {
                    trailLim.push_back(static_cast<int>(trail.size()));
                } else if (value(a) == LBool::False) {
                    return Result::Unsat;
                } else {
                    next = a;
                    break;
                }
            }
            if (next == kLitUndef)
                next = pickBranchLit();
            if (next == kLitUndef)
                return Result::Sat;
            trailLim.push_back(static_cast<int>(trail.size()));
            uncheckedEnqueue(next, kRefUndef);
        }
    }

    void
    heapInsert(Var v)
    {
        heapIndex[v] = static_cast<int>(heap.size());
        heap.push_back(v);
        percolateUp(heapIndex[v]);
    }

    Var
    heapPop()
    {
        const Var top = heap[0];
        heapIndex[top] = -1;
        if (heap.size() > 1) {
            heap[0] = heap.back();
            heapIndex[heap[0]] = 0;
            heap.pop_back();
            percolateDown(0);
        } else {
            heap.pop_back();
        }
        return top;
    }

    void
    percolateUp(int i)
    {
        const Var v = heap[i];
        while (i > 0) {
            const int parent = (i - 1) / 2;
            if (activity[heap[parent]] >= activity[v])
                break;
            heap[i] = heap[parent];
            heapIndex[heap[i]] = i;
            i = parent;
        }
        heap[i] = v;
        heapIndex[v] = i;
    }

    void
    percolateDown(int i)
    {
        const Var v = heap[i];
        const int n = static_cast<int>(heap.size());
        while (true) {
            int child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n &&
                activity[heap[child + 1]] > activity[heap[child]])
                ++child;
            if (activity[heap[child]] <= activity[v])
                break;
            heap[i] = heap[child];
            heapIndex[heap[i]] = i;
            i = child;
        }
        heap[i] = v;
        heapIndex[v] = i;
    }
};

// ---- Lockstep sessions ---------------------------------------------------

/** The solver under test and the reference, fed identical calls. */
struct Pair {
    Solver cur;
    RefSolver ref;
    int calls = 0;
    int intakeCompactions = 0;      ///< compactions inside addClause
    int reductionsAfterCompact = 0; ///< reduceDB in a solve after one

    /** Equal statistics and every model value; `what` names the call. */
    void
    expectSame(const std::string &what)
    {
        ++calls;
        SCOPED_TRACE(what + " (call " + std::to_string(calls) + ")");
        ASSERT_EQ(cur.numVars(), ref.numVars());
        ASSERT_EQ(cur.conflicts(), ref.conflicts());
        ASSERT_EQ(cur.decisions(), ref.decisions());
        ASSERT_EQ(cur.propagations(), ref.propagations());
        for (Var v = 0; v < cur.numVars(); ++v)
            ASSERT_EQ(cur.modelValue(v), ref.modelValue(v)) << "var " << v;
    }

    void
    newVars(int n)
    {
        for (int i = 0; i < n; ++i)
            ASSERT_EQ(cur.newVar(), ref.newVar());
        expectSame("newVar");
    }

    void
    add(const std::vector<Lit> &clause)
    {
        const std::uint64_t compactions = cur.events().compactions;
        const bool a = cur.addClause(clause);
        const bool b = ref.addClause(clause);
        intakeCompactions += cur.events().compactions > compactions;
        ASSERT_EQ(a, b) << "addClause of " << clause.size() << " literals";
        expectSame("addClause");
    }

    /** @return the (equal) result of both solvers. */
    Result
    solve(const std::vector<Lit> &assumptions, std::int64_t budget)
    {
        const Solver::Events before = cur.events();
        const Result a = cur.solveAssuming(assumptions, budget);
        const Result b = ref.solveAssuming(assumptions, budget);
        reductionsAfterCompact += before.compactions > 0 &&
                                  cur.events().reductions > before.reductions;
        EXPECT_EQ(a, b) << "solve with " << assumptions.size()
                        << " assumptions, budget " << budget;
        expectSame("solve");
        return a;
    }

    void
    randomizePhases(std::uint64_t seed)
    {
        Rng ra(seed), rb(seed);
        cur.randomizePhases(ra);
        ref.randomizePhases(rb);
        expectSame("randomizePhases");
    }

    void
    setPhase(Var v, bool value)
    {
        cur.setPhase(v, value);
        ref.setPhase(v, value);
        expectSame("setPhase");
    }
};

Lit
randomLit(Rng &rng, int num_vars)
{
    return mkLit(static_cast<Var>(rng.below(num_vars)), rng.chance(0.5));
}

/** A binary (30%), ternary (55%) or long (4..40 literals) clause. */
std::vector<Lit>
randomClause(Rng &rng, int num_vars)
{
    const std::uint64_t kind = rng.below(100);
    const std::size_t len = kind < 30   ? 2
                            : kind < 85 ? 3
                                        : 4 + rng.below(37);
    std::vector<Lit> c;
    for (std::size_t k = 0; k < len; ++k)
        c.push_back(randomLit(rng, num_vars));
    return c;
}

/** PHP(9, 8) over variables 0..71: unsat, and thousands of conflicts
 *  from refuting. */
void
addPigeonhole(Pair &s)
{
    const int pigeons = 9, holes = 8;
    s.newVars(pigeons * holes);
    auto x = [&](int p, int h) { return mkLit(p * holes + h); };
    for (int p = 0; p < pigeons; ++p) {
        std::vector<Lit> c;
        for (int h = 0; h < holes; ++h)
            c.push_back(x(p, h));
        s.add(c);
    }
    for (int h = 0; h < holes; ++h)
        for (int p1 = 0; p1 < pigeons; ++p1)
            for (int p2 = p1 + 1; p2 < pigeons; ++p2)
                s.add({~x(p1, h), ~x(p2, h)});
}

/** Random incremental session around one formula; `hard` seeds it
 *  with a pigeonhole instance that the budgets cut off. */
void
runSession(Pair &s, Rng &rng, bool hard)
{
    if (hard) {
        addPigeonhole(s);
        s.solve({}, 3000 + static_cast<std::int64_t>(rng.below(3000)));
        if (::testing::Test::HasFatalFailure())
            return;
    } else {
        s.newVars(30 + static_cast<int>(rng.below(90)));
    }

    for (int step = 0; step < 40; ++step) {
        if (::testing::Test::HasFatalFailure())
            return;
        const int n = s.cur.numVars();
        switch (rng.below(8)) {
          case 0:
          case 1:
          case 2: {
            // Near-threshold random 3-SAT mass, plus long clauses.
            const int m = 1 + static_cast<int>(rng.below(n));
            for (int i = 0; i < m; ++i)
                s.add(randomClause(rng, n));
            break;
          }
          case 3:
            s.newVars(1 + static_cast<int>(rng.below(8)));
            break;
          case 4:
            s.setPhase(static_cast<Var>(rng.below(n)), rng.chance(0.5));
            break;
          case 5:
            s.randomizePhases(rng.next());
            break;
          default: {
            std::vector<Lit> assumptions;
            const int k = static_cast<int>(rng.below(4));
            for (int i = 0; i < k; ++i)
                assumptions.push_back(randomLit(rng, n));
            // Unbounded only off the pigeonhole, which never finishes.
            const std::int64_t budget =
                !hard && rng.chance(0.5)
                    ? -1
                    : static_cast<std::int64_t>(rng.below(2500));
            if (s.solve(assumptions, budget) == Result::Unsat &&
                assumptions.empty())
                return; // the formula itself is refuted
            break;
          }
        }
    }
}

TEST(SatDiff, ArenaSolverMatchesPerClauseVectorReference)
{
    Rng rng(2024);
    int reduce_runs = 0, rescales = 0;
    std::uint64_t conflicts = 0;
    const int sessions = fuzzIters(24);
    for (int i = 0; i < sessions; ++i) {
        SCOPED_TRACE("session " + std::to_string(i));
        Pair s;
        runSession(s, rng, /*hard=*/i % 4 == 0);
        if (HasFatalFailure())
            return;
        reduce_runs += s.ref.reduceRuns;
        rescales += s.ref.rescales;
        conflicts += s.ref.conflicts();
    }
    // The sessions must reach the paths no workload reaches.
    EXPECT_GT(reduce_runs, 0);
    EXPECT_GT(rescales, 0);
    EXPECT_GT(conflicts, 20000u);
}

/** Intake rounds between budgeted solves around a pigeonhole core:
 *  the spans that the new clauses fill move to the arena's end and
 *  leave garbage, so intake compacts; one long solve then passes
 *  reduceDB's 4,096 learnt clauses, and intake goes on after it. */
void
runArenaSession(Pair &s, Rng &rng)
{
    addPigeonhole(s);
    const int core = s.cur.numVars();
    s.newVars(60);
    const int n = s.cur.numVars();
    auto round = [&](std::int64_t budget) {
        // Ternary clauses over the extra variables (satisfiable at
        // this density) and long ones over all variables.
        for (int i = 0; i < 100 && !::testing::Test::HasFatalFailure();
             ++i) {
            std::vector<Lit> c;
            const bool ternary = rng.chance(0.6);
            const std::size_t len = ternary ? 3 : 5 + rng.below(8);
            for (std::size_t k = 0; k < len; ++k)
                c.push_back(ternary ? mkLit(static_cast<Var>(
                                                core + rng.below(n - core)),
                                            rng.chance(0.5))
                                    : randomLit(rng, n));
            s.add(c);
        }
        std::vector<Lit> assumptions;
        for (int k = static_cast<int>(rng.below(3)); k > 0; --k)
            assumptions.push_back(randomLit(rng, n));
        s.solve(assumptions, budget);
    };
    for (int r = 0; r < 3; ++r)
        round(static_cast<std::int64_t>(rng.below(300)));
    round(5000 + static_cast<std::int64_t>(rng.below(1000)));
    for (int r = 0; r < 2; ++r)
        round(static_cast<std::int64_t>(rng.below(1500)));
}

TEST(SatDiff, WatchSpansMovedAndCompactedMatchReference)
{
    Rng rng(2025);
    std::uint64_t walk_growths = 0;
    int intake_compactions = 0, reductions_after_compact = 0;
    for (int i = 0; i < fuzzIters(4); ++i) {
        SCOPED_TRACE("session " + std::to_string(i));
        Pair s;
        runArenaSession(s, rng);
        if (HasFatalFailure())
            return;
        walk_growths += s.cur.events().walkGrowths;
        intake_compactions += s.intakeCompactions;
        reductions_after_compact += s.reductionsAfterCompact;
    }
    // A span outgrew its room while propagate walked another one,
    // addClause compacted the arena between solves, and reduceDB
    // re-attached into an arena compacted before its solve.
    EXPECT_GT(walk_growths, 0u);
    EXPECT_GT(intake_compactions, 0);
    EXPECT_GT(reductions_after_compact, 0);
}

TEST(SatDiff, UnsatAndSatisfiedClausesAtLevelZeroMatch)
{
    // Units that propagate at intake, clauses they satisfy or shorten,
    // and an intake conflict that refutes the instance.
    Rng rng(77);
    for (int i = 0; i < fuzzIters(40); ++i) {
        Pair s;
        s.newVars(12);
        for (int k = 0; k < 60 && !HasFatalFailure(); ++k) {
            std::vector<Lit> c;
            const std::size_t len = 1 + rng.below(3);
            for (std::size_t j = 0; j < len; ++j)
                c.push_back(randomLit(rng, 12));
            s.add(c);
            if (k % 10 == 9)
                s.solve({}, -1);
        }
        if (HasFatalFailure())
            return;
    }
}

} // namespace
} // namespace scamv::sat
