/**
 * @file
 * CDCL SAT solver (MiniSat-style).
 *
 * Backend for the SMT-lite bitvector solver in src/smt, which replaces
 * Z3 in the Scam-V pipeline (see DESIGN.md).  The solver implements
 * two-watched-literal propagation, 1-UIP conflict analysis, VSIDS
 * branching with an indexed max-heap, phase saving with configurable
 * default polarity, and Luby restarts.
 *
 * The default polarity is `false`, so unconstrained variables settle
 * to zero: extracted bitvector models are "canonical" (small, often
 * equal across the two states) exactly like the unguided Z3 baseline
 * the paper argues against — the behaviour refinement is designed to
 * overcome.  Randomized polarities are available for diversification.
 *
 * Clause storage.  Every clause's literals live in one arena (`arena`);
 * a `Clause` is a header `{start, size, learnt, activity}` into it.  A
 * `ClauseRef` is the clause's creation index into `clauses`, so
 * `reasons` and the watchers name clauses, not arena offsets, and
 * `reduceDB` remaps them when it compacts both vectors in clause order.
 * Clause intake (`addClause`) and conflict analysis work in member
 * scratch buffers, so taking in a clause or learning one allocates
 * only when a vector outgrows its capacity.
 *
 * Watch storage.  Every literal's watch list lives in one arena
 * (`watchArena`); `watchSpans[l.x]` is the span `{start, size, cap}`
 * of literal `l`'s list in it.  A push to a full span grows it in place
 * if it ends the arena, or else moves it to the arena's end with twice
 * the capacity, copying in order and leaving its old slots as garbage.
 * When the garbage exceeds half the live slots, `attachClause` compacts
 * the arena, copying every span in literal order.  Compaction never
 * runs inside `propagate`, so the span being walked does not move; a
 * push to another literal may still reallocate the arena.  `reduceDB`
 * sets every span's size to 0 and re-attaches.  Moves and compaction
 * copy a span's watchers in order, so each literal's watch order is
 * the one a vector per literal would have.
 *
 * Models are a function of the exact literal order inside each clause,
 * of the trail and of the watch order, so the storage keeps all three.
 * With `lits` a clause's literals in the arena:
 * (a) `propagate` swaps `lits[0]`/`lits[1]` and `lits[1]`/`lits[k]` in
 *     place, `analyze` reads `lits[0]` as the implied literal and bumps
 *     activities in literal order, and `reduceDB` re-attaches the kept
 *     clauses in clause order;
 * (b) `addClause` sorts by `Lit::x`, drops duplicate and false
 *     literals, ignores satisfied and tautological clauses and
 *     propagates a unit at level 0 at once;
 * (c) the VSIDS heap and its tie order (`>=` up, `<=` down) are fixed.
 * Changing any of these changes which model comes back.
 */

#ifndef SCAMV_SAT_SOLVER_HH
#define SCAMV_SAT_SOLVER_HH

#include <cstdint>
#include <span>
#include <vector>

#include "support/rng.hh"

namespace scamv::sat {

/** Variable index, 0-based. */
using Var = std::int32_t;

/** Literal: variable with sign, encoded as 2*var + (negated ? 1 : 0). */
struct Lit {
    std::int32_t x = -2;

    bool operator==(const Lit &o) const { return x == o.x; }
    bool operator!=(const Lit &o) const { return x != o.x; }
};

inline Lit
mkLit(Var v, bool negated = false)
{
    return Lit{2 * v + (negated ? 1 : 0)};
}

inline Lit operator~(Lit l) { return Lit{l.x ^ 1}; }
inline Var var(Lit l) { return l.x >> 1; }
inline bool sign(Lit l) { return l.x & 1; }
/** Undefined literal sentinel. */
constexpr Lit kLitUndef{-2};

/** Tri-state assignment value. */
enum class LBool : std::int8_t { False = 0, True = 1, Undef = 2 };

/** Outcome of a solve() call. */
enum class Result { Sat, Unsat, Unknown };

/** CDCL solver. */
class Solver
{
  public:
    Solver();

    /** Allocate a fresh variable. @return its index. */
    Var newVar();

    /** @return number of allocated variables. */
    int numVars() const { return static_cast<int>(assigns.size()); }

    /**
     * Add a clause (empty clause makes the instance unsat).  The
     * literals are copied; `clause` may be any caller buffer.
     * @return false iff the instance became trivially unsat.
     */
    bool addClause(std::span<const Lit> clause);

    /** Convenience single/binary/ternary clause adders. */
    bool
    addUnit(Lit a)
    {
        const Lit c[] = {a};
        return addClause(c);
    }
    bool
    addBinary(Lit a, Lit b)
    {
        const Lit c[] = {a, b};
        return addClause(c);
    }
    bool
    addTernary(Lit a, Lit b, Lit c)
    {
        const Lit cl[] = {a, b, c};
        return addClause(cl);
    }

    /**
     * Solve the current formula.
     * @param conflict_budget max conflicts before Unknown (-1: none).
     */
    Result solve(std::int64_t conflict_budget = -1);

    /**
     * Solve under assumptions (checked before deciding).  Assumptions
     * do not persist; state is reset for the next call.  Counts into
     * `metrics::current()`: `sat.solve_calls` and `sat.vars` (numVars()
     * at the call) on entry, and the call's `sat.conflicts`,
     * `sat.decisions` and `sat.propagations` once it searched.
     */
    Result solveAssuming(const std::vector<Lit> &assumptions,
                         std::int64_t conflict_budget = -1);

    /** @return model value of v after Result::Sat. */
    bool modelValue(Var v) const;

    /** Set the saved phase (initial polarity) of a variable. */
    void setPhase(Var v, bool value);

    /** Randomize all saved phases using rng. */
    void randomizePhases(Rng &rng);

    /** Statistics. */
    std::uint64_t conflicts() const { return nConflicts; }
    std::uint64_t decisions() const { return nDecisions; }
    std::uint64_t propagations() const { return nPropagations; }

    /** Storage events since construction, so tests can show which
     *  paths a session reached. */
    struct Events {
        std::uint64_t walkGrowths = 0; ///< spans grown inside propagate
        std::uint64_t compactions = 0; ///< watch-arena compactions
        std::uint64_t reductions = 0;  ///< reduceDB runs that drop clauses
    };
    const Events &events() const { return ev; }

  private:
    /** Header of a clause: its literals are `arena[start, start+size)`. */
    struct Clause {
        std::uint32_t start;
        std::uint32_t size;
        bool learnt;
        double activity;
    };
    /** Creation index into `clauses` (renumbered only by reduceDB). */
    using ClauseRef = std::int32_t;
    static constexpr ClauseRef kRefUndef = -1;

    struct Watcher {
        ClauseRef cref;
        Lit blocker;
    };
    /** A watch list: `watchArena[start, start+size)`, room for `cap`. */
    struct WatchSpan {
        std::uint32_t start = 0;
        std::uint32_t size = 0;
        std::uint32_t cap = 0;
    };

    // ---- Core state --------------------------------------------------
    std::vector<Clause> clauses;
    std::vector<Lit> arena; // the literals of all clauses
    std::vector<Watcher> watchArena;    // the watchers of all literals
    std::vector<WatchSpan> watchSpans;  // indexed by Lit::x
    std::size_t watchGarbage = 0;       // arena slots no span owns
    std::vector<LBool> assigns;
    std::vector<bool> savedPhase;
    std::vector<int> levels;
    std::vector<ClauseRef> reasons;
    std::vector<Lit> trail;
    std::vector<int> trailLim;
    std::size_t qhead = 0;
    bool okay = true;

    // ---- VSIDS heap ---------------------------------------------------
    std::vector<double> activity;
    std::vector<int> heap;      // heap of vars ordered by activity
    std::vector<int> heapIndex; // var -> position in heap (-1: absent)
    double varInc = 1.0;
    double claInc = 1.0;
    std::uint64_t nLearnt = 0;

    // ---- Statistics ----------------------------------------------------
    std::uint64_t nConflicts = 0;
    std::uint64_t nDecisions = 0;
    std::uint64_t nPropagations = 0;
    Events ev;

    // ---- Scratch buffers (capacity reused across calls) ----------------
    std::vector<Lit> intake;     // addClause: sorted, filtered copy
    std::vector<Lit> learntLits; // search: the clause analyze learns
    std::vector<char> seen;      // analyze: var marks, clear between calls

    // ---- Helpers --------------------------------------------------------
    LBool value(Lit l) const;
    int decisionLevel() const { return static_cast<int>(trailLim.size()); }
    void uncheckedEnqueue(Lit l, ClauseRef from);
    ClauseRef propagate();
    void analyze(ClauseRef confl, std::vector<Lit> &out_learnt,
                 int &out_btlevel);
    void cancelUntil(int level);
    Lit pickBranchLit();
    Lit *litsOf(const Clause &c) { return arena.data() + c.start; }
    ClauseRef pushClause(std::span<const Lit> body, bool learnt);
    void attachClause(ClauseRef cref);
    bool watchPush(Lit l, Watcher w);
    void growSpan(WatchSpan &span);
    void compactWatches();
    void varBumpActivity(Var v);
    void varDecayActivity();
    void claBumpActivity(Clause &c);
    void reduceDB();

    // heap ops
    void heapInsert(Var v);
    void heapUpdate(Var v);
    Var heapPop();
    bool heapEmpty() const { return heap.empty(); }
    void percolateUp(int i);
    void percolateDown(int i);

    Result search(std::int64_t conflict_budget,
                  const std::vector<Lit> &assumptions);
};

} // namespace scamv::sat

#endif // SCAMV_SAT_SOLVER_HH
