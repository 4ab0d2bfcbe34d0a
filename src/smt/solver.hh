/**
 * @file
 * SMT-lite solver facade over the bit-blaster and CDCL core.
 *
 * Plays the role of Z3 in the Scam-V pipeline (Section 5.2): given a
 * boolean constraint over 64-bit register variables and memory reads,
 * it produces a concrete test-case valuation (registers + initial
 * memory words), or reports unsatisfiability.
 *
 * Memory handling: read-over-write chains are lowered to ite-chains
 * over reads of base memory variables, then every distinct
 * read(mem, addr) is Ackermannized into a fresh bitvector variable
 * with pairwise functional-consistency constraints against the earlier
 * reads of the same memory (none for two distinct constant addresses,
 * where the constraint is trivially true).  Model extraction
 * maps each read back to a concrete (address, value) pair, yielding
 * the initial memory contents for the experiment platform.
 *
 * Model diversity: `blockCurrentModel` adds a clause forcing at least
 * one observable input bit to change, mimicking the enumeration of
 * distinct test cases from one relation.  With default (canonical)
 * phases the solver produces minimal, near-identical models — the
 * behaviour of unguided Z3-driven search that observation refinement
 * is designed to overcome; `randomizePhases` switches to uniformly
 * random model sampling instead.
 */

#ifndef SCAMV_SMT_SOLVER_HH
#define SCAMV_SMT_SOLVER_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bv/bitblast.hh"
#include "expr/eval.hh"
#include "expr/expr.hh"
#include "support/rng.hh"

namespace scamv::smt {

/** Solve outcome. */
enum class Outcome { Sat, Unsat, Unknown };

/**
 * One-shot incremental solver instance for a fixed base constraint.
 *
 * Usage: construct with the relation formula, then repeatedly call
 * solve() / blockCurrentModel() to enumerate distinct test cases.
 * Additional constraints (coverage classes) can be asserted between
 * calls with `require`.
 */
class SmtSolver
{
  public:
    /**
     * @param ctx   expression context the formula lives in
     * @param formula boolean constraint to satisfy
     */
    SmtSolver(expr::ExprContext &ctx, expr::Expr formula);
    ~SmtSolver();

    SmtSolver(const SmtSolver &) = delete;
    SmtSolver &operator=(const SmtSolver &) = delete;

    /** Assert an additional constraint (conjoined permanently). */
    void require(expr::Expr constraint);

    /**
     * Solve the accumulated constraints.
     * @param conflict_budget CDCL conflict limit (-1 = unlimited).
     */
    Outcome solve(std::int64_t conflict_budget = 200000);

    /**
     * solve() without the SmtUnknown fault-injection gate.  The query
     * cache owns exactly one gate per logical query and must not
     * re-fire it when solving a miss or replaying a cached prefix to
     * materialize an incremental solver; everything else (metrics
     * tallying, outcomes) is identical to solve().
     */
    Outcome solveNoInject(std::int64_t conflict_budget = 200000);

    /**
     * Solve under a temporary constraint that is *not* kept for later
     * calls (used for round-robin coverage classes).
     */
    Outcome solveWith(expr::Expr temporary,
                      std::int64_t conflict_budget = 200000);

    /**
     * Extract the model as a concrete Assignment: every bitvector /
     * boolean variable in the formula plus per-memory-variable initial
     * words for all Ackermannized reads.  Only valid after Sat.
     */
    expr::Assignment model();

    /**
     * Add a blocking clause: at least one of the low `bits` bits of
     * the given variables (bv vars) or of any memory-read value must
     * differ from the current model.
     *
     * Restricting to the low bits makes successive canonical models
     * "too similar to each other" — precisely the unguided-search
     * behaviour of Section 1 that refinement is designed to overcome.
     * @return false if the instance became unsat.
     */
    bool blockCurrentModel(const std::vector<expr::Expr> &vars,
                           int bits = bv::kWidth);

    /** Use uniformly random decision polarities from now on. */
    void randomizePhases(Rng &rng);

  private:
    expr::Expr lowerAndAckermannize(expr::Expr e);
    expr::Expr lowerReads(expr::Expr e);
    /**
     * Add the pending Ackermann tallies to smt.ack_axioms /
     * smt.ack_skipped, once per query and only when non-zero.  The
     * tallies of require() wait for the next query, so they land in
     * the registry that captures that query's metrics delta.
     */
    void flushAckCounts();
    /**
     * Model value of a read's lowered address.  A composite address
     * that only its read mentions is never bit-blasted before the
     * solve, and blasting it afterwards yields gates without model
     * values, so it is evaluated over the model of its leaves.
     */
    std::uint64_t addressModel(expr::Expr addr);

    expr::ExprContext &ctx;
    sat::Solver sat;
    bv::BitBlaster blaster;

    /** Variables appearing in asserted formulas (deduplicated). */
    std::vector<expr::Expr> seenVars;
    std::unordered_map<expr::Expr, bool> seenVarSet;

    struct ReadInfo {
        expr::Expr memVar;   ///< base memory variable
        expr::Expr addr;     ///< lowered address expression
        expr::Expr fresh;    ///< replacement bv variable
    };
    /** Every read in creation order; model() fills memories in it. */
    std::vector<ReadInfo> reads;
    /** Indices into `reads`, per base memory variable. */
    std::unordered_map<expr::Expr, std::vector<std::size_t>> readsByMem;
    /** Axioms asserted / skipped since the last flushAckCounts(). */
    std::uint64_t ackAxioms = 0;
    std::uint64_t ackSkipped = 0;
    std::unordered_map<expr::Expr, expr::Expr> readCache;
    std::unordered_map<expr::Expr, expr::Expr> lowerCache;
    int freshCounter = 0;
};

/**
 * Convenience helper: one-shot satisfiability check of a formula.
 */
Outcome checkSat(expr::ExprContext &ctx, expr::Expr formula,
                 std::int64_t conflict_budget = 200000);

/**
 * Tally one query outcome into metrics::current() exactly as solve()
 * does (smt.queries / smt.{sat,unsat,unknown} counters plus the
 * smt.solve_seconds histogram).  Exposed for wrappers that answer a
 * query without reaching the solver — a fault-injected Unknown in the
 * query cache, for instance — so the metric stream stays identical to
 * the uncached path.  @return `outcome`, for tail calls.
 */
Outcome tallyQuery(Outcome outcome, double start_time);

} // namespace scamv::smt

#endif // SCAMV_SMT_SOLVER_HH
