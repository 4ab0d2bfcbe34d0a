/**
 * @file
 * Cache-aware solving wrappers over smt::SmtSolver.
 *
 * Two shapes of query go through the cache:
 *
 *  - `solveOnce`: one-shot satisfiability + model extraction (sampler
 *    fallback, training-input synthesis).  The canonical key is mixed
 *    with the conflict budget, so a budget change can never turn a
 *    cached Sat into what an uncached run would have reported as
 *    Unknown.
 *
 *  - `CachedEnumerator`: the pipeline's canonical model-enumeration
 *    loop (solve, extract model, block it, repeat).  Each step is a
 *    distinct logical query keyed by (formula, blocking config, step
 *    index, budget); on a miss past cached steps the enumerator
 *    rebuilds the incremental solver by replaying the cached prefix —
 *    fingerprint gating guarantees the replayed CDCL trajectory is
 *    the original one, so the rebuilt state is exact.
 *
 * Metric discipline: a miss solves inside a scratch registry and the
 * captured delta is both merged into the querier's registry and
 * stored in the entry; a hit merges the stored delta.  Either way the
 * querier's registry sees byte-identical effects, which is what makes
 * warm (resumed) campaigns byte-identical to cold ones.
 *
 * Fault discipline: the wrapper owns exactly one SmtUnknown gate per
 * logical query (mirroring SmtSolver::solve) and suppresses the
 * injector during miss solves and prefix replays.  The pipeline
 * additionally bypasses the cache entirely when a fault plan is
 * active, keeping fault-injection campaigns byte-identical to PR3.
 */

#ifndef SCAMV_SUPPORT_QCACHE_CACHED_SOLVE_HH
#define SCAMV_SUPPORT_QCACHE_CACHED_SOLVE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "smt/solver.hh"
#include "support/qcache/qcache.hh"

namespace scamv::qcache {

/** Outcome of a (possibly cached) one-shot solve. */
struct SolveResult {
    smt::Outcome outcome = smt::Outcome::Unknown;
    /** Model in the caller's variable names (Sat only). */
    std::optional<expr::Assignment> model;
};

/**
 * Solve `formula` once, consulting `cache` when non-null.  With a
 * null cache this is exactly `SmtSolver(ctx, formula).solve(budget)`
 * plus model extraction — byte-identical to the uncached pipeline
 * paths it replaces.  Cached Sat models are revalidated by concrete
 * evaluation before use; a failing entry is dropped and recomputed.
 */
SolveResult solveOnce(expr::ExprContext &ctx, expr::Expr formula,
                      std::int64_t conflict_budget, QueryCache *cache);

/**
 * The cache key a one-shot solve of `form` under `conflict_budget`
 * uses: the canonical key mixed with the budget.  Exposed so tests
 * and external tools can inspect or pre-seed cache entries.
 */
Key solveKey(const CanonForm &form, std::int64_t conflict_budget);

/**
 * Adapter for smt::SamplerConfig::seedOracle: looks up a cached Sat
 * model for the sampler's formula (keyed with `conflict_budget`, the
 * budget its solver twin would use) and returns it translated to the
 * caller's names.  Purely a hint — no metrics are merged, and the
 * sampler revalidates before accepting.  Not wired into the pipeline
 * (the sampler strategy is explicitly a diversity strategy); exposed
 * for harnesses that want warm-start sampling.
 */
std::function<std::optional<expr::Assignment>(expr::Expr)>
samplerSeedOracle(QueryCache *cache, std::int64_t conflict_budget);

/**
 * Cache-aware replacement for the pipeline's per-pair incremental
 * solver.  With a null cache, `solver()` hands out a lazily
 * constructed SmtSolver and the pipeline drives it exactly as before;
 * with a cache, `next()` runs the enumeration step through the cache.
 */
class CachedEnumerator
{
  public:
    /**
     * @param ctx        expression context of the formula
     * @param formula    relation formula to enumerate models of
     * @param block_vars variables constrained by model blocking
     * @param block_bits low-bit width of the blocking clauses
     * @param cache      query cache, or nullptr for direct solving
     */
    CachedEnumerator(expr::ExprContext &ctx, expr::Expr formula,
                     std::vector<expr::Expr> block_vars,
                     int block_bits, QueryCache *cache);

    /** One enumeration step: solve, then block the found model. */
    struct Step {
        smt::Outcome outcome = smt::Outcome::Unknown;
        std::optional<expr::Assignment> model;
    };

    /**
     * Run the next enumeration step under `conflict_budget`.  On Sat
     * the model has been blocked; `dead()` reports whether blocking
     * exhausted the pair.  Unknown steps are never cached and do not
     * advance the step counter (the pipeline retires the pair).
     */
    Step next(std::int64_t conflict_budget);

    /** @return true when steps go through the query cache. */
    bool usesCache() const { return cache != nullptr; }

    /** @return true once blocking has exhausted the enumeration. */
    bool dead() const { return dead_; }

    /**
     * Direct access to the underlying incremental solver for the
     * non-cached strategies (coverage constraints, random phases).
     * Materializes the solver — replaying any cached prefix first —
     * on first use.
     */
    smt::SmtSolver &solver();

    expr::Expr formula() const { return formula_; }

  private:
    void ensureSolverAt(int target);
    Key stepKey(int step, std::int64_t conflict_budget) const;

    expr::ExprContext &ctx;
    expr::Expr formula_;
    std::vector<expr::Expr> blockVars;
    int blockBits;
    QueryCache *cache;
    CanonForm form;
    std::uint64_t chainSalt = 0;
    std::unique_ptr<smt::SmtSolver> solver_;
    int step_ = 0;       ///< next logical enumeration step
    int solverStep_ = 0; ///< steps already applied to solver_
    bool dead_ = false;
};

} // namespace scamv::qcache

#endif // SCAMV_SUPPORT_QCACHE_CACHED_SOLVE_HH
