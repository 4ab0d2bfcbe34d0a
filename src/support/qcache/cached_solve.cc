#include "support/qcache/cached_solve.hh"

#include "support/faults.hh"
#include "support/linecodec.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace scamv::qcache {

using expr::Expr;

namespace {

constexpr std::uint64_t kBudgetSalt = 0x5ca77e5700050005ULL;
constexpr std::uint64_t kChainSalt = 0x5ca77e5700060006ULL;

/** Mix the conflict budget into a canonical key: outcomes below the
 *  Sat/Unknown boundary depend on it, so cross-budget reuse is out. */
Key
budgetKey(const Key &base, std::int64_t conflict_budget)
{
    const auto b = static_cast<std::uint64_t>(conflict_budget);
    return Key{mixKey(base.hi, b),
               mixKey(base.lo, mixKey(kBudgetSalt, b))};
}

/**
 * The one SmtUnknown gate of a logical query, mirroring
 * SmtSolver::solve().  Only consulted when an injector is installed,
 * so cache-on runs touch the querier's clock identically on hits and
 * misses.  @return true when an injected Unknown was tallied.
 */
bool
injectedUnknown()
{
    if (!faults::current())
        return false;
    const double t0 = metrics::current().now();
    if (!faults::maybeInject(faults::Site::SmtUnknown))
        return false;
    smt::tallyQuery(smt::Outcome::Unknown, t0);
    return true;
}

/**
 * `qcache.hit_seconds` of `g`, resolved once per epoch of `g` on each
 * thread and created on the first hit (as a by-name lookup would).
 */
metrics::Histogram &
hitSeconds(metrics::Registry &g)
{
    thread_local std::uint64_t epoch = 0; // epochs start at 1
    thread_local metrics::Histogram *h = nullptr;
    if (g.epoch() != epoch) {
        h = &g.histogram("qcache.hit_seconds");
        epoch = g.epoch();
    }
    return *h;
}

/**
 * Replay a valid entry under `key` into `r`: merge its metric delta
 * into the querier's registry and observe its latency since `tg0` on
 * the global clock.  A Sat entry whose model fails concrete
 * evaluation of `formula` (corrupt or stale, possible with a damaged
 * persistence file) is dropped instead.  @return the replayed entry.
 */
std::shared_ptr<const Entry>
replay(QueryCache &cache, const Key &key, const CanonForm &form,
       Expr formula, double tg0, SolveResult &r)
{
    metrics::Registry &g = metrics::Registry::global();
    auto hit = cache.lookup(key, form.fingerprint);
    if (!hit)
        return nullptr;
    if (hit->sat) {
        expr::Assignment model = toOriginal(form, hit->model);
        if (!expr::evalBool(formula, model)) {
            g.counter("qcache.validation_dropped").inc();
            cache.dropInvalid(key);
            return nullptr;
        }
        r.model = std::move(model);
    }
    r.outcome = hit->sat ? smt::Outcome::Sat : smt::Outcome::Unsat;
    metrics::current().merge(hit->delta);
    hitSeconds(g).observe(g.now() - tg0);
    return hit;
}

/**
 * A miss: run `solve` (which fills `r` and returns whether blocking
 * exhausted the pair) inside a scratch registry with injection
 * suppressed, merge the captured metric delta into the querier's
 * registry, and store the result under `key` unless it is Unknown
 * (budget-dependent, never cached).  @return what `solve` returned.
 */
template <class Solve>
bool
solveAndStore(QueryCache &cache, const Key &key, const CanonForm &form,
              SolveResult &r, Solve &&solve)
{
    metrics::Registry scratch(metrics::current().clockMode());
    bool pair_dead = false;
    {
        metrics::ScopedRegistry scope(scratch);
        faults::ScopedSuppress suppress;
        pair_dead = solve();
    }
    metrics::Snapshot delta = scratch.snapshot();
    metrics::current().merge(delta);
    if (r.outcome != smt::Outcome::Unknown) {
        Entry e;
        e.sat = r.outcome == smt::Outcome::Sat;
        e.fingerprint = form.fingerprint;
        e.pairDead = pair_dead;
        if (r.model)
            e.model = toCanonical(form, *r.model);
        e.delta = std::move(delta);
        cache.store(key, std::move(e));
    }
    return pair_dead;
}

} // namespace

Key
solveKey(const CanonForm &form, std::int64_t conflict_budget)
{
    return budgetKey(form.key, conflict_budget);
}

SolveResult
solveOnce(expr::ExprContext &ctx, Expr formula,
          std::int64_t conflict_budget, QueryCache *cache)
{
    if (!cache) {
        // The uncached reference path: exactly what the pipeline did
        // before the cache existed.
        smt::SmtSolver solver(ctx, formula);
        SolveResult r;
        r.outcome = solver.solve(conflict_budget);
        if (r.outcome == smt::Outcome::Sat)
            r.model = solver.model();
        return r;
    }

    SolveResult r;
    if (injectedUnknown())
        return r;
    const double tg0 = metrics::Registry::global().now();
    const CanonForm form = canonicalize(formula);
    const Key key = budgetKey(form.key, conflict_budget);
    if (replay(*cache, key, form, formula, tg0, r))
        return r;
    solveAndStore(*cache, key, form, r, [&] {
        smt::SmtSolver solver(ctx, formula);
        r.outcome = solver.solveNoInject(conflict_budget);
        if (r.outcome == smt::Outcome::Sat)
            r.model = solver.model();
        return false;
    });
    return r;
}

CachedEnumerator::CachedEnumerator(expr::ExprContext &ctx_,
                                   Expr formula, std::vector<Expr> block_vars,
                                   int block_bits, QueryCache *cache_)
    : ctx(ctx_),
      formula_(formula),
      blockVars(std::move(block_vars)),
      blockBits(block_bits),
      cache(cache_)
{
    if (!cache)
        return;
    form = canonicalize(formula_);
    extendVars(form, blockVars);
    // The chain salt separates enumerations of one formula under
    // different blocking configurations: blocked bits plus the
    // canonical identity of every blocked variable, in order.
    chainSalt = mixKey(kChainSalt,
                       static_cast<std::uint64_t>(blockBits));
    for (Expr v : blockVars) {
        const int index = canonicalIndex(form, v);
        SCAMV_ASSERT(index >= 0, "qcache: blocked variable not indexed");
        chainSalt = mixKey(chainSalt,
                           linecodec::fnv1a(canonicalName(
                               v->sort, static_cast<std::uint32_t>(index))));
    }
}

Key
CachedEnumerator::stepKey(int step, std::int64_t conflict_budget) const
{
    const std::uint64_t salt =
        mixKey(chainSalt, mixKey(static_cast<std::uint64_t>(step),
                                 static_cast<std::uint64_t>(
                                     conflict_budget)));
    return Key{mixKey(form.key.hi, salt),
               mixKey(form.key.lo, mixKey(kBudgetSalt, salt))};
}

void
CachedEnumerator::ensureSolverAt(int target)
{
    if (!solver_)
        solver_ = std::make_unique<smt::SmtSolver>(ctx, formula_);
    if (solverStep_ >= target)
        return;
    // Replay the cached prefix to rebuild incremental solver state.
    // Fingerprint gating guarantees the replayed trajectory is the
    // one that produced the cached entries, so an unlimited budget is
    // safe (a Sat trajectory within budget B is identical under any
    // budget >= B).  The work is invisible: metrics go to a discarded
    // scratch registry (hits already merged the original deltas) and
    // fault decisions are suppressed (the original attempt consumed
    // them).
    metrics::Registry mute(metrics::ClockMode::Wall);
    metrics::ScopedRegistry scope(mute);
    faults::ScopedSuppress suppress;
    while (solverStep_ < target) {
        const smt::Outcome out = solver_->solveNoInject(-1);
        SCAMV_ASSERT(out == smt::Outcome::Sat,
                     "qcache: cached enumeration prefix failed to "
                     "replay");
        solver_->blockCurrentModel(blockVars, blockBits);
        ++solverStep_;
    }
}

smt::SmtSolver &
CachedEnumerator::solver()
{
    ensureSolverAt(step_);
    return *solver_;
}

CachedEnumerator::Step
CachedEnumerator::nextWith(Expr assumption,
                           std::int64_t conflict_budget)
{
    SCAMV_ASSERT(!cache, "qcache: assumption steps are never cached");
    ensureSolverAt(step_);
    Step s;
    s.outcome = assumption ? solver_->solveWith(assumption, conflict_budget)
                           : solver_->solve(conflict_budget);
    if (s.outcome == smt::Outcome::Sat) {
        s.model = solver_->model();
        if (!solver_->blockCurrentModel(blockVars, blockBits))
            dead_ = true;
        ++solverStep_;
        ++step_;
    }
    return s;
}

CachedEnumerator::Step
CachedEnumerator::next(std::int64_t conflict_budget)
{
    if (!cache)
        return nextWith(nullptr, conflict_budget);

    Step s;
    if (injectedUnknown())
        return s;
    const double tg0 = metrics::Registry::global().now();
    const Key key = stepKey(step_, conflict_budget);
    if (auto hit = replay(*cache, key, form, formula_, tg0, s)) {
        if (hit->pairDead)
            dead_ = true;
        ++step_;
        return s;
    }

    // Miss: bring the solver up to this step and solve it.
    ensureSolverAt(step_);
    const bool block_dead = solveAndStore(*cache, key, form, s, [&] {
        s.outcome = solver_->solveNoInject(conflict_budget);
        if (s.outcome != smt::Outcome::Sat)
            return false;
        s.model = solver_->model();
        return !solver_->blockCurrentModel(blockVars, blockBits);
    });
    if (s.outcome == smt::Outcome::Unknown)
        return s; // budget-dependent: never cached, step not advanced
    if (s.outcome == smt::Outcome::Sat) {
        if (block_dead)
            dead_ = true;
        ++solverStep_;
    }
    ++step_;
    return s;
}

} // namespace scamv::qcache
