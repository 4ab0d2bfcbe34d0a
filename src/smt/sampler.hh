/**
 * @file
 * Randomized repair sampler: a stochastic-local-search model finder.
 *
 * The CDCL path produces canonical models; this sampler produces
 * *diverse* models quickly by starting from a random assignment and
 * repairing violated conjuncts with pattern-directed moves (make two
 * terms equal, force a term into the memory region, flip a memory
 * word, ...).  It is sound — a returned assignment is re-checked
 * against the whole formula — but incomplete: failure after the
 * iteration budget does not imply unsatisfiability, so callers fall
 * back to the CDCL solver.
 *
 * Used by the pipeline's "random" test-generation strategy and by the
 * ablation bench comparing search strategies.
 */

#ifndef SCAMV_SMT_SAMPLER_HH
#define SCAMV_SMT_SAMPLER_HH

#include <optional>
#include <vector>

#include "expr/eval.hh"
#include "expr/expr.hh"
#include "support/rng.hh"

namespace scamv::smt {

/** Tuning knobs for the repair sampler. */
struct SamplerConfig {
    /** Repair iterations before giving up. */
    int maxIters = 600;
    /** Fresh restarts of the initial assignment. */
    int maxRestarts = 3;
    /** Address-like values are drawn from this region with this bias. */
    std::uint64_t regionBase = 0x80000;
    std::uint64_t regionLimit = 0x100000;
    double regionBias = 0.85;
};

/** Stochastic model finder for one formula. */
class RepairSampler
{
  public:
    RepairSampler(expr::ExprContext &ctx, expr::Expr formula, Rng &rng,
                  const SamplerConfig &config = {});

    /**
     * Attempt to find a satisfying assignment.
     * @return a model, or nullopt if the budget was exhausted.
     */
    std::optional<expr::Assignment> sample();

  private:
    std::uint64_t randomValue();
    void initAssignment(expr::Assignment &a);
    void seedMemoryCells(expr::Assignment &a);
    bool trySatisfy(expr::Expr e, bool want, expr::Assignment &a,
                    int depth);
    bool forceValue(expr::Expr term, std::uint64_t value,
                    expr::Assignment &a);
    void mutateSomething(expr::Expr e, expr::Assignment &a);

    expr::ExprContext &ctx;
    expr::Expr formula;
    std::vector<expr::Expr> conjuncts;
    std::vector<expr::Expr> bvVars;
    Rng &rng;
    SamplerConfig config;
};

} // namespace scamv::smt

#endif // SCAMV_SMT_SAMPLER_HH
