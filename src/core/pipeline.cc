#include "core/pipeline.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bir/transform.hh"
#include "core/expdb.hh"
#include "cover/scheduler.hh"
#include "rel/relation.hh"
#include "smt/sampler.hh"
#include "smt/solver.hh"
#include "support/env.hh"
#include "support/faults.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/qcache/cached_solve.hh"
#include "support/qcache/qcache.hh"
#include "support/stopwatch.hh"
#include "support/thread_pool.hh"
#include "triage/minimize.hh"
#include "triage/screen.hh"

namespace scamv::core {

using expr::Expr;
using expr::ExprContext;

bool
needsSpecInstrumentation(const PipelineConfig &cfg)
{
    return obs::isSpeculative(cfg.model) ||
           (cfg.refinement && obs::isSpeculative(*cfg.refinement));
}

double
scaleFromEnv(double fallback)
{
    const auto v = envDouble("SCAMV_SCALE");
    return v && *v > 0.0 ? *v : fallback;
}

int
scaled(int n, double scale)
{
    const int v = static_cast<int>(std::lround(n * scale));
    return v < 1 ? 1 : v;
}

std::uint64_t
deriveProgramSeed(std::uint64_t seed, int prog_i)
{
    // splitmix64 finalizer over (seed, prog_i); +1 keeps program 0
    // from collapsing onto the raw campaign seed.
    std::uint64_t x =
        seed + 0x9e3779b97f4a7c15ULL *
                   (static_cast<std::uint64_t>(prog_i) + 1);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

Pipeline::Pipeline(const PipelineConfig &config) : cfg(config) {}

namespace {

/**
 * In-place edits of s2's registers and memory in a model, undone when
 * the edited model fails the formula: an overwrite is undone by
 * writing the old value back and an insert by unsetting the variable
 * or erasing the word.  An undone word insert may leave the memory's
 * map in another iteration order, and an undone store to an unset
 * mem_2 leaves it set but empty, which reads like unset.  Nothing
 * depends on either: inputFromAssignment() sorts the test case's
 * memory by address.
 */
class ModelEdit
{
  public:
    ModelEdit(expr::Assignment &model, Expr mem2)
        : model(model), mem2(mem2)
    {}

    /** model.setBv(v, x). */
    void
    setBv(Expr v, std::uint64_t x)
    {
        const bool existed = model.bvVars.has(v->slot);
        std::uint64_t &value = model.bvVars[v->slot];
        bvLog.push_back({v->slot, existed, value});
        value = x;
    }

    /** model.memOf(mem_2).storeWord(addr, v). */
    void
    storeMem2(std::uint64_t addr, std::uint64_t v)
    {
        expr::ConcreteMemory &mem = model.memOf(mem2);
        wordLog.push_back({addr, mem.contains(addr), mem.load(addr)});
        mem.storeWord(addr, v);
    }

    /** Keep the edits made since the last finish(), or undo them. */
    void
    finish(bool keep)
    {
        if (!keep)
            undo();
        bvLog.clear();
        wordLog.clear();
    }

  private:
    struct BvUndo {
        std::uint32_t slot;
        bool existed;
        std::uint64_t old;
    };
    struct WordUndo {
        std::uint64_t addr;
        bool existed;
        std::uint64_t old;
    };

    void
    undo()
    {
        for (auto u = bvLog.rbegin(); u != bvLog.rend(); ++u) {
            if (u->existed)
                model.bvVars[u->slot] = u->old;
            else
                model.bvVars.erase(u->slot);
        }
        if (wordLog.empty())
            return;
        expr::ConcreteMemory &mem = model.memOf(mem2);
        for (auto u = wordLog.rbegin(); u != wordLog.rend(); ++u) {
            if (u->existed)
                mem.storeWord(u->addr, u->old);
            else
                mem.erase(u->addr);
        }
    }

    expr::Assignment &model;
    Expr mem2;
    std::vector<BvUndo> bvLog;
    std::vector<WordUndo> wordLog;
};

/** The used registers' (s1, s2) variables as one list, the variables
 *  each enumerator blocks on. */
std::vector<Expr>
blockingVars(const ModelVars &vars)
{
    std::vector<Expr> flat;
    for (const auto &[r1, r2] : vars.usedRegs) {
        flat.push_back(r1);
        flat.push_back(r2);
    }
    return flat;
}

} // namespace

ModelVars
modelVars(const ExprContext &ctx, const bir::Program &program)
{
    ModelVars vars{harness::stateVars(ctx, "_1"),
                   harness::stateVars(ctx, "_2"),
                   {}};
    SCAMV_ASSERT(vars.s1.mem && vars.s2.mem,
                 "modelVars: a state has no memory variable");
    for (bir::Reg r : program.usedRegs()) {
        SCAMV_ASSERT(vars.s1.regs[r] && vars.s2.regs[r],
                     "modelVars: a used register has no variable");
        vars.usedRegs.emplace_back(vars.s1.regs[r], vars.s2.regs[r]);
    }
    return vars;
}

void
symmetrizeModel(Expr formula, const ModelVars &vars,
                expr::Assignment &model, Rng &rng, double bias)
{
    ModelEdit edit(model, vars.s2.mem);
    auto try_merge = [&](auto mutate) {
        if (!rng.chance(bias))
            return;
        mutate(edit);
        edit.finish(expr::evalBool(formula, model));
    };

    // s1's memory words, in the map's order (s1 is never edited).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> mem1_cells;
    if (const expr::ConcreteMemory *m1 = model.mem(vars.s1.mem))
        for (const auto &[addr, val] : m1->entries())
            mem1_cells.emplace_back(addr, val);

    // Wholesale merge first: s2 := s1.  Relations without refinement
    // are reflexive, so this almost always succeeds for the unguided
    // baseline; refinement disequalities reject it, and the per-
    // component passes below then remove only incidental asymmetry.
    try_merge([&](ModelEdit &e) {
        for (const auto &[r1, r2] : vars.usedRegs)
            e.setBv(r2, model.bv(r1));
        for (const auto &[addr, val] : mem1_cells)
            e.storeMem2(addr, val);
    });

    for (const auto &[r1, r2] : vars.usedRegs) {
        if (model.bv(r1) == model.bv(r2))
            continue;
        try_merge([&](ModelEdit &e) { e.setBv(r2, model.bv(r1)); });
    }

    for (const auto &[a, v] : mem1_cells) {
        const expr::ConcreteMemory *m2 = model.mem(vars.s2.mem);
        if (m2 && m2->contains(a) && m2->load(a) == v)
            continue;
        try_merge([&](ModelEdit &e) { e.storeMem2(a, v); });
    }
}

namespace {

/** The registry clock a campaign's metrics use. */
metrics::ClockMode
clockMode(const PipelineConfig &cfg)
{
    return cfg.deterministicMetricsTiming
               ? metrics::ClockMode::Deterministic
               : metrics::ClockMode::Wall;
}

/**
 * Record one bounded backoff step before a stage retry.  The delay
 * doubles per attempt (1 ms base, capped at ~1 s); it is always
 * recorded in `retry.backoff_seconds`, but only slept on the wall
 * clock — under the deterministic clock a retried campaign stays a
 * pure function of the call sequence, hence byte-identical across
 * thread counts.
 */
void
retryBackoff(metrics::Registry &reg, const char *stage, int attempt)
{
    reg.counter("retry.attempts").inc();
    reg.counter(std::string("retry.attempts.") + stage).inc();
    const double delay =
        0.001 * static_cast<double>(1ULL << std::min(attempt, 10));
    reg.gauge("retry.backoff_seconds").add(delay);
    if (reg.clockMode() == metrics::ClockMode::Wall)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(delay));
}

/**
 * Delta-gated retry of the smt, hw_run and db_write stages: run
 * `attempt(n)` for n = 0, 1, ... until it returns true.  Only an
 * attempt polluted by an injected fault is re-run (after a backoff
 * step, at most cfg.retryMax times); a genuine failure keeps its
 * fault-free behaviour and is never retried.  @return true when the
 * last attempt failed while polluted by an injected fault.
 */
template <class Attempt>
bool
retryOnFaults(const PipelineConfig &cfg, metrics::Registry &reg,
              const char *stage, Attempt &&attempt)
{
    for (int n = 0;; ++n) {
        const std::uint64_t before = faults::injectedCount();
        const bool done = attempt(n);
        const bool polluted = faults::injectedCount() != before;
        if (done || !polluted || n >= cfg.retryMax)
            return !done && polluted;
        retryBackoff(reg, stage, n);
    }
}

// ---- Program task stages (Fig. 1) -------------------------------
// runOneProgram chains prepare → screen → relate, then per test
// drawModel → measure → judge.  The stages keep the phase timers, rng
// draws and registry clock reads of the task in their original order.

/** What every stage of one program task reads. */
struct TaskEnv {
    const PipelineConfig &cfg;
    const ProgramTask &task;
    metrics::Registry &reg; ///< the task's (also metrics::current())
    const Stopwatch &watch;
    double t0;              ///< reg.now() at task start
    std::uint64_t seed;     ///< deriveProgramSeed(cfg.seed, prog_i)
    const front::CompiledProgram *corpus; ///< kernel to run, or null
    cover::ProgramDelta *delta; ///< null when not collecting coverage
};

/** Freeze the task's registry into the outcome (every exit path). */
void
finishTask(const TaskEnv &env, ProgramOutcome &out)
{
    if (out.hasCex)
        env.reg.counter("pipeline.programs_with_cex").inc();
    // One now() call feeds both the gauge and the per-program
    // latency histogram (p50/p99 in exports), keeping the
    // deterministic-clock tick count unchanged.
    const double task_elapsed = env.reg.now() - env.t0;
    env.reg.gauge("pipeline.task_seconds").add(task_elapsed);
    env.reg.histogram("pipeline.program_seconds").observe(task_elapsed);
    out.metrics = env.reg.snapshot();
    out.taskSeconds = env.watch.seconds();
}

struct Prepared {
    bir::Program program;
    bir::Program modelProgram; ///< as the models see it (instrumented)
    std::unique_ptr<sym::Annotator> annotator;
};

/**
 * Observation augmentation (Sections 4.2.2, 5.1): draw the program,
 * add the shadow statements speculative models need, and build the
 * (refinement) annotator.
 */
Prepared
prepare(const TaskEnv &env)
{
    const PipelineConfig &cfg = env.cfg;
    metrics::PhaseTimer phase(env.reg, "generate");
    Prepared p;
    if (env.corpus) {
        p.program = env.corpus->program;
        p.program.setName(env.corpus->name + "#" +
                          std::to_string(env.task.prog_i));
    } else {
        gen::GeneratorConfig gen_cfg;
        gen_cfg.lineBytes = cfg.modelParams.geom.lineBytes;
        gen::ProgramGenerator generator(env.task.templ, env.seed,
                                        gen_cfg);
        generator.setCounter(env.task.prog_i);
        p.program = generator.next();
    }
    p.modelProgram = p.program;
    if (needsSpecInstrumentation(cfg)) {
        if (cfg.rewriteJumps)
            p.modelProgram =
                bir::rewriteJumpsToCondBranches(p.modelProgram);
        p.modelProgram = bir::instrumentSpeculation(p.modelProgram);
    }
    if (cfg.refinement) {
        p.annotator = std::make_unique<obs::RefinementPair>(
            obs::makeModel(cfg.model, cfg.modelParams),
            obs::makeModel(*cfg.refinement, cfg.modelParams));
    } else {
        p.annotator = obs::makeModel(cfg.model, cfg.modelParams);
    }
    return p;
}

struct Screened {
    bool boring = false;         ///< proven boring; task finished
    std::vector<bool> classMask; ///< reachable classes (empty: all)
};

/**
 * Triage pre-screen (src/triage/screen.hh): a pure function of the
 * instrumented program, run before any rng, solver or platform use,
 * so surviving programs replay byte-identically with the screen on or
 * off.  A boring program's task is finished inside the phase (its
 * snapshot carries no triage_screen sample); otherwise the class mask
 * lets adaptive draws skip classes the program cannot touch.
 */
Screened
screen(const TaskEnv &env, const bir::Program &model_prog,
       ProgramOutcome &out)
{
    const PipelineConfig &cfg = env.cfg;
    Screened s;
    if (cfg.triageScreen <= 0 || !cfg.refinement)
        return s;
    metrics::PhaseTimer phase(env.reg, "triage_screen");
    triage::ScreenResult r = triage::screenProgram(
        model_prog, cfg.model, *cfg.refinement, cfg.modelParams);
    s.boring = r.verdict == triage::ScreenVerdict::Boring;
    if (s.boring) {
        env.reg.counter("triage.screened").inc();
        env.reg.counter("triage.screened." + r.reason).inc();
        finishTask(env, out);
    } else {
        s.classMask = std::move(r.classMask);
    }
    return s;
}

struct Related {
    rel::RelationConfig relCfg;
    std::optional<rel::RelationSynthesizer> relation;
    std::vector<sym::PathResult> trainingPaths; ///< "_t" (cfg.train)
};

/**
 * Symbolic execution for the states s1 and s2, relation synthesis
 * over their path pairs (Section 5.4), and the training state's paths
 * (Section 5.3).
 */
Related
relate(const TaskEnv &env, ExprContext &ctx, const Prepared &p)
{
    const PipelineConfig &cfg = env.cfg;
    std::vector<sym::PathResult> paths1, paths2;
    {
        metrics::PhaseTimer phase(env.reg, "symbolic_exec");
        paths1 = sym::execute(ctx, p.modelProgram, *p.annotator, {"_1"});
        paths2 = sym::execute(ctx, p.modelProgram, *p.annotator, {"_2"});
    }
    Related r;
    r.relCfg.refine = cfg.refinement.has_value();
    r.relCfg.region = cfg.region;
    r.relCfg.geom = cfg.modelParams.geom;
    if (env.corpus) {
        // The kernel's declared security contract: public inputs are
        // pinned equal across s1/s2, secrets stay free to differ.
        r.relCfg.lowRegs = env.corpus->publicRegs;
        r.relCfg.lowMemAddrs = env.corpus->publicMemAddrs;
    }
    {
        metrics::PhaseTimer phase(env.reg, "relation_synthesis");
        r.relation.emplace(ctx, std::move(paths1), std::move(paths2),
                           r.relCfg);
    }
    if (cfg.train) {
        metrics::PhaseTimer phase(env.reg, "symbolic_exec");
        auto mpc = obs::makeModel(obs::ModelKind::Mpc);
        r.trainingPaths = sym::execute(ctx, p.modelProgram, *mpc, {"_t"});
    }
    return r;
}

/** Solving state of one path pair. */
struct PairState {
    std::unique_ptr<qcache::CachedEnumerator> enumerator;
    Expr formula = nullptr; ///< synthesized on first use
    bool dead = false; ///< blocking ran dry or the relation is Unsat
};

/** Per-program state of the drawModel and measure stages. */
struct Solving {
    Solving(const TaskEnv &env, ExprContext &c, const Prepared &prep,
            const Related &r, std::vector<bool> class_mask)
        : ctx(c), program(prep.program), related(r),
          pairs(r.relation->pairs()), perPair(pairs.size()),
          vars(modelVars(c, prep.program)), blockVars(blockingVars(vars)),
          trainVars(env.cfg.train ? harness::stateVars(c, "_t")
                                  : harness::StateVars{}),
          classMask(std::move(class_mask)), rng(env.seed ^ 0xc0ffeeULL)
    {}

    ExprContext &ctx;
    const bir::Program &program;
    const Related &related;
    const std::vector<rel::PathPair> &pairs;
    std::vector<PairState> perPair;
    ModelVars vars;              ///< s1's and s2's variables
    std::vector<Expr> blockVars; ///< register variables of both states
    harness::StateVars trainVars; ///< the training state's variables
    std::vector<bool> classMask;
    /** Training inputs, keyed by s1-path index. */
    std::unordered_map<int, std::optional<harness::ProgramInput>>
        training;
    Rng rng;
    std::size_t rr = 0; ///< round-robin cursor over path pairs
    int planDraw = 0;   ///< monotone cursor into the class plan

    /** @return the next live pair, or nullopt once all are dead. */
    std::optional<std::size_t>
    nextLivePair()
    {
        for (std::size_t probe = 0; probe < pairs.size(); ++probe, ++rr)
            if (!perPair[rr % pairs.size()].dead)
                return rr++ % pairs.size();
        return std::nullopt;
    }
};

/**
 * One Mline coverage draw: least-covered-first from the round plan
 * when the adaptive scheduler supplied one, the classic random draw
 * otherwise.
 */
std::optional<rel::LineCoverageDraw>
drawLineCoverage(const TaskEnv &env, Solving &s, const rel::PathPair &pair)
{
    const ProgramTask &task = env.task;
    const rel::RelationSynthesizer &relation = *s.related.relation;
    std::optional<rel::LineCoverageDraw> cov;
    if (task.plan && !task.plan->classOrder.empty()) {
        int cls;
        if (s.classMask.empty()) {
            cls = cover::planClass(*task.plan, task.slot, s.planDraw++,
                                   task.stride);
        } else {
            // Screened class gating: classes outside the program's
            // abstract reach don't consume draws.
            std::int64_t skipped = 0;
            cls = cover::planClassAllowed(*task.plan, task.slot,
                                          s.planDraw, task.stride,
                                          s.classMask, &skipped);
            if (skipped)
                env.reg.counter("triage.skipped_draws").add(skipped);
        }
        cov = relation.lineCoverageConstraintFor(pair, cls, cls);
    } else {
        cov = relation.lineCoverageConstraint(pair, s.rng);
    }
    if (cov && env.delta) {
        env.delta->countDraw(cov->class1);
        if (cov->class2 != cov->class1)
            env.delta->countDraw(cov->class2);
    }
    return cov;
}

struct Draw {
    std::optional<expr::Assignment> model;
    int lineCls1 = -1, lineCls2 = -1; ///< last coverage draw (-1: none)
};

/**
 * One solve attempt for pair `idx` under `budget`.  The Sampler runs
 * the repair sampler with one complete solve as fallback; the other
 * strategies take one enumeration step on Pc coverage, or up to
 * cfg.coverageRetries assumption steps under fresh Mline draws.
 * @return true when the pair's relation proved exhausted.
 */
bool
solveAttempt(const TaskEnv &env, Solving &s, std::size_t idx,
             std::int64_t budget, Draw &d)
{
    const PipelineConfig &cfg = env.cfg;
    const bool line = cfg.coverage == Coverage::PcAndLine;
    PairState &ps = s.perPair[idx];
    if (cfg.strategy == SolveStrategy::Sampler) {
        Expr f = ps.formula;
        if (auto cov = line ? drawLineCoverage(env, s, s.pairs[idx])
                            : std::nullopt) {
            f = s.ctx.land(f, cov->constraint);
            d.lineCls1 = cov->class1;
            d.lineCls2 = cov->class2;
        }
        smt::SamplerConfig sampler_cfg;
        sampler_cfg.regionBase = cfg.region.base;
        sampler_cfg.regionLimit = cfg.region.limit();
        d.model = smt::RepairSampler(s.ctx, f, s.rng, sampler_cfg).sample();
        if (!d.model) {
            auto solved = qcache::solveOnce(s.ctx, f, budget, cfg.queryCache);
            if (solved.outcome != smt::Outcome::Sat)
                return true;
            d.model = std::move(solved.model);
        }
        return false;
    }

    // Only Canonical/Pc enumeration goes through the query cache.
    if (!ps.enumerator)
        ps.enumerator = std::make_unique<qcache::CachedEnumerator>(
            s.ctx, ps.formula, s.blockVars, cfg.blockingBits,
            cfg.strategy == SolveStrategy::Canonical && !line
                ? cfg.queryCache
                : nullptr);
    qcache::CachedEnumerator &en = *ps.enumerator;
    if (cfg.strategy == SolveStrategy::RandomPhases)
        en.solver().randomizePhases(s.rng);
    qcache::CachedEnumerator::Step step;
    if (line) {
        // Randomly drawn set-index classes often contradict the
        // relation (e.g. distinct classes pinned inside the attacker
        // region); redraw a few times before charging a generation
        // failure.
        step.outcome = smt::Outcome::Unsat;
        for (int redraw = 0; redraw < cfg.coverageRetries &&
                             step.outcome != smt::Outcome::Sat;
             ++redraw) {
            auto cov = drawLineCoverage(env, s, s.pairs[idx]);
            if (!cov) {
                step = en.next(budget);
                break;
            }
            d.lineCls1 = cov->class1;
            d.lineCls2 = cov->class2;
            step = en.nextWith(cov->constraint, budget);
        }
    } else {
        step = en.next(budget);
    }
    if (step.outcome == smt::Outcome::Sat) {
        d.model = std::move(step.model);
        ps.dead = en.dead();
        return false;
    }
    // Without per-test coverage constraints an Unsat relation stays
    // Unsat: retire the pair.
    return !line || step.outcome == smt::Outcome::Unknown;
}

/**
 * Solve pair `idx`'s relation for one test case.  An attempt polluted
 * by an injected fault is retried with a doubled conflict budget;
 * canonical models are then symmetrized.
 */
Draw
drawModel(const TaskEnv &env, Solving &s, std::size_t idx)
{
    const PipelineConfig &cfg = env.cfg;
    PairState &ps = s.perPair[idx];
    // Synthesized (and cached) outside the smt phase scope so nested
    // relation_synthesis time is not charged twice.
    if (!ps.formula) {
        metrics::PhaseTimer phase(env.reg, "relation_synthesis");
        ps.formula = s.related.relation->formulaFor(s.pairs[idx]);
    }
    Draw d;
    const double smt_t0 = env.delta ? env.reg.now() : 0.0;
    {
        metrics::PhaseTimer phase(env.reg, "smt");
        bool retire = false;
        const bool fault_failed =
            retryOnFaults(cfg, env.reg, "smt", [&](int attempt) {
                retire = solveAttempt(
                    env, s, idx, cfg.conflictBudget << std::min(attempt, 8),
                    d);
                return d.model.has_value();
            });
        // A failure polluted by injected faults is not attributable
        // to the pair, which stays live.
        if (!d.model && retire && !fault_failed)
            ps.dead = true;
        if (d.model && cfg.strategy == SolveStrategy::Canonical)
            symmetrizeModel(ps.formula, s.vars, *d.model, s.rng,
                            cfg.similarityBias);
    }
    // Per-atom cost: the whole solve (including redraws) is charged
    // to the test's final s1 class.
    if (env.delta)
        env.delta->chargeSolver(d.lineCls1, env.reg.now() - smt_t0);
    return d;
}

struct Measured {
    harness::TestCase tc;
    std::optional<harness::ProgramInput> training;
    harness::ExperimentResult result;
};

/**
 * Run the test case on the platform, after the branch-predictor
 * training input of the pair's s1 path (Section 5.3, solved once per
 * path), then account the experiment and log it to the database.
 */
Measured
measure(const TaskEnv &env, Solving &s, harness::Platform &platform,
        const Draw &d, std::size_t idx, ProgramOutcome &out)
{
    const PipelineConfig &cfg = env.cfg;
    const rel::PathPair &pair = s.pairs[idx];
    const rel::RelationSynthesizer &relation = *s.related.relation;
    Measured m;
    m.tc.s1 = harness::inputFromAssignment(*d.model, s.vars.s1);
    m.tc.s2 = harness::inputFromAssignment(*d.model, s.vars.s2);
    if (cfg.train) {
        auto [it, fresh] = s.training.try_emplace(pair.idx1);
        if (fresh) {
            auto formula = rel::RelationSynthesizer::trainingFormula(
                s.ctx, s.related.trainingPaths,
                relation.paths1()[pair.idx1], s.related.relCfg);
            if (formula) {
                auto solved = qcache::solveOnce(
                    s.ctx, *formula, cfg.conflictBudget, cfg.queryCache);
                if (solved.outcome == smt::Outcome::Sat)
                    it->second =
                        harness::inputFromAssignment(*solved.model,
                                                     s.trainVars);
            }
        }
        m.training = it->second;
    }
    {
        metrics::PhaseTimer phase(env.reg, "hw_run");
        // A run has no failure of its own: only one polluted by
        // injected measurement faults is re-measured, in the hope of
        // a clean repetition set.
        retryOnFaults(cfg, env.reg, "hw_run", [&](int) {
            m.result = platform.runExperiment(s.program, m.tc, m.training);
            return false;
        });
    }
    env.reg.counter("pipeline.experiments").inc();
    if (env.delta) {
        ++env.delta->verdicts.experiments;
        env.delta->countHit(d.lineCls1);
        if (d.lineCls2 != d.lineCls1)
            env.delta->countHit(d.lineCls2);
        ++env.delta->pathPairs[relation.paths1()[pair.idx1].pathId() +
                               "|" +
                               relation.paths2()[pair.idx2].pathId()];
    }
    // Accepted on flaky measurements: the platform has already
    // degraded the verdict to at most Inconclusive (unless every
    // clean repetition differed).
    if (m.result.flakedReps > 0)
        env.reg.counter("pipeline.degraded").inc();
    if (cfg.database) {
        ExperimentRecord record;
        record.programName = s.program.name();
        record.programText = s.program.toString();
        record.pathId = relation.paths1()[pair.idx1].pathId();
        record.testCase = m.tc;
        record.trained = m.training.has_value();
        record.lineClass1 = d.lineCls1;
        record.lineClass2 = d.lineCls2;
        record.verdict = m.result.verdict;
        record.differingReps = m.result.differingReps;
        record.totalReps = m.result.totalReps;
        out.records.push_back(std::move(record));
    }
    return m;
}

/**
 * Tally the verdict.  When findings are collected, a counterexample
 * also becomes a triage finding: shrunk to a minimal leaking core
 * when the minimizer is on, then classified.
 */
void
judge(const TaskEnv &env, const bir::Program &program, const Measured &m,
      ProgramOutcome &out)
{
    const PipelineConfig &cfg = env.cfg;
    switch (m.result.verdict) {
      case harness::Verdict::Counterexample:
        env.reg.counter("pipeline.counterexamples").inc();
        out.hasCex = true;
        if (out.firstCexOffsetSeconds < 0)
            out.firstCexOffsetSeconds = env.watch.seconds();
        if (env.delta)
            ++env.delta->verdicts.counterexamples;
        break;
      case harness::Verdict::Inconclusive:
        env.reg.counter("pipeline.inconclusive").inc();
        if (env.delta)
            ++env.delta->verdicts.inconclusive;
        return;
      case harness::Verdict::Indistinguishable:
        if (env.delta)
            ++env.delta->verdicts.indistinguishable;
        return;
    }
    if (cfg.triageMinimize <= 0 && !cfg.findingsFile)
        return;

    triage::Finding f;
    f.progIndex = env.task.prog_i;
    f.program = program.name();
    f.instrsBefore = f.instrsAfter = static_cast<int>(program.size());
    f.stateBitsBefore = f.stateBitsAfter = triage::stateBitCount(m.tc);
    bir::Program core_prog = program;
    harness::TestCase core_tc = m.tc;
    if (cfg.triageMinimize > 0) {
        // One fault decision per finding, taken *before* shrinking
        // (the minimizer itself runs under ScopedSuppress): a flaked
        // minimizer keeps the unminimized witness — degraded, never
        // lost.
        if (faults::maybeInject(faults::Site::TriageMinimizeFlake)) {
            f.degraded = true;
            env.reg.counter("triage.degraded").inc();
        } else {
            metrics::PhaseTimer phase(env.reg, "triage_minimize");
            triage::MinimizeConfig mcfg;
            mcfg.platform = cfg.platform;
            mcfg.seed = env.seed;
            mcfg.training = m.training;
            auto min = triage::minimizeCounterexample(program, m.tc, mcfg);
            if (min.evalsUsed <= 1) {
                // The evaluation platform could not reproduce the
                // leak (noise): keep the original witness.
                f.degraded = true;
                env.reg.counter("triage.degraded").inc();
            } else {
                core_prog = std::move(min.program);
                core_tc = std::move(min.tc);
                f.minimized = true;
                f.instrsAfter = static_cast<int>(core_prog.size());
                f.stateBitsAfter = triage::stateBitCount(core_tc);
                env.reg.counter("triage.minimized").inc();
            }
        }
    }
    f.mechanism = triage::classifyMechanism(
        core_prog, core_tc, m.training,
        cfg.refinement && obs::isSpeculative(*cfg.refinement),
        cfg.platform, env.seed);
    f.signature = f.mechanism + "/" + triage::shapeSignature(core_prog);
    f.core = core_prog.toString();
    f.tc = std::move(core_tc);
    out.findings.push_back(std::move(f));
}

/**
 * Run the whole experiment campaign of one program.  Pure function
 * of (cfg, task): every stochastic component is seeded from
 * deriveProgramSeed(cfg.seed, task.prog_i), and nothing outside the
 * returned ProgramOutcome is written.
 */
ProgramOutcome
runOneProgram(const PipelineConfig &cfg, const ProgramTask &task)
{
    const int prog_i = task.prog_i;
    ProgramOutcome out;
    Stopwatch task_watch;

    // Every metric of this task accumulates in a private registry:
    // the instrumented layers below (smt, sat, hw, harness) reach it
    // through metrics::current(), and Pipeline::run() merges the
    // snapshots in program-index order, keeping the campaign metrics
    // independent of task scheduling.
    metrics::Registry reg(clockMode(cfg));
    metrics::ScopedRegistry scoped_registry(reg);
    const double task_t0 = reg.now();
    reg.counter("pipeline.programs").inc();

    // Fault plan: install this task's injector (thread-local, like
    // the registry above).  Decisions are pure functions of
    // (cfg.seed, prog_i, site, attempt), so injected campaigns replay
    // byte-identically for any thread count.  With a disabled plan no
    // injector exists and every maybeInject() below is a null test.
    faults::Injector injector(cfg.faultPlan, cfg.seed, prog_i);
    std::optional<faults::ScopedInjector> scoped_injector;
    if (cfg.faultPlan.enabled())
        scoped_injector.emplace(injector);
    // Injected task death: thrown before any work, caught by the
    // campaign guard (runProgramTask), which re-counts it.
    if (faults::maybeInject(faults::Site::TaskAbort))
        throw faults::InjectedTaskFault(prog_i);

    // Corpus workloads replace the generator draw with a pre-compiled
    // SC kernel (see PipelineConfig::corpus).
    const front::CompiledProgram *corpus_entry = nullptr;
    if (task.corpusIndex >= 0 && cfg.corpus &&
        task.corpusIndex < static_cast<int>(cfg.corpus->size()))
        corpus_entry = &(*cfg.corpus)[static_cast<std::size_t>(
            task.corpusIndex)];

    // Coverage accounting is opt-in per task: the Uniform schedule
    // without a ledger never touches the delta (or the extra clock
    // reads it takes), keeping untracked campaigns byte-identical to
    // the pre-cover pipeline.
    cover::ProgramDelta *delta = nullptr;
    if (task.collectCover) {
        delta = &out.coverDelta;
        delta->templ = corpus_entry ? "corpus:" + corpus_entry->name
                                    : gen::templateName(task.templ);
        delta->model = obs::modelName(cfg.model);
        if (cfg.coverage == Coverage::PcAndLine)
            delta->universe = cfg.modelParams.geom.numSets;
    }

    const TaskEnv env{cfg, task, reg, task_watch, task_t0,
                      deriveProgramSeed(cfg.seed, prog_i), corpus_entry,
                      delta};
    ExprContext ctx;
    const Prepared prep = prepare(env);
    out.name = prep.program.name();
    Screened screened = screen(env, prep.modelProgram, out);
    if (screened.boring)
        return out;
    const Related related = relate(env, ctx, prep);
    if (related.relation->pairs().empty()) {
        finishTask(env, out);
        return out;
    }

    Solving s(env, ctx, prep, related, std::move(screened.classMask));
    harness::Platform platform(cfg.platform, env.seed ^ 0x90153ULL);
    int fault_failures = 0; // consecutive injected-fault test failures
    for (int test_i = 0; test_i < cfg.testsPerProgram; ++test_i) {
        const std::uint64_t test_faults0 = faults::injectedCount();
        const std::optional<std::size_t> idx = s.nextLivePair();
        if (!idx)
            break; // all relations exhausted
        const Draw draw = drawModel(env, s, *idx);
        if (!draw.model) {
            reg.counter("pipeline.generation_failures").inc();
            // A program that keeps losing tests to injected faults is
            // quarantined: its remaining tests are abandoned and it is
            // listed in the campaign report instead of stalling.
            if (faults::injectedCount() == test_faults0) {
                fault_failures = 0;
            } else if (++fault_failures >= cfg.quarantineAfter) {
                out.quarantined = true;
                reg.counter("pipeline.quarantined").inc();
                reg.counter("pipeline.degraded").inc();
                break;
            }
            continue;
        }
        fault_failures = 0;
        judge(env, prep.program,
              measure(env, s, platform, draw, *idx, out), out);
    }
    finishTask(env, out);
    return out;
}

/** @return the worker count for a config (0 = auto). */
int
resolveThreads(int configured)
{
    if (configured > 0)
        return configured;
    return static_cast<int>(ThreadPool::defaultThreadCount());
}

/** @return snapshot counter value, or 0 when never touched. */
std::int64_t
counterOr0(const metrics::Snapshot &s, const std::string &name)
{
    auto it = s.counters.find(name);
    return it == s.counters.end()
               ? 0
               : static_cast<std::int64_t>(it->second);
}

/** @return total seconds recorded in a phase histogram, or 0. */
double
histogramSumOr0(const metrics::Snapshot &s, const std::string &name)
{
    auto it = s.histograms.find(name);
    return it == s.histograms.end() ? 0.0 : it->second.sum;
}

/** Resolve SCAMV_SCHEDULE ("uniform" | "adaptive"; unknown warns). */
Schedule
scheduleFromEnv()
{
    const char *v = std::getenv("SCAMV_SCHEDULE");
    if (!v || !*v)
        return Schedule::Uniform;
    const std::string_view s(v);
    if (s == "adaptive")
        return Schedule::Adaptive;
    if (s != "uniform")
        warn("SCAMV_SCHEDULE: unknown schedule '" + std::string(s) +
             "', using uniform");
    return Schedule::Uniform;
}

/**
 * Fold the coverage deltas of programs [first_prog, first_prog+count)
 * into the ledger, in program-index order on this thread — the ledger
 * state at every fold boundary (and hence the exported JSON) is a
 * pure function of the schedule, never of the thread count.  `outs[k]`
 * is program first_prog + k.  Each program's merge runs under its own
 * injector (mirroring the db flush): an injected cover.ledger_merge
 * fault drops that delta.  Empty outcomes — failed tasks, early-
 * stopped or lost programs — are skipped.  @return true when every
 * delta landed.
 */
bool
mergeCoverDeltas(const PipelineConfig &cfg,
                 cover::CoverageLedger &ledger, metrics::Registry &reg,
                 const ProgramOutcome *outs, int first_prog, int count)
{
    const bool cover_faults =
        cfg.faultPlan.enabled() &&
        cfg.faultPlan.covers(faults::Site::CoverLedgerMerge);
    bool ok = true;
    metrics::ScopedRegistry scope(reg);
    for (int k = 0; k < count; ++k) {
        const ProgramOutcome &out = outs[k];
        if (out.failed || out.coverDelta.templ.empty())
            continue; // no delta was produced for this slot
        faults::Injector injector(cfg.faultPlan, cfg.seed,
                                  first_prog + k);
        std::optional<faults::ScopedInjector> inj_scope;
        if (cover_faults)
            inj_scope.emplace(injector);
        if (!ledger.merge(out.coverDelta)) {
            reg.counter("cover.merge_dropped").inc();
            ok = false;
        }
    }
    return ok;
}

/**
 * One unit of the workload universe: a generator template, or a
 * corpus entry when a corpus is loaded (exclusive — corpus campaigns
 * never mix in generated programs).  Both schedules treat a unit the
 * same way: uniform round-robins program indices over the units,
 * adaptive weighs each unit's ledger bucket.
 */
struct WorkloadUnit {
    gen::TemplateKind templ = gen::TemplateKind::A;
    int corpusIndex = -1;
    std::string name;
};

std::vector<WorkloadUnit>
workloadUnits(const PipelineConfig &cfg)
{
    std::vector<WorkloadUnit> units;
    if (cfg.corpus && !cfg.corpus->empty()) {
        for (int c = 0; c < static_cast<int>(cfg.corpus->size()); ++c)
            units.push_back(
                {gen::TemplateKind::A, c,
                 "corpus:" +
                     (*cfg.corpus)[static_cast<std::size_t>(c)].name});
    } else {
        std::vector<gen::TemplateKind> templates = cfg.templateKinds;
        if (templates.empty())
            templates.push_back(cfg.templateKind);
        for (gen::TemplateKind kind : templates)
            units.push_back({kind, -1, gen::templateName(kind)});
    }
    return units;
}

/**
 * Run a batch of tasks, writing program prog_i's outcome into
 * outs[prog_i - first]: in order on this thread (the reference path)
 * without a pool, one pool task per program with one.
 */
void
runBatch(const PipelineConfig &cfg, ThreadPool *pool,
         const std::vector<ProgramTask> &tasks, ProgramOutcome *outs,
         int first)
{
    for (const ProgramTask &task : tasks) {
        auto run = [&cfg, task, outs, first] {
            outs[task.prog_i - first] = runProgramTask(cfg, task);
            if (cfg.progressHook)
                cfg.progressHook(task.prog_i);
        };
        if (pool)
            pool->submit(run);
        else
            run();
    }
    if (pool)
        pool->wait();
}

/**
 * The Adaptive schedule of runScheduleRange: deterministic rounds
 * (their size a pure function of the budget), each planned from a
 * ledger snapshot.  @return the programs skipped by early stop.
 */
int
runAdaptiveRounds(const PipelineConfig &cfg, cover::CoverageLedger &ledger,
                  metrics::Registry &reg,
                  const std::vector<WorkloadUnit> &units, ThreadPool *pool,
                  ProgramOutcome *outs, int first, int budget)
{
    const int round_size = cover::roundSizeFor(budget);
    const std::uint64_t num_sets = cfg.coverage == Coverage::PcAndLine
                                       ? cfg.modelParams.geom.numSets
                                       : 0;
    std::vector<std::string> names;
    for (const WorkloadUnit &u : units)
        names.push_back(u.name);

    bool degraded = false;
    int next = 0;
    for (int round = 0; next < budget; ++round) {
        const int batch = std::min(round_size, budget - next);
        std::vector<cover::RoundPlan> plans(units.size());
        std::vector<int> assign;
        if (!degraded) {
            const cover::Snapshot snap = ledger.snapshot();
            bool all_saturated = num_sets > 0;
            for (std::size_t i = 0; i < units.size(); ++i) {
                plans[i] = cover::planRound(snap, names[i], cfg.seed,
                                            round, num_sets);
                all_saturated &= plans[i].saturated;
            }
            if (all_saturated) {
                // Every template's class universe is covered or
                // exhausted: stop spending programs on it.
                reg.counter("cover.early_stop").inc();
                reg.counter("cover.skipped_programs")
                    .add(static_cast<std::uint64_t>(budget - next));
                break;
            }
            assign = cover::weightedAssignment(
                cover::templateWeights(snap, names, num_sets), batch);
        } else {
            // Ledger-merge faults poisoned the accounting: degrade
            // to the uniform round-robin draw for the rest of the
            // campaign.
            assign.resize(batch);
            for (int s = 0; s < batch; ++s)
                assign[s] = static_cast<int>(
                    (static_cast<std::size_t>(first + next + s)) %
                    units.size());
        }
        reg.counter("cover.rounds").inc();

        std::vector<ProgramTask> tasks;
        tasks.reserve(static_cast<std::size_t>(batch));
        for (int s = 0; s < batch; ++s) {
            const auto unit =
                static_cast<std::size_t>(assign[static_cast<std::size_t>(s)]);
            ProgramTask task;
            task.prog_i = first + next + s;
            task.templ = units[unit].templ;
            task.corpusIndex = units[unit].corpusIndex;
            task.collectCover = true;
            task.plan = degraded ? nullptr : &plans[unit];
            task.slot = s;
            task.stride = batch;
            tasks.push_back(task);
        }
        runBatch(cfg, pool, tasks, outs, first);
        if (!mergeCoverDeltas(cfg, ledger, reg, outs + next,
                              first + next, batch) &&
            !degraded) {
            degraded = true;
            reg.counter("cover.degraded").inc();
        }
        next += batch;
    }
    return budget - next;
}

/**
 * Execute programs [first, first+budget) of the campaign under the
 * resolved schedule, writing program first+k's outcome into outs[k].
 * Uniform: one embarrassingly parallel batch, templates round-robin
 * by *global* program index, no ledger access (deltas are folded by
 * the merge tail).  Adaptive: deterministic rounds planned from
 * `ledger` (required), counting scheduler events into `reg`.
 * @return the number of budget programs skipped by adaptive
 * early-stop (their slots stay empty).
 */
int
runScheduleRange(const PipelineConfig &cfg,
                 cover::CoverageLedger *ledger, metrics::Registry &reg,
                 ProgramOutcome *outs, int first, int budget,
                 bool track_cover)
{
    if (budget <= 0)
        return 0;
    const std::vector<WorkloadUnit> units = workloadUnits(cfg);
    const int n_threads = resolveThreads(cfg.threads);
    std::unique_ptr<ThreadPool> pool;
    if (n_threads > 1 && budget > 1)
        pool = std::make_unique<ThreadPool>(static_cast<unsigned>(n_threads));

    if (cfg.schedule.value_or(Schedule::Uniform) == Schedule::Adaptive)
        return runAdaptiveRounds(cfg, *ledger, reg, units, pool.get(),
                                 outs, first, budget);

    // One uniform batch over the whole budget; multi-template
    // campaigns round-robin by program index.
    std::vector<ProgramTask> tasks;
    tasks.reserve(static_cast<std::size_t>(budget));
    for (int k = 0; k < budget; ++k) {
        ProgramTask task;
        task.prog_i = first + k;
        const WorkloadUnit &u =
            units[static_cast<std::size_t>(task.prog_i) % units.size()];
        task.templ = u.templ;
        task.corpusIndex = u.corpusIndex;
        task.collectCover = track_cover;
        tasks.push_back(task);
    }
    runBatch(cfg, pool.get(), tasks, outs, first);
    return 0;
}

/**
 * Flush the slots' experiment records into cfg.database sequentially
 * in program-index order, so the record sequence — and any injected
 * db_write decision — is independent of the thread count.  The fault
 * plan's DbWrite site can reject a write; rejected writes are retried
 * with backoff and finally dropped (counted, not fatal: the campaign
 * completes with a partial log).
 */
void
flushDatabase(const PipelineConfig &cfg,
              std::vector<ProgramOutcome> &slots,
              metrics::Registry &campaign_reg)
{
    metrics::ScopedRegistry flush_scope(campaign_reg);
    const bool db_faults = cfg.faultPlan.enabled() &&
                           cfg.faultPlan.covers(faults::Site::DbWrite);
    for (std::size_t prog_i = 0; prog_i < slots.size(); ++prog_i) {
        faults::Injector db_injector(cfg.faultPlan, cfg.seed,
                                     static_cast<int>(prog_i));
        std::optional<faults::ScopedInjector> inj_scope;
        if (db_faults)
            inj_scope.emplace(db_injector);
        for (ExperimentRecord &record : slots[prog_i].records) {
            bool written = false;
            retryOnFaults(cfg, campaign_reg, "db_write", [&](int) {
                // add() consumes the record, so attempts that can
                // fail get their own copy.
                written = db_faults ? cfg.database->add(record)
                                    : cfg.database->add(std::move(record));
                return written;
            });
            if (!written)
                campaign_reg.counter("pipeline.db_write_drops").inc();
        }
    }
}

/**
 * Rebuild the legacy Table-1 counters of `stats` as views of its
 * merged snapshot: one source of truth, so reports and metrics cannot
 * disagree.
 */
void
countersFromMetrics(RunStats &stats)
{
    const metrics::Snapshot &m = stats.metrics;
    stats.programs =
        static_cast<int>(counterOr0(m, "pipeline.programs"));
    stats.programsWithCex =
        static_cast<int>(counterOr0(m, "pipeline.programs_with_cex"));
    stats.experiments = counterOr0(m, "pipeline.experiments");
    stats.counterexamples = counterOr0(m, "pipeline.counterexamples");
    stats.inconclusive = counterOr0(m, "pipeline.inconclusive");
    stats.generationFailures =
        counterOr0(m, "pipeline.generation_failures");
    stats.faultsInjected = counterOr0(m, "faults.injected");
    stats.retryAttempts = counterOr0(m, "retry.attempts");
    stats.quarantined =
        static_cast<int>(counterOr0(m, "pipeline.quarantined"));
    stats.degraded = static_cast<int>(counterOr0(m, "pipeline.degraded"));
    stats.programFailures =
        static_cast<int>(counterOr0(m, "pipeline.program_failures"));
    stats.dbWriteDrops = counterOr0(m, "pipeline.db_write_drops");
    stats.ledgerMergeDrops = counterOr0(m, "cover.merge_dropped");
    stats.schedulerDegraded = counterOr0(m, "cover.degraded") > 0;
    stats.screened = counterOr0(m, "triage.screened");
    stats.triageDegraded = counterOr0(m, "triage.degraded");
    stats.totalGenSeconds =
        histogramSumOr0(m, "phase.generate_seconds") +
        histogramSumOr0(m, "phase.symbolic_exec_seconds") +
        histogramSumOr0(m, "phase.relation_synthesis_seconds") +
        histogramSumOr0(m, "phase.smt_seconds");
    stats.totalExeSeconds = histogramSumOr0(m, "phase.hw_run_seconds");
}

/**
 * The campaign merge tail shared by Pipeline::run() and the shard
 * coordinator: fold the slots in program-index order into a RunStats.
 * `ledger` is null when coverage is untracked; `fold_cover` folds
 * the coverage deltas into it first (the Uniform path —
 * the adaptive scheduler already folded per round); `export_env`
 * honours the SCAMV_COVERAGE_FILE / SCAMV_METRICS /
 * SCAMV_METRICS_TABLE exporters.
 */
RunStats
mergeTailImpl(const PipelineConfig &cfg,
              std::vector<ProgramOutcome> &slots,
              cover::CoverageLedger *ledger,
              metrics::Registry &campaign_reg, bool fold_cover,
              int early_stopped, bool export_env)
{
    RunStats stats;
    stats.earlyStopped = early_stopped;

    if (fold_cover && ledger)
        mergeCoverDeltas(cfg, *ledger, campaign_reg, slots.data(), 0,
                         static_cast<int>(slots.size()));

    // Deterministic in-order merge.  Task snapshots are folded in
    // program-index order, so the campaign snapshot is identical for
    // any thread count; the db_merge phase of the campaign-level
    // registry covers the fold plus the database flush.
    {
        metrics::PhaseTimer phase(campaign_reg, "db_merge");

        // ttcSeconds is rebuilt on the sequential-campaign clock:
        // the sum of the task durations of all earlier programs plus
        // the in-task offset of the first counterexample, so its
        // meaning matches a threads=1 run.
        double clock = 0.0;
        for (const ProgramOutcome &out : slots) {
            stats.metrics.merge(out.metrics);
            if (stats.ttcSeconds < 0 && out.firstCexOffsetSeconds >= 0)
                stats.ttcSeconds = clock + out.firstCexOffsetSeconds;
            clock += out.taskSeconds;
            if (out.quarantined)
                stats.quarantinedPrograms.push_back(out.name);
            if (out.failed)
                stats.failedPrograms.push_back(out.name);
            // Findings concatenate in program-index order, which is
            // what makes the findings export independent of thread
            // and shard count.
            stats.findings.insert(stats.findings.end(),
                                  out.findings.begin(),
                                  out.findings.end());
        }
        if (cfg.database)
            flushDatabase(cfg, slots, campaign_reg);
    }
    stats.metrics.merge(campaign_reg.snapshot());
    countersFromMetrics(stats);

    if (ledger) {
        stats.coverageTracked = true;
        stats.coverage = ledger->snapshot();
        for (const auto &[templ, cell] : stats.coverage.templates) {
            stats.coveredClasses += cell.coveredClasses();
            stats.classUniverse += cell.universe;
        }
        const char *cov_env =
            export_env ? std::getenv("SCAMV_COVERAGE_FILE") : nullptr;
        if (cov_env && *cov_env &&
            !cover::writeJson(stats.coverage, cov_env))
            warn("pipeline: cannot write coverage JSON to " +
                 std::string(cov_env));
    }

    // Optional exporters (see README): SCAMV_METRICS writes the JSON
    // snapshot, SCAMV_METRICS_TABLE prints the text table to stderr.
    if (export_env) {
        if (const char *path = std::getenv("SCAMV_METRICS");
            path && *path) {
            if (!metrics::writeJson(stats.metrics, path))
                warn("pipeline: cannot write metrics JSON to " +
                     std::string(path));
        }
        if (const char *table = std::getenv("SCAMV_METRICS_TABLE");
            table && *table && *table != '0') {
            std::fputs(
                metrics::toTable(stats.metrics).render().c_str(),
                stderr);
        }
        if (cfg.findingsFile &&
            !triage::writeFindings(stats.findings, *cfg.findingsFile))
            warn("pipeline: cannot write findings JSON to " +
                 *cfg.findingsFile);
    }
    return stats;
}

} // namespace

PipelineConfig
resolveCampaignEnv(PipelineConfig cfg)
{
    // Resolve the failure-model knobs: an explicitly configured plan
    // wins, otherwise the environment is consulted
    // (SCAMV_FAULT_RATE / SCAMV_FAULT_PLAN / SCAMV_RETRY_MAX).
    if (!cfg.faultPlan.enabled())
        cfg.faultPlan = faults::FaultPlan::fromEnv();
    if (cfg.retryMax < 0)
        cfg.retryMax = static_cast<int>(
            envLong("SCAMV_RETRY_MAX", 0, 64).value_or(2));

    // Query cache: an explicitly configured cache wins, otherwise the
    // environment-configured shared cache (SCAMV_QCACHE_MB /
    // SCAMV_QCACHE_FILE).  Fault-injection campaigns bypass the cache
    // entirely: injected-fault decisions are keyed to per-site attempt
    // counters, and skipping solver work on hits would change which
    // attempts exist — byte-identical fault replay beats cache wins.
    if (!cfg.queryCache)
        cfg.queryCache = qcache::QueryCache::sharedFromEnv();
    if (cfg.queryCache && cfg.faultPlan.enabled()) {
        metrics::Registry::global()
            .counter("qcache.bypass_faults")
            .inc();
        cfg.queryCache = nullptr;
    }

    // Schedule: an explicitly configured schedule wins, otherwise
    // SCAMV_SCHEDULE (defaulting to uniform).
    if (!cfg.schedule)
        cfg.schedule = scheduleFromEnv();

    // Triage: pre-screen (SCAMV_TRIAGE), minimizer (SCAMV_MINIMIZE)
    // and findings export (SCAMV_FINDINGS_FILE), each defaulting off.
    if (cfg.triageScreen < 0)
        cfg.triageScreen = static_cast<int>(
            envLong("SCAMV_TRIAGE", 0, 1).value_or(0));
    if (cfg.triageMinimize < 0)
        cfg.triageMinimize = static_cast<int>(
            envLong("SCAMV_MINIMIZE", 0, 1).value_or(0));
    if (!cfg.findingsFile) {
        const char *path = std::getenv("SCAMV_FINDINGS_FILE");
        if (path && *path)
            cfg.findingsFile = path;
    }

    // Corpus workload: an explicitly configured corpus wins, otherwise
    // SCAMV_CORPUS_DIR / SCAMV_PROGRAM_FILE.  Arrays are laid out
    // inside the campaign's experiment region so the relation's
    // region constraints accept corpus addresses.
    if (!cfg.corpus) {
        front::CompileOptions fopts;
        fopts.arrayBase = cfg.region.base;
        fopts.arrayLimit = cfg.region.base + cfg.region.size;
        std::vector<front::CompiledProgram> loaded =
            front::corpusFromEnv(fopts);
        if (!loaded.empty())
            cfg.corpus = std::make_shared<
                const std::vector<front::CompiledProgram>>(
                std::move(loaded));
    }
    return cfg;
}

bool
coverageTracked(const PipelineConfig &cfg)
{
    // Coverage accounting activates only when something consumes it
    // (adaptive rounds, a configured ledger, or a SCAMV_COVERAGE_FILE
    // export) — an untracked uniform campaign takes the exact
    // pre-cover code path.
    const char *cov = std::getenv("SCAMV_COVERAGE_FILE");
    return cfg.schedule.value_or(Schedule::Uniform) ==
               Schedule::Adaptive ||
           cfg.coverageLedger != nullptr || (cov && *cov);
}

/**
 * The campaign guard around runOneProgram: a task that dies with an
 * exception (injected or genuine) must cost exactly one program, not
 * the campaign.  The failed program is counted in a fresh registry —
 * the task's own registry died with it — so the merged campaign
 * metrics still account for the program and, for the injected case,
 * for its fault.
 */
ProgramOutcome
runProgramTask(const PipelineConfig &cfg, const ProgramTask &task)
{
    const int prog_i = task.prog_i;
    ProgramOutcome out;
    bool injected = false;
    try {
        return runOneProgram(cfg, task);
    } catch (const faults::InjectedTaskFault &e) {
        injected = true;
        warn(std::string("pipeline: ") + e.what());
    } catch (const std::exception &e) {
        warn("pipeline: program task " + std::to_string(prog_i) +
             " failed: " + e.what());
    } catch (...) {
        warn("pipeline: program task " + std::to_string(prog_i) +
             " failed with a non-standard exception");
    }
    out.failed = true;
    out.name = "program-" + std::to_string(prog_i);
    metrics::Registry reg(clockMode(cfg));
    reg.counter("pipeline.programs").inc();
    reg.counter("pipeline.program_failures").inc();
    reg.counter("pipeline.degraded").inc();
    if (injected) {
        reg.counter("faults.injected").inc();
        reg.counter(std::string("faults.injected.") +
                    faults::siteName(faults::Site::TaskAbort))
            .inc();
    }
    out.metrics = reg.snapshot();
    return out;
}

CampaignSlice
runCampaignSlice(const PipelineConfig &cfg, int first, int count)
{
    CampaignSlice slice;
    slice.first = first;
    slice.count = count > 0 ? count : 0;
    slice.outcomes.resize(static_cast<std::size_t>(slice.count));
    if (slice.count == 0)
        return slice;

    const bool adaptive = cfg.schedule.value_or(Schedule::Uniform) ==
                          Schedule::Adaptive;
    // An adaptive slice plans its rounds locally: a throwaway ledger
    // over the slice's own budget.  Its scheduler counters are scoped
    // to the worker and intentionally discarded — the coordinator
    // re-folds the deltas authoritatively and records the planning
    // deviation as `shard.schedule_local` (see DESIGN.md §12).
    cover::CoverageLedger local_ledger;
    metrics::Registry scratch(clockMode(cfg));
    slice.scheduleLocal = adaptive;
    slice.earlyStopped = runScheduleRange(
        cfg, adaptive ? &local_ledger : nullptr, scratch,
        slice.outcomes.data(), first, slice.count,
        coverageTracked(cfg));
    return slice;
}

RunStats
mergeCampaignOutcomes(const PipelineConfig &cfg,
                      std::vector<ProgramOutcome> &slots,
                      const MergeTailOptions &opts)
{
    cover::CoverageLedger local_ledger;
    cover::CoverageLedger *ledger = cfg.coverageLedger;
    if (!ledger && coverageTracked(cfg))
        ledger = &local_ledger;
    metrics::Registry campaign_reg(clockMode(cfg));
    return mergeTailImpl(cfg, slots, ledger, campaign_reg,
                         /*fold_cover=*/true, opts.earlyStopped,
                         opts.honorEnvExports);
}

RunStats
Pipeline::run()
{
    cfg = resolveCampaignEnv(std::move(cfg));

    cover::CoverageLedger local_ledger;
    cover::CoverageLedger *ledger = cfg.coverageLedger;
    const bool track_cover = coverageTracked(cfg);
    if (track_cover && !ledger)
        ledger = &local_ledger;

    // One slot per program; tasks never touch shared state, so the
    // campaign is embarrassingly parallel and the merge below sees
    // the same slot contents regardless of scheduling.  (Adaptive
    // early-stop may leave trailing slots unused; they merge as empty
    // outcomes.)
    std::vector<ProgramOutcome> slots(
        cfg.programs > 0 ? static_cast<std::size_t>(cfg.programs) : 0);

    // Campaign-level registry: round planning, ledger merging and the
    // final stats/db merge all count into it; it is folded into the
    // campaign snapshot after the per-program snapshots.
    metrics::Registry campaign_reg(clockMode(cfg));

    const int early_stopped =
        runScheduleRange(cfg, ledger, campaign_reg, slots.data(), 0,
                         cfg.programs, track_cover);

    // The Uniform path folds its coverage deltas in the tail; the
    // adaptive scheduler already folded per round.
    const bool fold_cover =
        track_cover && *cfg.schedule == Schedule::Uniform;
    return mergeTailImpl(cfg, slots, ledger, campaign_reg, fold_cover,
                         early_stopped, /*export_env=*/true);
}

} // namespace scamv::core
