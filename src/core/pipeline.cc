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
    auto speculative = [](obs::ModelKind k) {
        return k == obs::ModelKind::Mspec ||
               k == obs::ModelKind::Mspec1 ||
               k == obs::ModelKind::MspecPage;
    };
    if (speculative(cfg.model))
        return true;
    return cfg.refinement && speculative(*cfg.refinement);
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

/** Register variables of both states, for model blocking. */
static std::vector<Expr>
blockingVars(ExprContext &ctx, const bir::Program &program)
{
    std::vector<Expr> vars;
    for (bir::Reg r : program.usedRegs()) {
        vars.push_back(ctx.bvVar("x" + std::to_string(r) + "_1"));
        vars.push_back(ctx.bvVar("x" + std::to_string(r) + "_2"));
    }
    return vars;
}

void
symmetrizeModel(Expr formula, const bir::Program &program,
                expr::Assignment &model, Rng &rng, double bias)
{
    auto try_merge = [&](auto mutate) {
        if (!rng.chance(bias))
            return;
        expr::Assignment candidate = model;
        mutate(candidate);
        if (expr::evalBool(formula, candidate))
            model = std::move(candidate);
    };

    // Wholesale merge first: s2 := s1.  Relations without refinement
    // are reflexive, so this almost always succeeds for the unguided
    // baseline; refinement disequalities reject it, and the per-
    // component passes below then remove only incidental asymmetry.
    try_merge([&](expr::Assignment &c) {
        for (bir::Reg r : program.usedRegs())
            c.bvVars["x" + std::to_string(r) + "_2"] =
                c.bv("x" + std::to_string(r) + "_1");
        if (auto m1 = c.mems.find("mem_1"); m1 != c.mems.end()) {
            auto cells = m1->second.entries();
            for (const auto &[addr, val] : cells)
                c.mems["mem_2"].storeWord(addr, val);
        }
    });

    for (bir::Reg r : program.usedRegs()) {
        const std::string v1 = "x" + std::to_string(r) + "_1";
        const std::string v2 = "x" + std::to_string(r) + "_2";
        if (model.bv(v1) == model.bv(v2))
            continue;
        try_merge([&](expr::Assignment &c) {
            c.bvVars[v2] = c.bv(v1);
        });
    }

    std::vector<std::pair<std::uint64_t, std::uint64_t>> mem1_cells;
    if (auto m1 = model.mems.find("mem_1"); m1 != model.mems.end())
        for (const auto &[addr, val] : m1->second.entries())
            mem1_cells.emplace_back(addr, val);
    for (const auto &[a, v] : mem1_cells) {
        auto m2 = model.mems.find("mem_2");
        if (m2 != model.mems.end() && m2->second.contains(a) &&
            m2->second.load(a) == v)
            continue;
        try_merge([&](expr::Assignment &c) {
            c.mems["mem_2"].storeWord(a, v);
        });
    }
}

namespace {

/**
 * Per-program solving state: one (possibly cache-backed) incremental
 * enumerator per path pair.  `dead` marks exhausted pairs — either
 * model blocking ran dry or the relation went Unsat/Unknown.
 */
struct PairEnumerators {
    std::vector<std::unique_ptr<qcache::CachedEnumerator>> enums;
    std::vector<bool> dead;
};

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
 * Run the whole experiment campaign of one program.  Pure function
 * of (cfg, task): every stochastic component is seeded from
 * deriveProgramSeed(cfg.seed, task.prog_i), and nothing outside the
 * returned ProgramOutcome is written.
 */
ProgramOutcome
runOneProgram(const PipelineConfig &cfg, bool instrument,
              const ProgramTask &task)
{
    const int prog_i = task.prog_i;
    ProgramOutcome out;
    Stopwatch task_watch;

    // Every metric of this task accumulates in a private registry:
    // the instrumented layers below (smt, sat, hw, harness) reach it
    // through metrics::current(), and Pipeline::run() merges the
    // snapshots in program-index order, keeping the campaign metrics
    // independent of task scheduling.
    metrics::Registry reg(cfg.deterministicMetricsTiming
                              ? metrics::ClockMode::Deterministic
                              : metrics::ClockMode::Wall);
    metrics::ScopedRegistry scoped_registry(reg);
    const double task_t0 = reg.now();
    reg.counter("pipeline.programs").inc();
    out.name = "program-" + std::to_string(prog_i);

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
    // campaign guard (runOneProgramGuarded), which re-counts it.
    if (faults::maybeInject(faults::Site::TaskAbort))
        throw faults::InjectedTaskFault(prog_i);
    const int retry_max = cfg.retryMax < 0 ? 2 : cfg.retryMax;

    // Coverage accounting is opt-in per task: the Uniform schedule
    // without a ledger never touches the delta (or the extra clock
    // reads below), keeping untracked campaigns byte-identical to the
    // pre-cover pipeline.
    // Corpus workloads replace the generator draw with a pre-compiled
    // SC kernel (see PipelineConfig::corpus).
    const front::CompiledProgram *corpus_entry = nullptr;
    if (task.corpusIndex >= 0 && cfg.corpus &&
        task.corpusIndex < static_cast<int>(cfg.corpus->size()))
        corpus_entry = &(*cfg.corpus)[static_cast<std::size_t>(
            task.corpusIndex)];

    cover::ProgramDelta &delta = out.coverDelta;
    if (task.collectCover) {
        delta.templ = corpus_entry ? "corpus:" + corpus_entry->name
                                   : gen::templateName(task.templ);
        delta.model = obs::modelName(cfg.model);
        if (cfg.coverage == Coverage::PcAndLine)
            delta.universe = cfg.modelParams.geom.numSets;
    }

    // Freeze the task's registry into the outcome; called on every
    // exit path so even pair-less programs contribute a snapshot.
    auto finish_task = [&] {
        if (out.hasCex)
            reg.counter("pipeline.programs_with_cex").inc();
        // One now() call feeds both the gauge and the per-program
        // latency histogram (p50/p99 in exports), keeping the
        // deterministic-clock tick count unchanged.
        const double task_elapsed = reg.now() - task_t0;
        reg.gauge("pipeline.task_seconds").add(task_elapsed);
        reg.histogram("pipeline.program_seconds").observe(task_elapsed);
        out.metrics = reg.snapshot();
        out.taskSeconds = task_watch.seconds();
    };

    const std::uint64_t prog_seed = deriveProgramSeed(cfg.seed, prog_i);
    gen::GeneratorConfig gen_cfg;
    gen_cfg.lineBytes = cfg.modelParams.geom.lineBytes;
    gen::ProgramGenerator generator(task.templ, prog_seed, gen_cfg);
    generator.setCounter(prog_i);
    harness::Platform platform(cfg.platform, prog_seed ^ 0x90153ULL);
    Rng rng(prog_seed ^ 0xc0ffeeULL);

    ExprContext ctx;

    // ---- Observation augmentation (Sections 4.2.2, 5.1) --------
    bir::Program program, model_prog;
    std::unique_ptr<sym::Annotator> annotator;
    {
        metrics::PhaseTimer phase(reg, "generate");
        if (corpus_entry) {
            program = corpus_entry->program;
            program.setName(corpus_entry->name + "#" +
                            std::to_string(prog_i));
        } else {
            program = generator.next();
        }
        out.name = program.name();
        model_prog = program;
        if (instrument) {
            if (cfg.rewriteJumps)
                model_prog =
                    bir::rewriteJumpsToCondBranches(model_prog);
            model_prog = bir::instrumentSpeculation(model_prog);
        }

        if (cfg.refinement) {
            annotator = std::make_unique<obs::RefinementPair>(
                obs::makeModel(cfg.model, cfg.modelParams),
                obs::makeModel(*cfg.refinement, cfg.modelParams));
        } else {
            annotator = obs::makeModel(cfg.model, cfg.modelParams);
        }
    }

    // ---- Triage pre-screen (src/triage/screen.hh) ---------------
    // Runs before any rng, solver or platform use, and is a pure
    // function of the instrumented program — a screened-out program
    // leaves the task's rng streams untouched, so the surviving
    // programs replay byte-identically with the screen on or off.
    // The class mask survives for non-boring programs: the adaptive
    // coverage draw below skips classes the program provably cannot
    // touch.
    std::vector<bool> screen_mask;
    if (cfg.triageScreen > 0 && cfg.refinement) {
        metrics::PhaseTimer phase(reg, "triage_screen");
        triage::ScreenResult screen = triage::screenProgram(
            model_prog, cfg.model, *cfg.refinement, cfg.modelParams);
        if (screen.verdict == triage::ScreenVerdict::Boring) {
            reg.counter("triage.screened").inc();
            reg.counter("triage.screened." + screen.reason).inc();
            finish_task();
            return out;
        }
        screen_mask = std::move(screen.classMask);
    }

    // ---- Symbolic execution (cached per program) ----------------
    std::vector<sym::PathResult> paths1, paths2;
    {
        metrics::PhaseTimer phase(reg, "symbolic_exec");
        paths1 = sym::execute(ctx, model_prog, *annotator, {"_1"});
        paths2 = sym::execute(ctx, model_prog, *annotator, {"_2"});
    }

    rel::RelationConfig rel_cfg;
    rel_cfg.refine = cfg.refinement.has_value();
    rel_cfg.region = cfg.region;
    rel_cfg.geom = cfg.modelParams.geom;
    if (corpus_entry) {
        // The kernel's declared security contract: public inputs are
        // pinned equal across s1/s2, secrets stay free to differ.
        rel_cfg.lowRegs = corpus_entry->publicRegs;
        rel_cfg.lowMemAddrs = corpus_entry->publicMemAddrs;
    }
    std::optional<rel::RelationSynthesizer> relation;
    {
        metrics::PhaseTimer phase(reg, "relation_synthesis");
        relation.emplace(ctx, std::move(paths1), std::move(paths2),
                         rel_cfg);
    }

    // Training paths (third symbolic execution, suffix "_t").
    std::vector<sym::PathResult> training_paths;
    if (cfg.train) {
        metrics::PhaseTimer phase(reg, "symbolic_exec");
        auto mpc = obs::makeModel(obs::ModelKind::Mpc);
        training_paths = sym::execute(ctx, model_prog, *mpc, {"_t"});
    }

    const auto &pairs = relation->pairs();
    if (pairs.empty()) {
        finish_task();
        return out;
    }

    // Query cache: the enumerated (Canonical/Pc) path threads every
    // solve through it; other strategies keep their incremental
    // solver access but still cache the one-shot fallback/training
    // queries.  With qc == nullptr every wrapper below degrades to
    // the exact pre-cache call sequence.
    qcache::QueryCache *qc = cfg.queryCache;
    const bool use_enum_cache =
        qc && cfg.strategy == SolveStrategy::Canonical &&
        cfg.coverage == Coverage::Pc;

    // Model-blocking variables: a pure function of the program's used
    // registers (every register variable already exists in ctx after
    // symbolic execution), hoisted out of the per-test loop.
    const std::vector<Expr> block_vars = blockingVars(ctx, program);

    PairEnumerators per_pair;
    per_pair.enums.resize(pairs.size());
    per_pair.dead.assign(pairs.size(), false);

    // Relation formulas, synthesized once per path pair: the formula
    // is a pure function of the pair, but it is needed by solver
    // construction, the sampler, and symmetrizeModel on every test
    // iteration.
    std::vector<Expr> formulas(pairs.size(), nullptr);
    auto formula_for = [&](std::size_t idx) {
        if (!formulas[idx]) {
            metrics::PhaseTimer phase(reg, "relation_synthesis");
            formulas[idx] = relation->formulaFor(pairs[idx]);
        }
        return formulas[idx];
    };

    // Training inputs, cached per s1-path index.
    std::unordered_map<int, std::optional<harness::ProgramInput>>
        training_cache;
    auto training_for =
        [&](const rel::PathPair &pair)
        -> std::optional<harness::ProgramInput> {
        if (!cfg.train)
            return std::nullopt;
        auto hit = training_cache.find(pair.idx1);
        if (hit != training_cache.end())
            return hit->second;
        std::optional<harness::ProgramInput> input;
        auto formula = rel::RelationSynthesizer::trainingFormula(
            ctx, training_paths, relation->paths1()[pair.idx1],
            rel_cfg);
        if (formula) {
            auto solved = qcache::solveOnce(ctx, *formula,
                                            cfg.conflictBudget, qc);
            if (solved.outcome == smt::Outcome::Sat)
                input = harness::inputFromAssignment(*solved.model,
                                                     "_t");
        }
        training_cache.emplace(pair.idx1, input);
        return input;
    };

    std::size_t rr = 0; // round-robin cursor over path pairs
    int fault_failures = 0; // consecutive injected-fault test failures
    int plan_draw = 0; // monotone cursor into the adaptive class plan

    // One Mline coverage draw: least-covered-first from the round
    // plan when the adaptive scheduler supplied one, the classic
    // random draw otherwise (same rng sequence as ever).
    auto draw_line_coverage = [&](const rel::PathPair &pair)
        -> std::optional<rel::LineCoverageDraw> {
        std::optional<rel::LineCoverageDraw> cov;
        if (task.plan && !task.plan->classOrder.empty()) {
            int cls;
            if (screen_mask.empty()) {
                cls = cover::planClass(*task.plan, task.slot,
                                       plan_draw++, task.stride);
            } else {
                // Screened class gating: classes outside the
                // program's abstract reach don't consume draws.
                std::int64_t skipped = 0;
                cls = cover::planClassAllowed(*task.plan, task.slot,
                                              plan_draw, task.stride,
                                              screen_mask, &skipped);
                if (skipped)
                    reg.counter("triage.skipped_draws").add(skipped);
            }
            cov = relation->lineCoverageConstraintFor(pair, cls, cls);
        } else {
            cov = relation->lineCoverageConstraint(pair, rng);
        }
        if (cov && task.collectCover) {
            delta.countDraw(cov->class1);
            if (cov->class2 != cov->class1)
                delta.countDraw(cov->class2);
        }
        return cov;
    };

    for (int test_i = 0; test_i < cfg.testsPerProgram; ++test_i) {
        const std::uint64_t test_faults0 = faults::injectedCount();

        // Advance to the next live pair.
        std::size_t probe = 0;
        while (probe < pairs.size() &&
               per_pair.dead[rr % pairs.size()]) {
            ++rr;
            ++probe;
        }
        if (probe == pairs.size())
            break; // all relations exhausted
        const std::size_t pair_idx = rr % pairs.size();
        ++rr;
        const rel::PathPair &pair = pairs[pair_idx];

        // Synthesized (and cached) outside the smt phase scope so
        // nested relation_synthesis time is not charged twice.
        const Expr pair_formula = formula_for(pair_idx);
        std::optional<expr::Assignment> model;
        int line_cls1 = -1, line_cls2 = -1;
        const double smt_t0 = task.collectCover ? reg.now() : 0.0;
        {
        metrics::PhaseTimer phase(reg, "smt");

        bool retire_pair = false;
        for (int attempt = 0;; ++attempt) {
            const std::uint64_t before = faults::injectedCount();
            // Each retry doubles the per-query conflict budget — the
            // time/attempt budget granted to a timed-out query.
            const std::int64_t budget =
                cfg.conflictBudget << std::min(attempt, 8);
            retire_pair = false;

            if (cfg.strategy == SolveStrategy::Sampler) {
                Expr f = pair_formula;
                if (cfg.coverage == Coverage::PcAndLine) {
                    auto cov = draw_line_coverage(pair);
                    if (cov) {
                        f = ctx.land(f, cov->constraint);
                        line_cls1 = cov->class1;
                        line_cls2 = cov->class2;
                    }
                }
                smt::SamplerConfig sampler_cfg;
                sampler_cfg.regionBase = cfg.region.base;
                sampler_cfg.regionLimit = cfg.region.limit();
                smt::RepairSampler sampler(ctx, f, rng, sampler_cfg);
                model = sampler.sample();
                if (!model) {
                    // Fall back to the complete solver.
                    auto solved =
                        qcache::solveOnce(ctx, f, budget, qc);
                    if (solved.outcome == smt::Outcome::Sat)
                        model = std::move(solved.model);
                    else
                        retire_pair = true;
                }
            } else {
                auto &en = per_pair.enums[pair_idx];
                if (!en) {
                    // Blocking variables are fixed at construction on
                    // the cached path (they parameterize the cache's
                    // enumeration chain); the uncached path passes
                    // them at blocking time, as it always did.
                    en = std::make_unique<qcache::CachedEnumerator>(
                        ctx, pair_formula,
                        use_enum_cache ? block_vars
                                       : std::vector<Expr>{},
                        cfg.blockingBits,
                        use_enum_cache ? qc : nullptr);
                }
                if (cfg.strategy == SolveStrategy::RandomPhases)
                    en->solver().randomizePhases(rng);

                smt::Outcome outcome = smt::Outcome::Unsat;
                if (cfg.coverage == Coverage::PcAndLine) {
                    // Randomly drawn set-index classes often
                    // contradict the relation (e.g. distinct classes
                    // pinned inside the attacker region); redraw a
                    // few times before charging a generation failure.
                    for (int redraw = 0;
                         redraw < cfg.coverageRetries &&
                         outcome != smt::Outcome::Sat;
                         ++redraw) {
                        auto cov = draw_line_coverage(pair);
                        if (cov) {
                            line_cls1 = cov->class1;
                            line_cls2 = cov->class2;
                        }
                        outcome =
                            cov ? en->solver().solveWith(
                                      cov->constraint, budget)
                                : en->solver().solve(budget);
                        if (!cov)
                            break;
                    }
                } else if (en->usesCache()) {
                    // Cached enumeration step: solve + model + block
                    // in one cacheable unit.
                    auto step = en->next(budget);
                    outcome = step.outcome;
                    if (outcome == smt::Outcome::Sat) {
                        model = std::move(step.model);
                        if (en->dead())
                            per_pair.dead[pair_idx] = true;
                    }
                } else {
                    outcome = en->solver().solve(budget);
                }

                if (outcome == smt::Outcome::Sat) {
                    if (!en->usesCache()) {
                        model = en->solver().model();
                        if (!en->solver().blockCurrentModel(
                                block_vars, cfg.blockingBits))
                            per_pair.dead[pair_idx] = true;
                    }
                } else if (cfg.coverage != Coverage::PcAndLine ||
                           outcome == smt::Outcome::Unknown) {
                    // Without per-test coverage constraints an Unsat
                    // relation stays Unsat: retire the pair.
                    retire_pair = true;
                }
            }

            if (model)
                break;
            // Delta-gated retry: only an attempt polluted by an
            // injected fault is re-run (with backoff and a doubled
            // budget); genuine Unsat/exhaustion keeps its original
            // fault-free behaviour and is never retried.
            const bool polluted = faults::injectedCount() != before;
            if (polluted)
                retire_pair = false; // not attributable to the pair
            if (!polluted || attempt >= retry_max)
                break;
            retryBackoff(reg, "smt", attempt);
        }

        if (!model && retire_pair)
            per_pair.dead[pair_idx] = true;
        if (model && cfg.strategy == SolveStrategy::Canonical)
            symmetrizeModel(pair_formula, program, *model,
                            rng, cfg.similarityBias);
        } // phase "smt"
        if (task.collectCover) {
            // Per-atom cost: the whole solve (including redraws) is
            // charged to the test's final s1 class.  Deterministic
            // under the deterministic registry clock.
            delta.chargeSolver(line_cls1, reg.now() - smt_t0);
        }

        if (!model) {
            reg.counter("pipeline.generation_failures").inc();
            if (faults::injectedCount() != test_faults0) {
                // The test failed because of injected faults, not on
                // its own merits.  A program that keeps losing tests
                // this way is quarantined: its remaining tests are
                // abandoned and it is listed in the campaign report
                // instead of stalling the run.
                if (++fault_failures >= cfg.quarantineAfter) {
                    out.quarantined = true;
                    reg.counter("pipeline.quarantined").inc();
                    reg.counter("pipeline.degraded").inc();
                    break;
                }
            } else {
                fault_failures = 0;
            }
            continue;
        }
        fault_failures = 0;

        harness::TestCase tc;
        tc.s1 = harness::inputFromAssignment(*model, "_1");
        tc.s2 = harness::inputFromAssignment(*model, "_2");
        const auto training = training_for(pair);

        harness::ExperimentResult result;
        {
            metrics::PhaseTimer phase(reg, "hw_run");
            for (int attempt = 0;; ++attempt) {
                const std::uint64_t before = faults::injectedCount();
                result = platform.runExperiment(program, tc,
                                                training);
                // Delta-gated retry: re-measure only when this run
                // was polluted by injected measurement faults, in
                // the hope of a clean repetition set.
                if (faults::injectedCount() == before ||
                    attempt >= retry_max)
                    break;
                retryBackoff(reg, "hw_run", attempt);
            }
        }
        reg.counter("pipeline.experiments").inc();
        if (task.collectCover) {
            ++delta.verdicts.experiments;
            delta.countHit(line_cls1);
            if (line_cls2 != line_cls1)
                delta.countHit(line_cls2);
            ++delta.pathPairs[relation->paths1()[pair.idx1].pathId() +
                              "|" +
                              relation->paths2()[pair.idx2].pathId()];
        }
        if (result.flakedReps > 0) {
            // Accepted, but on flaky measurements: the verdict has
            // already been degraded to at most Inconclusive by the
            // platform (unless every clean repetition differed).
            reg.counter("pipeline.degraded").inc();
        }

        if (cfg.database) {
            ExperimentRecord record;
            record.programName = program.name();
            record.programText = program.toString();
            record.pathId =
                relation->paths1()[pair.idx1].pathId();
            record.testCase = tc;
            record.trained = training.has_value();
            record.lineClass1 = line_cls1;
            record.lineClass2 = line_cls2;
            record.verdict = result.verdict;
            record.differingReps = result.differingReps;
            record.totalReps = result.totalReps;
            out.records.push_back(std::move(record));
        }

        switch (result.verdict) {
          case harness::Verdict::Counterexample: {
            reg.counter("pipeline.counterexamples").inc();
            out.hasCex = true;
            if (out.firstCexOffsetSeconds < 0)
                out.firstCexOffsetSeconds = task_watch.seconds();
            if (task.collectCover)
                ++delta.verdicts.counterexamples;
            if (cfg.triageMinimize > 0 || cfg.findingsFile) {
                triage::Finding f;
                f.progIndex = prog_i;
                f.program = program.name();
                f.instrsBefore = static_cast<int>(program.size());
                f.instrsAfter = f.instrsBefore;
                f.stateBitsBefore = triage::stateBitCount(tc);
                f.stateBitsAfter = f.stateBitsBefore;
                bir::Program core_prog = program;
                harness::TestCase core_tc = tc;
                if (cfg.triageMinimize > 0) {
                    // One fault decision per finding, taken *before*
                    // shrinking (the minimizer itself runs under
                    // ScopedSuppress): a flaked minimizer keeps the
                    // unminimized witness — degraded, never lost.
                    if (faults::maybeInject(
                            faults::Site::TriageMinimizeFlake)) {
                        f.degraded = true;
                        reg.counter("triage.degraded").inc();
                    } else {
                        metrics::PhaseTimer mphase(reg,
                                                   "triage_minimize");
                        triage::MinimizeConfig mcfg;
                        mcfg.platform = cfg.platform;
                        mcfg.seed = prog_seed;
                        mcfg.training = training;
                        auto min = triage::minimizeCounterexample(
                            program, tc, mcfg);
                        if (min.evalsUsed <= 1) {
                            // The evaluation platform could not
                            // reproduce the leak (noise): keep the
                            // original witness.
                            f.degraded = true;
                            reg.counter("triage.degraded").inc();
                        } else {
                            core_prog = std::move(min.program);
                            core_tc = std::move(min.tc);
                            f.minimized = true;
                            f.instrsAfter =
                                static_cast<int>(core_prog.size());
                            f.stateBitsAfter =
                                triage::stateBitCount(core_tc);
                            reg.counter("triage.minimized").inc();
                        }
                    }
                }
                const bool spec_ref =
                    cfg.refinement &&
                    (*cfg.refinement == obs::ModelKind::Mspec ||
                     *cfg.refinement == obs::ModelKind::Mspec1 ||
                     *cfg.refinement == obs::ModelKind::MspecPage);
                f.mechanism = triage::classifyMechanism(
                    core_prog, core_tc, training, spec_ref,
                    cfg.platform, prog_seed);
                f.signature = f.mechanism + "/" +
                              triage::shapeSignature(core_prog);
                f.core = core_prog.toString();
                f.tc = std::move(core_tc);
                out.findings.push_back(std::move(f));
            }
            break;
          }
          case harness::Verdict::Inconclusive:
            reg.counter("pipeline.inconclusive").inc();
            if (task.collectCover)
                ++delta.verdicts.inconclusive;
            break;
          case harness::Verdict::Indistinguishable:
            if (task.collectCover)
                ++delta.verdicts.indistinguishable;
            break;
        }
    }

    finish_task();
    return out;
}

/**
 * Campaign guard around runOneProgram: a task that dies with an
 * exception (injected or genuine) must cost exactly one program, not
 * the campaign.  The failed program is counted in a fresh
 * deterministic registry — the task's own registry died with it — so
 * the merged campaign metrics still account for the program and, for
 * the injected case, for its fault.
 */
ProgramOutcome
runOneProgramGuarded(const PipelineConfig &cfg, bool instrument,
                     const ProgramTask &task)
{
    const int prog_i = task.prog_i;
    ProgramOutcome out;
    bool injected = false;
    try {
        return runOneProgram(cfg, instrument, task);
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
    metrics::Registry reg(cfg.deterministicMetricsTiming
                              ? metrics::ClockMode::Deterministic
                              : metrics::ClockMode::Wall);
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
 * Execute programs [first, first+budget) of the campaign under the
 * resolved schedule, writing program first+k's outcome into outs[k].
 * Uniform: one embarrassingly parallel batch, templates round-robin
 * by *global* program index, no ledger access (deltas are folded by
 * the merge tail).  Adaptive: deterministic rounds planned from
 * `ledger` (required), folding each round's deltas before planning
 * the next and counting scheduler events into `reg`.
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
    const Schedule sched = cfg.schedule.value_or(Schedule::Uniform);
    const bool instrument = needsSpecInstrumentation(cfg);
    const int n_threads = resolveThreads(cfg.threads);

    // The workload universe: corpus entries when a corpus is loaded
    // (exclusive — corpus campaigns never mix in generated programs),
    // generator templates otherwise.  Both schedules treat a unit the
    // same way: uniform round-robins program indices over the units,
    // adaptive weighs each unit's ledger bucket.
    struct WorkloadUnit {
        gen::TemplateKind templ = gen::TemplateKind::A;
        int corpusIndex = -1;
        std::string name;
    };
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

    std::optional<ThreadPool> pool;
    if (n_threads > 1 && budget > 1)
        pool.emplace(static_cast<unsigned>(n_threads));

    auto run_batch = [&](const std::vector<ProgramTask> &tasks) {
        if (!pool) {
            // Reference path: plain sequential loop on this thread.
            for (const ProgramTask &task : tasks) {
                outs[task.prog_i - first] =
                    runOneProgramGuarded(cfg, instrument, task);
                if (cfg.progressHook)
                    cfg.progressHook(task.prog_i);
            }
        } else {
            for (const ProgramTask &task : tasks) {
                pool->submit([&cfg, instrument, task, outs, first] {
                    outs[task.prog_i - first] =
                        runOneProgramGuarded(cfg, instrument, task);
                    if (cfg.progressHook)
                        cfg.progressHook(task.prog_i);
                });
            }
            pool->wait();
        }
    };

    if (sched == Schedule::Uniform) {
        // One uniform batch over the whole budget; multi-template
        // campaigns round-robin by program index.
        std::vector<ProgramTask> tasks;
        tasks.reserve(static_cast<std::size_t>(budget));
        for (int k = 0; k < budget; ++k) {
            ProgramTask task;
            task.prog_i = first + k;
            const WorkloadUnit &u =
                units[static_cast<std::size_t>(task.prog_i) %
                      units.size()];
            task.templ = u.templ;
            task.corpusIndex = u.corpusIndex;
            task.collectCover = track_cover;
            tasks.push_back(task);
        }
        run_batch(tasks);
        return 0;
    }

    // Adaptive schedule: spend the budget in deterministic rounds
    // (round size is a pure function of the budget), replanning from
    // a ledger snapshot at every round boundary.
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
            const cover::Snapshot snap = ledger->snapshot();
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
            ProgramTask task;
            task.prog_i = first + next + s;
            const WorkloadUnit &u = units[static_cast<std::size_t>(
                assign[static_cast<std::size_t>(s)])];
            task.templ = u.templ;
            task.corpusIndex = u.corpusIndex;
            task.collectCover = true;
            task.plan = degraded
                            ? nullptr
                            : &plans[static_cast<std::size_t>(
                                  assign[static_cast<std::size_t>(s)])];
            task.slot = s;
            task.stride = batch;
            tasks.push_back(task);
        }
        run_batch(tasks);
        if (!mergeCoverDeltas(cfg, *ledger, reg, outs + next,
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
 * The campaign merge tail shared by Pipeline::run() and the shard
 * coordinator: fold the slots in program-index order into a RunStats.
 * `fold_cover` folds the coverage deltas first (the Uniform path —
 * the adaptive scheduler already folded per round); `export_env`
 * honours the SCAMV_COVERAGE_FILE / SCAMV_METRICS /
 * SCAMV_METRICS_TABLE exporters.
 */
RunStats
mergeTailImpl(const PipelineConfig &cfg,
              std::vector<ProgramOutcome> &slots,
              cover::CoverageLedger *ledger, bool track_cover,
              metrics::Registry &campaign_reg, bool fold_cover,
              int early_stopped, bool export_env)
{
    RunStats stats;
    stats.earlyStopped = early_stopped;

    if (fold_cover && track_cover)
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
        if (cfg.database) {
            // Flush sequentially in program-index order so the
            // record sequence — and any injected db_write decision —
            // is independent of the thread count.  The fault plan's
            // DbWrite site can reject a write; rejected writes are
            // retried with backoff and finally dropped (counted, not
            // fatal: the campaign completes with a partial log).
            metrics::ScopedRegistry flush_scope(campaign_reg);
            const bool db_faults =
                cfg.faultPlan.enabled() &&
                cfg.faultPlan.covers(faults::Site::DbWrite);
            for (std::size_t prog_i = 0; prog_i < slots.size();
                 ++prog_i) {
                faults::Injector db_injector(
                    cfg.faultPlan, cfg.seed, static_cast<int>(prog_i));
                std::optional<faults::ScopedInjector> inj_scope;
                if (db_faults)
                    inj_scope.emplace(db_injector);
                for (ExperimentRecord &record :
                     slots[prog_i].records) {
                    bool written = false;
                    for (int attempt = 0;; ++attempt) {
                        const std::uint64_t before =
                            faults::injectedCount();
                        // add() consumes the record, so attempts
                        // that can fail get their own copy.
                        written = db_faults
                                      ? cfg.database->add(record)
                                      : cfg.database->add(
                                            std::move(record));
                        if (written ||
                            faults::injectedCount() == before ||
                            attempt >= cfg.retryMax)
                            break;
                        retryBackoff(campaign_reg, "db_write",
                                     attempt);
                    }
                    if (!written)
                        campaign_reg
                            .counter("pipeline.db_write_drops")
                            .inc();
                }
            }
        }
    }
    stats.metrics.merge(campaign_reg.snapshot());

    // The legacy Table-1 counters are views of the merged snapshot:
    // one source of truth, so reports and metrics cannot disagree.
    stats.programs = static_cast<int>(
        counterOr0(stats.metrics, "pipeline.programs"));
    stats.programsWithCex = static_cast<int>(
        counterOr0(stats.metrics, "pipeline.programs_with_cex"));
    stats.experiments =
        counterOr0(stats.metrics, "pipeline.experiments");
    stats.counterexamples =
        counterOr0(stats.metrics, "pipeline.counterexamples");
    stats.inconclusive =
        counterOr0(stats.metrics, "pipeline.inconclusive");
    stats.generationFailures =
        counterOr0(stats.metrics, "pipeline.generation_failures");
    stats.faultsInjected = counterOr0(stats.metrics, "faults.injected");
    stats.retryAttempts = counterOr0(stats.metrics, "retry.attempts");
    stats.quarantined = static_cast<int>(
        counterOr0(stats.metrics, "pipeline.quarantined"));
    stats.degraded = static_cast<int>(
        counterOr0(stats.metrics, "pipeline.degraded"));
    stats.programFailures = static_cast<int>(
        counterOr0(stats.metrics, "pipeline.program_failures"));
    stats.dbWriteDrops =
        counterOr0(stats.metrics, "pipeline.db_write_drops");
    stats.ledgerMergeDrops =
        counterOr0(stats.metrics, "cover.merge_dropped");
    stats.schedulerDegraded =
        counterOr0(stats.metrics, "cover.degraded") > 0;
    stats.screened = counterOr0(stats.metrics, "triage.screened");
    stats.triageDegraded =
        counterOr0(stats.metrics, "triage.degraded");

    if (track_cover) {
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
    stats.totalGenSeconds =
        histogramSumOr0(stats.metrics, "phase.generate_seconds") +
        histogramSumOr0(stats.metrics, "phase.symbolic_exec_seconds") +
        histogramSumOr0(stats.metrics,
                        "phase.relation_synthesis_seconds") +
        histogramSumOr0(stats.metrics, "phase.smt_seconds");
    stats.totalExeSeconds =
        histogramSumOr0(stats.metrics, "phase.hw_run_seconds");

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

ProgramOutcome
runProgramTask(const PipelineConfig &cfg, const ProgramTask &task)
{
    return runOneProgramGuarded(cfg, needsSpecInstrumentation(cfg),
                                task);
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
    metrics::Registry scratch(cfg.deterministicMetricsTiming
                                  ? metrics::ClockMode::Deterministic
                                  : metrics::ClockMode::Wall);
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
    const bool track_cover = coverageTracked(cfg);
    if (track_cover && !ledger)
        ledger = &local_ledger;
    metrics::Registry campaign_reg(
        cfg.deterministicMetricsTiming
            ? metrics::ClockMode::Deterministic
            : metrics::ClockMode::Wall);
    return mergeTailImpl(cfg, slots, ledger, track_cover, campaign_reg,
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
    metrics::Registry campaign_reg(cfg.deterministicMetricsTiming
                                       ? metrics::ClockMode::Deterministic
                                       : metrics::ClockMode::Wall);

    const int early_stopped =
        runScheduleRange(cfg, ledger, campaign_reg, slots.data(), 0,
                         cfg.programs, track_cover);

    // The Uniform path folds its coverage deltas in the tail; the
    // adaptive scheduler already folded per round.
    const bool fold_cover =
        track_cover && *cfg.schedule == Schedule::Uniform;
    return mergeTailImpl(cfg, slots, ledger, track_cover, campaign_reg,
                         fold_cover, early_stopped,
                         /*export_env=*/true);
}

} // namespace scamv::core
