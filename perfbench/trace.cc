#include "trace.hh"

#include <chrono>
#include <cstdio>
#include <vector>

#include "bir/transform.hh"
#include "front/front.hh"
#include "gen/templates.hh"
#include "harness/platform.hh"
#include "rel/relation.hh"
#include "smt/solver.hh"
#include "support/qcache/cached_solve.hh"
#include "sym/symexec.hh"

namespace perfbench::trace {

namespace {

struct Span {
    const char *name = "";
    double start = 0.0; ///< seconds on the steady clock
    double end = 0.0;
    int parent = -1; ///< index of the enclosing span, -1 for a root
    int prog = -1;   ///< program index (-1: campaign level)
};

bool g_on = false;
int g_prog = -1;
int g_open = -1; ///< innermost open span
std::vector<Span> g_spans;
Counts g_counts;

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

void
enable(bool on)
{
    if (on) {
        g_spans.clear();
        g_counts = {};
        g_open = -1;
    }
    g_on = on;
}

bool
enabled()
{
    return g_on;
}

void
setProgram(int prog)
{
    g_prog = prog;
}

Counts &
counts()
{
    return g_counts;
}

Scope::Scope(const char *name)
{
    if (!g_on)
        return;
    index = static_cast<int>(g_spans.size());
    g_spans.push_back({name, now(), 0.0, g_open, g_prog});
    g_open = index;
}

Scope::~Scope()
{
    if (index < 0)
        return;
    Span &s = g_spans[static_cast<std::size_t>(index)];
    s.end = now();
    g_open = s.parent;
}

std::map<std::string, Aggregate>
aggregate()
{
    std::vector<double> child(g_spans.size(), 0.0);
    for (const Span &s : g_spans)
        if (s.parent >= 0)
            child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    std::map<std::string, Aggregate> out;
    for (std::size_t i = 0; i < g_spans.size(); ++i) {
        const Span &s = g_spans[i];
        Aggregate &a = out[s.name];
        ++a.calls;
        a.totalSeconds += s.end - s.start;
        a.selfSeconds += s.end - s.start - child[i];
    }
    return out;
}

bool
writeChromeTrace(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const double t0 = g_spans.empty() ? 0.0 : g_spans.front().start;
    std::fputs("{\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < g_spans.size(); ++i) {
        const Span &s = g_spans[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"parent\":%d,"
                     "\"prog\":%d}}\n",
                     i ? "," : "", s.name, (s.start - t0) * 1e6,
                     (s.end - s.start) * 1e6, i, s.parent, s.prog);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

} // namespace perfbench::trace

// ---------------------------------------------------------------
// Link-time wrappers (see PERFBENCH_WRAPPED_SYMBOLS in CMakeLists.txt).
// Each __wrap_<mangled> has the ABI of the wrapped function: member
// functions take the object pointer as their first argument.

using namespace scamv;
using perfbench::trace::Scope;

#define PERFBENCH_WRAP(SYM, NAME, RET, PARAMS, ARGS)                   \
    extern "C" RET __real_##SYM PARAMS;                                \
    extern "C" RET __wrap_##SYM PARAMS                                 \
    {                                                                  \
        Scope span(NAME);                                              \
        return __real_##SYM ARGS;                                      \
    }

PERFBENCH_WRAP(_ZN5scamv3gen16ProgramGenerator4nextEv, "gen.next",
               bir::Program, (gen::ProgramGenerator * self), (self))

PERFBENCH_WRAP(
    _ZN5scamv3bir21instrumentSpeculationERKNS0_7ProgramERKNS0_21SpecInstrumentOptionsE,
    "bir.instrument", bir::Program,
    (const bir::Program &p, const bir::SpecInstrumentOptions &opts),
    (p, opts))

PERFBENCH_WRAP(
    _ZNK5scamv3rel19RelationSynthesizer10formulaForERKNS0_8PathPairE,
    "rel.formula", expr::Expr,
    (const rel::RelationSynthesizer *self, const rel::PathPair &pair),
    (self, pair))

PERFBENCH_WRAP(
    _ZNK5scamv3rel19RelationSynthesizer22lineCoverageConstraintERKNS0_8PathPairERNS_3RngE,
    "rel.line_coverage", std::optional<rel::LineCoverageDraw>,
    (const rel::RelationSynthesizer *self, const rel::PathPair &pair,
     Rng &rng),
    (self, pair, rng))

PERFBENCH_WRAP(
    _ZN5scamv3rel19RelationSynthesizer15trainingFormulaERNS_4expr11ExprContextERKSt6vectorINS_3sym10PathResultESaIS7_EERKS7_RKNS0_14RelationConfigE,
    "rel.training", std::optional<expr::Expr>,
    (expr::ExprContext & ctx,
     const std::vector<sym::PathResult> &training_paths,
     const sym::PathResult &tested, const rel::RelationConfig &config),
    (ctx, training_paths, tested, config))

PERFBENCH_WRAP(
    _ZN5scamv3smt9SmtSolverC1ERNS_4expr11ExprContextEPKNS2_4NodeE,
    "smt.construct", void,
    (smt::SmtSolver * self, expr::ExprContext &ctx, expr::Expr formula),
    (self, ctx, formula))

PERFBENCH_WRAP(_ZN5scamv3smt9SmtSolverD1Ev, "smt.destroy", void,
               (smt::SmtSolver * self), (self))

PERFBENCH_WRAP(_ZN5scamv3smt9SmtSolver5solveEl, "smt.solve",
               smt::Outcome,
               (smt::SmtSolver * self, std::int64_t budget),
               (self, budget))

PERFBENCH_WRAP(
    _ZN5scamv3smt9SmtSolver17blockCurrentModelERKSt6vectorIPKNS_4expr4NodeESaIS6_EEi,
    "smt.block", bool,
    (smt::SmtSolver * self, const std::vector<expr::Expr> &vars,
     int bits),
    (self, vars, bits))

PERFBENCH_WRAP(_ZN5scamv3smt9SmtSolver5modelEv, "smt.model",
               expr::Assignment, (smt::SmtSolver * self), (self))

PERFBENCH_WRAP(_ZN5scamv6qcache16CachedEnumerator4nextEl, "qcache.next",
               qcache::CachedEnumerator::Step,
               (qcache::CachedEnumerator * self, std::int64_t budget),
               (self, budget))

PERFBENCH_WRAP(
    _ZN5scamv6qcache9solveOnceERNS_4expr11ExprContextEPKNS1_4NodeElPNS0_10QueryCacheE,
    "qcache.solve_once", qcache::SolveResult,
    (expr::ExprContext & ctx, expr::Expr formula, std::int64_t budget,
     qcache::QueryCache *cache),
    (ctx, formula, budget, cache))

PERFBENCH_WRAP(
    _ZN5scamv7harness8Platform13runExperimentERKNS_3bir7ProgramERKNS0_8TestCaseERKSt8optionalINS0_12ProgramInputEE,
    "harness.run_experiment", harness::ExperimentResult,
    (harness::Platform * self, const bir::Program &program,
     const harness::TestCase &tc,
     const std::optional<harness::ProgramInput> &training),
    (self, program, tc, training))

// Wrappers that also count at the boundary.

extern "C" std::vector<sym::PathResult>
__real__ZN5scamv3sym7executeERNS_4expr11ExprContextERKNS_3bir7ProgramERKNS0_9AnnotatorERKNS0_8SymNamesERKNS0_13SymExecConfigE(
    expr::ExprContext &, const bir::Program &, const sym::Annotator &,
    const sym::SymNames &, const sym::SymExecConfig &);
extern "C" std::vector<sym::PathResult>
__wrap__ZN5scamv3sym7executeERNS_4expr11ExprContextERKNS_3bir7ProgramERKNS0_9AnnotatorERKNS0_8SymNamesERKNS0_13SymExecConfigE(
    expr::ExprContext &ctx, const bir::Program &p,
    const sym::Annotator &annotator, const sym::SymNames &names,
    const sym::SymExecConfig &config)
{
    Scope span("sym.execute");
    auto paths =
        __real__ZN5scamv3sym7executeERNS_4expr11ExprContextERKNS_3bir7ProgramERKNS0_9AnnotatorERKNS0_8SymNamesERKNS0_13SymExecConfigE(
            ctx, p, annotator, names, config);
    if (perfbench::trace::enabled())
        perfbench::trace::counts().symPaths +=
            static_cast<std::int64_t>(paths.size());
    return paths;
}

extern "C" void
__real__ZN5scamv3rel19RelationSynthesizerC1ERNS_4expr11ExprContextESt6vectorINS_3sym10PathResultESaIS7_EES9_RKNS0_14RelationConfigE(
    rel::RelationSynthesizer *, expr::ExprContext &,
    std::vector<sym::PathResult>, std::vector<sym::PathResult>,
    const rel::RelationConfig &);
extern "C" void
__wrap__ZN5scamv3rel19RelationSynthesizerC1ERNS_4expr11ExprContextESt6vectorINS_3sym10PathResultESaIS7_EES9_RKNS0_14RelationConfigE(
    rel::RelationSynthesizer *self, expr::ExprContext &ctx,
    std::vector<sym::PathResult> paths1,
    std::vector<sym::PathResult> paths2,
    const rel::RelationConfig &config)
{
    Scope span("rel.synthesize");
    __real__ZN5scamv3rel19RelationSynthesizerC1ERNS_4expr11ExprContextESt6vectorINS_3sym10PathResultESaIS7_EES9_RKNS0_14RelationConfigE(
        self, ctx, std::move(paths1), std::move(paths2), config);
    if (perfbench::trace::enabled())
        perfbench::trace::counts().relPairs +=
            static_cast<std::int64_t>(self->pairs().size());
}

extern "C" smt::Outcome
__real__ZN5scamv3smt9SmtSolver9solveWithEPKNS_4expr4NodeEl(
    smt::SmtSolver *, expr::Expr, std::int64_t);
extern "C" smt::Outcome
__wrap__ZN5scamv3smt9SmtSolver9solveWithEPKNS_4expr4NodeEl(
    smt::SmtSolver *self, expr::Expr temporary, std::int64_t budget)
{
    Scope span("smt.solve_with");
    const smt::Outcome outcome =
        __real__ZN5scamv3smt9SmtSolver9solveWithEPKNS_4expr4NodeEl(
            self, temporary, budget);
    if (perfbench::trace::enabled() && outcome == smt::Outcome::Unsat)
        ++perfbench::trace::counts().solveWithUnsat;
    return outcome;
}

extern "C" std::vector<front::CompiledProgram>
__real__ZN5scamv5front13loadCorpusDirERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS0_14CompileOptionsE(
    const std::string &, const front::CompileOptions &);
extern "C" std::vector<front::CompiledProgram>
__wrap__ZN5scamv5front13loadCorpusDirERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS0_14CompileOptionsE(
    const std::string &dir, const front::CompileOptions &opts)
{
    Scope span("front.load_corpus");
    auto kernels =
        __real__ZN5scamv5front13loadCorpusDirERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS0_14CompileOptionsE(
            dir, opts);
    if (perfbench::trace::enabled())
        perfbench::trace::counts().frontKernels +=
            static_cast<std::int64_t>(kernels.size());
    return kernels;
}
