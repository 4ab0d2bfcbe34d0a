#include "smt/solver.hh"

#include <functional>

#include "support/faults.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace scamv::smt {

using expr::Expr;
using expr::ExprContext;
using expr::Kind;

SmtSolver::SmtSolver(ExprContext &ctx, Expr formula)
    : ctx(ctx), blaster(sat)
{
    require(formula);
}

SmtSolver::~SmtSolver() = default;

Expr
SmtSolver::lowerReads(Expr e)
{
    auto hit = lowerCache.find(e);
    if (hit != lowerCache.end())
        return hit->second;

    Expr result;
    if (e->kids.empty()) {
        result = e;
    } else {
        std::vector<Expr> ks;
        ks.reserve(e->kids.size());
        for (Expr k : e->kids)
            ks.push_back(lowerReads(k));

        if (e->kind == Kind::Read) {
            // Expand read-over-write chains into ite cascades so that
            // every remaining Read has a MemVar base.
            Expr addr = ks[1];
            std::function<Expr(Expr)> chain = [&](Expr m) -> Expr {
                if (m->kind == Kind::Store) {
                    Expr hit_val = m->kids[2];
                    Expr rest = chain(m->kids[0]);
                    return ctx.ite(ctx.eq(m->kids[1], addr), hit_val,
                                   rest);
                }
                SCAMV_ASSERT(m->kind == Kind::MemVar,
                             "read chain must end in a memory variable");
                return ctx.read(m, addr);
            };
            result = chain(ks[0]);
        } else {
            result = expr::rebuild(ctx, e->kind, ks);
        }
    }
    lowerCache.emplace(e, result);
    return result;
}

namespace {

/**
 * @return true iff a and b are constants with different values, the
 * one case in which `ctx.eq(a, b)` folds to false without interning
 * and so makes an Ackermann axiom `a = b => ...` trivially true.
 */
bool
distinctConsts(Expr a, Expr b)
{
    return a->kind == Kind::BvConst && b->kind == Kind::BvConst &&
           a->value != b->value;
}

} // namespace

Expr
SmtSolver::lowerAndAckermannize(Expr e)
{
    Expr lowered = lowerReads(e);

    // Bottom-up replacement of read(MemVar, addr) by fresh variables.
    std::function<Expr(Expr)> ack = [&](Expr n) -> Expr {
        auto hit = readCache.find(n);
        if (hit != readCache.end())
            return hit->second;
        Expr result;
        if (n->kids.empty()) {
            result = n;
        } else {
            std::vector<Expr> ks;
            bool changed = false;
            for (Expr k : n->kids) {
                Expr nk = ack(k);
                changed |= nk != k;
                ks.push_back(nk);
            }
            Expr rebuilt = changed ? expr::rebuild(ctx, n->kind, ks) : n;
            if (rebuilt->kind == Kind::Read) {
                Expr mem = rebuilt->kids[0];
                Expr addr = rebuilt->kids[1];
                Expr fresh = ctx.bvVar(mem->name + "!rd" +
                                       std::to_string(freshCounter++));
                // Functional consistency with all previous reads of
                // the same memory, except where both addresses are
                // distinct constants and the axiom is trivially true.
                std::vector<std::size_t> &same_mem = readsByMem[mem];
                for (std::size_t i : same_mem) {
                    const ReadInfo &prev = reads[i];
                    if (distinctConsts(prev.addr, addr)) {
                        ++ackSkipped;
                        continue;
                    }
                    ++ackAxioms;
                    blaster.assertTrue(ctx.implies(
                        ctx.eq(prev.addr, addr),
                        ctx.eq(prev.fresh, fresh)));
                }
                same_mem.push_back(reads.size());
                reads.push_back({mem, addr, fresh});
                result = fresh;
            } else {
                result = rebuilt;
            }
        }
        readCache.emplace(n, result);
        return result;
    };
    return ack(lowered);
}

void
SmtSolver::flushAckCounts()
{
    if (ackAxioms == 0 && ackSkipped == 0)
        return;
    metrics::Registry &reg = metrics::current();
    if (ackAxioms != 0)
        reg.counter("smt.ack_axioms").add(ackAxioms);
    if (ackSkipped != 0)
        reg.counter("smt.ack_skipped").add(ackSkipped);
    ackAxioms = 0;
    ackSkipped = 0;
}

void
SmtSolver::require(Expr constraint)
{
    SCAMV_ASSERT(constraint->sort == expr::Sort::Bool,
                 "require: non-boolean constraint");
    for (Expr v : expr::collectVars(constraint)) {
        if (v->kind == Kind::MemVar)
            continue;
        if (!seenVarSet.count(v)) {
            seenVarSet.emplace(v, true);
            seenVars.push_back(v);
        }
    }
    blaster.assertTrue(lowerAndAckermannize(constraint));
}

Outcome
tallyQuery(Outcome outcome, double start_time)
{
    metrics::Registry &reg = metrics::current();
    reg.histogram("smt.solve_seconds").observe(reg.now() - start_time);
    reg.counter("smt.queries").inc();
    switch (outcome) {
      case Outcome::Sat: reg.counter("smt.sat").inc(); break;
      case Outcome::Unsat: reg.counter("smt.unsat").inc(); break;
      case Outcome::Unknown: reg.counter("smt.unknown").inc(); break;
    }
    return outcome;
}

namespace {

/** Tally one CDCL answer started at `t0` as its query outcome. */
Outcome
tallySat(sat::Result r, double t0)
{
    switch (r) {
      case sat::Result::Sat: return tallyQuery(Outcome::Sat, t0);
      case sat::Result::Unsat: return tallyQuery(Outcome::Unsat, t0);
      case sat::Result::Unknown: break;
    }
    return tallyQuery(Outcome::Unknown, t0);
}

} // namespace

Outcome
SmtSolver::solve(std::int64_t conflict_budget)
{
    const double t0 = metrics::current().now();
    flushAckCounts();
    // Injected solver timeout: report Unknown without searching.
    if (faults::maybeInject(faults::Site::SmtUnknown))
        return tallyQuery(Outcome::Unknown, t0);
    return tallySat(sat.solve(conflict_budget), t0);
}

Outcome
SmtSolver::solveNoInject(std::int64_t conflict_budget)
{
    const double t0 = metrics::current().now();
    flushAckCounts();
    return tallySat(sat.solve(conflict_budget), t0);
}

Outcome
SmtSolver::solveWith(Expr temporary, std::int64_t conflict_budget)
{
    SCAMV_ASSERT(temporary->sort == expr::Sort::Bool,
                 "solveWith: non-boolean constraint");
    const double t0 = metrics::current().now();
    // Injected solver timeout: report Unknown without searching.
    if (faults::maybeInject(faults::Site::SmtUnknown)) {
        flushAckCounts();
        return tallyQuery(Outcome::Unknown, t0);
    }
    const sat::Lit l = blaster.boolLit(lowerAndAckermannize(temporary));
    flushAckCounts();
    return tallySat(sat.solveAssuming({l}, conflict_budget), t0);
}

expr::Assignment
SmtSolver::model()
{
    expr::Assignment a;
    for (Expr v : seenVars) {
        if (v->kind == Kind::BvVar)
            a.setBv(v, blaster.bvModel(v));
        else if (v->kind == Kind::BoolVar)
            a.setBool(v, blaster.boolModel(v));
    }
    for (const ReadInfo &r : reads) {
        const std::uint64_t addr = addressModel(r.addr);
        const std::uint64_t val = blaster.bvModel(r.fresh);
        a.memOf(r.memVar).storeWord(addr, val);
    }
    return a;
}

std::uint64_t
SmtSolver::addressModel(Expr addr)
{
    if (addr->kids.empty())
        return blaster.bvModel(addr);
    expr::Assignment leaves;
    for (Expr v : expr::collectVars(addr)) {
        if (v->kind == Kind::BvVar)
            leaves.setBv(v, blaster.bvModel(v));
        else if (v->kind == Kind::BoolVar)
            leaves.setBool(v, blaster.boolModel(v));
    }
    return expr::evalBv(addr, leaves);
}

bool
SmtSolver::blockCurrentModel(const std::vector<Expr> &vars, int bits)
{
    SCAMV_ASSERT(bits > 0 && bits <= bv::kWidth,
                 "blockCurrentModel: bad bit count");
    std::vector<sat::Lit> clause;
    clause.reserve((vars.size() + reads.size()) *
                   static_cast<std::size_t>(bits));
    auto block_bits = [&](Expr v) {
        const auto &lits = blaster.bvBits(v);
        for (int i = 0; i < bits; ++i) {
            const sat::Lit l = lits[i];
            bool value = sat.modelValue(sat::var(l));
            if (sat::sign(l))
                value = !value;
            clause.push_back(value ? ~l : l);
        }
    };
    for (Expr v : vars) {
        SCAMV_ASSERT(v->kind == Kind::BvVar, "block on non-bv-var");
        block_bits(v);
    }
    for (const ReadInfo &r : reads)
        block_bits(r.fresh);
    return sat.addClause(clause);
}

void
SmtSolver::randomizePhases(Rng &rng)
{
    sat.randomizePhases(rng);
}

Outcome
checkSat(ExprContext &ctx, Expr formula, std::int64_t conflict_budget)
{
    SmtSolver s(ctx, formula);
    return s.solve(conflict_budget);
}

} // namespace scamv::smt
