#include "smt/sampler.hh"

#include "support/faults.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace scamv::smt {

using expr::Assignment;
using expr::Expr;
using expr::Kind;

namespace {

/** Flatten an And-tree into conjuncts. */
void
flattenAnd(Expr e, std::vector<Expr> &out)
{
    if (e->kind == Kind::And) {
        flattenAnd(e->kids[0], out);
        flattenAnd(e->kids[1], out);
    } else {
        out.push_back(e);
    }
}

} // namespace

RepairSampler::RepairSampler(expr::ExprContext &ctx, Expr formula,
                             Rng &rng, const SamplerConfig &config)
    : ctx(ctx), formula(formula), rng(rng), config(config)
{
    SCAMV_ASSERT(formula->sort == expr::Sort::Bool,
                 "sampler: non-boolean formula");
    flattenAnd(formula, conjuncts);
    for (Expr v : expr::collectVars(formula))
        if (v->kind == Kind::BvVar)
            bvVars.push_back(v);
}

std::uint64_t
RepairSampler::randomValue()
{
    if (rng.chance(config.regionBias)) {
        const std::uint64_t span =
            (config.regionLimit - config.regionBase) / 8;
        return config.regionBase + rng.below(span) * 8;
    }
    return rng.next();
}

void
RepairSampler::initAssignment(Assignment &a)
{
    a.bvVars.clear();
    a.boolVars.clear();
    a.mems.clear();
    for (Expr v : bvVars)
        a.setBv(v, randomValue());
}

void
RepairSampler::seedMemoryCells(Assignment &a)
{
    // Two passes cover reads whose address depends on another read.
    for (int pass = 0; pass < 2; ++pass) {
        for (Expr c : conjuncts) {
            for (Expr r : expr::collectReads(c)) {
                Expr mem = r->kids[0];
                while (mem->kind == Kind::Store)
                    mem = mem->kids[0];
                const std::uint64_t addr = expr::evalBv(r->kids[1], a);
                expr::ConcreteMemory &m = a.memOf(mem);
                if (!m.contains(addr))
                    m.storeWord(addr, randomValue());
            }
        }
    }
}

bool
RepairSampler::forceValue(Expr term, std::uint64_t value, Assignment &a)
{
    switch (term->kind) {
      case Kind::BvVar:
        a.setBv(term, value);
        return true;
      case Kind::Add: {
        // Solve for whichever side is forcible.
        const std::uint64_t rhs = expr::evalBv(term->kids[1], a);
        if (forceValue(term->kids[0], value - rhs, a))
            return true;
        const std::uint64_t lhs = expr::evalBv(term->kids[0], a);
        return forceValue(term->kids[1], value - lhs, a);
      }
      case Kind::Sub: {
        const std::uint64_t rhs = expr::evalBv(term->kids[1], a);
        if (forceValue(term->kids[0], value + rhs, a))
            return true;
        const std::uint64_t lhs = expr::evalBv(term->kids[0], a);
        return forceValue(term->kids[1], lhs - value, a);
      }
      case Kind::Read: {
        Expr mem = term->kids[0];
        while (mem->kind == Kind::Store)
            mem = mem->kids[0];
        const std::uint64_t addr = expr::evalBv(term->kids[1], a);
        a.memOf(mem).storeWord(addr, value);
        return true;
      }
      case Kind::Ite: {
        // Force the branch that is currently selected.
        const bool sel = expr::evalBool(term->kids[0], a);
        return forceValue(term->kids[sel ? 1 : 2], value, a);
      }
      case Kind::Lshr: {
        // (t >> c) == v: keep t's low bits, replace the high part.
        if (term->kids[1]->kind != Kind::BvConst)
            return false;
        const std::uint64_t c = term->kids[1]->value & 63;
        if (c == 0)
            return forceValue(term->kids[0], value, a);
        if (value >> (64 - c)) // value does not fit
            return false;
        const std::uint64_t low =
            expr::evalBv(term->kids[0], a) & ((1ULL << c) - 1);
        return forceValue(term->kids[0], (value << c) | low, a);
      }
      case Kind::BvAnd: {
        // (t & m) == v for constant m: patch only the masked bits.
        if (term->kids[1]->kind != Kind::BvConst)
            return false;
        const std::uint64_t m = term->kids[1]->value;
        if (value & ~m)
            return false;
        const std::uint64_t rest = expr::evalBv(term->kids[0], a) & ~m;
        return forceValue(term->kids[0], rest | value, a);
      }
      default:
        return false;
    }
}

void
RepairSampler::mutateSomething(Expr e, Assignment &a)
{
    std::vector<Expr> vars;
    for (Expr v : expr::collectVars(e))
        if (v->kind == Kind::BvVar)
            vars.push_back(v);
    std::vector<Expr> cells = expr::collectReads(e);

    const bool pick_cell =
        !cells.empty() && (vars.empty() || rng.chance(0.4));
    if (pick_cell) {
        Expr r = rng.pick(cells);
        forceValue(r, randomValue(), a);
    } else if (!vars.empty()) {
        Expr v = rng.pick(vars);
        switch (rng.below(3)) {
          case 0:
            a.setBv(v, randomValue());
            break;
          case 1:
            a.bvVars[v->slot] ^= 1ULL << rng.below(16);
            break;
          default:
            // Copy another variable's value (creates equalities).
            a.setBv(v, a.bv(rng.pick(vars)));
            break;
        }
    }
}

bool
RepairSampler::trySatisfy(Expr e, bool want, Assignment &a, int depth)
{
    if (depth > 12) {
        mutateSomething(e, a);
        return false;
    }
    switch (e->kind) {
      case Kind::BoolConst:
        return (e->value != 0) == want;
      case Kind::BoolVar:
        a.setBool(e, want);
        return true;
      case Kind::Not:
        return trySatisfy(e->kids[0], !want, a, depth + 1);
      case Kind::And: {
        if (want) {
            bool ok = true;
            for (Expr k : e->kids)
                if (!expr::evalBool(k, a))
                    ok = trySatisfy(k, true, a, depth + 1) && ok;
            return ok;
        }
        return trySatisfy(e->kids[rng.below(2)], false, a, depth + 1);
      }
      case Kind::Or: {
        if (want)
            return trySatisfy(e->kids[rng.below(2)], true, a,
                              depth + 1);
        bool ok = true;
        for (Expr k : e->kids)
            if (expr::evalBool(k, a))
                ok = trySatisfy(k, false, a, depth + 1) && ok;
        return ok;
      }
      case Kind::Implies:
        // ctx.implies builds Or(Not a, b); kept for completeness.
        if (want)
            return rng.chance(0.5)
                       ? trySatisfy(e->kids[0], false, a, depth + 1)
                       : trySatisfy(e->kids[1], true, a, depth + 1);
        return trySatisfy(e->kids[0], true, a, depth + 1) &&
               trySatisfy(e->kids[1], false, a, depth + 1);
      case Kind::Eq: {
        if (e->kids[0]->sort != expr::Sort::Bv) {
            mutateSomething(e, a);
            return false;
        }
        if (want) {
            // Make both sides equal: force one side to the other's
            // current value.
            const bool left_first = rng.chance(0.5);
            Expr dst = e->kids[left_first ? 0 : 1];
            Expr src = e->kids[left_first ? 1 : 0];
            const std::uint64_t v = expr::evalBv(src, a);
            if (forceValue(dst, v, a))
                return true;
            return forceValue(src, expr::evalBv(dst, a), a);
        }
        // Make them differ: randomize a forcible side.
        Expr dst = e->kids[rng.below(2)];
        std::uint64_t v = randomValue();
        if (v == expr::evalBv(dst == e->kids[0] ? e->kids[1]
                                                : e->kids[0], a))
            v ^= 0x40; // nudge into a different cache line
        if (forceValue(dst, v, a))
            return true;
        mutateSomething(e, a);
        return false;
      }
      case Kind::Ult:
      case Kind::Ule:
      case Kind::Slt:
      case Kind::Sle: {
        // Adjust one side.  Use unsigned reasoning; the formulas in
        // this pipeline compare addresses and small indices.
        Expr lhs = e->kids[0];
        Expr rhs = e->kids[1];
        const std::uint64_t rv = expr::evalBv(rhs, a);
        const std::uint64_t lv = expr::evalBv(lhs, a);
        const bool strict = e->kind == Kind::Ult || e->kind == Kind::Slt;
        if (want) {
            // lhs (<|<=) rhs
            if (rv > 0 || !strict) {
                const std::uint64_t hi = strict ? rv - 1 : rv;
                if (forceValue(lhs, rng.range(0, hi), a))
                    return true;
            }
            if (lv < UINT64_MAX - 257 &&
                forceValue(rhs, lv + (strict ? 1 + rng.below(256)
                                             : rng.below(256)), a))
                return true;
        } else {
            // lhs (>=|>) rhs
            if (rv < UINT64_MAX - 257 &&
                forceValue(lhs, rv + (strict ? rng.below(256)
                                             : 1 + rng.below(256)), a))
                return true;
            if ((lv > 0 || strict) &&
                forceValue(rhs, rng.range(0, strict ? lv : lv - 1), a))
                return true;
        }
        mutateSomething(e, a);
        return false;
      }
      default:
        mutateSomething(e, a);
        return false;
    }
}

std::optional<Assignment>
RepairSampler::sample()
{
    metrics::Registry &reg = metrics::current();
    reg.counter("smt.sampler.calls").inc();
    const double t0 = reg.now();
    // Injected budget exhaustion: give up immediately, exactly as a
    // sampler that burned through its restarts would.
    if (faults::maybeInject(faults::Site::SamplerExhaust)) {
        reg.counter("smt.sampler.failures").inc();
        reg.histogram("smt.sampler.seconds").observe(reg.now() - t0);
        return std::nullopt;
    }
    Assignment a;
    for (int restart = 0; restart < config.maxRestarts; ++restart) {
        if (restart > 0)
            reg.counter("smt.sampler.restarts").inc();
        initAssignment(a);
        seedMemoryCells(a);
        for (int iter = 0; iter < config.maxIters; ++iter) {
            seedMemoryCells(a);
            std::vector<Expr> violated;
            for (Expr c : conjuncts)
                if (!expr::evalBool(c, a))
                    violated.push_back(c);
            if (violated.empty()) {
                if (expr::evalBool(formula, a)) {
                    reg.counter("smt.sampler.models").inc();
                    reg.histogram("smt.sampler.seconds")
                        .observe(reg.now() - t0);
                    return a;
                }
                SCAMV_PANIC("sampler: conjunct/formula disagreement");
            }
            Expr target = rng.pick(violated);
            trySatisfy(target, true, a, 0);
        }
    }
    // Budget exhausted: the caller falls back to the CDCL solver.
    reg.counter("smt.sampler.failures").inc();
    reg.histogram("smt.sampler.seconds").observe(reg.now() - t0);
    return std::nullopt;
}

} // namespace scamv::smt
