#include "rel/relation.hh"

#include "support/logging.hh"

namespace scamv::rel {

using expr::Expr;
using expr::ExprContext;
using sym::Obs;
using sym::ObsTag;
using sym::PathResult;

namespace {

/**
 * Structural compatibility of two observation lists: equal length and
 * no pair of constants that differ.  @return false if no states can
 * make the lists equal.
 */
bool
canBeEqual(const std::vector<Obs> &a, const std::vector<Obs> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const Expr x = a[i].value;
        const Expr y = b[i].value;
        if (x->isConst() && y->isConst() && x->value != y->value)
            return false;
    }
    return true;
}

/** Conjunction of elementwise equalities. */
Expr
listsEqual(ExprContext &ctx, const std::vector<Obs> &a,
           const std::vector<Obs> &b)
{
    SCAMV_ASSERT(a.size() == b.size(), "listsEqual: length mismatch");
    Expr acc = ctx.tru();
    for (std::size_t i = 0; i < a.size(); ++i)
        acc = ctx.land(acc, ctx.eq(a[i].value, b[i].value));
    return acc;
}

/** Disjunction of elementwise disequalities (lists differ somewhere). */
Expr
listsDiffer(ExprContext &ctx, const std::vector<Obs> &a,
            const std::vector<Obs> &b)
{
    if (a.size() != b.size())
        return ctx.tru();
    Expr acc = ctx.fls();
    for (std::size_t i = 0; i < a.size(); ++i)
        acc = ctx.lor(acc, ctx.neq(a[i].value, b[i].value));
    return acc;
}

} // namespace

RelationSynthesizer::RelationSynthesizer(ExprContext &ctx,
                                         std::vector<PathResult> paths1,
                                         std::vector<PathResult> paths2,
                                         const RelationConfig &config)
    : ctx(ctx), p1(std::move(paths1)), p2(std::move(paths2)), cfg(config)
{
    for (int i = 0; i < static_cast<int>(p1.size()); ++i) {
        for (int j = 0; j < static_cast<int>(p2.size()); ++j) {
            const auto base1 = p1[i].project(ObsTag::Base);
            const auto base2 = p2[j].project(ObsTag::Base);
            if (!canBeEqual(base1, base2))
                continue;
            PathPair pair;
            pair.idx1 = i;
            pair.idx2 = j;
            if (cfg.refine) {
                const auto ref1 = p1[i].project(ObsTag::RefinedOnly);
                const auto ref2 = p2[j].project(ObsTag::RefinedOnly);
                if (ref1.size() != ref2.size()) {
                    pair.refinedTriviallyDiffer = true;
                } else if (ref1.empty()) {
                    // No refined observations at all: the refinement
                    // constraint (lists differ) is unsatisfiable —
                    // this pair cannot yield "interesting" states.
                    continue;
                }
            }
            compatible.push_back(pair);
        }
    }
}

Expr
RelationSynthesizer::regionConstraints(const PathResult &p) const
{
    Expr acc = ctx.tru();
    if (cfg.constrainArchAddrs)
        for (Expr addr : p.memAddrs)
            acc = ctx.land(acc, cfg.region.containsExpr(ctx, addr));
    if (cfg.constrainTransientAddrs)
        for (Expr addr : p.transientLoadAddrs)
            acc = ctx.land(acc, cfg.region.containsExpr(ctx, addr));
    return acc;
}

Expr
RelationSynthesizer::formulaFor(const PathPair &pair) const
{
    const PathResult &a = p1[pair.idx1];
    const PathResult &b = p2[pair.idx2];

    Expr f = ctx.land(a.cond, b.cond);
    f = ctx.land(f, listsEqual(ctx, a.project(ObsTag::Base),
                               b.project(ObsTag::Base)));
    if (cfg.refine && !pair.refinedTriviallyDiffer)
        f = ctx.land(f, listsDiffer(ctx, a.project(ObsTag::RefinedOnly),
                                    b.project(ObsTag::RefinedOnly)));
    f = ctx.land(f, regionConstraints(a));
    f = ctx.land(f, regionConstraints(b));
    // Corpus security contract: pin declared-low inputs equal between
    // the two states, so a satisfying assignment can only blame the
    // secrets for the observation difference.
    for (bir::Reg r : cfg.lowRegs) {
        std::string name = "x";
        name += std::to_string(r);
        f = ctx.land(f, ctx.eq(ctx.bvVar(name + cfg.suffix1),
                               ctx.bvVar(name + cfg.suffix2)));
    }
    if (!cfg.lowMemAddrs.empty()) {
        Expr mem1 = ctx.memVar("mem" + cfg.suffix1);
        Expr mem2 = ctx.memVar("mem" + cfg.suffix2);
        for (std::uint64_t addr : cfg.lowMemAddrs) {
            Expr a_e = ctx.bv(addr);
            f = ctx.land(f, ctx.eq(ctx.read(mem1, a_e),
                                   ctx.read(mem2, a_e)));
        }
    }
    return f;
}

std::optional<LineCoverageDraw>
RelationSynthesizer::lineCoverageConstraint(const PathPair &pair,
                                            Rng &rng) const
{
    const PathResult &a = p1[pair.idx1];
    const PathResult &b = p2[pair.idx2];
    if (a.memAddrs.empty() && b.memAddrs.empty())
        return std::nullopt;
    // Draw order (s1 first, each state only when it accesses memory)
    // is load-bearing: it keeps the rng sequence — and hence every
    // pre-existing campaign — byte-identical.
    int cls1 = -1, cls2 = -1;
    if (!a.memAddrs.empty())
        cls1 = static_cast<int>(rng.below(cfg.geom.numSets));
    if (!b.memAddrs.empty())
        cls2 = static_cast<int>(rng.below(cfg.geom.numSets));
    return lineCoverageConstraintFor(pair, cls1, cls2);
}

std::optional<LineCoverageDraw>
RelationSynthesizer::lineCoverageConstraintFor(const PathPair &pair,
                                               int cls1, int cls2) const
{
    const PathResult &a = p1[pair.idx1];
    const PathResult &b = p2[pair.idx2];
    if (a.memAddrs.empty() && b.memAddrs.empty())
        return std::nullopt;
    LineCoverageDraw draw;
    draw.constraint = ctx.tru();
    if (!a.memAddrs.empty() && cls1 >= 0) {
        draw.class1 = cls1;
        draw.constraint = ctx.land(
            draw.constraint,
            ctx.eq(cfg.geom.setExpr(ctx, a.memAddrs[0]),
                   ctx.bv(static_cast<std::uint64_t>(cls1))));
    }
    if (!b.memAddrs.empty() && cls2 >= 0) {
        draw.class2 = cls2;
        draw.constraint = ctx.land(
            draw.constraint,
            ctx.eq(cfg.geom.setExpr(ctx, b.memAddrs[0]),
                   ctx.bv(static_cast<std::uint64_t>(cls2))));
    }
    return draw;
}

std::optional<Expr>
RelationSynthesizer::trainingFormula(
    ExprContext &ctx, const std::vector<PathResult> &training_paths,
    const PathResult &tested_path, const RelationConfig &config)
{
    if (tested_path.decisions.empty())
        return std::nullopt;
    const bool tested_first = tested_path.decisions.front();
    for (const PathResult &p : training_paths) {
        if (p.decisions.empty() || p.decisions.front() == tested_first)
            continue;
        Expr f = p.cond;
        if (config.constrainArchAddrs)
            for (Expr addr : p.memAddrs)
                f = ctx.land(f, config.region.containsExpr(ctx, addr));
        return f;
    }
    return std::nullopt;
}

Expr
fullEquivalenceRelation(ExprContext &ctx, const std::vector<PathResult> &p1,
                        const std::vector<PathResult> &p2)
{
    Expr acc = ctx.tru();
    for (const PathResult &a : p1) {
        for (const PathResult &b : p2) {
            const auto base1 = a.project(ObsTag::Base);
            const auto base2 = b.project(ObsTag::Base);
            Expr both = ctx.land(a.cond, b.cond);
            Expr eq = base1.size() == base2.size()
                          ? listsEqual(ctx, base1, base2)
                          : ctx.fls();
            acc = ctx.land(acc, ctx.implies(both, eq));
        }
    }
    return acc;
}

} // namespace scamv::rel
