/**
 * @file
 * Semantic canonicalization of SMT query formulas.
 *
 * The query cache must recognize when two formulas — possibly built in
 * different ExprContexts, with different variable names and different
 * variable-creation orders — pose the *same* question to the solver.
 * Within one context the hash-consed expression layer already
 * identifies commutative reorderings (builders order operands by
 * creation id), but across contexts the same relation can intern as a
 * differently-shaped DAG.  This module computes, per formula:
 *
 *  - a 128-bit **semantic key** (two independent splitmix64 Merkle
 *    lanes): variables are alpha-renamed to per-kind indices assigned
 *    by first encounter in a *shape-sorted* traversal (commutative
 *    operands stable-sorted by a name-blind structural hash), so the
 *    key is invariant under variable renaming and under commutative
 *    operand reorderings;
 *
 *  - a 64-bit **exactness fingerprint**: the same alpha-renaming idea,
 *    but with indices assigned in *original* operand order and hashed
 *    over the original order.  Two formulas with equal keys and equal
 *    fingerprints are structurally identical up to variable names —
 *    they bit-blast to the same CNF, so one's solver trajectory (and
 *    model, after index translation) is an exact replay of the other's.
 *    Equal keys with different fingerprints mark "semantic cousins"
 *    whose CDCL trajectories could diverge; the cache treats those as
 *    misses, which keeps hit-vs-miss from ever changing results.
 *
 * The returned CanonForm lists, per variable kind, the formula's
 * variable nodes in canonical-index order, so cached models are stored
 * by canonical index (a CanonModel) and replayed into any
 * alpha-equivalent formula by an index loop over those nodes' slots.
 * The canonical names `v<i>`/`b<i>`/`m<i>` (bv/bool/mem variable i)
 * exist only where something is written out: the checkpoint records
 * and the enumerator's chain salt, which hashes their text.
 *
 * The walks memoize per node in thread-local expr::NodeTables, so a
 * canonicalization allocates only the vectors it returns.
 */

#ifndef SCAMV_SUPPORT_QCACHE_CANON_HH
#define SCAMV_SUPPORT_QCACHE_CANON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "expr/eval.hh"
#include "expr/expr.hh"

namespace scamv::qcache {

/** 128-bit semantic cache key (two independent hash lanes). */
struct Key {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    bool operator==(const Key &) const = default;
};

/** Hash functor for Key (unordered_map). */
struct KeyHash {
    std::size_t
    operator()(const Key &k) const
    {
        return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ULL));
    }
};

/** splitmix64 step: the campaign-stable scrambler used repo-wide. */
std::uint64_t splitmix64(std::uint64_t x);

/** Order-sensitive combination of two words (splitmix64-based). */
std::uint64_t mixKey(std::uint64_t a, std::uint64_t b);

/** Canonical form of one formula: key, fingerprint, variables. */
struct CanonForm {
    Key key;
    std::uint64_t fingerprint = 0;
    /** Variable nodes in canonical-index order, per kind: `bvs[i]`
     *  is canonical variable v<i>, `bools[i]` b<i>, `mems[i]` m<i>. */
    std::vector<expr::Expr> bvs;
    std::vector<expr::Expr> bools;
    std::vector<expr::Expr> mems;
};

/**
 * A model in canonical indices: `bvVars[i]` is the value of the
 * form's `bvs[i]`, and likewise for bools and memories.  The cache
 * stores these, so an entry serves every alpha-equivalent formula.
 */
struct CanonModel {
    expr::SlotValues<std::uint64_t> bvVars;
    expr::SlotValues<bool> boolVars;
    expr::SlotValues<expr::ConcreteMemory> mems;
};

/** Compute the canonical form of a boolean formula. */
CanonForm canonicalize(expr::Expr formula);

/** @return the canonical index of variable `v` in `form`, or -1. */
int canonicalIndex(const CanonForm &form, expr::Expr v);

/** @return the canonical name of variable `index` of `sort`:
 *  v<index>, b<index> or m<index> for Bv, Bool and Mem. */
std::string canonicalName(expr::Sort sort, std::uint32_t index);

/**
 * Assign canonical indices to variables not reachable from the
 * canonicalized formula (e.g. blocking variables supplied by the
 * pipeline), in list order.  Variables already indexed are untouched,
 * so the extension is deterministic given a deterministic list.
 */
void extendVars(CanonForm &form, const std::vector<expr::Expr> &vars);

/** Translate an assignment into canonical indices.  Variables the
 *  form does not index are dropped. */
CanonModel toCanonical(const CanonForm &form, const expr::Assignment &a);

/** Translate a canonical model back to the form's variable nodes.
 *  Indices past the form's variables are dropped. */
expr::Assignment toOriginal(const CanonForm &form, const CanonModel &m);

} // namespace scamv::qcache

#endif // SCAMV_SUPPORT_QCACHE_CANON_HH
