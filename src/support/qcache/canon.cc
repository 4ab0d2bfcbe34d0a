#include "support/qcache/canon.hh"

#include <algorithm>

#include "expr/node_table.hh"
#include "support/logging.hh"

namespace scamv::qcache {

using expr::Expr;
using expr::Kind;

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
mixKey(std::uint64_t a, std::uint64_t b)
{
    // Order-sensitive: mixKey(a, b) != mixKey(b, a) in general.
    return splitmix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) +
                           (a >> 2)));
}

namespace {

/** Hash-lane seeds: semantic key lanes, shape pass, fingerprint. */
constexpr std::uint64_t kSeedLaneHi = 0x5ca77e5700010001ULL;
constexpr std::uint64_t kSeedLaneLo = 0x5ca77e5700020002ULL;
constexpr std::uint64_t kSeedShape = 0x5ca77e5700030003ULL;
constexpr std::uint64_t kSeedFp = 0x5ca77e5700040004ULL;

bool
isVar(Expr e)
{
    return e->kind == Kind::BvVar || e->kind == Kind::BoolVar ||
           e->kind == Kind::MemVar;
}

bool
isCommutative(Kind k)
{
    switch (k) {
      case Kind::Add:
      case Kind::Mul:
      case Kind::BvAnd:
      case Kind::BvOr:
      case Kind::BvXor:
      case Kind::Eq:
      case Kind::And:
      case Kind::Or:
        return true;
      default:
        return false;
    }
}

std::uint64_t
kindTag(Expr e)
{
    return (static_cast<std::uint64_t>(e->kind) << 8) |
           static_cast<std::uint64_t>(e->sort);
}

/** @return the form's variable list of `sort` (const or not). */
template <class Form>
auto &
varsOfSort(Form &form, expr::Sort sort)
{
    return sort == expr::Sort::Bv     ? form.bvs
           : sort == expr::Sort::Bool ? form.bools
                                      : form.mems;
}

/** One node's hashes across the two walks of canonicalize(). */
struct NodeHashes {
    std::uint64_t shape = 0; ///< name-blind structural hash
    std::uint64_t fp = 0;    ///< fingerprint lane
    std::uint64_t hi = 0;    ///< semantic key lanes (once semDone)
    std::uint64_t lo = 0;
    bool semDone = false;
};

/** Per-kind alpha index of a variable, in first-encounter order. */
struct AlphaCounters {
    std::uint64_t bv = 0;
    std::uint64_t bool_ = 0;
    std::uint64_t mem = 0;

    std::uint64_t
    next(Kind k)
    {
        switch (k) {
          case Kind::BvVar: return bv++;
          case Kind::BoolVar: return bool_++;
          default: return mem++;
        }
    }
};

/**
 * The two memoized DFS walks of one formula.
 *
 * Both walks expand every node at its first encounter and visit kids
 * in a fixed order, so a variable's alpha index (its per-kind rank in
 * first-encounter order) can be assigned as the walk reaches it.
 *
 *  - The original-order walk computes the name-blind shape hash
 *    (commutative kid hashes sorted, so reordered operands agree) and
 *    the fingerprint lane, with alpha indices from this walk.
 *  - The shape-sorted walk visits a commutative node's kids stably
 *    sorted by shape and computes both semantic key lanes, with alpha
 *    indices from this walk; these are the canonical indices, and the
 *    walk appends each variable to the form's list of its sort.
 *
 * The shape-sorted walk only reads the table the first walk filled,
 * so pointers into it stay valid across its recursion.
 */
class Canonicalizer
{
  public:
    explicit Canonicalizer(CanonForm &form) : form(form)
    {
        table.begin();
    }

    void
    run(Expr formula)
    {
        form.fingerprint = original(formula).fp;
        const NodeHashes &root = sorted(formula);
        form.key.hi = root.hi;
        form.key.lo = root.lo;
    }

  private:
    NodeHashes
    original(Expr e)
    {
        if (const NodeHashes *hit = table.find(e))
            return *hit;
        NodeHashes n;
        n.shape = mixKey(kSeedShape, kindTag(e));
        n.fp = mixKey(kSeedFp, kindTag(e));
        if (e->isConst()) {
            n.shape = mixKey(n.shape, e->value);
            n.fp = mixKey(n.fp, e->value);
        } else if (isVar(e)) {
            n.fp = mixKey(n.fp, fpAlpha.next(e->kind));
        } else {
            std::uint64_t kid_shapes[3];
            const std::size_t nk = e->kids.size();
            SCAMV_ASSERT(nk <= 3, "canonicalize: node with > 3 kids");
            for (std::size_t i = 0; i < nk; ++i) {
                const NodeHashes k = original(e->kids[i]);
                kid_shapes[i] = k.shape;
                n.fp = mixKey(n.fp, k.fp);
            }
            if (isCommutative(e->kind))
                std::stable_sort(kid_shapes, kid_shapes + nk);
            for (std::size_t i = 0; i < nk; ++i)
                n.shape = mixKey(n.shape, kid_shapes[i]);
            n.shape = mixKey(n.shape, nk);
            n.fp = mixKey(n.fp, nk);
        }
        return table.insert(e, n);
    }

    const NodeHashes &
    sorted(Expr e)
    {
        NodeHashes &n = *table.find(e);
        if (n.semDone)
            return n;
        n.hi = mixKey(kSeedLaneHi, kindTag(e));
        n.lo = mixKey(kSeedLaneLo, kindTag(e));
        if (e->isConst()) {
            n.hi = mixKey(n.hi, e->value);
            n.lo = mixKey(n.lo, e->value);
        } else if (isVar(e)) {
            std::vector<Expr> &vars = varsOfSort(form, e->sort);
            n.hi = mixKey(n.hi, vars.size());
            n.lo = mixKey(n.lo, vars.size());
            vars.push_back(e);
        } else {
            const std::size_t nk = e->kids.size();
            SCAMV_ASSERT(!isCommutative(e->kind) || nk == 2,
                         "canonicalize: commutative node without two "
                         "kids");
            // Stable sort by shape: with the two kids every
            // commutative builder makes, a swap on strictly smaller.
            const bool swap = isCommutative(e->kind) &&
                              table.find(e->kids[1])->shape <
                                  table.find(e->kids[0])->shape;
            for (std::size_t i = 0; i < nk; ++i) {
                const NodeHashes &k = sorted(e->kids[swap ? nk - 1 - i : i]);
                n.hi = mixKey(n.hi, k.hi);
                n.lo = mixKey(n.lo, k.lo);
            }
            n.hi = mixKey(n.hi, nk);
            n.lo = mixKey(n.lo, nk);
        }
        n.semDone = true;
        return n;
    }

    CanonForm &form;
    AlphaCounters fpAlpha;
    /** The calling thread's table, restarted per canonicalization. */
    static thread_local expr::NodeTable<NodeHashes> table;
};

thread_local expr::NodeTable<NodeHashes> Canonicalizer::table;

/** Copy `from`'s values at the variables' slots to their indices. */
template <class T>
void
slotsToIndices(const std::vector<Expr> &vars,
               const expr::SlotValues<T> &from, expr::SlotValues<T> &to)
{
    for (std::uint32_t i = 0; i < vars.size(); ++i)
        if (const T *v = from.find(vars[i]->slot))
            to[i] = *v;
}

/** Copy `from`'s values at the variables' indices to their slots. */
template <class T>
void
indicesToSlots(const std::vector<Expr> &vars,
               const expr::SlotValues<T> &from, expr::SlotValues<T> &to)
{
    for (std::uint32_t i = 0; i < vars.size(); ++i)
        if (const T *v = from.find(i))
            to[vars[i]->slot] = *v;
}

} // namespace

CanonForm
canonicalize(Expr formula)
{
    CanonForm form;
    Canonicalizer(form).run(formula);
    return form;
}

int
canonicalIndex(const CanonForm &form, Expr v)
{
    const std::vector<Expr> &vars = varsOfSort(form, v->sort);
    const auto it = std::find(vars.begin(), vars.end(), v);
    return it == vars.end() ? -1 : static_cast<int>(it - vars.begin());
}

std::string
canonicalName(expr::Sort sort, std::uint32_t index)
{
    std::string name = sort == expr::Sort::Bv     ? "v"
                       : sort == expr::Sort::Bool ? "b"
                                                  : "m";
    name += std::to_string(index);
    return name;
}

void
extendVars(CanonForm &form, const std::vector<Expr> &vars)
{
    for (Expr v : vars)
        if (canonicalIndex(form, v) < 0)
            varsOfSort(form, v->sort).push_back(v);
}

CanonModel
toCanonical(const CanonForm &form, const expr::Assignment &a)
{
    CanonModel m;
    slotsToIndices(form.bvs, a.bvVars, m.bvVars);
    slotsToIndices(form.bools, a.boolVars, m.boolVars);
    slotsToIndices(form.mems, a.mems, m.mems);
    return m;
}

expr::Assignment
toOriginal(const CanonForm &form, const CanonModel &m)
{
    expr::Assignment a;
    indicesToSlots(form.bvs, m.bvVars, a.bvVars);
    indicesToSlots(form.bools, m.boolVars, a.boolVars);
    indicesToSlots(form.mems, m.mems, a.mems);
    return a;
}

} // namespace scamv::qcache
