#include "support/qcache/canon.hh"

#include <algorithm>

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

/** Name-blind structural hash (memoized per node). */
std::uint64_t
shapeOf(Expr e, std::unordered_map<Expr, std::uint64_t> &memo)
{
    if (auto it = memo.find(e); it != memo.end())
        return it->second;
    std::uint64_t h = mixKey(kSeedShape, kindTag(e));
    if (e->isConst()) {
        h = mixKey(h, e->value);
    } else if (!isVar(e)) {
        std::vector<std::uint64_t> kid_hashes;
        kid_hashes.reserve(e->kids.size());
        for (Expr kid : e->kids)
            kid_hashes.push_back(shapeOf(kid, memo));
        if (isCommutative(e->kind))
            std::stable_sort(kid_hashes.begin(), kid_hashes.end());
        for (std::uint64_t kh : kid_hashes)
            h = mixKey(h, kh);
        h = mixKey(h, kid_hashes.size());
    }
    memo.emplace(e, h);
    return h;
}

/** Per-kind alpha index of a variable (see assignAlpha). */
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
 * Walk the DAG once (each node visited at first encounter) in the
 * order defined by `kids_of`, assigning per-kind indices to variable
 * leaves in encounter order.
 */
template <class KidsOf>
void
assignAlpha(Expr root, KidsOf &&kids_of,
            std::unordered_map<Expr, std::uint64_t> &index)
{
    AlphaCounters counters;
    std::unordered_map<Expr, bool> visited;
    auto dfs = [&](auto &&self, Expr e) -> void {
        if (visited.count(e))
            return;
        visited.emplace(e, true);
        if (isVar(e)) {
            index.emplace(e, counters.next(e->kind));
            return;
        }
        for (Expr kid : kids_of(e))
            self(self, kid);
    };
    dfs(dfs, root);
}

/**
 * Merkle hash of the DAG under `kids_of` ordering, with variables
 * contributing their alpha index instead of their name.
 */
template <class KidsOf>
std::uint64_t
merkle(Expr root, std::uint64_t seed, KidsOf &&kids_of,
       const std::unordered_map<Expr, std::uint64_t> &index)
{
    std::unordered_map<Expr, std::uint64_t> memo;
    auto walk = [&](auto &&self, Expr e) -> std::uint64_t {
        if (auto it = memo.find(e); it != memo.end())
            return it->second;
        std::uint64_t h = mixKey(seed, kindTag(e));
        if (e->isConst()) {
            h = mixKey(h, e->value);
        } else if (isVar(e)) {
            h = mixKey(h, index.at(e));
        } else {
            for (Expr kid : kids_of(e))
                h = mixKey(h, self(self, kid));
            h = mixKey(h, e->kids.size());
        }
        memo.emplace(e, h);
        return h;
    };
    return walk(walk, root);
}

std::string
canonicalName(Kind k, std::uint64_t index)
{
    const char *prefix = k == Kind::BvVar   ? "v"
                         : k == Kind::BoolVar ? "b"
                                              : "m";
    return prefix + std::to_string(index);
}

} // namespace

CanonForm
canonicalize(Expr formula)
{
    CanonForm form;

    std::unordered_map<Expr, std::uint64_t> shape_memo;
    shapeOf(formula, shape_memo);

    // Shape-sorted operand order: commutative operands stable-sorted
    // by their name-blind shape hash (ties keep original order), so
    // genuinely reordered formulas traverse isomorphically.
    std::unordered_map<Expr, std::vector<Expr>> sorted_memo;
    auto sorted_kids = [&](Expr e) -> const std::vector<Expr> & {
        if (!isCommutative(e->kind))
            return e->kids;
        auto it = sorted_memo.find(e);
        if (it == sorted_memo.end()) {
            std::vector<Expr> kids = e->kids;
            std::stable_sort(kids.begin(), kids.end(),
                             [&](Expr a, Expr b) {
                                 return shape_memo.at(a) <
                                        shape_memo.at(b);
                             });
            it = sorted_memo.emplace(e, std::move(kids)).first;
        }
        return it->second;
    };
    auto original_kids = [](Expr e) -> const std::vector<Expr> & {
        return e->kids;
    };

    // Semantic key: alpha indices from the shape-sorted traversal,
    // hashed in shape-sorted order through two independent lanes.
    std::unordered_map<Expr, std::uint64_t> sem_index;
    assignAlpha(formula, sorted_kids, sem_index);
    form.key.hi = merkle(formula, kSeedLaneHi, sorted_kids, sem_index);
    form.key.lo = merkle(formula, kSeedLaneLo, sorted_kids, sem_index);

    // Exactness fingerprint: alpha indices from the original-order
    // traversal, hashed in original operand order.
    std::unordered_map<Expr, std::uint64_t> fp_index;
    assignAlpha(formula, original_kids, fp_index);
    form.fingerprint =
        merkle(formula, kSeedFp, original_kids, fp_index);

    // Name maps follow the semantic (shape-sorted) assignment so that
    // canonical model slots correspond across alpha-equivalent
    // formulas.
    for (const auto &[node, index] : sem_index) {
        const std::string canon = canonicalName(node->kind, index);
        form.toCanon.emplace(node->name, canon);
        form.toOrig.emplace(canon, node->name);
        switch (node->kind) {
          case Kind::BvVar:
            form.nextBv = std::max(form.nextBv,
                                   static_cast<int>(index) + 1);
            break;
          case Kind::BoolVar:
            form.nextBool = std::max(form.nextBool,
                                     static_cast<int>(index) + 1);
            break;
          default:
            form.nextMem = std::max(form.nextMem,
                                    static_cast<int>(index) + 1);
            break;
        }
    }
    return form;
}

void
extendVars(CanonForm &form, const std::vector<Expr> &vars)
{
    for (Expr v : vars) {
        if (form.toCanon.count(v->name))
            continue;
        int index = 0;
        switch (v->kind) {
          case Kind::BvVar: index = form.nextBv++; break;
          case Kind::BoolVar: index = form.nextBool++; break;
          default: index = form.nextMem++; break;
        }
        const std::string canon =
            canonicalName(v->kind, static_cast<std::uint64_t>(index));
        form.toCanon.emplace(v->name, canon);
        form.toOrig.emplace(canon, v->name);
    }
}

namespace {

expr::Assignment
translate(const std::unordered_map<std::string, std::string> &names,
          const expr::Assignment &a)
{
    auto rename = [&](const std::string &name) -> const std::string & {
        auto it = names.find(name);
        return it == names.end() ? name : it->second;
    };
    expr::Assignment out;
    for (const auto &[name, v] : a.bvVars)
        out.bvVars[rename(name)] = v;
    for (const auto &[name, v] : a.boolVars)
        out.boolVars[rename(name)] = v;
    for (const auto &[name, mem] : a.mems)
        out.mems[rename(name)] = mem;
    return out;
}

} // namespace

expr::Assignment
toCanonical(const CanonForm &form, const expr::Assignment &a)
{
    return translate(form.toCanon, a);
}

expr::Assignment
toOriginal(const CanonForm &form, const expr::Assignment &a)
{
    return translate(form.toOrig, a);
}

} // namespace scamv::qcache
