#include "expr/expr.hh"

#include <functional>
#include <sstream>

#include "support/logging.hh"

namespace scamv::expr {

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::BvConst: return "const";
      case Kind::BvVar: return "var";
      case Kind::BoolConst: return "bconst";
      case Kind::BoolVar: return "bvar";
      case Kind::MemVar: return "mem";
      case Kind::Add: return "add";
      case Kind::Sub: return "sub";
      case Kind::Mul: return "mul";
      case Kind::BvAnd: return "bvand";
      case Kind::BvOr: return "bvor";
      case Kind::BvXor: return "bvxor";
      case Kind::BvNot: return "bvnot";
      case Kind::Neg: return "neg";
      case Kind::Shl: return "shl";
      case Kind::Lshr: return "lshr";
      case Kind::Ashr: return "ashr";
      case Kind::Ite: return "ite";
      case Kind::Read: return "read";
      case Kind::Store: return "store";
      case Kind::Eq: return "=";
      case Kind::Ult: return "ult";
      case Kind::Ule: return "ule";
      case Kind::Slt: return "slt";
      case Kind::Sle: return "sle";
      case Kind::And: return "and";
      case Kind::Or: return "or";
      case Kind::Not: return "not";
      case Kind::Implies: return "=>";
    }
    return "?";
}

std::size_t
ExprContext::NodeHash::operator()(const Node *n) const
{
    std::size_t h = std::hash<int>()(static_cast<int>(n->kind));
    auto mix = [&h](std::size_t v) {
        h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    mix(std::hash<std::uint64_t>()(n->value));
    mix(std::hash<std::string>()(n->name));
    for (const Node *k : n->kids)
        mix(std::hash<const void *>()(k));
    return h;
}

bool
ExprContext::NodeEq::operator()(const Node *a, const Node *b) const
{
    return a->kind == b->kind && a->value == b->value &&
           a->name == b->name && a->kids == b->kids;
}

ExprContext::ExprContext()
{
    cachedTrue = intern(Kind::BoolConst, Sort::Bool, 1, "", {});
    cachedFalse = intern(Kind::BoolConst, Sort::Bool, 0, "", {});
    cachedZero = intern(Kind::BvConst, Sort::Bv, 0, "", {});
}

Expr
ExprContext::intern(Kind kind, Sort sort, std::uint64_t value,
                    std::string name, std::vector<Expr> kids)
{
    auto node = std::unique_ptr<Node>(new Node());
    node->kind = kind;
    node->sort = sort;
    node->value = value;
    node->name = std::move(name);
    node->kids = std::move(kids);
    auto it = interned.find(node.get());
    if (it != interned.end())
        return *it;
    node->id = nodes.size();
    if (kind == Kind::BvVar || kind == Kind::BoolVar ||
        kind == Kind::MemVar)
        node->slot = slotCounts[static_cast<std::size_t>(sort)]++;
    Expr result = node.get();
    nodes.push_back(std::move(node));
    interned.insert(result);
    return result;
}

Expr
ExprContext::bv(std::uint64_t v)
{
    if (v == 0)
        return cachedZero;
    return intern(Kind::BvConst, Sort::Bv, v, "", {});
}

Expr
ExprContext::boolConst(bool v)
{
    return v ? cachedTrue : cachedFalse;
}

Expr
ExprContext::bvVar(const std::string &name)
{
    return intern(Kind::BvVar, Sort::Bv, 0, name, {});
}

Expr
ExprContext::boolVar(const std::string &name)
{
    return intern(Kind::BoolVar, Sort::Bool, 0, name, {});
}

Expr
ExprContext::memVar(const std::string &name)
{
    return intern(Kind::MemVar, Sort::Mem, 0, name, {});
}

Expr
ExprContext::findVar(Kind kind, const std::string &name) const
{
    SCAMV_ASSERT(kind == Kind::BvVar || kind == Kind::BoolVar ||
                     kind == Kind::MemVar,
                 "findVar: not a variable kind");
    Node probe;
    probe.kind = kind;
    probe.value = 0;
    probe.name = name;
    auto it = interned.find(&probe);
    return it == interned.end() ? nullptr : *it;
}

namespace {

bool
bothConst(Expr a, Expr b)
{
    return a->kind == Kind::BvConst && b->kind == Kind::BvConst;
}

} // namespace

Expr
ExprContext::add(Expr a, Expr b)
{
    if (bothConst(a, b))
        return bv(a->value + b->value);
    if (a->kind == Kind::BvConst && a->value == 0)
        return b;
    if (b->kind == Kind::BvConst && b->value == 0)
        return a;
    // Canonicalize constant to the right for interning stability.
    if (a->kind == Kind::BvConst)
        std::swap(a, b);
    return intern(Kind::Add, Sort::Bv, 0, "", {a, b});
}

Expr
ExprContext::sub(Expr a, Expr b)
{
    if (bothConst(a, b))
        return bv(a->value - b->value);
    if (b->kind == Kind::BvConst && b->value == 0)
        return a;
    if (a == b)
        return zero();
    return intern(Kind::Sub, Sort::Bv, 0, "", {a, b});
}

Expr
ExprContext::mul(Expr a, Expr b)
{
    if (bothConst(a, b))
        return bv(a->value * b->value);
    if (a->kind == Kind::BvConst)
        std::swap(a, b);
    if (b->kind == Kind::BvConst) {
        if (b->value == 0)
            return zero();
        if (b->value == 1)
            return a;
    }
    return intern(Kind::Mul, Sort::Bv, 0, "", {a, b});
}

Expr
ExprContext::bvAnd(Expr a, Expr b)
{
    if (bothConst(a, b))
        return bv(a->value & b->value);
    if (a->kind == Kind::BvConst)
        std::swap(a, b);
    if (b->kind == Kind::BvConst) {
        if (b->value == 0)
            return zero();
        if (b->value == UINT64_MAX)
            return a;
    }
    if (a == b)
        return a;
    return intern(Kind::BvAnd, Sort::Bv, 0, "", {a, b});
}

Expr
ExprContext::bvOr(Expr a, Expr b)
{
    if (bothConst(a, b))
        return bv(a->value | b->value);
    if (a->kind == Kind::BvConst)
        std::swap(a, b);
    if (b->kind == Kind::BvConst) {
        if (b->value == 0)
            return a;
        if (b->value == UINT64_MAX)
            return bv(UINT64_MAX);
    }
    if (a == b)
        return a;
    return intern(Kind::BvOr, Sort::Bv, 0, "", {a, b});
}

Expr
ExprContext::bvXor(Expr a, Expr b)
{
    if (bothConst(a, b))
        return bv(a->value ^ b->value);
    if (a->kind == Kind::BvConst)
        std::swap(a, b);
    if (b->kind == Kind::BvConst && b->value == 0)
        return a;
    if (a == b)
        return zero();
    return intern(Kind::BvXor, Sort::Bv, 0, "", {a, b});
}

Expr
ExprContext::bvNot(Expr a)
{
    if (a->kind == Kind::BvConst)
        return bv(~a->value);
    if (a->kind == Kind::BvNot)
        return a->kids[0];
    return intern(Kind::BvNot, Sort::Bv, 0, "", {a});
}

Expr
ExprContext::neg(Expr a)
{
    if (a->kind == Kind::BvConst)
        return bv(~a->value + 1);
    if (a->kind == Kind::Neg)
        return a->kids[0];
    return intern(Kind::Neg, Sort::Bv, 0, "", {a});
}

Expr
ExprContext::shl(Expr a, Expr b)
{
    if (bothConst(a, b))
        return bv(a->value << (b->value & 63));
    if (b->kind == Kind::BvConst && (b->value & 63) == 0)
        return a;
    return intern(Kind::Shl, Sort::Bv, 0, "", {a, b});
}

Expr
ExprContext::lshr(Expr a, Expr b)
{
    if (bothConst(a, b))
        return bv(a->value >> (b->value & 63));
    if (b->kind == Kind::BvConst && (b->value & 63) == 0)
        return a;
    return intern(Kind::Lshr, Sort::Bv, 0, "", {a, b});
}

Expr
ExprContext::ashr(Expr a, Expr b)
{
    if (bothConst(a, b)) {
        const auto sa = static_cast<std::int64_t>(a->value);
        return bv(static_cast<std::uint64_t>(sa >> (b->value & 63)));
    }
    if (b->kind == Kind::BvConst && (b->value & 63) == 0)
        return a;
    return intern(Kind::Ashr, Sort::Bv, 0, "", {a, b});
}

Expr
ExprContext::ite(Expr cond, Expr then_e, Expr else_e)
{
    SCAMV_ASSERT(cond->sort == Sort::Bool, "ite condition must be Bool");
    if (cond->kind == Kind::BoolConst)
        return cond->value ? then_e : else_e;
    if (then_e == else_e)
        return then_e;
    return intern(Kind::Ite, Sort::Bv, 0, "", {cond, then_e, else_e});
}

Expr
ExprContext::read(Expr mem, Expr addr)
{
    SCAMV_ASSERT(mem->sort == Sort::Mem, "read from non-memory");
    // Read-over-write: walk the store chain while addresses are
    // syntactically decidable.
    Expr m = mem;
    while (m->kind == Kind::Store) {
        Expr waddr = m->kids[1];
        if (waddr == addr)
            return m->kids[2];
        if (bothConst(waddr, addr) && waddr->value != addr->value) {
            m = m->kids[0];
            continue;
        }
        break; // cannot decide aliasing syntactically
    }
    return intern(Kind::Read, Sort::Bv, 0, "", {m, addr});
}

Expr
ExprContext::store(Expr mem, Expr addr, Expr val)
{
    SCAMV_ASSERT(mem->sort == Sort::Mem, "store to non-memory");
    // store(store(m, a, v1), a, v2) == store(m, a, v2)
    if (mem->kind == Kind::Store && mem->kids[1] == addr)
        return intern(Kind::Store, Sort::Mem, 0, "",
                      {mem->kids[0], addr, val});
    return intern(Kind::Store, Sort::Mem, 0, "", {mem, addr, val});
}

Expr
ExprContext::eq(Expr a, Expr b)
{
    SCAMV_ASSERT(a->sort == b->sort, "eq on mismatched sorts");
    if (a == b)
        return tru();
    if (a->sort == Sort::Bv && bothConst(a, b))
        return boolConst(a->value == b->value);
    if (a->sort == Sort::Bool && a->kind == Kind::BoolConst &&
        b->kind == Kind::BoolConst)
        return boolConst(a->value == b->value);
    if (a->id > b->id) // canonical, heap-layout-independent order
        std::swap(a, b);
    return intern(Kind::Eq, Sort::Bool, 0, "", {a, b});
}

Expr
ExprContext::ult(Expr a, Expr b)
{
    if (bothConst(a, b))
        return boolConst(a->value < b->value);
    if (a == b)
        return fls();
    return intern(Kind::Ult, Sort::Bool, 0, "", {a, b});
}

Expr
ExprContext::ule(Expr a, Expr b)
{
    if (bothConst(a, b))
        return boolConst(a->value <= b->value);
    if (a == b)
        return tru();
    return intern(Kind::Ule, Sort::Bool, 0, "", {a, b});
}

Expr
ExprContext::slt(Expr a, Expr b)
{
    if (bothConst(a, b))
        return boolConst(static_cast<std::int64_t>(a->value) <
                         static_cast<std::int64_t>(b->value));
    if (a == b)
        return fls();
    return intern(Kind::Slt, Sort::Bool, 0, "", {a, b});
}

Expr
ExprContext::sle(Expr a, Expr b)
{
    if (bothConst(a, b))
        return boolConst(static_cast<std::int64_t>(a->value) <=
                         static_cast<std::int64_t>(b->value));
    if (a == b)
        return tru();
    return intern(Kind::Sle, Sort::Bool, 0, "", {a, b});
}

namespace {

/** @return true iff a is syntactically the negation of b. */
bool
complementary(Expr a, Expr b)
{
    return (a->kind == Kind::Not && a->kids[0] == b) ||
           (b->kind == Kind::Not && b->kids[0] == a);
}

} // namespace

Expr
ExprContext::land(Expr a, Expr b)
{
    if (a->kind == Kind::BoolConst)
        return a->value ? b : fls();
    if (b->kind == Kind::BoolConst)
        return b->value ? a : fls();
    if (a == b)
        return a;
    if (complementary(a, b))
        return fls();
    if (a->id > b->id)
        std::swap(a, b);
    return intern(Kind::And, Sort::Bool, 0, "", {a, b});
}

Expr
ExprContext::lor(Expr a, Expr b)
{
    if (a->kind == Kind::BoolConst)
        return a->value ? tru() : b;
    if (b->kind == Kind::BoolConst)
        return b->value ? tru() : a;
    if (a == b)
        return a;
    if (complementary(a, b))
        return tru();
    if (a->id > b->id)
        std::swap(a, b);
    return intern(Kind::Or, Sort::Bool, 0, "", {a, b});
}

Expr
ExprContext::lnot(Expr a)
{
    if (a->kind == Kind::BoolConst)
        return boolConst(!a->value);
    if (a->kind == Kind::Not)
        return a->kids[0];
    return intern(Kind::Not, Sort::Bool, 0, "", {a});
}

Expr
ExprContext::implies(Expr a, Expr b)
{
    return lor(lnot(a), b);
}

Expr
ExprContext::conj(const std::vector<Expr> &es)
{
    Expr acc = tru();
    for (Expr e : es)
        acc = land(acc, e);
    return acc;
}

Expr
ExprContext::disj(const std::vector<Expr> &es)
{
    Expr acc = fls();
    for (Expr e : es)
        acc = lor(acc, e);
    return acc;
}

namespace {

void
walk(Expr e, std::unordered_set<Expr> &seen,
     const std::function<void(Expr)> &visit)
{
    if (!seen.insert(e).second)
        return;
    visit(e);
    for (Expr k : e->kids)
        walk(k, seen, visit);
}

} // namespace

std::vector<Expr>
collectVars(Expr e)
{
    return collectVars(std::vector<Expr>{e});
}

std::vector<Expr>
collectVars(const std::vector<Expr> &roots)
{
    std::unordered_set<Expr> seen;
    std::vector<Expr> vars;
    for (Expr r : roots) {
        walk(r, seen, [&vars](Expr n) {
            if (n->kind == Kind::BvVar || n->kind == Kind::BoolVar ||
                n->kind == Kind::MemVar)
                vars.push_back(n);
        });
    }
    return vars;
}

std::vector<Expr>
collectReads(Expr e)
{
    std::unordered_set<Expr> seen;
    std::vector<Expr> reads;
    walk(e, seen, [&reads](Expr n) {
        if (n->kind == Kind::Read)
            reads.push_back(n);
    });
    return reads;
}

std::string
toString(Expr e)
{
    std::ostringstream out;
    std::function<void(Expr)> pp = [&](Expr n) {
        switch (n->kind) {
          case Kind::BvConst:
            out << "0x" << std::hex << n->value << std::dec;
            return;
          case Kind::BoolConst:
            out << (n->value ? "true" : "false");
            return;
          case Kind::BvVar:
          case Kind::BoolVar:
          case Kind::MemVar:
            out << n->name;
            return;
          default:
            break;
        }
        out << '(' << kindName(n->kind);
        for (Expr k : n->kids) {
            out << ' ';
            pp(k);
        }
        out << ')';
    };
    pp(e);
    return out.str();
}

Expr
rebuild(ExprContext &ctx, Kind kind, const std::vector<Expr> &ks)
{
    switch (kind) {
      case Kind::Add: return ctx.add(ks[0], ks[1]);
      case Kind::Sub: return ctx.sub(ks[0], ks[1]);
      case Kind::Mul: return ctx.mul(ks[0], ks[1]);
      case Kind::BvAnd: return ctx.bvAnd(ks[0], ks[1]);
      case Kind::BvOr: return ctx.bvOr(ks[0], ks[1]);
      case Kind::BvXor: return ctx.bvXor(ks[0], ks[1]);
      case Kind::BvNot: return ctx.bvNot(ks[0]);
      case Kind::Neg: return ctx.neg(ks[0]);
      case Kind::Shl: return ctx.shl(ks[0], ks[1]);
      case Kind::Lshr: return ctx.lshr(ks[0], ks[1]);
      case Kind::Ashr: return ctx.ashr(ks[0], ks[1]);
      case Kind::Ite: return ctx.ite(ks[0], ks[1], ks[2]);
      case Kind::Read: return ctx.read(ks[0], ks[1]);
      case Kind::Store: return ctx.store(ks[0], ks[1], ks[2]);
      case Kind::Eq: return ctx.eq(ks[0], ks[1]);
      case Kind::Ult: return ctx.ult(ks[0], ks[1]);
      case Kind::Ule: return ctx.ule(ks[0], ks[1]);
      case Kind::Slt: return ctx.slt(ks[0], ks[1]);
      case Kind::Sle: return ctx.sle(ks[0], ks[1]);
      case Kind::And: return ctx.land(ks[0], ks[1]);
      case Kind::Or: return ctx.lor(ks[0], ks[1]);
      case Kind::Not: return ctx.lnot(ks[0]);
      case Kind::Implies: return ctx.implies(ks[0], ks[1]);
      default: break;
    }
    SCAMV_PANIC(std::string("rebuild: unexpected kind ") + kindName(kind));
}

Expr
substitute(ExprContext &ctx, Expr e,
           const std::unordered_map<Expr, Expr> &map)
{
    std::unordered_map<Expr, Expr> memo;
    std::function<Expr(Expr)> go = [&](Expr n) -> Expr {
        auto hit = memo.find(n);
        if (hit != memo.end())
            return hit->second;
        Expr result;
        auto direct = map.find(n);
        if (direct != map.end()) {
            result = direct->second;
        } else if (n->kids.empty()) {
            result = n;
        } else {
            std::vector<Expr> ks;
            ks.reserve(n->kids.size());
            bool changed = false;
            for (Expr k : n->kids) {
                Expr nk = go(k);
                changed |= (nk != k);
                ks.push_back(nk);
            }
            result = changed ? rebuild(ctx, n->kind, ks) : n;
        }
        memo.emplace(n, result);
        return result;
    };
    return go(e);
}

std::size_t
dagSize(Expr e)
{
    std::unordered_set<Expr> seen;
    walk(e, seen, [](Expr) {});
    return seen.size();
}

} // namespace scamv::expr
