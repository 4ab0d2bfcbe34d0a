/**
 * @file
 * Hash-consed expression DAG for 64-bit bitvectors, booleans and
 * functional-array memories.
 *
 * All terms are created through an ExprContext, which interns
 * structurally identical nodes so that pointer equality implies
 * structural equality.  Builder functions perform light rewriting
 * (constant folding, neutral elements, read-over-write), which keeps
 * the formulas produced by symbolic execution small before they reach
 * the SMT layer.
 *
 * Bitvectors are fixed at 64 bits: the modelled ISA is a 64-bit
 * RISC-like machine and cache-index extraction is expressed with
 * shift/mask operations.
 */

#ifndef SCAMV_EXPR_EXPR_HH
#define SCAMV_EXPR_EXPR_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace scamv::expr {

/** Sort (type) of a term. */
enum class Sort : std::uint8_t {
    Bv,   ///< 64-bit bitvector
    Bool, ///< boolean
    Mem   ///< memory: array from 64-bit address to 64-bit word
};

/** Operator/leaf kind of a node. */
enum class Kind : std::uint8_t {
    // Leaves
    BvConst,   ///< 64-bit constant (value in Node::value)
    BvVar,     ///< named bitvector variable
    BoolConst, ///< boolean constant (value 0/1)
    BoolVar,   ///< named boolean variable
    MemVar,    ///< named memory variable

    // Bitvector operators
    Add, Sub, Mul,
    BvAnd, BvOr, BvXor, BvNot, Neg,
    Shl, Lshr, Ashr,
    Ite,  ///< (cond : Bool, then : Bv, else : Bv)
    Read, ///< (mem, addr) -> Bv

    // Memory operators
    Store, ///< (mem, addr, val) -> Mem

    // Boolean operators over bitvectors
    Eq,  ///< bitvector equality
    Ult, Ule, Slt, Sle,

    // Boolean connectives
    And, Or, Not, Implies
};

/** @return a short mnemonic for a kind (for printing). */
const char *kindName(Kind k);

class ExprContext;

/**
 * Immutable, interned expression node.  Nodes are owned by their
 * ExprContext; user code holds `const Node *` handles (aliased as
 * Expr below).
 */
class Node
{
  public:
    Kind kind;
    Sort sort;
    /**
     * Variable slot: a dense per-sort index in creation order, given
     * to BvVar/BoolVar/MemVar leaves (0 for every other node).  An
     * Assignment stores a variable's value at its slot.  It sits in
     * the padding after `sort`, so it costs no space.
     */
    std::uint32_t slot = 0;
    /** Creation-order id: deterministic operand canonicalization. */
    std::uint64_t id;
    /** Constant value or unused (vars carry their name instead). */
    std::uint64_t value;
    /** Variable name (empty for non-leaf nodes). */
    std::string name;
    std::vector<const Node *> kids;

    /** @return true if this is a BvConst/BoolConst. */
    bool isConst() const
    {
        return kind == Kind::BvConst || kind == Kind::BoolConst;
    }

  private:
    friend class ExprContext;
    Node() = default;
};

/** Handle type used throughout the framework. */
using Expr = const Node *;

/**
 * Owning context for expression nodes.
 *
 * Not thread-safe; each pipeline owns one context.
 */
class ExprContext
{
  public:
    ExprContext();
    ExprContext(const ExprContext &) = delete;
    ExprContext &operator=(const ExprContext &) = delete;

    // ---- Leaves -------------------------------------------------------
    Expr bv(std::uint64_t v);
    Expr boolConst(bool v);
    Expr tru() { return cachedTrue; }
    Expr fls() { return cachedFalse; }
    Expr zero() { return cachedZero; }
    /** Named 64-bit variable; same name returns the same node. */
    Expr bvVar(const std::string &name);
    /** Named boolean variable. */
    Expr boolVar(const std::string &name);
    /** Named memory variable. */
    Expr memVar(const std::string &name);
    /**
     * @return the variable of kind `kind` (BvVar, BoolVar or MemVar)
     * called `name`, or nullptr when the context holds none.  Unlike
     * the builders above it never interns: a new node would shift the
     * creation ids, and with them operand order and SAT variable
     * order.
     */
    Expr findVar(Kind kind, const std::string &name) const;

    // ---- Bitvector operators -----------------------------------------
    Expr add(Expr a, Expr b);
    Expr sub(Expr a, Expr b);
    Expr mul(Expr a, Expr b);
    Expr bvAnd(Expr a, Expr b);
    Expr bvOr(Expr a, Expr b);
    Expr bvXor(Expr a, Expr b);
    Expr bvNot(Expr a);
    Expr neg(Expr a);
    /** Logical shift left by b (b taken mod 64 like hardware). */
    Expr shl(Expr a, Expr b);
    Expr lshr(Expr a, Expr b);
    Expr ashr(Expr a, Expr b);
    Expr ite(Expr cond, Expr then_e, Expr else_e);
    Expr read(Expr mem, Expr addr);
    Expr store(Expr mem, Expr addr, Expr val);

    // ---- Predicates ---------------------------------------------------
    Expr eq(Expr a, Expr b);
    Expr neq(Expr a, Expr b) { return lnot(eq(a, b)); }
    Expr ult(Expr a, Expr b);
    Expr ule(Expr a, Expr b);
    Expr slt(Expr a, Expr b);
    Expr sle(Expr a, Expr b);

    // ---- Boolean connectives -----------------------------------------
    Expr land(Expr a, Expr b);
    Expr lor(Expr a, Expr b);
    Expr lnot(Expr a);
    Expr implies(Expr a, Expr b);
    /** Conjunction of a list (true for empty list). */
    Expr conj(const std::vector<Expr> &es);
    /** Disjunction of a list (false for empty list). */
    Expr disj(const std::vector<Expr> &es);

    /** @return number of interned nodes (for tests/statistics). */
    std::size_t size() const { return nodes.size(); }

  private:
    Expr intern(Kind kind, Sort sort, std::uint64_t value,
                std::string name, std::vector<Expr> kids);

    struct NodeHash {
        std::size_t operator()(const Node *n) const;
    };
    struct NodeEq {
        bool operator()(const Node *a, const Node *b) const;
    };

    std::deque<std::unique_ptr<Node>> nodes;
    std::unordered_set<const Node *, NodeHash, NodeEq> interned;
    Expr cachedTrue = nullptr;
    Expr cachedFalse = nullptr;
    Expr cachedZero = nullptr;
    /** Next free variable slot, per Sort. */
    std::uint32_t slotCounts[3] = {0, 0, 0};
};

/** Collect all variable leaves (Bv/Bool/Mem vars) reachable from e. */
std::vector<Expr> collectVars(Expr e);

/** Collect variables of several roots, deduplicated. */
std::vector<Expr> collectVars(const std::vector<Expr> &roots);

/** Collect all Read nodes reachable from e (deduplicated, pre-order). */
std::vector<Expr> collectReads(Expr e);

/** Render e as an s-expression (for debugging and error messages). */
std::string toString(Expr e);

/**
 * Build the operator node `kind` over `kids` through its ctx builder,
 * so the result is interned and simplified exactly as if built
 * directly.  Leaf kinds have no builder here and panic.
 */
Expr rebuild(ExprContext &ctx, Kind kind, const std::vector<Expr> &kids);

/**
 * Substitute variables by replacement terms (simultaneous), rebuilding
 * through ctx so the result stays interned and simplified.
 */
Expr substitute(ExprContext &ctx, Expr e,
                const std::unordered_map<Expr, Expr> &map);

/** Count DAG nodes reachable from e (each shared node counted once). */
std::size_t dagSize(Expr e);

} // namespace scamv::expr

#endif // SCAMV_EXPR_EXPR_HH
