/**
 * @file
 * SC recursive-descent parser and stable AST dumper.
 *
 * Grammar (EBNF, `//` comments and whitespace handled by the lexer):
 *
 *   unit   := decl* stmt*
 *   decl   := ("secret"|"public")? "u64" ident ("[" number "]")? ";"
 *   stmt   := ident "=" expr ";"
 *           | ident "[" expr "]" "=" expr ";"
 *           | "if" "(" expr relop expr ")" block ("else" block)?
 *           | "for" "(" ident "=" expr ";" ident "<" expr ";"
 *                       ident "=" ident "+" expr ")" block
 *   block  := "{" stmt* "}"
 *   expr   := precedence climbing over | ^ & (<< >>) (+ -) *
 *   prim   := number | ident | ident "[" expr "]" | "(" expr ")"
 *   relop  := "==" | "!=" | "<" | "<=" | ">" | ">="
 *
 * The `for` shape is deliberately rigid (same variable in all three
 * positions, `<` bound, additive step) so that boundedness is a purely
 * local property the lowering pass can check by constant-folding the
 * three header expressions.
 *
 * Nesting depth is capped (kMaxDepth) so that pathological inputs from
 * the fuzzer diagnose instead of overflowing the stack.
 */

#include "front/front.hh"

namespace scamv::front {

namespace {

/** Maximum combined expression/block nesting depth. */
constexpr int kMaxDepth = 64;

bool
isKeyword(const std::string &s)
{
    return s == "u64" || s == "secret" || s == "public" || s == "if" ||
           s == "else" || s == "for";
}

/** Binding power of a binary operator token, or 0 if not one. */
int
precOf(const Token &t, BinOp &op)
{
    if (t.kind != TokKind::Punct)
        return 0;
    if (t.text == "|") { op = BinOp::Or;  return 1; }
    if (t.text == "^") { op = BinOp::Xor; return 2; }
    if (t.text == "&") { op = BinOp::And; return 3; }
    if (t.text == "<<") { op = BinOp::Shl; return 4; }
    if (t.text == ">>") { op = BinOp::Shr; return 4; }
    if (t.text == "+") { op = BinOp::Add; return 5; }
    if (t.text == "-") { op = BinOp::Sub; return 5; }
    if (t.text == "*") { op = BinOp::Mul; return 6; }
    return 0;
}

bool
relOf(const Token &t, RelOp &op)
{
    if (t.kind != TokKind::Punct)
        return false;
    if (t.text == "==") { op = RelOp::Eq; return true; }
    if (t.text == "!=") { op = RelOp::Ne; return true; }
    if (t.text == "<")  { op = RelOp::Lt; return true; }
    if (t.text == "<=") { op = RelOp::Le; return true; }
    if (t.text == ">")  { op = RelOp::Gt; return true; }
    if (t.text == ">=") { op = RelOp::Ge; return true; }
    return false;
}

class Parser
{
  public:
    explicit Parser(std::vector<Token> toks) : tokens(std::move(toks)) {}

    ParseResult
    run()
    {
        ParseResult out;
        parseDecls(out.unit);
        while (!failed && !atEnd())
            if (StmtPtr s = parseStmt(0))
                out.unit.stmts.push_back(std::move(s));
        out.error = error;
        return out;
    }

  private:
    std::vector<Token> tokens;
    std::size_t idx = 0;
    bool failed = false;
    std::optional<Diagnostic> error;

    const Token &peek(std::size_t ahead = 0) const
    {
        std::size_t i = idx + ahead;
        return tokens[i < tokens.size() ? i : tokens.size() - 1];
    }
    bool atEnd() const { return peek().kind == TokKind::End; }

    void
    fail(const SourcePos &pos, std::string msg)
    {
        if (!failed) {
            failed = true;
            error = Diagnostic{pos, std::move(msg)};
        }
    }

    bool atPunct(const char *p) const
    {
        return peek().kind == TokKind::Punct && peek().text == p;
    }
    bool atIdent(const char *kw) const
    {
        return peek().kind == TokKind::Ident && peek().text == kw;
    }

    bool
    eatPunct(const char *p)
    {
        if (!atPunct(p)) {
            fail(peek().pos, std::string("expected '") + p + "'");
            return false;
        }
        ++idx;
        return true;
    }

    /** Consume a non-keyword identifier. */
    std::string
    eatName()
    {
        if (peek().kind != TokKind::Ident || isKeyword(peek().text)) {
            fail(peek().pos, "expected identifier");
            return "";
        }
        return tokens[idx++].text;
    }

    void
    parseDecls(Unit &unit)
    {
        while (!failed &&
               (atIdent("u64") || atIdent("secret") || atIdent("public"))) {
            Decl d;
            d.pos = peek().pos;
            if (atIdent("secret")) {
                d.qual = Qualifier::Secret;
                ++idx;
            } else if (atIdent("public")) {
                d.qual = Qualifier::Public;
                ++idx;
            }
            if (!atIdent("u64")) {
                fail(peek().pos, "expected 'u64' after input qualifier");
                return;
            }
            ++idx;
            d.name = eatName();
            if (failed)
                return;
            if (atPunct("[")) {
                ++idx;
                if (peek().kind != TokKind::Number) {
                    fail(peek().pos, "expected constant array size");
                    return;
                }
                d.isArray = true;
                d.arraySize = tokens[idx++].value;
                if (!eatPunct("]"))
                    return;
            }
            if (!eatPunct(";"))
                return;
            unit.decls.push_back(std::move(d));
        }
    }

    ExprPtr
    parsePrimary(int depth)
    {
        if (depth > kMaxDepth) {
            fail(peek().pos, "expression nested too deeply");
            return nullptr;
        }
        const Token &t = peek();
        if (t.kind == TokKind::Number) {
            auto e = std::make_unique<Expr>();
            e->kind = Expr::Kind::Num;
            e->pos = t.pos;
            e->value = t.value;
            ++idx;
            return e;
        }
        if (t.kind == TokKind::Ident && !isKeyword(t.text)) {
            auto e = std::make_unique<Expr>();
            e->pos = t.pos;
            e->name = t.text;
            ++idx;
            if (atPunct("[")) {
                ++idx;
                e->kind = Expr::Kind::Index;
                e->lhs = parseExpr(1, depth + 1);
                if (failed || !eatPunct("]"))
                    return nullptr;
            } else {
                e->kind = Expr::Kind::Var;
            }
            return e;
        }
        if (atPunct("(")) {
            ++idx;
            ExprPtr e = parseExpr(1, depth + 1);
            if (failed || !eatPunct(")"))
                return nullptr;
            return e;
        }
        fail(t.pos, "expected expression");
        return nullptr;
    }

    ExprPtr
    parseExpr(int minPrec, int depth)
    {
        if (depth > kMaxDepth) {
            fail(peek().pos, "expression nested too deeply");
            return nullptr;
        }
        ExprPtr lhs = parsePrimary(depth);
        while (!failed) {
            BinOp op;
            int prec = precOf(peek(), op);
            if (prec < minPrec || prec == 0)
                break;
            SourcePos pos = peek().pos;
            ++idx;
            ExprPtr rhs = parseExpr(prec + 1, depth + 1);
            if (failed)
                return nullptr;
            auto e = std::make_unique<Expr>();
            e->kind = Expr::Kind::Bin;
            e->pos = pos;
            e->op = op;
            e->lhs = std::move(lhs);
            e->rhs = std::move(rhs);
            lhs = std::move(e);
        }
        if (failed)
            return nullptr;
        return lhs;
    }

    bool
    parseBlock(std::vector<StmtPtr> &body, int depth)
    {
        if (!eatPunct("{"))
            return false;
        while (!failed && !atPunct("}") && !atEnd())
            if (StmtPtr s = parseStmt(depth))
                body.push_back(std::move(s));
        return !failed && eatPunct("}");
    }

    StmtPtr
    parseStmt(int depth)
    {
        if (depth > kMaxDepth) {
            fail(peek().pos, "statements nested too deeply");
            return nullptr;
        }
        if (atIdent("if"))
            return parseIf(depth);
        if (atIdent("for"))
            return parseFor(depth);
        const Token &t = peek();
        if (t.kind == TokKind::Ident && !isKeyword(t.text)) {
            auto s = std::make_unique<Stmt>();
            s->pos = t.pos;
            s->name = t.text;
            ++idx;
            if (atPunct("[")) {
                ++idx;
                s->kind = Stmt::Kind::Store;
                s->index = parseExpr(1, depth + 1);
                if (failed || !eatPunct("]"))
                    return nullptr;
            } else {
                s->kind = Stmt::Kind::Assign;
            }
            if (!eatPunct("="))
                return nullptr;
            s->value = parseExpr(1, depth + 1);
            if (failed || !eatPunct(";"))
                return nullptr;
            return s;
        }
        fail(t.pos, "expected statement");
        return nullptr;
    }

    StmtPtr
    parseIf(int depth)
    {
        auto s = std::make_unique<Stmt>();
        s->kind = Stmt::Kind::If;
        s->pos = peek().pos;
        ++idx; // "if"
        if (!eatPunct("("))
            return nullptr;
        s->cond.lhs = parseExpr(1, depth + 1);
        if (failed)
            return nullptr;
        s->cond.pos = peek().pos;
        if (!relOf(peek(), s->cond.op)) {
            fail(peek().pos, "expected comparison operator");
            return nullptr;
        }
        ++idx;
        s->cond.rhs = parseExpr(1, depth + 1);
        if (failed || !eatPunct(")"))
            return nullptr;
        if (!parseBlock(s->body, depth + 1))
            return nullptr;
        if (atIdent("else")) {
            ++idx;
            if (!parseBlock(s->elseBody, depth + 1))
                return nullptr;
        }
        return s;
    }

    StmtPtr
    parseFor(int depth)
    {
        auto s = std::make_unique<Stmt>();
        s->kind = Stmt::Kind::For;
        s->pos = peek().pos;
        ++idx; // "for"
        if (!eatPunct("("))
            return nullptr;
        s->name = eatName();
        if (failed || !eatPunct("="))
            return nullptr;
        s->forInit = parseExpr(1, depth + 1);
        if (failed || !eatPunct(";"))
            return nullptr;
        SourcePos condPos = peek().pos;
        std::string v2 = eatName();
        if (failed)
            return nullptr;
        if (v2 != s->name) {
            fail(condPos, "for condition must test loop variable '" +
                              s->name + "'");
            return nullptr;
        }
        if (!eatPunct("<"))
            return nullptr;
        s->forBound = parseExpr(1, depth + 1);
        if (failed || !eatPunct(";"))
            return nullptr;
        SourcePos stepPos = peek().pos;
        std::string v3 = eatName();
        if (!failed && v3 == s->name && eatPunct("=")) {
            std::string v4 = eatName();
            if (!failed && v4 != s->name)
                fail(stepPos, "for step must be '" + s->name + " = " +
                                  s->name + " + <expr>'");
            if (!failed)
                eatPunct("+");
        } else if (!failed) {
            fail(stepPos, "for step must update loop variable '" +
                              s->name + "'");
        }
        if (failed)
            return nullptr;
        s->forStep = parseExpr(1, depth + 1);
        if (failed || !eatPunct(")"))
            return nullptr;
        if (!parseBlock(s->body, depth + 1))
            return nullptr;
        return s;
    }
};

const char *
binName(BinOp op)
{
    switch (op) {
    case BinOp::Or: return "|";
    case BinOp::Xor: return "^";
    case BinOp::And: return "&";
    case BinOp::Shl: return "<<";
    case BinOp::Shr: return ">>";
    case BinOp::Add: return "+";
    case BinOp::Sub: return "-";
    case BinOp::Mul: return "*";
    }
    return "?";
}

const char *
relName(RelOp op)
{
    switch (op) {
    case RelOp::Eq: return "==";
    case RelOp::Ne: return "!=";
    case RelOp::Lt: return "<";
    case RelOp::Le: return "<=";
    case RelOp::Gt: return ">";
    case RelOp::Ge: return ">=";
    }
    return "?";
}

/** Inline (single-line) s-expression for an expression tree. */
void
dumpExpr(const Expr &e, std::string &out)
{
    switch (e.kind) {
    case Expr::Kind::Num:
        out += "(num " + std::to_string(e.value) + ")";
        break;
    case Expr::Kind::Var:
        out += "(var " + e.name + ")";
        break;
    case Expr::Kind::Index:
        out += "(index " + e.name + " ";
        dumpExpr(*e.lhs, out);
        out += ")";
        break;
    case Expr::Kind::Bin:
        out += std::string("(bin ") + binName(e.op) + " ";
        dumpExpr(*e.lhs, out);
        out += " ";
        dumpExpr(*e.rhs, out);
        out += ")";
        break;
    }
}

void
dumpStmt(const Stmt &s, int indent, std::string &out)
{
    std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
    switch (s.kind) {
    case Stmt::Kind::Assign:
        out += pad + "(assign " + s.name + " ";
        dumpExpr(*s.value, out);
        out += ")\n";
        break;
    case Stmt::Kind::Store:
        out += pad + "(store " + s.name + " ";
        dumpExpr(*s.index, out);
        out += " ";
        dumpExpr(*s.value, out);
        out += ")\n";
        break;
    case Stmt::Kind::If:
        out += pad + "(if (rel " + std::string(relName(s.cond.op)) + " ";
        dumpExpr(*s.cond.lhs, out);
        out += " ";
        dumpExpr(*s.cond.rhs, out);
        out += ")\n";
        out += pad + "  (then\n";
        for (const auto &c : s.body)
            dumpStmt(*c, indent + 2, out);
        out += pad + "  )\n";
        if (!s.elseBody.empty()) {
            out += pad + "  (else\n";
            for (const auto &c : s.elseBody)
                dumpStmt(*c, indent + 2, out);
            out += pad + "  )\n";
        }
        out += pad + ")\n";
        break;
    case Stmt::Kind::For:
        out += pad + "(for " + s.name + " ";
        dumpExpr(*s.forInit, out);
        out += " ";
        dumpExpr(*s.forBound, out);
        out += " ";
        dumpExpr(*s.forStep, out);
        out += "\n";
        for (const auto &c : s.body)
            dumpStmt(*c, indent + 1, out);
        out += pad + ")\n";
        break;
    }
}

} // namespace

ParseResult
parse(std::string_view source)
{
    LexResult lx = lex(source);
    if (!lx.ok()) {
        ParseResult out;
        out.error = lx.error;
        return out;
    }
    return Parser(std::move(lx.tokens)).run();
}

std::string
dumpAst(const Unit &unit)
{
    std::string out = "(unit\n";
    for (const Decl &d : unit.decls) {
        out += "  (decl ";
        switch (d.qual) {
        case Qualifier::None: out += "local "; break;
        case Qualifier::Secret: out += "secret "; break;
        case Qualifier::Public: out += "public "; break;
        }
        out += "u64 " + d.name;
        if (d.isArray) {
            out += '[';
            out += std::to_string(d.arraySize);
            out += ']';
        }
        out += ")\n";
    }
    for (const auto &s : unit.stmts)
        dumpStmt(*s, 1, out);
    out += ")\n";
    return out;
}

} // namespace scamv::front
