#include "sqldb/parser.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <utility>

#include "common/strutil.h"
#include "sqldb/eval.h"

namespace rddr::sqldb {

namespace {

/// Binary operator precedence (higher binds tighter). Unknown (custom)
/// operator symbols sit at comparison level, like Postgres' generic Op.
int binary_precedence(std::string_view op) {
  if (op == "or") return 1;
  if (op == "and") return 2;
  if (op == "=" || op == "<>" || op == "!=" || op == "<" || op == "<=" ||
      op == ">" || op == ">=")
    return 4;
  if (op == "||") return 5;
  if (op == "+" || op == "-") return 6;
  if (op == "*" || op == "/" || op == "%") return 7;
  return 4;  // custom operator symbols
}

/// Reads all of `s` as a base-10 number of type T: nullopt when it is
/// not one or does not fit.
template <typename T>
std::optional<T> parse_number(std::string_view s) {
  T v{};
  const char* end = s.data() + s.size();
  auto [p, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || p != end) return std::nullopt;
  return v;
}

bool is_aggregate_name(std::string_view name) {
  return name == "count" || name == "sum" || name == "avg" || name == "min" ||
         name == "max";
}

/// Keywords that may never appear as bare column references (Postgres
/// reserves these too); keeps "SELECT FROM" a syntax error instead of a
/// column named "from".
bool is_reserved_word(std::string_view s) {
  return s == "select" || s == "from" || s == "where" || s == "group" ||
         s == "having" || s == "order" || s == "limit" || s == "join" ||
         s == "inner" || s == "on" || s == "union" || s == "insert" ||
         s == "update" || s == "delete" || s == "create" || s == "drop" ||
         s == "set" || s == "values" || s == "into" || s == "by" ||
         s == "as" || s == "then" || s == "when" || s == "else" ||
         s == "end" || s == "grant" || s == "alter" || s == "explain";
}

}  // namespace

class Parser {
 public:
  Parser(const TokenList& toks, Script& script)
      : toks_(toks), script_(script), arena_(script.arena_) {}

  /// parse_expression's work when `expression` is set, else parse_sql's.
  static Result<Script> parse(std::string_view sql, bool expression) {
    auto toks = lex_sql(sql);
    if (!toks.ok()) return Err(toks.error());
    Script script(std::move(toks.take()));
    Parser p(script.text_, script);
    auto parsed = expression ? p.parse_single_expression() : p.parse_script();
    if (!parsed.ok()) return Err(parsed.error());
    return script;
  }

 private:
  Result<bool> parse_script() {
    while (!at_end()) {
      if (peek().kind == TokKind::kSemicolon) {
        advance();
        continue;
      }
      auto s = parse_statement();
      if (!s.ok()) return Err(s.error());
      script_.statements_.push_back(arena_, s.value());
      if (!at_end() && peek().kind != TokKind::kSemicolon)
        return unexpected("';' or end of input");
    }
    return true;
  }

  Result<bool> parse_single_expression() {
    auto e = parse_expr(0);
    if (!e.ok()) return Err(e.error());
    if (!at_end()) return unexpected("end of expression");
    script_.expression_ = e.value();
    return true;
  }

  // ---- token helpers ----
  const Token& peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  const Token& advance() { return toks_[pos_ < toks_.size() - 1 ? pos_++ : pos_]; }
  bool at_end() const { return peek().kind == TokKind::kEnd; }

  bool match_kw(std::string_view kw) {
    if (peek().kind == TokKind::kIdent && peek().text == kw) {
      advance();
      return true;
    }
    return false;
  }
  bool peek_kw(std::string_view kw, size_t ahead = 0) const {
    return peek(ahead).kind == TokKind::kIdent && peek(ahead).text == kw;
  }
  bool match(TokKind k) {
    if (peek().kind == k) {
      advance();
      return true;
    }
    return false;
  }
  bool match_op(std::string_view op) {
    if (peek().kind == TokKind::kOperator && peek().text == op) {
      advance();
      return true;
    }
    return false;
  }

  Error unexpected(std::string_view wanted) {
    const Token& t = peek();
    std::string got =
        t.kind == TokKind::kEnd
            ? "end of input"
            : strformat("'%.*s'", static_cast<int>(t.text.size()), t.text.data());
    return Err(strformat("syntax error: expected %.*s, got %s at offset %zu",
                         static_cast<int>(wanted.size()), wanted.data(),
                         got.c_str(), static_cast<size_t>(t.offset)));
  }

  Result<std::string_view> expect_ident(std::string_view what) {
    if (peek().kind != TokKind::kIdent) return unexpected(what);
    return advance().text;
  }

  /// A statement of `kind` whose body `field` points at a new T.
  template <typename T>
  Statement statement(Statement::Kind kind, T* Statement::*field, T*& body) {
    Statement st;
    st.kind = kind;
    st.*field = body = arena_.make<T>();
    return st;
  }

  // ---- statements ----
  Result<Statement> parse_statement() {
    if (peek_kw("select")) return parse_select(Statement::Kind::kSelect);
    if (peek_kw("insert")) return parse_insert();
    if (peek_kw("update")) return parse_update();
    if (peek_kw("delete")) return parse_delete();
    if (peek_kw("create")) return parse_create();
    if (peek_kw("drop")) return parse_drop();
    if (peek_kw("alter")) return parse_alter();
    if (peek_kw("set")) return parse_set();
    if (peek_kw("grant")) return parse_grant();
    if (peek_kw("explain")) return parse_explain();
    if (peek_kw("begin") || peek_kw("commit") || peek_kw("rollback") ||
        peek_kw("start"))
      return parse_txn();
    return unexpected("a statement keyword");
  }

  Result<Statement> parse_select(Statement::Kind kind) {
    if (!match_kw("select")) return unexpected("SELECT");
    SelectStmt* sel;
    Statement st = statement(kind, &Statement::select, sel);
    // Select list.
    while (true) {
      SelectItem item;
      if (match_op("*")) {
        item.star = true;
      } else {
        auto e = parse_expr(0);
        if (!e.ok()) return Err(e.error());
        item.expr = e.value();
        if (match_kw("as")) {
          auto a = expect_ident("alias");
          if (!a.ok()) return Err(a.error());
          item.alias = a.value();
        } else if (peek().kind == TokKind::kIdent && !is_clause_kw(peek().text)) {
          item.alias = advance().text;
        }
      }
      sel->items.push_back(arena_, item);
      if (!match(TokKind::kComma)) break;
    }
    // FROM: comma-joined table references, each possibly followed by a
    // chain of JOIN ... ON ... (LEFT is treated as INNER in this subset).
    if (match_kw("from")) {
      do {
        auto tr = parse_table_ref();
        if (!tr.ok()) return Err(tr.error());
        sel->from.push_back(arena_, tr.value());
        for (bool first = true; peek_kw("join") || peek_kw("inner") ||
                                (first && peek_kw("left"));
             first = false) {
          match_kw("inner");
          if (first) match_kw("left");
          if (!match_kw("join")) return unexpected("JOIN");
          auto joined = parse_table_ref();
          if (!joined.ok()) return Err(joined.error());
          if (!match_kw("on")) return unexpected("ON");
          auto cond = parse_expr(0);
          if (!cond.ok()) return Err(cond.error());
          joined.value().join_on = cond.value();
          sel->from.push_back(arena_, joined.value());
        }
      } while (match(TokKind::kComma));
    }
    if (match_kw("where")) {
      auto e = parse_expr(0);
      if (!e.ok()) return Err(e.error());
      sel->where = e.value();
    }
    if (peek_kw("group")) {
      advance();
      if (!match_kw("by")) return unexpected("BY");
      do {
        auto e = parse_expr(0);
        if (!e.ok()) return Err(e.error());
        sel->group_by.push_back(arena_, e.value());
      } while (match(TokKind::kComma));
    }
    if (match_kw("having")) {
      auto e = parse_expr(0);
      if (!e.ok()) return Err(e.error());
      sel->having = e.value();
    }
    if (peek_kw("order")) {
      advance();
      if (!match_kw("by")) return unexpected("BY");
      do {
        auto e = parse_expr(0);
        if (!e.ok()) return Err(e.error());
        OrderItem oi{e.value()};
        if (match_kw("desc")) oi.descending = true;
        else match_kw("asc");
        sel->order_by.push_back(arena_, oi);
      } while (match(TokKind::kComma));
    }
    if (match_kw("limit")) {
      if (peek().kind != TokKind::kNumber) return unexpected("limit count");
      auto v = parse_number<int64_t>(advance().text);
      if (!v) return Err("bad LIMIT value");
      sel->limit = *v;
    }
    return st;
  }

  static bool is_clause_kw(std::string_view s) {
    return s == "from" || s == "where" || s == "group" || s == "having" ||
           s == "order" || s == "limit" || s == "as" || s == "join" ||
           s == "inner" || s == "left" || s == "on" || s == "asc" ||
           s == "desc" || s == "union";
  }

  Result<TableRef> parse_table_ref() {
    auto t = expect_ident("table name");
    if (!t.ok()) return Err(t.error());
    TableRef ref;
    ref.table = ref.alias = t.value();
    if (match_kw("as")) {
      auto a = expect_ident("alias");
      if (!a.ok()) return Err(a.error());
      ref.alias = a.value();
    } else if (peek().kind == TokKind::kIdent && !is_clause_kw(peek().text)) {
      ref.alias = advance().text;
    }
    return ref;
  }

  Result<Statement> parse_insert() {
    advance();  // INSERT
    if (!match_kw("into")) return unexpected("INTO");
    auto t = expect_ident("table name");
    if (!t.ok()) return Err(t.error());
    InsertStmt* ins;
    Statement st = statement(Statement::Kind::kInsert, &Statement::insert, ins);
    ins->table = t.value();
    if (match(TokKind::kLParen)) {
      while (true) {
        auto c = expect_ident("column name");
        if (!c.ok()) return Err(c.error());
        ins->columns.push_back(arena_, c.value());
        if (match(TokKind::kRParen)) break;
        if (!match(TokKind::kComma)) return unexpected("',' or ')'");
      }
    }
    if (!match_kw("values")) return unexpected("VALUES");
    do {
      if (!match(TokKind::kLParen)) return unexpected("'('");
      List<Node*> row;
      while (true) {
        auto e = parse_expr(0);
        if (!e.ok()) return Err(e.error());
        row.push_back(arena_, e.value());
        if (match(TokKind::kRParen)) break;
        if (!match(TokKind::kComma)) return unexpected("',' or ')'");
      }
      ins->rows.push_back(arena_, row);
    } while (match(TokKind::kComma));
    return st;
  }

  Result<Statement> parse_update() {
    advance();  // UPDATE
    auto t = expect_ident("table name");
    if (!t.ok()) return Err(t.error());
    UpdateStmt* up;
    Statement st = statement(Statement::Kind::kUpdate, &Statement::update, up);
    up->table = t.value();
    if (!match_kw("set")) return unexpected("SET");
    do {
      auto c = expect_ident("column name");
      if (!c.ok()) return Err(c.error());
      if (!match_op("=")) return unexpected("'='");
      auto e = parse_expr(0);
      if (!e.ok()) return Err(e.error());
      up->sets.push_back(arena_, SetClause{c.value(), e.value()});
    } while (match(TokKind::kComma));
    if (match_kw("where")) {
      auto e = parse_expr(0);
      if (!e.ok()) return Err(e.error());
      up->where = e.value();
    }
    return st;
  }

  Result<Statement> parse_delete() {
    advance();  // DELETE
    if (!match_kw("from")) return unexpected("FROM");
    auto t = expect_ident("table name");
    if (!t.ok()) return Err(t.error());
    DeleteStmt* del;
    Statement st = statement(Statement::Kind::kDelete, &Statement::del, del);
    del->table = t.value();
    if (match_kw("where")) {
      auto e = parse_expr(0);
      if (!e.ok()) return Err(e.error());
      del->where = e.value();
    }
    return st;
  }

  Result<Statement> parse_create() {
    advance();  // CREATE
    if (match_kw("table")) return parse_create_table();
    if (match_kw("function")) return parse_create_function();
    if (match_kw("operator")) return parse_create_operator();
    if (match_kw("policy")) return parse_create_policy_stmt();
    if (match_kw("or")) {
      // CREATE OR REPLACE FUNCTION
      if (!match_kw("replace")) return unexpected("REPLACE");
      if (!match_kw("function")) return unexpected("FUNCTION");
      return parse_create_function();
    }
    return unexpected("TABLE, FUNCTION, OPERATOR or POLICY");
  }

  Result<Statement> parse_create_table() {
    auto t = expect_ident("table name");
    if (!t.ok()) return Err(t.error());
    CreateTableStmt* ct;
    Statement st =
        statement(Statement::Kind::kCreateTable, &Statement::create_table, ct);
    ct->table = t.value();
    if (!match(TokKind::kLParen)) return unexpected("'('");
    while (true) {
      auto c = expect_ident("column name");
      if (!c.ok()) return Err(c.error());
      auto ty = parse_type_spec();
      if (!ty.ok()) return Err(ty.error());
      // Skim over column constraints (PRIMARY KEY, NOT NULL, ...).
      while (peek().kind == TokKind::kIdent &&
             (peek().text == "primary" || peek().text == "key" ||
              peek().text == "not" || peek().text == "null" ||
              peek().text == "unique" || peek().text == "default")) {
        if (peek().text == "default") {
          advance();
          auto e = parse_expr(8);  // a primary expression
          if (!e.ok()) return Err(e.error());
        } else {
          advance();
        }
      }
      ct->columns.push_back(arena_, ColumnDef{c.value(), ty.value()});
      if (match(TokKind::kRParen)) break;
      if (!match(TokKind::kComma)) return unexpected("',' or ')'");
    }
    return st;
  }

  /// Type spec: one or two idents possibly with (n) — e.g. "double
  /// precision", "varchar(10)", "numeric(12,2)".
  Result<Type> parse_type_spec() {
    auto first = expect_ident("type name");
    if (!first.ok()) return Err(first.error());
    std::string_view name = first.value();
    if (name == "double" && peek_kw("precision")) {
      advance();
      name = "double precision";
    }
    if (match(TokKind::kLParen)) {
      while (!match(TokKind::kRParen)) {
        if (at_end()) return unexpected("')'");
        advance();
      }
    }
    auto ty = parse_type_name(name);
    if (!ty)
      return Err(strformat("unknown type: %.*s", static_cast<int>(name.size()),
                           name.data()));
    return *ty;
  }

  Result<Statement> parse_create_function() {
    auto nm = expect_ident("function name");
    if (!nm.ok()) return Err(nm.error());
    CreateFunctionStmt* fn;
    Statement st = statement(Statement::Kind::kCreateFunction,
                             &Statement::create_function, fn);
    fn->name = nm.value();
    if (!match(TokKind::kLParen)) return unexpected("'('");
    if (!match(TokKind::kRParen)) {
      while (true) {
        // Arg may be "type" or "name type"; our subset is positional types.
        auto ty = parse_type_spec();
        if (!ty.ok()) return Err(ty.error());
        fn->arg_types.push_back(arena_, ty.value());
        if (match(TokKind::kRParen)) break;
        if (!match(TokKind::kComma)) return unexpected("',' or ')'");
      }
    }
    if (!match_kw("returns")) return unexpected("RETURNS");
    auto rty = parse_type_spec();
    if (!rty.ok()) return Err(rty.error());
    fn->return_type = rty.value();
    if (!match_kw("as")) return unexpected("AS");
    if (peek().kind != TokKind::kString) return unexpected("function body string");
    std::string_view body = advance().text;
    if (!match_kw("language")) return unexpected("LANGUAGE");
    auto lang = expect_ident("language name");
    if (!lang.ok()) return Err(lang.error());
    fn->language = lang.value();
    match_kw("immutable");
    match_kw("stable");
    match_kw("volatile");
    auto parsed = parse_plpgsql_body(body, *fn);
    if (!parsed.ok()) return Err(parsed.error());
    return st;
  }

  /// Parses the plpgsql subset:
  ///   BEGIN [RAISE NOTICE 'fmt' [, expr]* ;] RETURN expr ; END [;]
  /// The body's own text joins the script's, which its nodes view.
  Result<bool> parse_plpgsql_body(std::string_view body,
                                  CreateFunctionStmt& fn) {
    auto toks = lex_sql(body);
    if (!toks.ok()) return Err("in function body: " + toks.error());
    script_.bodies_.push_back(std::move(toks.take()));
    Parser sub(script_.bodies_.back(), script_);
    if (!sub.match_kw("begin")) return sub.unexpected("BEGIN");
    if (sub.peek_kw("raise")) {
      sub.advance();
      if (!sub.match_kw("notice")) return sub.unexpected("NOTICE");
      if (sub.peek().kind != TokKind::kString)
        return sub.unexpected("notice format string");
      fn.notice_format = sub.advance().text;
      while (sub.match(TokKind::kComma)) {
        auto e = sub.parse_expr(0);
        if (!e.ok()) return Err(e.error());
        fn.notice_args.push_back(arena_, e.value());
      }
      if (!sub.match(TokKind::kSemicolon)) return sub.unexpected("';'");
    }
    if (!sub.match_kw("return")) return sub.unexpected("RETURN");
    auto ret = sub.parse_expr(0);
    if (!ret.ok()) return Err(ret.error());
    fn.return_expr = ret.value();
    if (!sub.match(TokKind::kSemicolon)) return sub.unexpected("';'");
    if (!sub.match_kw("end")) return sub.unexpected("END");
    sub.match(TokKind::kSemicolon);
    if (!sub.at_end()) return sub.unexpected("end of body");
    return true;
  }

  Result<Statement> parse_create_operator() {
    if (peek().kind != TokKind::kOperator) return unexpected("operator symbol");
    CreateOperatorStmt* op;
    Statement st = statement(Statement::Kind::kCreateOperator,
                             &Statement::create_operator, op);
    op->symbol = advance().text;
    if (!match(TokKind::kLParen)) return unexpected("'('");
    while (true) {
      auto key = expect_ident("operator attribute");
      if (!key.ok()) return Err(key.error());
      if (!match_op("=")) return unexpected("'='");
      std::string_view k = key.value();
      if (k == "procedure" || k == "function" || k == "restrict") {
        auto v = expect_ident(k == "restrict" ? "estimator name"
                                              : "procedure name");
        if (!v.ok()) return Err(v.error());
        (k == "restrict" ? op->restrict_estimator : op->procedure) = v.value();
      } else if (k == "leftarg" || k == "rightarg") {
        auto ty = parse_type_spec();
        if (!ty.ok()) return Err(ty.error());
        (k == "leftarg" ? op->left_type : op->right_type) = ty.value();
      } else {
        return Err(strformat("unknown operator attribute: %.*s",
                             static_cast<int>(k.size()), k.data()));
      }
      if (match(TokKind::kRParen)) break;
      if (!match(TokKind::kComma)) return unexpected("',' or ')'");
    }
    return st;
  }

  Result<Statement> parse_create_policy_stmt() {
    auto nm = expect_ident("policy name");
    if (!nm.ok()) return Err(nm.error());
    CreatePolicyStmt* pol;
    Statement st = statement(Statement::Kind::kCreatePolicy,
                             &Statement::create_policy, pol);
    pol->name = nm.value();
    if (!match_kw("on")) return unexpected("ON");
    auto t = expect_ident("table name");
    if (!t.ok()) return Err(t.error());
    pol->table = t.value();
    if (match_kw("for")) {
      advance();  // SELECT/ALL/...
    }
    if (match_kw("to")) {
      auto r = expect_ident("role name");
      if (!r.ok()) return Err(r.error());
      pol->role = r.value();
    }
    if (!match_kw("using")) return unexpected("USING");
    if (!match(TokKind::kLParen)) return unexpected("'('");
    auto e = parse_expr(0);
    if (!e.ok()) return Err(e.error());
    pol->using_expr = e.value();
    if (!match(TokKind::kRParen)) return unexpected("')'");
    return st;
  }

  Result<Statement> parse_drop() {
    advance();  // DROP
    if (!match_kw("table")) return unexpected("TABLE");
    DropTableStmt* d;
    Statement st =
        statement(Statement::Kind::kDropTable, &Statement::drop_table, d);
    if (match_kw("if")) {
      if (!match_kw("exists")) return unexpected("EXISTS");
      d->if_exists = true;
    }
    auto t = expect_ident("table name");
    if (!t.ok()) return Err(t.error());
    d->table = t.value();
    return st;
  }

  Result<Statement> parse_alter() {
    advance();  // ALTER
    if (!match_kw("table")) return unexpected("TABLE");
    auto t = expect_ident("table name");
    if (!t.ok()) return Err(t.error());
    AlterTableRlsStmt* a;
    Statement st =
        statement(Statement::Kind::kAlterTableRls, &Statement::alter_rls, a);
    a->table = t.value();
    if (match_kw("enable")) a->enable = true;
    else if (match_kw("disable")) a->enable = false;
    else return unexpected("ENABLE or DISABLE");
    if (!match_kw("row")) return unexpected("ROW");
    if (!match_kw("level")) return unexpected("LEVEL");
    if (!match_kw("security")) return unexpected("SECURITY");
    return st;
  }

  Result<Statement> parse_set() {
    advance();  // SET
    SetStmt* set;
    Statement st = statement(Statement::Kind::kSet, &Statement::set, set);
    // Name: one or more idents up to TO/=/end, joined by single spaces.
    std::string name, value;
    size_t name_parts = 0;
    while (peek().kind == TokKind::kIdent && !peek_kw("to")) {
      if (name_parts++) name += ' ';
      name += advance().text;
      if (peek().kind == TokKind::kOperator && peek().text == "=") break;
    }
    if (!name_parts) return unexpected("setting name");
    if (match_kw("to") || match_op("=")) {
      // Every token's text up to the end of the statement, space-joined
      // (punctuation contributes its empty text).
      for (bool first = true; !at_end() && peek().kind != TokKind::kSemicolon;
           first = false) {
        if (!first) value += ' ';
        value += advance().text;
      }
    }
    set->name = arena_.copy(name);
    set->value = arena_.copy(value);
    return st;
  }

  Result<Statement> parse_grant() {
    advance();  // GRANT
    auto p = expect_ident("privilege");
    if (!p.ok()) return Err(p.error());
    GrantStmt* g;
    Statement st = statement(Statement::Kind::kGrant, &Statement::grant, g);
    g->privilege = arena_.copy(to_upper(p.value()));
    if (!match_kw("on")) return unexpected("ON");
    match_kw("table");
    auto t = expect_ident("table name");
    if (!t.ok()) return Err(t.error());
    g->table = t.value();
    if (!match_kw("to")) return unexpected("TO");
    auto u = expect_ident("grantee");
    if (!u.ok()) return Err(u.error());
    g->grantee = u.value();
    return st;
  }

  Result<Statement> parse_explain() {
    advance();  // EXPLAIN
    if (match(TokKind::kLParen)) {
      // Options such as (COSTS OFF) are accepted and ignored: this engine
      // never prints costs.
      while (!match(TokKind::kRParen)) {
        if (at_end()) return unexpected("')'");
        auto opt = expect_ident("explain option");
        if (!opt.ok()) return Err(opt.error());
        if (peek().kind == TokKind::kIdent && peek().text != ")") advance();
        match(TokKind::kComma);
      }
    }
    return parse_select(Statement::Kind::kExplain);
  }

  Result<Statement> parse_txn() {
    Statement st;
    st.kind = Statement::Kind::kTxn;
    st.txn_keyword = advance().text;
    if (st.txn_keyword == "start") {
      if (!match_kw("transaction")) return unexpected("TRANSACTION");
      st.txn_keyword = "begin";
    }
    match_kw("transaction");
    match_kw("work");
    return st;
  }

  // ---- expressions ----

  /// A new node whose operands are `kids`, in order.
  Node* node(Op op, std::initializer_list<Node*> kids = {},
             std::string_view name = {}) {
    Node* n = arena_.make<Node>();
    n->op = op;
    n->name = name;
    for (Node* k : kids) append(n, k);
    return n;
  }
  /// The builtin operator `symbol` ("not" for NOT) over `kids`, or a
  /// custom operator, which the catalog resolves at call time, when no
  /// builtin has that symbol.
  Node* operator_node(std::string_view symbol,
                      std::initializer_list<Node*> kids) {
    Node* n = node(Op::kOperator, kids, symbol);
    n->builtin = builtin_of(symbol);
    if (n->builtin == kNoBuiltin) n->op = Op::kCustomOp;
    return n;
  }
  /// Adds `kid` as the last operand of `n`.
  static void append(Node* n, Node* kid) {
    Node** at = &n->first;
    while (*at) at = &(*at)->next;
    *at = kid;
    ++n->n_kids;
  }

  Result<Node*> parse_expr(int min_prec) {
    auto lhs = parse_unary();
    if (!lhs.ok()) return lhs;
    Node* left = lhs.value();
    while (true) {
      // Postfix predicates (IS NULL, LIKE, BETWEEN, IN) at precedence 3.
      if (min_prec <= 3 && peek_kw("is")) {
        advance();
        bool neg = match_kw("not");
        if (!match_kw("null")) return unexpected("NULL");
        left = node(Op::kIsNull, {left});
        left->negated = neg;
        continue;
      }
      bool neg = false;
      size_t save = pos_;
      if (min_prec <= 3 && peek_kw("not") &&
          (peek_kw("like", 1) || peek_kw("between", 1) || peek_kw("in", 1))) {
        advance();
        neg = true;
      }
      if (min_prec <= 3 && match_kw("like")) {
        auto rhs = parse_expr(4);
        if (!rhs.ok()) return rhs;
        left = node(Op::kLike, {left, rhs.value()});
        left->negated = neg;
        continue;
      }
      if (min_prec <= 3 && match_kw("between")) {
        auto lo = parse_expr(4);
        if (!lo.ok()) return lo;
        if (!match_kw("and")) return unexpected("AND");
        auto hi = parse_expr(4);
        if (!hi.ok()) return hi;
        left = node(Op::kBetween, {left, lo.value(), hi.value()});
        left->negated = neg;
        continue;
      }
      if (min_prec <= 3 && match_kw("in")) {
        if (!match(TokKind::kLParen)) return unexpected("'('");
        left = node(Op::kInList, {left});
        left->negated = neg;
        for (Node* last = left->first;; last = last->next) {
          auto item = parse_expr(0);
          if (!item.ok()) return item;
          last->next = item.value();
          ++left->n_kids;
          if (match(TokKind::kRParen)) break;
          if (!match(TokKind::kComma)) return unexpected("',' or ')'");
        }
        continue;
      }
      pos_ = save;  // undo a lone NOT that wasn't followed by LIKE/IN/BETWEEN

      std::string_view op;
      if (peek().kind == TokKind::kOperator) {
        op = peek().text;
      } else if (peek_kw("and") || peek_kw("or")) {
        op = peek().text;
      } else {
        break;
      }
      int prec = binary_precedence(op);
      if (prec < min_prec) break;
      advance();
      auto rhs = parse_expr(prec + 1);
      if (!rhs.ok()) return rhs;
      if (op == "and" || op == "or")
        left = node(op == "and" ? Op::kAnd : Op::kOr, {left, rhs.value()}, op);
      else
        left = operator_node(op, {left, rhs.value()});
    }
    return left;
  }

  Result<Node*> parse_unary() {
    if (match_kw("not")) {
      auto inner = parse_expr(3);
      if (!inner.ok()) return inner;
      return operator_node("not", {inner.value()});
    }
    if (match_op("-")) {
      // -9223372036854775808 is the literal INT64_MIN, whose magnitude
      // alone is no int8 (Postgres's doNegate folds it the same way).
      if (peek().kind == TokKind::kNumber &&
          peek().text == "9223372036854775808") {
        advance();
        Node* e = node(Op::kLiteral);
        e->literal = Datum::integer(INT64_MIN);
        return e;
      }
      auto inner = parse_unary();
      if (!inner.ok()) return inner;
      return operator_node("-", {inner.value()});
    }
    if (match_op("+")) return parse_unary();
    return parse_primary();
  }

  Result<Node*> parse_primary() {
    const Token& t = peek();
    switch (t.kind) {
      case TokKind::kNumber: {
        advance();
        Node* e = node(Op::kLiteral);
        const int len = static_cast<int>(t.text.size());
        if (t.text.find_first_of(".eE") != std::string_view::npos) {
          auto d = parse_number<double>(t.text);
          if (!d)
            return Err(strformat("bad numeric literal: %.*s", len, t.text.data()));
          e->literal = Datum::floating(*d);
        } else {
          auto i = parse_number<int64_t>(t.text);
          if (!i)
            return Err(strformat("bad integer literal: %.*s", len, t.text.data()));
          e->literal = Datum::integer(*i);
        }
        return e;
      }
      case TokKind::kString: {
        advance();
        Node* e = node(Op::kLiteral);
        e->literal = Datum::view(t.text);
        return e;
      }
      case TokKind::kParam: {
        auto n = parse_number<int>(t.text);
        if (!n)
          return Err(strformat(
              "syntax error: parameter number $%.*s out of range at offset %zu",
              static_cast<int>(t.text.size()), t.text.data(),
              static_cast<size_t>(t.offset)));
        advance();
        Node* e = node(Op::kParam);
        e->column = static_cast<uint32_t>(*n);
        return e;
      }
      case TokKind::kLParen: {
        advance();
        auto inner = parse_expr(0);
        if (!inner.ok()) return inner;
        if (!match(TokKind::kRParen)) return unexpected("')'");
        return inner;
      }
      case TokKind::kIdent: {
        if (t.text == "null") {
          advance();
          return node(Op::kLiteral);
        }
        if (t.text == "true" || t.text == "false") {
          advance();
          Node* e = node(Op::kLiteral);
          e->literal = Datum::boolean(t.text == "true");
          return e;
        }
        if (t.text == "case") return parse_case();
        if (is_reserved_word(t.text)) return unexpected("an expression");
        // Function call?
        if (peek(1).kind == TokKind::kLParen) {
          std::string_view name = advance().text;
          advance();  // '('
          Node* e = node(is_aggregate_name(name) ? Op::kAggregate : Op::kCall,
                         {}, name);
          if (e->op == Op::kCall && !is_operator_name(name))
            e->builtin = builtin_of(name);
          if (match_op("*")) {
            e->star = true;
            if (!match(TokKind::kRParen)) return unexpected("')'");
            return e;
          }
          if (match_kw("distinct")) e->distinct = true;
          if (!match(TokKind::kRParen)) {
            for (Node** last = &e->first;; last = &(*last)->next) {
              auto arg = parse_expr(0);
              if (!arg.ok()) return arg;
              *last = arg.value();
              ++e->n_kids;
              if (match(TokKind::kRParen)) break;
              if (!match(TokKind::kComma)) return unexpected("',' or ')'");
            }
          }
          return e;
        }
        // Column reference (possibly qualified), bound later.
        Node* e = node(Op::kBadColumn, {}, advance().text);
        if (match(TokKind::kDot)) {
          auto col = expect_ident("column name");
          if (!col.ok()) return Err(col.error());
          e->table = e->name;
          e->name = col.value();
        }
        return e;
      }
      default:
        return unexpected("an expression");
    }
  }

  Result<Node*> parse_case() {
    advance();  // CASE
    Node* e = node(Op::kCase);
    while (match_kw("when")) {
      auto cond = parse_expr(0);
      if (!cond.ok()) return cond;
      if (!match_kw("then")) return unexpected("THEN");
      auto val = parse_expr(0);
      if (!val.ok()) return val;
      append(e, cond.value());
      append(e, val.value());
    }
    if (!e->first) return unexpected("WHEN");
    if (match_kw("else")) {
      auto val = parse_expr(0);
      if (!val.ok()) return val;
      append(e, val.value());
      e->has_else = true;
    }
    if (!match_kw("end")) return unexpected("END");
    return e;
  }

  const TokenList& toks_;
  Script& script_;
  Arena& arena_;
  size_t pos_ = 0;
};

// ---- scripts and arenas ----

Arena::Arena(Arena&& other) noexcept
    : head_(std::exchange(other.head_, nullptr)),
      cur_(std::exchange(other.cur_, nullptr)),
      end_(std::exchange(other.end_, nullptr)),
      next_(other.next_) {}

Arena& Arena::operator=(Arena&& other) noexcept {
  std::swap(head_, other.head_);
  std::swap(cur_, other.cur_);
  std::swap(end_, other.end_);
  std::swap(next_, other.next_);
  return *this;
}

Arena::~Arena() {
  while (head_) ::operator delete(std::exchange(head_, head_->prev));
}

void* Arena::allocate(size_t bytes, size_t align) {
  auto aligned = [align](char* p) {
    return (reinterpret_cast<uintptr_t>(p) + align - 1) & ~(align - 1);
  };
  if (!cur_ || aligned(cur_) + bytes > reinterpret_cast<uintptr_t>(end_)) {
    const size_t size = std::max(next_, bytes + align);
    next_ = 2 * size;
    auto* block = static_cast<Block*>(::operator new(sizeof(Block) + size));
    block->prev = head_;
    head_ = block;
    cur_ = reinterpret_cast<char*>(block + 1);
    end_ = cur_ + size;
  }
  char* p = reinterpret_cast<char*>(aligned(cur_));
  cur_ = p + bytes;
  return p;
}

std::string_view Arena::copy(std::string_view s) {
  char* p = static_cast<char*>(allocate(s.size(), 1));
  if (!s.empty()) std::memcpy(p, s.data(), s.size());
  return {p, s.size()};
}

// The first block holds a short statement's nodes and lists and what its
// execution keeps: a node's 96 bytes per token, which keeps a point
// SELECT's block within malloc's per-size caches.
Script::Script(TokenList text)
    : text_(std::move(text)), arena_(32 + 96 * text_.size()) {}

Result<Script> parse_sql(std::string_view sql) {
  return Parser::parse(sql, false);
}

Result<Script> parse_expression(std::string_view text) {
  return Parser::parse(text, true);
}

// ---- printing ----

namespace {

void print(const Node& n, std::string& out);

/// Prints operand `k`. NOT and the postfix predicates have no parentheses
/// of their own, so what follows could extend them when parsed back; they
/// get some unless the parent's syntax `closes` the operand (an AND/OR
/// operand, NOT's, a call argument or list item, a CASE part).
void print_kid(const Node& k, std::string& out, bool closes) {
  const bool wrap = !closes && (is_operator(k, "not", 1) ||
                                k.op == Op::kIsNull || k.op == Op::kLike ||
                                k.op == Op::kBetween || k.op == Op::kInList);
  if (wrap) out += '(';
  print(k, out);
  if (wrap) out += ')';
}

/// Operands from `k` on, comma-separated.
void print_list(const Node* k, std::string& out) {
  for (; k; k = k->next) {
    print_kid(*k, out, true);
    if (k->next) out += ", ";
  }
}

/// A name as the lexer reads it back: quoted unless a plain identifier.
void print_name(std::string_view s, std::string& out) {
  constexpr std::string_view kWord = "abcdefghijklmnopqrstuvwxyz0123456789_";
  const bool plain = !s.empty() && !(s[0] >= '0' && s[0] <= '9') &&
                     s.find_first_not_of(kWord) == std::string_view::npos;
  if (!plain) out += '"';
  out += s;
  if (!plain) out += '"';
}

void print_literal(const Datum& d, std::string& out) {
  switch (d.type()) {
    case Type::kNull: out += "NULL"; return;
    case Type::kText:
      out.append("'").append(replace_all(d.as_text(), "'", "''")).append("'");
      return;
    // Booleans print as keywords: "t"/"f" would parse back as columns.
    case Type::kBool: out += d.as_bool() ? "true" : "false"; return;
    case Type::kFloat: {
      // The shortest text that reads back as this double, and as a float.
      char buf[32];
      char* end = std::to_chars(buf, buf + sizeof buf, d.as_float()).ptr;
      out.append(buf, end);
      if (std::string_view(buf, end).find_first_not_of("-0123456789") ==
          std::string_view::npos)
        out += ".0";
      return;
    }
    default: d.append_text(out); return;
  }
}

void print(const Node& n, std::string& out) {
  switch (n.op) {
    case Op::kLiteral: return print_literal(n.literal, out);
    case Op::kColumn: case Op::kBadColumn: case Op::kCurrentUser:
      if (!n.table.empty()) {
        print_name(n.table, out);
        out += '.';
      }
      return print_name(n.name, out);
    case Op::kParam: out += strformat("$%u", n.column); return;
    case Op::kCall: case Op::kAggregate: {
      print_name(n.name, out);
      out += n.star ? "(*" : n.distinct ? "(DISTINCT " : "(";
      print_list(n.first, out);
      out += ')';
      return;
    }
    case Op::kIsNull:
      print_kid(*n.first, out, false);
      out += n.negated ? " IS NOT NULL" : " IS NULL";
      return;
    case Op::kLike:
      print_kid(n.kid(0), out, false);
      out += n.negated ? " NOT LIKE " : " LIKE ";
      return print_kid(n.kid(1), out, false);
    case Op::kBetween:
      print_kid(n.kid(0), out, false);
      out += n.negated ? " NOT BETWEEN " : " BETWEEN ";
      print_kid(n.kid(1), out, false);
      out += " AND ";
      return print_kid(n.kid(2), out, false);
    case Op::kInList:
      print_kid(*n.first, out, false);
      out += n.negated ? " NOT IN (" : " IN (";
      print_list(n.first->next, out);
      out += ')';
      return;
    case Op::kCase: {
      out += "CASE";
      const Node* k = n.first;
      for (size_t i = 0; i + 1 < n.n_kids; i += 2, k = k->next->next) {
        out += " WHEN ";
        print_kid(*k, out, true);
        out += " THEN ";
        print_kid(*k->next, out, true);
      }
      if (n.has_else) {
        out += " ELSE ";
        print_kid(*k, out, true);
      }
      out += " END";
      return;
    }
    case Op::kOperator:
      if (n.name == "not") {
        out += "NOT ";
        return print_kid(*n.first, out, true);
      }
      if (n.n_kids == 1) {
        out += "(-";
        const size_t at = out.size();
        print_kid(*n.first, out, false);
        if (out[at] == '-') out.insert(at, 1, ' ');  // "--" starts a comment
        out += ')';
        return;
      }
      [[fallthrough]];
    default: {  // is_infix(n)
      const bool logic = n.op == Op::kAnd || n.op == Op::kOr;
      out += '(';
      print_kid(n.kid(0), out, logic);
      out.append(" ").append(n.name).append(" ");
      print_kid(n.kid(1), out, logic);
      out += ')';
    }
  }
}

}  // namespace

std::string to_sql(const Node& n) {
  std::string out;
  print(n, out);
  return out;
}

}  // namespace rddr::sqldb
