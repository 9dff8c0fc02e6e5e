#include "sqldb/parser.h"

#include <cassert>
#include <charconv>

#include "common/strutil.h"
#include "sqldb/lexer.h"

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

/// Reads all of `s` as a base-10 integer of type T: nullopt when it is
/// not one or does not fit.
template <typename T>
std::optional<T> parse_int(std::string_view s) {
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

class Parser {
 public:
  explicit Parser(TokenList toks) : toks_(std::move(toks)) {}

  Result<std::vector<Statement>> parse_script() {
    std::vector<Statement> stmts;
    while (!at_end()) {
      if (peek().kind == TokKind::kSemicolon) {
        advance();
        continue;
      }
      auto s = parse_statement();
      if (!s.ok()) return Err(s.error());
      stmts.push_back(std::move(s.take()));
      if (!at_end() && peek().kind != TokKind::kSemicolon)
        return unexpected("';' or end of input");
    }
    return stmts;
  }

  Result<ExprPtr> parse_single_expression() {
    auto e = parse_expr(0);
    if (!e.ok()) return e;
    if (!at_end()) return unexpected("end of expression");
    return e;
  }

 private:
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

  /// The identifier's view; callers copy it only when the AST keeps it.
  Result<std::string_view> expect_ident(std::string_view what) {
    if (peek().kind != TokKind::kIdent) return unexpected(what);
    return advance().text;
  }

  // ---- statements ----
  Result<Statement> parse_statement() {
    if (peek_kw("select")) return wrap_select();
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

  Result<Statement> wrap_select() {
    auto sel = parse_select();
    if (!sel.ok()) return Err(sel.error());
    Statement st;
    st.kind = Statement::Kind::kSelect;
    st.select = std::make_unique<SelectStmt>(std::move(sel.take()));
    return st;
  }

  Result<SelectStmt> parse_select() {
    if (!match_kw("select")) return unexpected("SELECT");
    SelectStmt sel;
    // Select list.
    while (true) {
      SelectItem item;
      if (match_op("*")) {
        item.star = true;
      } else {
        auto e = parse_expr(0);
        if (!e.ok()) return Err(e.error());
        item.expr = std::move(e.take());
        if (match_kw("as")) {
          auto a = expect_ident("alias");
          if (!a.ok()) return Err(a.error());
          item.alias = a.take();
        } else if (peek().kind == TokKind::kIdent && !is_clause_kw(peek().text)) {
          item.alias = advance().text;
        }
      }
      sel.items.push_back(std::move(item));
      if (!match(TokKind::kComma)) break;
    }
    // FROM.
    if (match_kw("from")) {
      while (true) {
        auto tr = parse_table_ref();
        if (!tr.ok()) return Err(tr.error());
        sel.from.push_back(std::move(tr.take()));
        if (match(TokKind::kComma)) continue;
        if (peek_kw("join") || peek_kw("inner") || peek_kw("left")) {
          match_kw("inner");
          match_kw("left");  // LEFT treated as INNER in this subset
          if (!match_kw("join")) return unexpected("JOIN");
          auto tr2 = parse_table_ref();
          if (!tr2.ok()) return Err(tr2.error());
          if (!match_kw("on")) return unexpected("ON");
          auto cond = parse_expr(0);
          if (!cond.ok()) return Err(cond.error());
          TableRef ref = std::move(tr2.take());
          ref.join_on = std::move(cond.take());
          sel.from.push_back(std::move(ref));
          // Allow chains of JOIN ... ON ...
          while (peek_kw("join") || peek_kw("inner")) {
            match_kw("inner");
            if (!match_kw("join")) return unexpected("JOIN");
            auto tr3 = parse_table_ref();
            if (!tr3.ok()) return Err(tr3.error());
            if (!match_kw("on")) return unexpected("ON");
            auto cond3 = parse_expr(0);
            if (!cond3.ok()) return Err(cond3.error());
            TableRef ref3 = std::move(tr3.take());
            ref3.join_on = std::move(cond3.take());
            sel.from.push_back(std::move(ref3));
          }
          if (match(TokKind::kComma)) continue;
        }
        break;
      }
    }
    if (match_kw("where")) {
      auto e = parse_expr(0);
      if (!e.ok()) return Err(e.error());
      sel.where = std::move(e.take());
    }
    if (peek_kw("group")) {
      advance();
      if (!match_kw("by")) return unexpected("BY");
      while (true) {
        auto e = parse_expr(0);
        if (!e.ok()) return Err(e.error());
        sel.group_by.push_back(std::move(e.take()));
        if (!match(TokKind::kComma)) break;
      }
    }
    if (match_kw("having")) {
      auto e = parse_expr(0);
      if (!e.ok()) return Err(e.error());
      sel.having = std::move(e.take());
    }
    if (peek_kw("order")) {
      advance();
      if (!match_kw("by")) return unexpected("BY");
      while (true) {
        OrderItem oi;
        auto e = parse_expr(0);
        if (!e.ok()) return Err(e.error());
        oi.expr = std::move(e.take());
        if (match_kw("desc")) oi.descending = true;
        else match_kw("asc");
        sel.order_by.push_back(std::move(oi));
        if (!match(TokKind::kComma)) break;
      }
    }
    if (match_kw("limit")) {
      if (peek().kind != TokKind::kNumber) return unexpected("limit count");
      auto v = parse_int<int64_t>(advance().text);
      if (!v) return Err("bad LIMIT value");
      sel.limit = *v;
    }
    return sel;
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
    ref.table = t.take();
    if (match_kw("as")) {
      auto a = expect_ident("alias");
      if (!a.ok()) return Err(a.error());
      ref.alias = a.take();
    } else if (peek().kind == TokKind::kIdent && !is_clause_kw(peek().text)) {
      ref.alias = advance().text;
    }
    if (ref.alias.empty()) ref.alias = ref.table;
    return ref;
  }

  Result<Statement> parse_insert() {
    advance();  // INSERT
    if (!match_kw("into")) return unexpected("INTO");
    auto t = expect_ident("table name");
    if (!t.ok()) return Err(t.error());
    InsertStmt ins;
    ins.table = t.take();
    if (match(TokKind::kLParen)) {
      while (true) {
        auto c = expect_ident("column name");
        if (!c.ok()) return Err(c.error());
        ins.columns.emplace_back(c.take());
        if (match(TokKind::kRParen)) break;
        if (!match(TokKind::kComma)) return unexpected("',' or ')'");
      }
    }
    if (!match_kw("values")) return unexpected("VALUES");
    while (true) {
      if (!match(TokKind::kLParen)) return unexpected("'('");
      std::vector<ExprPtr> row;
      while (true) {
        auto e = parse_expr(0);
        if (!e.ok()) return Err(e.error());
        row.push_back(std::move(e.take()));
        if (match(TokKind::kRParen)) break;
        if (!match(TokKind::kComma)) return unexpected("',' or ')'");
      }
      ins.rows.push_back(std::move(row));
      if (!match(TokKind::kComma)) break;
    }
    Statement st;
    st.kind = Statement::Kind::kInsert;
    st.insert = std::make_unique<InsertStmt>(std::move(ins));
    return st;
  }

  Result<Statement> parse_update() {
    advance();  // UPDATE
    auto t = expect_ident("table name");
    if (!t.ok()) return Err(t.error());
    UpdateStmt up;
    up.table = t.take();
    if (!match_kw("set")) return unexpected("SET");
    while (true) {
      auto c = expect_ident("column name");
      if (!c.ok()) return Err(c.error());
      if (!match_op("=")) return unexpected("'='");
      auto e = parse_expr(0);
      if (!e.ok()) return Err(e.error());
      up.sets.emplace_back(c.take(), std::move(e.take()));
      if (!match(TokKind::kComma)) break;
    }
    if (match_kw("where")) {
      auto e = parse_expr(0);
      if (!e.ok()) return Err(e.error());
      up.where = std::move(e.take());
    }
    Statement st;
    st.kind = Statement::Kind::kUpdate;
    st.update = std::make_unique<UpdateStmt>(std::move(up));
    return st;
  }

  Result<Statement> parse_delete() {
    advance();  // DELETE
    if (!match_kw("from")) return unexpected("FROM");
    auto t = expect_ident("table name");
    if (!t.ok()) return Err(t.error());
    DeleteStmt del;
    del.table = t.take();
    if (match_kw("where")) {
      auto e = parse_expr(0);
      if (!e.ok()) return Err(e.error());
      del.where = std::move(e.take());
    }
    Statement st;
    st.kind = Statement::Kind::kDelete;
    st.del = std::make_unique<DeleteStmt>(std::move(del));
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
    CreateTableStmt ct;
    ct.table = t.take();
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
      ct.columns.push_back(ColumnDef{std::string(c.take()), ty.take()});
      if (match(TokKind::kRParen)) break;
      if (!match(TokKind::kComma)) return unexpected("',' or ')'");
    }
    Statement st;
    st.kind = Statement::Kind::kCreateTable;
    st.create_table = std::make_unique<CreateTableStmt>(std::move(ct));
    return st;
  }

  /// Type spec: one or two idents possibly with (n) — e.g. "double
  /// precision", "varchar(10)", "numeric(12,2)".
  Result<Type> parse_type_spec() {
    auto first = expect_ident("type name");
    if (!first.ok()) return Err(first.error());
    std::string_view name = first.take();
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
    CreateFunctionStmt fn;
    fn.name = nm.take();
    if (!match(TokKind::kLParen)) return unexpected("'('");
    if (!match(TokKind::kRParen)) {
      while (true) {
        // Arg may be "type" or "name type"; our subset is positional types.
        auto ty = parse_type_spec();
        if (!ty.ok()) return Err(ty.error());
        fn.arg_types.push_back(ty.take());
        if (match(TokKind::kRParen)) break;
        if (!match(TokKind::kComma)) return unexpected("',' or ')'");
      }
    }
    if (!match_kw("returns")) return unexpected("RETURNS");
    auto rty = parse_type_spec();
    if (!rty.ok()) return Err(rty.error());
    fn.return_type = rty.take();
    if (!match_kw("as")) return unexpected("AS");
    if (peek().kind != TokKind::kString) return unexpected("function body string");
    std::string_view body = advance().text;
    if (!match_kw("language")) return unexpected("LANGUAGE");
    auto lang = expect_ident("language name");
    if (!lang.ok()) return Err(lang.error());
    fn.language = lang.take();
    match_kw("immutable");
    match_kw("stable");
    match_kw("volatile");
    auto parsed = parse_plpgsql_body(body, fn);
    if (!parsed.ok()) return Err(parsed.error());
    Statement st;
    st.kind = Statement::Kind::kCreateFunction;
    st.create_function = std::make_unique<CreateFunctionStmt>(std::move(fn));
    return st;
  }

  /// Parses the plpgsql subset:
  ///   BEGIN [RAISE NOTICE 'fmt' [, expr]* ;] RETURN expr ; END [;]
  Result<bool> parse_plpgsql_body(std::string_view body,
                                  CreateFunctionStmt& fn) {
    auto toks = lex_sql(body);
    if (!toks.ok()) return Err("in function body: " + toks.error());
    Parser sub(std::move(toks.take()));
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
        fn.notice_args.push_back(std::move(e.take()));
      }
      if (!sub.match(TokKind::kSemicolon)) return sub.unexpected("';'");
    }
    if (!sub.match_kw("return")) return sub.unexpected("RETURN");
    auto ret = sub.parse_expr(0);
    if (!ret.ok()) return Err(ret.error());
    fn.return_expr = std::move(ret.take());
    if (!sub.match(TokKind::kSemicolon)) return sub.unexpected("';'");
    if (!sub.match_kw("end")) return sub.unexpected("END");
    sub.match(TokKind::kSemicolon);
    if (!sub.at_end()) return sub.unexpected("end of body");
    return true;
  }

  Result<Statement> parse_create_operator() {
    if (peek().kind != TokKind::kOperator) return unexpected("operator symbol");
    CreateOperatorStmt op;
    op.symbol = advance().text;
    if (!match(TokKind::kLParen)) return unexpected("'('");
    while (true) {
      auto key = expect_ident("operator attribute");
      if (!key.ok()) return Err(key.error());
      if (!match_op("=")) return unexpected("'='");
      std::string_view k = key.take();
      if (k == "procedure" || k == "function") {
        auto v = expect_ident("procedure name");
        if (!v.ok()) return Err(v.error());
        op.procedure = v.take();
      } else if (k == "leftarg") {
        auto ty = parse_type_spec();
        if (!ty.ok()) return Err(ty.error());
        op.left_type = ty.take();
      } else if (k == "rightarg") {
        auto ty = parse_type_spec();
        if (!ty.ok()) return Err(ty.error());
        op.right_type = ty.take();
      } else if (k == "restrict") {
        auto v = expect_ident("estimator name");
        if (!v.ok()) return Err(v.error());
        op.restrict_estimator = v.take();
      } else {
        return Err(strformat("unknown operator attribute: %.*s",
                             static_cast<int>(k.size()), k.data()));
      }
      if (match(TokKind::kRParen)) break;
      if (!match(TokKind::kComma)) return unexpected("',' or ')'");
    }
    Statement st;
    st.kind = Statement::Kind::kCreateOperator;
    st.create_operator = std::make_unique<CreateOperatorStmt>(std::move(op));
    return st;
  }

  Result<Statement> parse_create_policy_stmt() {
    auto nm = expect_ident("policy name");
    if (!nm.ok()) return Err(nm.error());
    CreatePolicyStmt pol;
    pol.name = nm.take();
    if (!match_kw("on")) return unexpected("ON");
    auto t = expect_ident("table name");
    if (!t.ok()) return Err(t.error());
    pol.table = t.take();
    if (match_kw("for")) {
      advance();  // SELECT/ALL/...
    }
    if (match_kw("to")) {
      auto r = expect_ident("role name");
      if (!r.ok()) return Err(r.error());
      pol.role = r.take();
    }
    if (!match_kw("using")) return unexpected("USING");
    if (!match(TokKind::kLParen)) return unexpected("'('");
    auto e = parse_expr(0);
    if (!e.ok()) return Err(e.error());
    pol.using_expr = std::move(e.take());
    if (!match(TokKind::kRParen)) return unexpected("')'");
    Statement st;
    st.kind = Statement::Kind::kCreatePolicy;
    st.create_policy = std::make_unique<CreatePolicyStmt>(std::move(pol));
    return st;
  }

  Result<Statement> parse_drop() {
    advance();  // DROP
    if (!match_kw("table")) return unexpected("TABLE");
    DropTableStmt d;
    if (match_kw("if")) {
      if (!match_kw("exists")) return unexpected("EXISTS");
      d.if_exists = true;
    }
    auto t = expect_ident("table name");
    if (!t.ok()) return Err(t.error());
    d.table = t.take();
    Statement st;
    st.kind = Statement::Kind::kDropTable;
    st.drop_table = std::make_unique<DropTableStmt>(std::move(d));
    return st;
  }

  Result<Statement> parse_alter() {
    advance();  // ALTER
    if (!match_kw("table")) return unexpected("TABLE");
    auto t = expect_ident("table name");
    if (!t.ok()) return Err(t.error());
    AlterTableRlsStmt a;
    a.table = t.take();
    if (match_kw("enable")) a.enable = true;
    else if (match_kw("disable")) a.enable = false;
    else return unexpected("ENABLE or DISABLE");
    if (!match_kw("row")) return unexpected("ROW");
    if (!match_kw("level")) return unexpected("LEVEL");
    if (!match_kw("security")) return unexpected("SECURITY");
    Statement st;
    st.kind = Statement::Kind::kAlterTableRls;
    st.alter_rls = std::make_unique<AlterTableRlsStmt>(std::move(a));
    return st;
  }

  Result<Statement> parse_set() {
    advance();  // SET
    SetStmt set;
    // Name: one or more idents up to TO/=/end, joined by single spaces.
    size_t name_parts = 0;
    while (peek().kind == TokKind::kIdent && !peek_kw("to")) {
      if (name_parts++) set.name += ' ';
      set.name += advance().text;
      if (peek().kind == TokKind::kOperator && peek().text == "=") break;
    }
    if (!name_parts) return unexpected("setting name");
    if (match_kw("to") || match_op("=")) {
      // Every token's text up to the end of the statement, space-joined
      // (punctuation contributes its empty text).
      for (bool first = true; !at_end() && peek().kind != TokKind::kSemicolon;
           first = false) {
        if (!first) set.value += ' ';
        set.value += advance().text;
      }
    }
    Statement st;
    st.kind = Statement::Kind::kSet;
    st.set = std::make_unique<SetStmt>(std::move(set));
    return st;
  }

  Result<Statement> parse_grant() {
    advance();  // GRANT
    auto p = expect_ident("privilege");
    if (!p.ok()) return Err(p.error());
    GrantStmt g;
    g.privilege = to_upper(p.take());
    if (!match_kw("on")) return unexpected("ON");
    match_kw("table");
    auto t = expect_ident("table name");
    if (!t.ok()) return Err(t.error());
    g.table = t.take();
    if (!match_kw("to")) return unexpected("TO");
    auto u = expect_ident("grantee");
    if (!u.ok()) return Err(u.error());
    g.grantee = u.take();
    Statement st;
    st.kind = Statement::Kind::kGrant;
    st.grant = std::make_unique<GrantStmt>(std::move(g));
    return st;
  }

  Result<Statement> parse_explain() {
    advance();  // EXPLAIN
    ExplainStmt ex;
    if (match(TokKind::kLParen)) {
      while (!match(TokKind::kRParen)) {
        if (at_end()) return unexpected("')'");
        auto opt = expect_ident("explain option");
        if (!opt.ok()) return Err(opt.error());
        std::string_view key = opt.take();
        std::string_view val;
        if (peek().kind == TokKind::kIdent && peek().text != ")") {
          val = advance().text;
        }
        if (key == "costs" && (val == "off" || val == "false"))
          ex.costs_off = true;
        match(TokKind::kComma);
      }
    }
    auto sel = parse_select();
    if (!sel.ok()) return Err(sel.error());
    ex.select = std::make_unique<SelectStmt>(std::move(sel.take()));
    Statement st;
    st.kind = Statement::Kind::kExplain;
    st.explain = std::make_unique<ExplainStmt>(std::move(ex));
    return st;
  }

  Result<Statement> parse_txn() {
    TxnStmt t;
    t.keyword = advance().text;
    if (t.keyword == "start") {
      if (!match_kw("transaction")) return unexpected("TRANSACTION");
      t.keyword = "begin";
    }
    match_kw("transaction");
    match_kw("work");
    Statement st;
    st.kind = Statement::Kind::kTxn;
    st.txn = std::make_unique<TxnStmt>(std::move(t));
    return st;
  }

  // ---- expressions ----
  Result<ExprPtr> parse_expr(int min_prec) {
    auto lhs = parse_unary();
    if (!lhs.ok()) return lhs;
    ExprPtr left = std::move(lhs.take());
    while (true) {
      // Postfix predicates (IS NULL, LIKE, BETWEEN, IN) at precedence 3.
      if (min_prec <= 3 && peek_kw("is")) {
        advance();
        bool neg = match_kw("not");
        if (!match_kw("null")) return unexpected("NULL");
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kIsNull;
        e->negated = neg;
        e->args.push_back(std::move(left));
        left = std::move(e);
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
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kLike;
        e->negated = neg;
        e->args.push_back(std::move(left));
        e->args.push_back(std::move(rhs.take()));
        left = std::move(e);
        continue;
      }
      if (min_prec <= 3 && match_kw("between")) {
        auto lo = parse_expr(4);
        if (!lo.ok()) return lo;
        if (!match_kw("and")) return unexpected("AND");
        auto hi = parse_expr(4);
        if (!hi.ok()) return hi;
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kBetween;
        e->negated = neg;
        e->args.push_back(std::move(left));
        e->args.push_back(std::move(lo.take()));
        e->args.push_back(std::move(hi.take()));
        left = std::move(e);
        continue;
      }
      if (min_prec <= 3 && match_kw("in")) {
        if (!match(TokKind::kLParen)) return unexpected("'('");
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kInList;
        e->negated = neg;
        e->args.push_back(std::move(left));
        while (true) {
          auto item = parse_expr(0);
          if (!item.ok()) return item;
          e->args.push_back(std::move(item.take()));
          if (match(TokKind::kRParen)) break;
          if (!match(TokKind::kComma)) return unexpected("',' or ')'");
        }
        left = std::move(e);
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
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kBinary;
      e->op = op;
      e->args.reserve(2);
      e->args.push_back(std::move(left));
      e->args.push_back(std::move(rhs.take()));
      left = std::move(e);
    }
    return left;
  }

  Result<ExprPtr> parse_unary() {
    if (match_kw("not")) {
      auto inner = parse_expr(3);
      if (!inner.ok()) return inner;
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kUnary;
      e->op = "not";
      e->args.push_back(std::move(inner.take()));
      return ExprPtr(std::move(e));
    }
    if (match_op("-")) {
      auto inner = parse_unary();
      if (!inner.ok()) return inner;
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kUnary;
      e->op = "-";
      e->args.push_back(std::move(inner.take()));
      return ExprPtr(std::move(e));
    }
    if (match_op("+")) return parse_unary();
    return parse_primary();
  }

  Result<ExprPtr> parse_primary() {
    const Token& t = peek();
    switch (t.kind) {
      case TokKind::kNumber: {
        advance();
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kLiteral;
        const int len = static_cast<int>(t.text.size());
        if (t.text.find_first_of(".eE") != std::string_view::npos) {
          auto d = parse_f64(t.text);
          if (!d)
            return Err(strformat("bad numeric literal: %.*s", len, t.text.data()));
          e->literal = Datum::floating(*d);
        } else {
          auto i = parse_int<int64_t>(t.text);
          if (!i)
            return Err(strformat("bad integer literal: %.*s", len, t.text.data()));
          e->literal = Datum::integer(*i);
        }
        return ExprPtr(std::move(e));
      }
      case TokKind::kString: {
        advance();
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kLiteral;
        e->literal = Datum::text(std::string(t.text));
        return ExprPtr(std::move(e));
      }
      case TokKind::kParam: {
        auto n = parse_int<int>(t.text);
        if (!n)
          return Err(strformat(
              "syntax error: parameter number $%.*s out of range at offset %zu",
              static_cast<int>(t.text.size()), t.text.data(),
              static_cast<size_t>(t.offset)));
        advance();
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kParam;
        e->param_index = *n;
        return ExprPtr(std::move(e));
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
          auto e = std::make_unique<Expr>();
          e->kind = ExprKind::kLiteral;
          return ExprPtr(std::move(e));
        }
        if (t.text == "true" || t.text == "false") {
          advance();
          auto e = std::make_unique<Expr>();
          e->kind = ExprKind::kLiteral;
          e->literal = Datum::boolean(t.text == "true");
          return ExprPtr(std::move(e));
        }
        if (t.text == "case") return parse_case();
        if (is_reserved_word(t.text)) return unexpected("an expression");
        // Function call?
        if (peek(1).kind == TokKind::kLParen) {
          std::string_view name = advance().text;
          advance();  // '('
          auto e = std::make_unique<Expr>();
          e->kind = is_aggregate_name(name) ? ExprKind::kAggregate
                                            : ExprKind::kFuncCall;
          e->func_name = name;
          if (match_op("*")) {
            e->star = true;
            if (!match(TokKind::kRParen)) return unexpected("')'");
            return ExprPtr(std::move(e));
          }
          if (match_kw("distinct")) e->distinct = true;
          if (!match(TokKind::kRParen)) {
            while (true) {
              auto arg = parse_expr(0);
              if (!arg.ok()) return arg;
              e->args.push_back(std::move(arg.take()));
              if (match(TokKind::kRParen)) break;
              if (!match(TokKind::kComma)) return unexpected("',' or ')'");
            }
          }
          return ExprPtr(std::move(e));
        }
        // Column reference (possibly qualified).
        std::string_view first = advance().text;
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kColumnRef;
        if (match(TokKind::kDot)) {
          auto col = expect_ident("column name");
          if (!col.ok()) return Err(col.error());
          e->table = first;
          e->column = col.take();
        } else {
          e->column = first;
        }
        return ExprPtr(std::move(e));
      }
      default:
        return unexpected("an expression");
    }
  }

  Result<ExprPtr> parse_case() {
    advance();  // CASE
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kCase;
    while (match_kw("when")) {
      auto cond = parse_expr(0);
      if (!cond.ok()) return cond;
      if (!match_kw("then")) return unexpected("THEN");
      auto val = parse_expr(0);
      if (!val.ok()) return val;
      e->args.push_back(std::move(cond.take()));
      e->args.push_back(std::move(val.take()));
    }
    if (e->args.empty()) return unexpected("WHEN");
    if (match_kw("else")) {
      auto val = parse_expr(0);
      if (!val.ok()) return val;
      e->args.push_back(std::move(val.take()));
      e->case_has_else = true;
    }
    if (!match_kw("end")) return unexpected("END");
    return ExprPtr(std::move(e));
  }

  TokenList toks_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::vector<Statement>> parse_sql(std::string_view sql) {
  auto toks = lex_sql(sql);
  if (!toks.ok()) return Err(toks.error());
  Parser p(std::move(toks.take()));
  return p.parse_script();
}

Result<ExprPtr> parse_expression(std::string_view text) {
  auto toks = lex_sql(text);
  if (!toks.ok()) return Err(toks.error());
  Parser p(std::move(toks.take()));
  return p.parse_single_expression();
}

// ---- Expr printing ----

ExprPtr make_literal(Datum d) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(d);
  return e;
}

ExprPtr make_column(std::string table, std::string column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->table = std::move(table);
  e->column = std::move(column);
  return e;
}

ExprPtr make_binary(std::string op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->op = std::move(op);
  e->args.push_back(std::move(lhs));
  e->args.push_back(std::move(rhs));
  return e;
}

std::string Expr::to_string() const {
  switch (kind) {
    case ExprKind::kLiteral:
      if (literal.is_null()) return "NULL";
      if (literal.type() == Type::kText)
        return "'" + replace_all(literal.as_text(), "'", "''") + "'";
      // Booleans must print as keywords ("t"/"f" would re-parse as column
      // references — to_string() output must round-trip through the parser).
      if (literal.type() == Type::kBool)
        return literal.as_bool() ? "true" : "false";
      return literal.to_text();
    case ExprKind::kColumnRef:
      return table.empty() ? column : table + "." + column;
    case ExprKind::kParam:
      return "$" + std::to_string(param_index);
    case ExprKind::kUnary:
      return op == "not" ? "NOT " + args[0]->to_string()
                         : "(" + op + args[0]->to_string() + ")";
    case ExprKind::kBinary:
      return "(" + args[0]->to_string() + " " + op + " " +
             args[1]->to_string() + ")";
    case ExprKind::kFuncCall:
    case ExprKind::kAggregate: {
      std::string s = func_name + "(";
      if (star) s += "*";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i) s += ", ";
        s += args[i]->to_string();
      }
      return s + ")";
    }
    case ExprKind::kIsNull:
      return args[0]->to_string() + (negated ? " IS NOT NULL" : " IS NULL");
    case ExprKind::kLike:
      return args[0]->to_string() + (negated ? " NOT LIKE " : " LIKE ") +
             args[1]->to_string();
    case ExprKind::kBetween:
      return args[0]->to_string() + (negated ? " NOT BETWEEN " : " BETWEEN ") +
             args[1]->to_string() + " AND " + args[2]->to_string();
    case ExprKind::kInList: {
      std::string s = args[0]->to_string() + (negated ? " NOT IN (" : " IN (");
      for (size_t i = 1; i < args.size(); ++i) {
        if (i > 1) s += ", ";
        s += args[i]->to_string();
      }
      return s + ")";
    }
    case ExprKind::kCase: {
      std::string s = "CASE";
      size_t pairs = args.size() / 2;
      for (size_t i = 0; i < pairs; ++i) {
        s += " WHEN " + args[2 * i]->to_string() + " THEN " +
             args[2 * i + 1]->to_string();
      }
      if (case_has_else) s += " ELSE " + args.back()->to_string();
      return s + " END";
    }
  }
  return "?";
}

}  // namespace rddr::sqldb
