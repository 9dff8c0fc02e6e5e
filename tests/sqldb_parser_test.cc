// Focused tests for the SQL lexer and parser: token forms the exploits
// depend on (quote escaping, dollar-quoting, custom operator symbols,
// parameters), error reporting, and expression semantics.
#include <gtest/gtest.h>

#include "sqldb/engine.h"
#include "sqldb/lexer.h"
#include "sqldb/parser.h"

namespace rddr::sqldb {
namespace {

// Returns the owning list: token views are only valid while it lives.
TokenList lex_ok(std::string_view sql) {
  auto r = lex_sql(sql);
  EXPECT_TRUE(r.ok()) << r.error();
  return r.ok() ? r.take() : TokenList{};
}

std::string lex_error(std::string_view sql) {
  auto r = lex_sql(sql);
  EXPECT_FALSE(r.ok());
  return r.ok() ? "" : r.error();
}

TEST(Lexer, IdentifiersAreLowercased) {
  auto toks = lex_ok("SELECT Foo FROM Bar");
  ASSERT_GE(toks.size(), 4u);
  EXPECT_EQ(toks[0].text, "select");
  EXPECT_EQ(toks[1].text, "foo");
  EXPECT_EQ(toks[3].text, "bar");
}

TEST(Lexer, QuotedIdentifiersKeepCase) {
  auto toks = lex_ok("SELECT \"MixedCase\"");
  EXPECT_EQ(toks[1].text, "MixedCase");
}

TEST(Lexer, StringEscaping) {
  // '' inside a string is a literal quote — the semantics the DVWA
  // sanitisation (quote doubling) relies on.
  auto toks = lex_ok("SELECT 'it''s'");
  ASSERT_EQ(toks[1].kind, TokKind::kString);
  EXPECT_EQ(toks[1].text, "it's");
}

TEST(Lexer, UnterminatedStringFails) {
  EXPECT_EQ(lex_error("SELECT 'oops"), "unterminated string literal");
}

TEST(Lexer, DollarQuotedBody) {
  auto toks = lex_ok("AS $$BEGIN RETURN 1; END$$ LANGUAGE x");
  ASSERT_EQ(toks[1].kind, TokKind::kString);
  EXPECT_EQ(toks[1].text, "BEGIN RETURN 1; END");
}

TEST(Lexer, Parameters) {
  auto toks = lex_ok("$1 > $2");
  EXPECT_EQ(toks[0].kind, TokKind::kParam);
  EXPECT_EQ(toks[0].text, "1");
  EXPECT_EQ(toks[2].text, "2");
}

TEST(Lexer, MultiCharOperators) {
  auto toks = lex_ok("a >>> b <<< c <> d >= e");
  EXPECT_EQ(toks[1].text, ">>>");
  EXPECT_EQ(toks[3].text, "<<<");
  EXPECT_EQ(toks[5].text, "<>");
  EXPECT_EQ(toks[7].text, ">=");
}

TEST(Lexer, CommentsSkipped) {
  auto toks = lex_ok("SELECT 1 -- trailing comment\n + /* block */ 2");
  // select, 1, +, 2, end
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(toks[2].text, "+");
}

TEST(Lexer, UnterminatedBlockCommentFails) {
  EXPECT_EQ(lex_error("SELECT 1 /* oops"), "unterminated block comment");
}

TEST(Lexer, UppercaseSurvivesInsideQuotes) {
  auto toks = lex_ok("SELECT 'AbC', \"DeF\", $$GhI$$ FROM Tbl");
  ASSERT_EQ(toks.size(), 9u);
  EXPECT_EQ(toks[1].kind, TokKind::kString);
  EXPECT_EQ(toks[1].text, "AbC");
  EXPECT_EQ(toks[3].kind, TokKind::kIdent);
  EXPECT_EQ(toks[3].text, "DeF");
  EXPECT_EQ(toks[5].kind, TokKind::kString);
  EXPECT_EQ(toks[5].text, "GhI");
  EXPECT_EQ(toks[7].text, "tbl");
}

TEST(Lexer, ShortenedLiteralLeavesNextTokenIntact) {
  // Resolving '' shortens the literal in place; every token after it,
  // lowercased or copied verbatim, must still read its own bytes.
  auto toks = lex_ok("'it''s' AS X >= 42");
  ASSERT_EQ(toks.size(), 6u);
  EXPECT_EQ(toks[0].text, "it's");
  EXPECT_EQ(toks[1].text, "as");
  EXPECT_EQ(toks[2].text, "x");
  EXPECT_EQ(toks[3].text, ">=");
  EXPECT_EQ(toks[4].text, "42");
  auto quotes = lex_ok("'''''''' Y");
  ASSERT_EQ(quotes.size(), 3u);
  EXPECT_EQ(quotes[0].text, "'''");
  EXPECT_EQ(quotes[1].text, "y");
}

TEST(Lexer, InputShorterThanSmallStringBuffer) {
  auto toks = lex_ok("SELECT A;");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0].text, "select");
  EXPECT_EQ(toks[1].text, "a");
  EXPECT_EQ(toks[2].kind, TokKind::kSemicolon);
  EXPECT_EQ(toks[3].kind, TokKind::kEnd);
  EXPECT_EQ(toks[3].offset, 9u);
  EXPECT_EQ(lex_ok("").size(), 1u);
}

TEST(Lexer, TokensSurviveMovingTheirOwner) {
  // Short texts (which a std::string would keep inline) and a longer one,
  // each moved into a vector that then reallocates: every view must still
  // point at live, unchanged bytes.
  std::vector<TokenList> lists;
  lists.push_back(lex_ok("SELECT Q"));
  lists.push_back(lex_ok("'x''y'"));
  lists.push_back(lex_ok("SELECT abalance FROM pgbench_accounts WHERE aid = 42;"));
  for (int i = 0; i < 64; ++i) lists.push_back(lex_ok("1"));
  EXPECT_EQ(lists[0][1].text, "q");
  EXPECT_EQ(lists[1][0].text, "x'y");
  EXPECT_EQ(lists[2][3].text, "pgbench_accounts");
  EXPECT_EQ(lists[2][7].text, "42");
  TokenList moved = std::move(lists[0]);
  EXPECT_EQ(moved[0].text, "select");
  EXPECT_EQ(moved[1].text, "q");
}

TEST(Lexer, ErrorMessagesAndOffsets) {
  EXPECT_EQ(lex_error("SELECT \"oops"), "unterminated quoted identifier");
  EXPECT_EQ(lex_error("AS $$oops"), "unterminated dollar-quoted string");
  EXPECT_EQ(lex_error("SELECT $x"), "stray '$'");
  EXPECT_EQ(lex_error("SELECT 'a''b' ` 1"),
            "unexpected character '`' at offset 14");
  // Token offsets count bytes of the original text, not of the
  // normalized copy.
  auto toks = lex_ok("SELECT 'a''b' 'c'");
  EXPECT_EQ(toks[2].offset, 14u);
  auto r = parse_sql("SELECT 'a''b' 'c'");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(),
            "syntax error: expected ';' or end of input, got 'c' at offset 14");
  auto r2 = parse_sql("SELECT a FROM t WHERE ;");
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.error(),
            "syntax error: expected an expression, got '' at offset 22");
}

TEST(Lexer, NumbersWithExponents) {
  auto toks = lex_ok("1 2.5 1e3 2.5e-2 .5");
  EXPECT_EQ(toks[0].text, "1");
  EXPECT_EQ(toks[1].text, "2.5");
  EXPECT_EQ(toks[2].text, "1e3");
  EXPECT_EQ(toks[3].text, "2.5e-2");
  EXPECT_EQ(toks[4].text, ".5");
}

TEST(Parser, PrecedenceArithmeticOverComparison) {
  auto e = parse_expression("1 + 2 * 3 = 7");
  ASSERT_TRUE(e.ok()) << e.error();
  EXPECT_EQ(e.value()->to_string(), "((1 + (2 * 3)) = 7)");
}

TEST(Parser, PrecedenceAndOr) {
  auto e = parse_expression("a = 1 OR b = 2 AND c = 3");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value()->to_string(),
            "((a = 1) or ((b = 2) and (c = 3)))");
}

TEST(Parser, NotBindsLooserThanComparison) {
  auto e = parse_expression("NOT a = 1");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value()->to_string(), "NOT (a = 1)");
}

TEST(Parser, CustomOperatorAtComparisonLevel) {
  auto e = parse_expression("col >>> 0 AND x = 1");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value()->to_string(), "((col >>> 0) and (x = 1))");
}

TEST(Parser, QualifiedColumnsAndFunctions) {
  auto e = parse_expression("round(t.val, 2) || lower(name)");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value()->to_string(), "(round(t.val, 2) || lower(name))");
}

TEST(Parser, SelectClausesRoundTrip) {
  auto r = parse_sql(
      "SELECT a, b AS bee, count(*) FROM t1 JOIN t2 ON t1.id = t2.id "
      "WHERE a > 1 GROUP BY a, b HAVING count(*) > 2 "
      "ORDER BY a DESC, bee LIMIT 7;");
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_EQ(r.value().size(), 1u);
  const auto& sel = *r.value()[0].select;
  EXPECT_EQ(sel.items.size(), 3u);
  EXPECT_EQ(sel.items[1].alias, "bee");
  EXPECT_EQ(sel.from.size(), 2u);
  ASSERT_NE(sel.from[1].join_on, nullptr);
  EXPECT_EQ(sel.group_by.size(), 2u);
  ASSERT_NE(sel.having, nullptr);
  ASSERT_EQ(sel.order_by.size(), 2u);
  EXPECT_TRUE(sel.order_by[0].descending);
  EXPECT_FALSE(sel.order_by[1].descending);
  EXPECT_EQ(sel.limit.value(), 7);
}

TEST(Parser, MultiStatementScript) {
  auto r = parse_sql("CREATE TABLE t (a int); INSERT INTO t VALUES (1); "
                     "SELECT * FROM t;");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().size(), 3u);
}

TEST(Parser, CreateFunctionPlpgsqlBody) {
  auto r = parse_sql(
      "CREATE FUNCTION leak2(integer,integer) RETURNS boolean "
      "AS $$BEGIN RAISE NOTICE 'leak % %', $1, $2; RETURN $1 > $2; END$$ "
      "LANGUAGE plpgsql immutable;");
  ASSERT_TRUE(r.ok()) << r.error();
  const auto& fn = *r.value()[0].create_function;
  EXPECT_EQ(fn.name, "leak2");
  EXPECT_EQ(fn.arg_types.size(), 2u);
  ASSERT_TRUE(fn.notice_format.has_value());
  EXPECT_EQ(*fn.notice_format, "leak % %");
  EXPECT_EQ(fn.notice_args.size(), 2u);
  ASSERT_NE(fn.return_expr, nullptr);
  EXPECT_EQ(fn.return_expr->to_string(), "($1 > $2)");
}

TEST(Parser, CreateFunctionSingleQuotedBody) {
  // Listing 2 form: body in a regular string with doubled quotes.
  auto r = parse_sql(
      "CREATE FUNCTION op_leak(int, int) RETURNS bool AS "
      "'BEGIN RAISE NOTICE ''leak %, %'', $1, $2; RETURN $1 < $2; END' "
      "LANGUAGE plpgsql;");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(*r.value()[0].create_function->notice_format, "leak %, %");
}

TEST(Parser, CreateFunctionRejectsMalformedBody) {
  EXPECT_FALSE(parse_sql("CREATE FUNCTION f(int) RETURNS bool AS "
                         "$$NOT PLPGSQL$$ LANGUAGE plpgsql;")
                   .ok());
}

TEST(Parser, CreateOperatorAttributes) {
  auto r = parse_sql(
      "CREATE OPERATOR >>> (procedure=leak2, leftarg=integer, "
      "rightarg=integer, restrict=scalargtsel);");
  ASSERT_TRUE(r.ok()) << r.error();
  const auto& op = *r.value()[0].create_operator;
  EXPECT_EQ(op.symbol, ">>>");
  EXPECT_EQ(op.procedure, "leak2");
  EXPECT_EQ(op.restrict_estimator, "scalargtsel");
}

TEST(Parser, ExplainCostsOff) {
  auto r = parse_sql("EXPLAIN (COSTS OFF) SELECT * FROM t;");
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_NE(r.value()[0].explain, nullptr);
  EXPECT_NE(r.value()[0].explain->select, nullptr);
  auto r2 = parse_sql("EXPLAIN SELECT * FROM t;");
  ASSERT_TRUE(r2.ok());
  EXPECT_NE(r2.value()[0].explain, nullptr);
}

TEST(Parser, SetForms) {
  auto r = parse_sql("SET client_min_messages TO 'notice';");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0].set->name, "client_min_messages");
  EXPECT_EQ(r.value()[0].set->value, "notice");
  auto r2 = parse_sql("SET search_path = public;");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value()[0].set->value, "public");
  auto r3 = parse_sql("SET TRANSACTION ISOLATION LEVEL SERIALIZABLE;");
  ASSERT_TRUE(r3.ok());
}

TEST(Parser, RlsStatements) {
  auto r = parse_sql(
      "ALTER TABLE t ENABLE ROW LEVEL SECURITY;"
      "CREATE POLICY p ON t TO alice USING (owner = current_user);"
      "GRANT SELECT ON t TO alice;");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_TRUE(r.value()[0].alter_rls->enable);
  EXPECT_EQ(r.value()[1].create_policy->role, "alice");
  EXPECT_EQ(r.value()[2].grant->privilege, "SELECT");
}

TEST(Parser, SyntaxErrorsCarryOffsets) {
  auto r = parse_sql("SELECT FROM;");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("syntax error"), std::string::npos);
  EXPECT_FALSE(parse_sql("INSERT INTO t VALUES (1,);").ok());
  EXPECT_FALSE(parse_sql("SELECT a FROM t WHERE;").ok());
  EXPECT_FALSE(parse_sql("CREATE TABLE t (a zzz_type);").ok());
}

TEST(Parser, ParameterNumberMustFitInt) {
  auto ok = parse_sql("SELECT $2147483647;");
  ASSERT_TRUE(ok.ok()) << ok.error();
  EXPECT_EQ(ok.value()[0].select->items[0].expr->param_index, 2147483647);
  for (const char* sql : {"SELECT $99999999999999999999;",
                          "SELECT $4294967297;", "SELECT $2147483648;"}) {
    auto r = parse_sql(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_NE(r.error().find("syntax error: parameter number $"),
              std::string::npos)
        << r.error();
    EXPECT_NE(r.error().find("at offset 7"), std::string::npos) << r.error();
  }
  Database db(minipg_info("13.0"));
  Session s(db, "postgres");
  for (const char* sql :
       {"SELECT $99999999999999999999;", "SELECT $4294967297;"}) {
    auto res = s.execute(sql);
    ASSERT_EQ(res.statements.size(), 1u) << sql;
    EXPECT_EQ(res.statements[0].error_sqlstate, "42601") << sql;
  }
}

TEST(Parser, InjectionTextParsesTheWayAttackersExpect) {
  // The DVWA low-security query with the classic injection: the quotes
  // re-balance and the OR clause becomes part of the WHERE.
  auto r = parse_sql(
      "SELECT first_name FROM users WHERE user_id = '' OR '1'='1' "
      "ORDER BY first_name;");
  ASSERT_TRUE(r.ok()) << r.error();
  const auto& sel = *r.value()[0].select;
  EXPECT_EQ(sel.where->to_string(), "((user_id = '') or ('1' = '1'))");
  // The sanitised (quote-doubled) version is a single comparison instead.
  auto r2 = parse_sql(
      "SELECT first_name FROM users WHERE user_id = ''' OR ''1''=''1' "
      "ORDER BY first_name;");
  ASSERT_TRUE(r2.ok()) << r2.error();
  // to_string re-escapes quotes so its output round-trips the parser.
  EXPECT_EQ(r2.value()[0].select->where->to_string(),
            "(user_id = ''' OR ''1''=''1')");
}

TEST(Parser, BetweenInCaseIsNull) {
  auto e = parse_expression(
      "CASE WHEN a BETWEEN 1 AND 5 THEN 'low' WHEN a IN (6,7) THEN 'mid' "
      "ELSE 'high' END");
  ASSERT_TRUE(e.ok()) << e.error();
  EXPECT_NE(e.value()->to_string().find("BETWEEN"), std::string::npos);
  auto e2 = parse_expression("x IS NOT NULL AND y IS NULL");
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(e2.value()->to_string(), "(x IS NOT NULL and y IS NULL)");
}

}  // namespace
}  // namespace rddr::sqldb
