// Unit tests for the sqldb engine: parsing, execution, privileges, RLS,
// user-defined operators, and the version-gated CVE behaviours.
#include <gtest/gtest.h>

#include "common/strutil.h"
#include "sqldb/engine.h"
#include "sqldb/parser.h"

namespace rddr::sqldb {
namespace {

/// Runs a script as `user` and returns the results.
ExecResult run(Database& db, const std::string& user, const std::string& sql) {
  Session s(db, user);
  return s.execute(sql);
}

/// Convenience: last statement result of a script run as postgres.
StatementResult last(Database& db, const std::string& sql,
                     const std::string& user = "postgres") {
  auto r = run(db, user, sql);
  EXPECT_FALSE(r.statements.empty());
  return std::move(r.statements.back());
}

class EngineTest : public ::testing::Test {
 protected:
  Database db{minipg_info("13.0")};
};

TEST_F(EngineTest, CreateInsertSelect) {
  auto r = last(db,
                "CREATE TABLE t (a int, b text);"
                "INSERT INTO t VALUES (1, 'one'), (2, 'two');"
                "SELECT a, b FROM t;");
  ASSERT_FALSE(r.failed()) << r.error_message;
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].value(), "1");
  EXPECT_EQ(r.rows[1][1].value(), "two");
  EXPECT_EQ(r.command_tag, "SELECT 2");
}

TEST_F(EngineTest, SelectStar) {
  auto r = last(db,
                "CREATE TABLE t (a int, b text);"
                "INSERT INTO t VALUES (5, 'x');"
                "SELECT * FROM t;");
  ASSERT_FALSE(r.failed());
  ASSERT_EQ(r.columns, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(r.rows[0][0].value(), "5");
}

TEST_F(EngineTest, WhereFilters) {
  auto r = last(db,
                "CREATE TABLE t (a int);"
                "INSERT INTO t VALUES (1), (2), (3), (4);"
                "SELECT a FROM t WHERE a > 2;");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].value(), "3");
}

TEST_F(EngineTest, NullHandling) {
  auto r = last(db,
                "CREATE TABLE t (a int);"
                "INSERT INTO t VALUES (1), (NULL), (3);"
                "SELECT a FROM t WHERE a IS NULL;");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_FALSE(r.rows[0][0].has_value());
  r = last(db, "SELECT a FROM t WHERE a > 0;");
  EXPECT_EQ(r.rows.size(), 2u);  // NULL comparison is not true
}

TEST_F(EngineTest, OrderByAndLimit) {
  auto r = last(db,
                "CREATE TABLE t (a int, b text);"
                "INSERT INTO t VALUES (3,'c'), (1,'a'), (2,'b');"
                "SELECT a, b FROM t ORDER BY a DESC LIMIT 2;");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].value(), "3");
  EXPECT_EQ(r.rows[1][0].value(), "2");
}

TEST_F(EngineTest, OrderByAlias) {
  auto r = last(db,
                "CREATE TABLE t (a int);"
                "INSERT INTO t VALUES (2), (1);"
                "SELECT a * 10 AS tens FROM t ORDER BY tens;");
  ASSERT_FALSE(r.failed()) << r.error_message;
  EXPECT_EQ(r.rows[0][0].value(), "10");
}

TEST_F(EngineTest, OrderByPosition) {
  auto r = last(db,
                "CREATE TABLE t (a int);"
                "INSERT INTO t VALUES (2), (1);"
                "SELECT a FROM t ORDER BY 1;");
  EXPECT_EQ(r.rows[0][0].value(), "1");
}

TEST_F(EngineTest, AggregatesAndGroupBy) {
  auto r = last(db,
                "CREATE TABLE s (grp text, v int);"
                "INSERT INTO s VALUES ('a',1),('a',2),('b',10),('b',20),('b',30);"
                "SELECT grp, count(*), sum(v), avg(v), min(v), max(v) "
                "FROM s GROUP BY grp ORDER BY grp;");
  ASSERT_FALSE(r.failed()) << r.error_message;
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][1].value(), "2");
  EXPECT_EQ(r.rows[0][2].value(), "3");
  EXPECT_EQ(r.rows[1][2].value(), "60");
  EXPECT_EQ(r.rows[1][3].value(), "20");
  EXPECT_EQ(r.rows[1][4].value(), "10");
  EXPECT_EQ(r.rows[1][5].value(), "30");
}

TEST_F(EngineTest, CountStarOnEmptyTable) {
  auto r = last(db, "CREATE TABLE e (x int); SELECT count(*) FROM e;");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].value(), "0");
}

TEST_F(EngineTest, HavingFilter) {
  auto r = last(db,
                "CREATE TABLE s (grp text, v int);"
                "INSERT INTO s VALUES ('a',1),('b',10),('b',20);"
                "SELECT grp, sum(v) AS total FROM s GROUP BY grp "
                "HAVING sum(v) > 5 ORDER BY grp;");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].value(), "b");
}

TEST_F(EngineTest, JoinOn) {
  auto r = last(db,
                "CREATE TABLE a (id int, name text);"
                "CREATE TABLE b (aid int, score int);"
                "INSERT INTO a VALUES (1,'x'),(2,'y');"
                "INSERT INTO b VALUES (1,10),(1,20),(2,30);"
                "SELECT a.name, sum(b.score) FROM a JOIN b ON a.id = b.aid "
                "GROUP BY a.name ORDER BY a.name;");
  ASSERT_FALSE(r.failed()) << r.error_message;
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][1].value(), "30");
  EXPECT_EQ(r.rows[1][1].value(), "30");
}

TEST_F(EngineTest, CommaJoinWithWhere) {
  auto r = last(db,
                "CREATE TABLE a (id int); CREATE TABLE b (id int);"
                "INSERT INTO a VALUES (1),(2); INSERT INTO b VALUES (2),(3);"
                "SELECT a.id FROM a, b WHERE a.id = b.id;");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].value(), "2");
}

TEST_F(EngineTest, LikePatterns) {
  auto r = last(db,
                "CREATE TABLE t (s text);"
                "INSERT INTO t VALUES ('apple'),('apricot'),('banana');"
                "SELECT s FROM t WHERE s LIKE 'ap%';");
  EXPECT_EQ(r.rows.size(), 2u);
  r = last(db, "SELECT s FROM t WHERE s LIKE '_anana';");
  EXPECT_EQ(r.rows.size(), 1u);
  r = last(db, "SELECT s FROM t WHERE s NOT LIKE '%a%';");
  EXPECT_EQ(r.rows.size(), 0u);
}

TEST_F(EngineTest, BetweenAndIn) {
  auto r = last(db,
                "CREATE TABLE t (a int);"
                "INSERT INTO t VALUES (1),(2),(3),(4),(5);"
                "SELECT a FROM t WHERE a BETWEEN 2 AND 4;");
  EXPECT_EQ(r.rows.size(), 3u);
  r = last(db, "SELECT a FROM t WHERE a IN (1, 5, 9);");
  EXPECT_EQ(r.rows.size(), 2u);
  r = last(db, "SELECT a FROM t WHERE a NOT IN (1, 2, 3);");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(EngineTest, CaseExpression) {
  auto r = last(db,
                "CREATE TABLE t (a int); INSERT INTO t VALUES (1),(5);"
                "SELECT CASE WHEN a > 3 THEN 'big' ELSE 'small' END FROM t;");
  ASSERT_FALSE(r.failed()) << r.error_message;
  EXPECT_EQ(r.rows[0][0].value(), "small");
  EXPECT_EQ(r.rows[1][0].value(), "big");
}

TEST_F(EngineTest, UpdateAndDelete) {
  auto r = last(db,
                "CREATE TABLE t (a int, b int);"
                "INSERT INTO t VALUES (1, 0), (2, 0), (3, 0);"
                "UPDATE t SET b = a * 2 WHERE a >= 2;");
  EXPECT_EQ(r.command_tag, "UPDATE 2");
  r = last(db, "DELETE FROM t WHERE a = 1;");
  EXPECT_EQ(r.command_tag, "DELETE 1");
  r = last(db, "SELECT b FROM t ORDER BY a;");
  EXPECT_EQ(r.rows[0][0].value(), "4");
}

TEST_F(EngineTest, ArithmeticSemantics) {
  auto r = last(db, "SELECT 7 / 2, 7.0 / 2, 7 % 3, 2 * 3 + 1;");
  EXPECT_EQ(r.rows[0][0].value(), "3");    // integer division truncates
  EXPECT_EQ(r.rows[0][1].value(), "3.5");
  EXPECT_EQ(r.rows[0][2].value(), "1");
  EXPECT_EQ(r.rows[0][3].value(), "7");
}

TEST_F(EngineTest, DivisionByZeroError) {
  auto r = last(db, "SELECT 1 / 0;");
  ASSERT_TRUE(r.failed());
  EXPECT_EQ(*r.error_sqlstate, "22012");
}

TEST_F(EngineTest, StringFunctions) {
  auto r = last(db,
                "SELECT lower('AbC'), upper('x'), length('hello'), "
                "substr('hello', 2, 3), 'a' || 'b';");
  EXPECT_EQ(r.rows[0][0].value(), "abc");
  EXPECT_EQ(r.rows[0][1].value(), "X");
  EXPECT_EQ(r.rows[0][2].value(), "5");
  EXPECT_EQ(r.rows[0][3].value(), "ell");
  EXPECT_EQ(r.rows[0][4].value(), "ab");
}

TEST_F(EngineTest, VersionFunctionReportsBanner) {
  auto r = last(db, "SELECT version();");
  EXPECT_NE(r.rows[0][0].value().find("13.0"), std::string::npos);
}

TEST_F(EngineTest, SyntaxErrorReported) {
  auto r = last(db, "SELEC thing;");
  ASSERT_TRUE(r.failed());
  EXPECT_EQ(*r.error_sqlstate, "42601");
}

TEST_F(EngineTest, UnknownTableError) {
  auto r = last(db, "SELECT * FROM missing;");
  ASSERT_TRUE(r.failed());
  EXPECT_EQ(*r.error_sqlstate, "42P01");
}

TEST_F(EngineTest, UnknownColumnError) {
  auto r = last(db, "CREATE TABLE t (a int); SELECT zap FROM t;");
  // Empty table -> projection never evaluated; insert a row to force it.
  last(db, "INSERT INTO t VALUES (1);");
  r = last(db, "SELECT zap FROM t;");
  ASSERT_TRUE(r.failed());
  EXPECT_EQ(*r.error_sqlstate, "42703");
}

TEST_F(EngineTest, ScriptAbortsAtFirstError) {
  auto r = run(db, "postgres",
               "CREATE TABLE t (a int);"
               "SELECT * FROM missing;"
               "INSERT INTO t VALUES (1);");
  EXPECT_EQ(r.statements.size(), 2u);  // third statement never ran
  auto check = last(db, "SELECT count(*) FROM t;");
  EXPECT_EQ(check.rows[0][0].value(), "0");
}

TEST_F(EngineTest, PrivilegesEnforced) {
  last(db, "CREATE TABLE secret (x int); INSERT INTO secret VALUES (42);");
  auto r = last(db, "SELECT * FROM secret;", "mallory");
  ASSERT_TRUE(r.failed());
  EXPECT_EQ(*r.error_sqlstate, "42501");
  last(db, "GRANT SELECT ON secret TO mallory;");
  r = last(db, "SELECT * FROM secret;", "mallory");
  ASSERT_FALSE(r.failed());
  EXPECT_EQ(r.rows[0][0].value(), "42");
  // SELECT grant does not confer INSERT.
  r = last(db, "INSERT INTO secret VALUES (1);", "mallory");
  ASSERT_TRUE(r.failed());
  EXPECT_EQ(*r.error_sqlstate, "42501");
}

TEST_F(EngineTest, RowLevelSecurityFiltersRows) {
  last(db,
       "CREATE TABLE notes (owner_name text, body text);"
       "INSERT INTO notes VALUES ('alice','a1'),('bob','b1'),('alice','a2');"
       "GRANT SELECT ON notes TO alice;"
       "ALTER TABLE notes ENABLE ROW LEVEL SECURITY;"
       "CREATE POLICY own ON notes USING (owner_name = current_user());");
  auto r = last(db, "SELECT body FROM notes ORDER BY body;", "alice");
  ASSERT_FALSE(r.failed()) << r.error_message;
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].value(), "a1");
  // Owner (postgres) bypasses RLS.
  r = last(db, "SELECT count(*) FROM notes;");
  EXPECT_EQ(r.rows[0][0].value(), "3");
}

TEST_F(EngineTest, RlsWithNoPoliciesHidesEverything) {
  last(db,
       "CREATE TABLE v (x int); INSERT INTO v VALUES (1);"
       "GRANT SELECT ON v TO bob;"
       "ALTER TABLE v ENABLE ROW LEVEL SECURITY;");
  auto r = last(db, "SELECT count(*) FROM v;", "bob");
  EXPECT_EQ(r.rows[0][0].value(), "0");
}

TEST_F(EngineTest, UserDefinedFunctionAndOperator) {
  auto r = last(db,
                "CREATE FUNCTION leak2(integer, integer) RETURNS boolean "
                "AS $$BEGIN RAISE NOTICE 'leak % %', $1, $2; "
                "RETURN $1 > $2; END$$ LANGUAGE plpgsql immutable;");
  ASSERT_FALSE(r.failed()) << r.error_message;
  r = last(db,
           "CREATE OPERATOR >>> (procedure=leak2, leftarg=integer, "
           "rightarg=integer, restrict=scalargtsel);");
  ASSERT_FALSE(r.failed()) << r.error_message;
  last(db, "CREATE TABLE t (a int); INSERT INTO t VALUES (9), (1);");
  r = last(db, "SELECT a FROM t WHERE a >>> 5;");
  ASSERT_FALSE(r.failed()) << r.error_message;
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].value(), "9");
  // The function body's RAISE NOTICE fired for evaluated rows; the probe
  // also sampled. At minimum the two scan evaluations notice.
  bool saw = false;
  for (const auto& n : r.notices)
    if (n == "leak 9 5") saw = true;
  EXPECT_TRUE(saw);
}

TEST_F(EngineTest, OperatorRequiresExistingProcedure) {
  auto r = last(db, "CREATE OPERATOR <<< (procedure=ghost, leftarg=int, rightarg=int);");
  ASSERT_TRUE(r.failed());
  EXPECT_EQ(*r.error_sqlstate, "42883");
}

TEST_F(EngineTest, ExplainProducesPlanRows) {
  last(db, "CREATE TABLE t (a int);");
  auto r = last(db, "EXPLAIN (COSTS OFF) SELECT * FROM t WHERE a = 1;");
  ASSERT_FALSE(r.failed()) << r.error_message;
  ASSERT_EQ(r.columns, std::vector<std::string>{"QUERY PLAN"});
  EXPECT_NE(r.rows[0][0].value().find("Seq Scan on t"), std::string::npos);
  // A join level that probes its key table is still explained as the
  // nested loop it is charged as.
  last(db, "CREATE TABLE u (a int);");
  r = last(db, "EXPLAIN SELECT * FROM t JOIN u ON t.a = u.a;");
  ASSERT_FALSE(r.failed()) << r.error_message;
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[1][0].value(), "  Nested Loop join with u");
  EXPECT_EQ(r.rows[2][0].value().rfind("    Join Filter: ", 0), 0u);
}

TEST_F(EngineTest, IndexedLookupMatchesFullScan) {
  last(db, "CREATE TABLE k (id int, v text);");
  TableData* t = db.find_table("k");
  for (int i = 0; i < 1000; ++i)
    t->rows.push_back({Datum::integer(i), Datum::text(strformat("v%d", i))});
  t->build_index("id");
  auto r = last(db, "SELECT v FROM k WHERE id = 437;");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].value(), "v437");
  // Indexed scan touches only the match.
  EXPECT_EQ(r.rows_scanned, 1);
}

TEST_F(EngineTest, IndexMaintainedAcrossDml) {
  last(db, "CREATE TABLE k (id int, v text);");
  db.find_table("k")->build_index("id");
  last(db, "INSERT INTO k VALUES (1,'a'),(2,'b');");
  auto r = last(db, "SELECT v FROM k WHERE id = 2;");
  ASSERT_EQ(r.rows.size(), 1u);
  last(db, "DELETE FROM k WHERE id = 2;");
  r = last(db, "SELECT v FROM k WHERE id = 2;");
  EXPECT_EQ(r.rows.size(), 0u);
  last(db, "UPDATE k SET id = 10 WHERE id = 1;");
  r = last(db, "SELECT v FROM k WHERE id = 10;");
  EXPECT_EQ(r.rows.size(), 1u);
}

TEST_F(EngineTest, FailedDeleteLeavesTableIntact) {
  last(db,
       "CREATE TABLE d (id int, v text);"
       "INSERT INTO d VALUES (1,'a'),(2,'b'),(3,'c');");
  // Rows 1 and 2 are kept before row 3 divides by zero.
  auto r = last(db, "DELETE FROM d WHERE 10 / (id - 3) > 0;");
  ASSERT_TRUE(r.failed());
  EXPECT_EQ(*r.error_sqlstate, "22012");
  EXPECT_EQ(r.rows_scanned, 3);
  const TableData* t = db.find_table("d");
  ASSERT_EQ(t->rows.size(), 3u);
  for (const auto& row : t->rows) EXPECT_EQ(row.size(), 2u);
  r = last(db, "SELECT id, v FROM d;");
  ASSERT_FALSE(r.failed()) << r.error_message;
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][1].value(), "a");
  EXPECT_EQ(r.rows[1][1].value(), "b");
  EXPECT_EQ(r.rows[2][0].value(), "3");
}

TEST_F(EngineTest, FailedUpdateKeepsIndexConsistent) {
  last(db, "CREATE TABLE k (id int, v text);");
  db.find_table("k")->build_index("id");
  last(db, "INSERT INTO k VALUES (1,'a'),(2,'b'),(3,'c');");
  // Rows 1 and 2 move to 6 and 12 before row 3 divides by zero; the
  // engine keeps those partial effects, so the index must follow them.
  auto r = last(db, "UPDATE k SET id = 12 / (3 - id);");
  ASSERT_TRUE(r.failed());
  EXPECT_EQ(*r.error_sqlstate, "22012");
  for (int key : {1, 2, 3, 6, 12}) {
    auto probe = last(db, strformat("SELECT v FROM k WHERE id = %d;", key));
    auto scan = last(db, strformat("SELECT v FROM k WHERE id + 0 = %d;", key));
    ASSERT_FALSE(probe.failed()) << probe.error_message;
    EXPECT_EQ(probe.rows, scan.rows) << "id = " << key;
  }
  auto r6 = last(db, "SELECT v FROM k WHERE id = 6;");
  ASSERT_EQ(r6.rows.size(), 1u);
  EXPECT_EQ(r6.rows[0][0].value(), "a");
  EXPECT_EQ(r6.rows_scanned, 1);  // answered by the index
}

TEST_F(EngineTest, FailedInsertKeepsIndexConsistent) {
  last(db, "CREATE TABLE k (id int, v text);");
  db.find_table("k")->build_index("id");
  // Row 1 is appended before row 2's value divides by zero; the engine
  // keeps that partial effect, so the index must hold row 1 too, also
  // after a later INSERT succeeds.
  auto r = last(db, "INSERT INTO k VALUES (1,'a'),(2/0,'b');");
  ASSERT_TRUE(r.failed());
  EXPECT_EQ(*r.error_sqlstate, "22012");
  last(db, "INSERT INTO k VALUES (3,'c');");
  for (int key : {1, 2, 3}) {
    auto probe = last(db, strformat("SELECT v FROM k WHERE id = %d;", key));
    auto scan = last(db, strformat("SELECT v FROM k WHERE id + 0 = %d;", key));
    ASSERT_FALSE(probe.failed()) << probe.error_message;
    EXPECT_EQ(probe.rows, scan.rows) << "id = " << key;
  }
  auto r1 = last(db, "SELECT v FROM k WHERE id = 1;");
  ASSERT_EQ(r1.rows.size(), 1u);
  EXPECT_EQ(r1.rows[0][0].value(), "a");
  EXPECT_EQ(r1.rows_scanned, 1);  // answered by the index
}

TEST_F(EngineTest, FailedUpdateNotesItsPartiallyUpdatedRow) {
  struct Recorder : MutationListener {
    std::vector<size_t> updated;
    void on_row_updated(const TableData&, size_t ordinal) override {
      updated.push_back(ordinal);
    }
  } recorder;
  last(db, "CREATE TABLE p (a int, b int); INSERT INTO p VALUES (1, 1), (2, 0);");
  db.set_mutation_listener(&recorder);
  // Row 0 takes both SETs; row 1 takes `a` before `b` divides by zero,
  // and the engine keeps that partial effect, so the listener must see it.
  auto r = last(db, "UPDATE p SET a = a + 10, b = 1 / b;");
  db.set_mutation_listener(nullptr);
  ASSERT_TRUE(r.failed());
  EXPECT_EQ(*r.error_sqlstate, "22012");
  EXPECT_EQ(recorder.updated, (std::vector<size_t>{0, 1}));
  r = last(db, "SELECT a FROM p;");
  EXPECT_EQ(r.rows[1][0].value(), "12");
}

TEST_F(EngineTest, ColumnErrorsAreRaisedPerEvaluatedRow) {
  last(db,
       "CREATE TABLE e (id int);"
       "CREATE TABLE a (id int, x int);"
       "INSERT INTO a VALUES (1, 10), (2, 20);"
       "CREATE TABLE b (id int, y int);"
       "INSERT INTO b VALUES (1, 100);");
  struct Case {
    const char* sql;
    const char* tag;       // expected command tag when it succeeds
    const char* sqlstate;  // expected SQLSTATE when it fails
    int64_t rows_scanned;
  };
  const Case cases[] = {
      // Unknown column: raised only once a row is evaluated.
      {"SELECT nosuch FROM e;", "SELECT 0", nullptr, 0},
      {"SELECT nosuch FROM a;", nullptr, "42703", 2},
      {"SELECT a.nosuch FROM a;", nullptr, "42703", 2},
      {"SELECT id FROM a WHERE nosuch = 1;", nullptr, "42703", 1},
      {"SELECT id FROM a WHERE id = 3 AND nosuch = 1;", "SELECT 0", nullptr, 2},
      {"UPDATE a SET x = nosuch WHERE id = 99;", "UPDATE 0", nullptr, 2},
      {"UPDATE a SET x = nosuch WHERE id = 2;", nullptr, "42703", 2},
      {"UPDATE a SET nosuch = 1;", nullptr, "42703", 0},
      {"DELETE FROM a WHERE nosuch = 1;", nullptr, "42703", 1},
      // Unqualified `id` is ambiguous across a and b, but only for rows
      // that reach the projection.
      {"SELECT id FROM a, b;", nullptr, "42702", 4},
      {"SELECT id FROM a, e;", "SELECT 0", nullptr, 2},
      {"SELECT x FROM a JOIN b ON id = 1;", nullptr, "42702", 2},
      // Qualified references resolve per FROM entry.
      {"SELECT a.id, b.y FROM a JOIN b ON a.id = b.id;", "SELECT 1", nullptr, 4},
      {"SELECT a.id FROM a, b WHERE b.id = a.id;", "SELECT 1", nullptr, 4},
      // current_user falls back to the session user when no column has
      // that name, with and without a FROM row in scope.
      {"SELECT current_user FROM a;", "SELECT 2", nullptr, 2},
      {"SELECT current_user;", "SELECT 1", nullptr, 0},
      // An aggregate over no rows evaluates its non-aggregate parts with no
      // row in scope.
      {"SELECT id, count(*) FROM e;", nullptr, "42703", 0},
      {"SELECT current_user, count(*) FROM e;", "SELECT 1", nullptr, 0},
      {"SELECT id, count(*) FROM a;", "SELECT 1", nullptr, 2},
  };
  for (const auto& c : cases) {
    auto r = last(db, c.sql);
    if (c.sqlstate) {
      ASSERT_TRUE(r.failed()) << c.sql;
      EXPECT_EQ(*r.error_sqlstate, c.sqlstate) << c.sql;
    } else {
      ASSERT_FALSE(r.failed()) << c.sql << ": " << r.error_message;
      EXPECT_EQ(r.command_tag, c.tag) << c.sql;
    }
    EXPECT_EQ(r.rows_scanned, c.rows_scanned) << c.sql;
  }
  auto r = last(db, "SELECT current_user FROM a;", "postgres");
  EXPECT_EQ(r.rows[1][0].value(), "postgres");
  r = last(db, "SELECT a.id, b.y FROM a JOIN b ON a.id = b.id;");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][1].value(), "100");
  // Nothing above changed the table.
  r = last(db, "SELECT x FROM a ORDER BY id;");
  EXPECT_EQ(r.rows[1][0].value(), "20");
}

TEST_F(EngineTest, NumberColumnsRefuseTextThatIsNotANumber) {
  last(db, "CREATE TABLE n (i int, f float, b bool);");
  db.find_table("n")->build_index("i");
  struct Case {
    const char* sql;
    const char* text;  // the refused text, named in the message
  };
  const Case refused[] = {
      {"INSERT INTO n VALUES ('1.0', 1, true);", "1.0"},
      {"INSERT INTO n VALUES ('x', 1, true);", "x"},
      {"INSERT INTO n VALUES (1, 'abc', true);", "abc"},
      {"INSERT INTO n (f) VALUES ('');", ""},
  };
  for (const auto& c : refused) {
    auto r = last(db, c.sql);
    ASSERT_TRUE(r.failed()) << c.sql;
    EXPECT_EQ(*r.error_sqlstate, "22P02") << c.sql;
    EXPECT_NE(r.error_message.find(strformat("\"%s\"", c.text)),
              std::string::npos)
        << r.error_message;
  }
  EXPECT_TRUE(db.find_table("n")->rows.empty());
  // Text that parses is converted; bool columns keep their own reading.
  auto r = last(db, "INSERT INTO n VALUES (' 7 ', '2.5', 'yes');");
  ASSERT_FALSE(r.failed()) << r.error_message;
  // A later row's refused text ends the statement and keeps the rows
  // before it, as a failing expression does.
  r = last(db, "INSERT INTO n VALUES (8, 1, true), ('eight', 1, true);");
  ASSERT_TRUE(r.failed());
  EXPECT_EQ(*r.error_sqlstate, "22P02");
  r = last(db, "SELECT i, f, b FROM n ORDER BY i;");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].value(), "7");
  EXPECT_EQ(r.rows[0][1].value(), "2.5");
  EXPECT_EQ(r.rows[0][2].value(), "f");
  // UPDATE refuses it per SET; the SETs before the refused one survive,
  // and the index follows them.
  r = last(db, "UPDATE n SET i = i + 10, f = 'two' WHERE i = 7;");
  ASSERT_TRUE(r.failed());
  EXPECT_EQ(*r.error_sqlstate, "22P02");
  EXPECT_NE(r.error_message.find("\"two\""), std::string::npos);
  r = last(db, "SELECT f FROM n WHERE i = 17;");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].value(), "2.5");
  EXPECT_EQ(r.rows_scanned, 1);  // answered by the index
  r = last(db, "UPDATE n SET f = '3.5', i = '9' WHERE i = 8;");
  ASSERT_FALSE(r.failed()) << r.error_message;
  r = last(db, "SELECT f FROM n WHERE i = 9;");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].value(), "3.5");
}

TEST_F(EngineTest, TextArithmeticNeedsNumericText) {
  for (const char* sql : {"SELECT 'x' + 0;", "SELECT 2 * 'abc';",
                          "SELECT 'x' + 0 = 0;", "SELECT '1' - 'one';"}) {
    auto r = last(db, sql);
    ASSERT_TRUE(r.failed()) << sql;
    EXPECT_EQ(*r.error_sqlstate, "22P02") << sql;
  }
  auto r = last(db, "SELECT 'abc' * 2;");
  EXPECT_NE(r.error_message.find("\"abc\""), std::string::npos)
      << r.error_message;
  r = last(db, "SELECT '1' + 0, '2.5' * 2, ' 3 ' - 1, 1 + NULL;");
  ASSERT_FALSE(r.failed()) << r.error_message;
  EXPECT_EQ(r.rows[0][0].value(), "1");
  EXPECT_EQ(r.rows[0][1].value(), "5");
  EXPECT_EQ(r.rows[0][2].value(), "2");
  EXPECT_FALSE(r.rows[0][3].has_value());
}

TEST_F(EngineTest, BigIntArithmeticOutOfRangeIsAnError) {
  last(db,
       "CREATE TABLE big (v int);"
       "INSERT INTO big VALUES (4611686018427387904), (4611686018427387904);");
  for (const char* sql : {
           "SELECT 9223372036854775807 + 1;",
           "SELECT -9223372036854775807 - 2;",
           "SELECT 4611686018427387904 * 2;",
           "SELECT (-9223372036854775807 - 1) / -1;",
           "SELECT -(-9223372036854775807 - 1);",
           "SELECT abs(-9223372036854775807 - 1);",
           "SELECT sum(v) FROM big;",
       }) {
    auto r = last(db, sql);
    ASSERT_TRUE(r.failed()) << sql;
    EXPECT_EQ(*r.error_sqlstate, "22003") << sql;
    EXPECT_EQ(r.error_message, "bigint out of range") << sql;
  }
  // In range, the same operations stay exact. x % -1 is 0 for every x, as
  // in Postgres.
  auto r = last(db,
                "SELECT 9223372036854775806 + 1, -9223372036854775807 - 1,"
                " 3037000499 * 3037000499, (-9223372036854775807 - 1) / 1,"
                " (-9223372036854775807 - 1) % -1,"
                " mod(-9223372036854775807 - 1, -1),"
                " abs(-9223372036854775807), -(-9223372036854775807),"
                " substr('ab', -9223372036854775807 - 1);");
  ASSERT_FALSE(r.failed()) << r.error_message;
  EXPECT_EQ(r.rows[0][0].value(), "9223372036854775807");
  EXPECT_EQ(r.rows[0][1].value(), "-9223372036854775808");
  EXPECT_EQ(r.rows[0][2].value(), "9223372030926249001");
  EXPECT_EQ(r.rows[0][3].value(), "-9223372036854775808");
  EXPECT_EQ(r.rows[0][4].value(), "0");
  EXPECT_EQ(r.rows[0][5].value(), "0");
  EXPECT_EQ(r.rows[0][6].value(), "9223372036854775807");
  EXPECT_EQ(r.rows[0][7].value(), "9223372036854775807");
  EXPECT_EQ(r.rows[0][8].value(), "ab");
  // sum() is exact past 2^53 and only its result must fit in int8.
  r = last(db, "INSERT INTO big VALUES (-4611686018427387904), (1);"
               "SELECT sum(v) FROM big;");
  ASSERT_FALSE(r.failed()) << r.error_message;
  EXPECT_EQ(r.rows[0][0].value(), "4611686018427387905");
}

TEST_F(EngineTest, SubstrTakesPostgresWindow) {
  // Positions [start, start + len) clipped to [1, length]; start + len
  // past int8 clips too.
  auto r = last(db,
                "SELECT substr('abcdef', 0, 3), substr('abcdef', -1, 3),"
                " substr('abcdef', 5, 10), substr('ab', 2, 9223372036854775807),"
                " substr('abcdef', 2, 0), substr('abcdef', 0),"
                " substr('abcdef', 3);");
  ASSERT_FALSE(r.failed()) << r.error_message;
  EXPECT_EQ(r.rows[0][0].value(), "ab");
  EXPECT_EQ(r.rows[0][1].value(), "a");
  EXPECT_EQ(r.rows[0][2].value(), "ef");
  EXPECT_EQ(r.rows[0][3].value(), "b");
  EXPECT_EQ(r.rows[0][4].value(), "");
  EXPECT_EQ(r.rows[0][5].value(), "abcdef");
  EXPECT_EQ(r.rows[0][6].value(), "cdef");
  r = last(db, "SELECT substr('abcdef', 2, -1);");
  ASSERT_TRUE(r.failed());
  EXPECT_EQ(*r.error_sqlstate, "22011");
  EXPECT_EQ(r.error_message, "negative substring length not allowed");
}

TEST_F(EngineTest, SmallestBigIntLiteralParses) {
  auto r = last(db, "SELECT -9223372036854775808, - 9223372036854775808 + 1;");
  ASSERT_FALSE(r.failed()) << r.error_message;
  EXPECT_EQ(r.rows[0][0].value(), "-9223372036854775808");
  EXPECT_EQ(r.rows[0][1].value(), "-9223372036854775807");
  r = last(db, "SELECT -9223372036854775808 - 1;");
  ASSERT_TRUE(r.failed());
  EXPECT_EQ(*r.error_sqlstate, "22003");
  // Without the minus the magnitude is no int8, and the engine has no
  // numeric type to hold it.
  for (const char* sql : {"SELECT 9223372036854775808;",
                          "SELECT -9223372036854775809;",
                          "SELECT -(9223372036854775808);"}) {
    r = last(db, sql);
    ASSERT_TRUE(r.failed()) << sql;
    EXPECT_EQ(*r.error_sqlstate, "42601") << sql;
  }
}

TEST_F(EngineTest, BigIntsCompareExactlyOnEveryAccessPath) {
  // 2^53 and 2^53 + 1 share one double; as int8 they differ.
  last(db,
       "CREATE TABLE t (id int, v text);"
       "INSERT INTO t VALUES (9007199254740992, 'a'), (9007199254740993, 'b'),"
       " (1, 'd');"
       "CREATE TABLE u (k int);"
       "INSERT INTO u VALUES (9007199254740993);");
  db.find_table("t")->build_index("id");
  auto r = last(db, "SELECT 9007199254740992 = 9007199254740993,"
                    " 9007199254740992 < 9007199254740993;");
  EXPECT_EQ(r.rows[0][0].value(), "f");
  EXPECT_EQ(r.rows[0][1].value(), "t");
  auto values = [&](const std::string& sql) {
    auto res = last(db, sql);
    EXPECT_FALSE(res.failed()) << sql << ": " << res.error_message;
    std::vector<std::string> out;
    for (const auto& row : res.rows) out.push_back(row[0].value_or("NULL"));
    return out;
  };
  using V = std::vector<std::string>;
  // Keyed (index probe) and scanned forms agree.
  for (const char* where : {"id = 9007199254740993",
                            "id = 9007199254740993 OR 1 = 0",
                            "id + 0 = 9007199254740993",
                            "id > 9007199254740992"})
    EXPECT_EQ(values(strformat("SELECT v FROM t WHERE %s ORDER BY v;", where)),
              V{"b"})
        << where;
  EXPECT_EQ(values("SELECT v FROM t WHERE id = 1 OR 1 = 0 ORDER BY v;"),
            V{"d"});
  // A probing join level and the nested loop agree.
  EXPECT_EQ(values("SELECT t.v FROM u JOIN t ON t.id = u.k ORDER BY t.v;"),
            V{"b"});
  EXPECT_EQ(values("SELECT t.v FROM u JOIN t ON u.k + 0 = t.id ORDER BY t.v;"),
            V{"b"});
  // GROUP BY keeps apart what = keeps apart.
  EXPECT_EQ(values("SELECT count(*) FROM t GROUP BY id;"),
            (V{"1", "1", "1"}));
  // A keyed UPDATE changes exactly the row the scanned form would.
  last(db, "UPDATE t SET v = 'B' WHERE id = 9007199254740993;");
  EXPECT_EQ(values("SELECT v FROM t ORDER BY id;"), (V{"d", "a", "B"}));
}

TEST_F(EngineTest, TransactionNoOpsAccepted) {
  auto r = run(db, "postgres", "BEGIN; COMMIT; ROLLBACK; START TRANSACTION;");
  for (const auto& sr : r.statements) EXPECT_FALSE(sr.failed());
}

// ---- Engine personality / version gating ----

TEST(VersionCompare, Ordering) {
  EXPECT_LT(compare_versions("9.2.19", "9.2.21"), 0);
  EXPECT_GT(compare_versions("10.9", "10.7"), 0);
  EXPECT_EQ(compare_versions("10.7", "10.7"), 0);
  EXPECT_LT(compare_versions("9.6", "10.0"), 0);
  EXPECT_GT(compare_versions("1.13.4", "1.13.2"), 0);
}

TEST(EnginePersonality, MinipgVulnGates) {
  EXPECT_TRUE(minipg_info("9.2.19").vulns.stats_leak_ignores_privilege);
  EXPECT_FALSE(minipg_info("9.2.21").vulns.stats_leak_ignores_privilege);
  EXPECT_TRUE(minipg_info("10.7").vulns.stats_leak_ignores_rls);
  EXPECT_FALSE(minipg_info("10.9").vulns.stats_leak_ignores_rls);
  EXPECT_FALSE(minipg_info("13.0").vulns.stats_leak_ignores_privilege);
}

TEST(EnginePersonality, RoachRejectsUdf) {
  Database db(roachdb_info());
  Session s(db, "postgres");
  auto r = s.execute(
      "CREATE FUNCTION f(int, int) RETURNS bool AS $$BEGIN RETURN $1 > $2; "
      "END$$ LANGUAGE plpgsql;");
  ASSERT_TRUE(r.statements[0].failed());
  EXPECT_EQ(*r.statements[0].error_sqlstate, "0A000");
}

TEST(EnginePersonality, RoachForcesSerializable) {
  Database db(roachdb_info());
  Session s(db, "postgres");
  auto ok = s.execute("SET TRANSACTION ISOLATION LEVEL SERIALIZABLE;");
  EXPECT_FALSE(ok.statements[0].failed());
  auto bad = s.execute("SET TRANSACTION ISOLATION LEVEL READ COMMITTED;");
  EXPECT_TRUE(bad.statements[0].failed());
}

TEST(EnginePersonality, RoachSortsUnorderedSelects) {
  // The paper's "unspecified row order" hazard: minipg returns insertion
  // order, roachdb sorted order.
  Database pg(minipg_info("13.0"));
  Database roach(roachdb_info());
  const char* setup =
      "CREATE TABLE t (a int); INSERT INTO t VALUES (3), (1), (2);";
  const char* query = "SELECT a FROM t;";
  Session s1(pg, "postgres"), s2(roach, "postgres");
  s1.execute(setup);
  s2.execute(setup);
  auto r1 = s1.execute(query).statements[0];
  auto r2 = s2.execute(query).statements[0];
  EXPECT_EQ(r1.rows[0][0].value(), "3");
  EXPECT_EQ(r2.rows[0][0].value(), "1");
  // With ORDER BY they agree — the paper's required configuration.
  auto o1 = s1.execute("SELECT a FROM t ORDER BY a;").statements[0];
  auto o2 = s2.execute("SELECT a FROM t ORDER BY a;").statements[0];
  EXPECT_EQ(o1.rows, o2.rows);
}

// ---- CVE behaviours (the heart of Table I rows 1 and 3) ----

const char* kLeakFunction =
    "CREATE FUNCTION leak2(integer, integer) RETURNS boolean "
    "AS $$BEGIN RAISE NOTICE 'leak % %', $1, $2; RETURN $1 > $2; END$$ "
    "LANGUAGE plpgsql immutable;";
const char* kLeakOperator =
    "CREATE OPERATOR >>> (procedure=leak2, leftarg=integer, "
    "rightarg=integer, restrict=scalargtsel);";

TEST(Cve2017_7484, VulnerableVersionLeaksViaExplain) {
  Database db(minipg_info("9.2.19"));
  Session admin(db, "postgres");
  admin.execute("CREATE TABLE some_table (col_to_leak int);"
                "INSERT INTO some_table VALUES (101), (202);");
  Session attacker(db, "mallory");  // NO privileges on some_table
  attacker.execute(kLeakFunction);
  attacker.execute(kLeakOperator);
  auto r = attacker.execute(
      "EXPLAIN (COSTS OFF) SELECT * FROM some_table WHERE col_to_leak >>> 0;");
  const auto& sr = r.statements[0];
  ASSERT_FALSE(sr.failed()) << sr.error_message;
  // The planner probe leaked protected values in NOTICEs.
  ASSERT_FALSE(sr.notices.empty());
  EXPECT_EQ(sr.notices[0], "leak 101 0");
  EXPECT_EQ(sr.notices[1], "leak 202 0");
}

TEST(Cve2017_7484, FixedVersionDoesNotLeak) {
  Database db(minipg_info("9.2.21"));
  Session admin(db, "postgres");
  admin.execute("CREATE TABLE some_table (col_to_leak int);"
                "INSERT INTO some_table VALUES (101), (202);");
  Session attacker(db, "mallory");
  attacker.execute(kLeakFunction);
  attacker.execute(kLeakOperator);
  auto r = attacker.execute(
      "EXPLAIN (COSTS OFF) SELECT * FROM some_table WHERE col_to_leak >>> 0;");
  EXPECT_TRUE(r.statements[0].notices.empty());
  // A direct SELECT still fails with permission denied either way.
  auto sel = attacker.execute(
      "SELECT * FROM some_table WHERE col_to_leak >>> 0;");
  EXPECT_TRUE(sel.statements[0].failed());
  EXPECT_EQ(*sel.statements[0].error_sqlstate, "42501");
}

const char* kRlsLeakFunction =
    "CREATE FUNCTION op_leak(int, int) RETURNS bool AS "
    "'BEGIN RAISE NOTICE ''leak %, %'', $1, $2; RETURN $1 < $2; END' "
    "LANGUAGE plpgsql;";
const char* kRlsLeakOperator =
    "CREATE OPERATOR <<< (procedure=op_leak, leftarg=int, rightarg=int, "
    "restrict=scalarltsel);";

void setup_rls_table(Database& db) {
  Session admin(db, "postgres");
  auto r = admin.execute(
      "CREATE TABLE some_table (col_to_leak int, owner_name text);"
      "INSERT INTO some_table VALUES (11,'alice'),(22,'mallory'),(33,'alice');"
      "GRANT SELECT ON some_table TO mallory;"
      "ALTER TABLE some_table ENABLE ROW LEVEL SECURITY;"
      "CREATE POLICY p ON some_table USING (owner_name = current_user());");
  for (const auto& sr : r.statements)
    ASSERT_FALSE(sr.failed()) << sr.error_message;
}

TEST(Cve2019_10130, VulnerableVersionLeaksRlsProtectedRows) {
  Database db(minipg_info("10.7"));
  setup_rls_table(db);
  Session attacker(db, "mallory");
  attacker.execute(kRlsLeakFunction);
  attacker.execute(kRlsLeakOperator);
  auto r = attacker.execute(
      "SELECT * FROM some_table WHERE col_to_leak <<< 1000;");
  const auto& sr = r.statements[0];
  ASSERT_FALSE(sr.failed()) << sr.error_message;
  // The SELECT's visible rows obey RLS...
  ASSERT_EQ(sr.rows.size(), 1u);
  EXPECT_EQ(sr.rows[0][0].value(), "22");
  // ...but the stats probe leaked ALL rows, including alice's.
  bool leaked_protected = false;
  for (const auto& n : sr.notices)
    if (n.find("leak 11") != std::string::npos ||
        n.find("leak 33") != std::string::npos)
      leaked_protected = true;
  EXPECT_TRUE(leaked_protected);
}

TEST(Cve2019_10130, FixedVersionProbesOnlyVisibleRows) {
  Database db(minipg_info("10.9"));
  setup_rls_table(db);
  Session attacker(db, "mallory");
  attacker.execute(kRlsLeakFunction);
  attacker.execute(kRlsLeakOperator);
  auto r = attacker.execute(
      "SELECT * FROM some_table WHERE col_to_leak <<< 1000;");
  const auto& sr = r.statements[0];
  ASSERT_FALSE(sr.failed()) << sr.error_message;
  for (const auto& n : sr.notices) {
    EXPECT_EQ(n.find("leak 11"), std::string::npos) << n;
    EXPECT_EQ(n.find("leak 33"), std::string::npos) << n;
  }
}

TEST(Cve2019_10130, FilterPairProducesIdenticalNotices) {
  // Two identical 10.7 instances (the filter pair) must emit identical
  // leak traffic — this is what lets RDDR's de-noiser pass benign diffs
  // while the 10.9 instance diverges.
  Database a(minipg_info("10.7")), b(minipg_info("10.7"));
  setup_rls_table(a);
  setup_rls_table(b);
  auto run_attack = [](Database& db) {
    Session s(db, "mallory");
    s.execute(kRlsLeakFunction);
    s.execute(kRlsLeakOperator);
    return s.execute("SELECT * FROM some_table WHERE col_to_leak <<< 1000;");
  };
  auto ra = run_attack(a), rb = run_attack(b);
  EXPECT_EQ(ra.statements[0].notices, rb.statements[0].notices);
  EXPECT_EQ(ra.statements[0].rows, rb.statements[0].rows);
}

}  // namespace
}  // namespace rddr::sqldb
