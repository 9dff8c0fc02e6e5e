// Snapshot/restore round-trip tests: the state-transfer half of instance
// replacement must preserve every piece of engine state (rows, catalog,
// privileges, policies, UDFs, operators, indexes) bit-exactly, and a
// malformed snapshot must leave the target visibly empty, never half-warm.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "sqldb/engine.h"
#include "sqldb/snapshot.h"

namespace rddr::sqldb {
namespace {

ExecResult run(Database& db, const std::string& sql,
               const std::string& user = "postgres") {
  Session s(db, user);
  return s.execute(sql);
}

StatementResult last(Database& db, const std::string& sql,
                     const std::string& user = "postgres") {
  auto r = run(db, sql, user);
  EXPECT_FALSE(r.statements.empty());
  return std::move(r.statements.back());
}

TEST(SnapshotTest, RowsRoundTripAcrossTypes) {
  Database src{minipg_info("13.0")};
  auto r = last(src,
                "CREATE TABLE t (a int, b float, c text, d bool);"
                "INSERT INTO t VALUES (1, 1.5, 'one', true),"
                " (-42, 0.1, 'two words', false),"
                " (NULL, NULL, NULL, NULL);"
                "SELECT * FROM t;");
  ASSERT_FALSE(r.failed()) << r.error_message;

  Database dst{minipg_info("13.0")};
  std::string err;
  ASSERT_TRUE(restore_database(dst, snapshot_database(src), &err)) << err;

  auto got = last(dst, "SELECT a, b, c, d FROM t;");
  ASSERT_FALSE(got.failed()) << got.error_message;
  ASSERT_EQ(got.rows.size(), 3u);
  EXPECT_EQ(got.rows[0][0].value(), "1");
  EXPECT_EQ(got.rows[1][2].value(), "two words");
  EXPECT_FALSE(got.rows[2][0].has_value());
  // 0.1 is not exactly representable; hexfloat encoding must still make
  // the restored datum render identically to the original one.
  auto want = last(src, "SELECT b FROM t WHERE a = -42;");
  auto have = last(dst, "SELECT b FROM t WHERE a = -42;");
  EXPECT_EQ(want.rows[0][0].value(), have.rows[0][0].value());
}

TEST(SnapshotTest, TextEscapingSurvivesDelimiters) {
  Database src{minipg_info("13.0")};
  // Values containing the snapshot format's own delimiters (tab, newline,
  // backslash) must round-trip unchanged.
  TableData* t = src.create_table("raw", {{"v", Type::kText}});
  t->rows.push_back({Datum::text("tab\there")});
  t->rows.push_back({Datum::text("line\nbreak")});
  t->rows.push_back({Datum::text("back\\slash\r")});

  Database dst{minipg_info("13.0")};
  ASSERT_TRUE(restore_database(dst, snapshot_database(src)));
  const TableData* got = dst.find_table("raw");
  ASSERT_NE(got, nullptr);
  ASSERT_EQ(got->rows.size(), 3u);
  EXPECT_EQ(got->rows[0][0].as_text(), "tab\there");
  EXPECT_EQ(got->rows[1][0].as_text(), "line\nbreak");
  EXPECT_EQ(got->rows[2][0].as_text(), "back\\slash\r");
}

TEST(SnapshotTest, CatalogObjectsRoundTrip) {
  Database src{minipg_info("13.0")};
  auto r = run(src,
               "CREATE TABLE notes (owner_name text, body text);"
               "INSERT INTO notes VALUES ('alice','a1'),('bob','b1'),"
               " ('alice','a2');"
               "GRANT SELECT ON notes TO alice;"
               "GRANT UPDATE ON notes TO alice;"
               "ALTER TABLE notes ENABLE ROW LEVEL SECURITY;"
               "CREATE POLICY own ON notes TO alice"
               " USING (owner_name = current_user());");
  for (const auto& st : r.statements)
    ASSERT_FALSE(st.failed()) << st.error_message;
  src.find_table("notes")->build_index("owner_name");

  Database dst{minipg_info("13.0")};
  std::string err;
  ASSERT_TRUE(restore_database(dst, snapshot_database(src), &err)) << err;

  const TableData* t = dst.find_table("notes");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->owner, "postgres");
  EXPECT_TRUE(t->rls_enabled);
  EXPECT_EQ(t->grants.at("SELECT").count("alice"), 1u);
  EXPECT_EQ(t->grants.at("UPDATE").count("alice"), 1u);
  ASSERT_EQ(t->policies.size(), 1u);
  EXPECT_EQ(t->policies[0].name, "own");
  EXPECT_EQ(t->policies[0].role, "alice");
  EXPECT_FALSE(t->hash_indexes.empty());

  // RLS must actually be enforced post-restore, not just recorded.
  auto visible = last(dst, "SELECT body FROM notes ORDER BY body;", "alice");
  ASSERT_FALSE(visible.failed()) << visible.error_message;
  ASSERT_EQ(visible.rows.size(), 2u);
  EXPECT_EQ(visible.rows[0][0].value(), "a1");
}

TEST(SnapshotTest, FunctionsAndOperatorsRoundTrip) {
  Database src{minipg_info("13.0")};
  auto r = run(src,
               "CREATE FUNCTION gt2(integer, integer) RETURNS boolean "
               "AS $$BEGIN RAISE NOTICE 'cmp % %', $1, $2; "
               "RETURN $1 > $2; END$$ LANGUAGE plpgsql;"
               "CREATE OPERATOR >>> (procedure=gt2, leftarg=integer, "
               "rightarg=integer, restrict=scalargtsel);");
  for (const auto& st : r.statements)
    ASSERT_FALSE(st.failed()) << st.error_message;
  ASSERT_EQ(src.functions().count("gt2"), 1u);

  Database dst{minipg_info("13.0")};
  std::string err;
  ASSERT_TRUE(restore_database(dst, snapshot_database(src), &err)) << err;
  ASSERT_EQ(dst.functions().count("gt2"), 1u);
  EXPECT_EQ(dst.functions().at("gt2").nargs, 2u);
  ASSERT_EQ(dst.operators().count(">>>"), 1u);
  EXPECT_EQ(dst.operators().at(">>>").procedure, "gt2");
  EXPECT_EQ(dst.operators().at(">>>").restrict_estimator, "scalargtsel");

  // The restored function must still execute (exprs were re-parsed): the
  // operator filters and its RAISE NOTICE fires.
  auto q = last(dst,
                "CREATE TABLE t (a int); INSERT INTO t VALUES (9), (1);"
                "SELECT a FROM t WHERE a >>> 5;");
  ASSERT_FALSE(q.failed()) << q.error_message;
  ASSERT_EQ(q.rows.size(), 1u);
  EXPECT_EQ(q.rows[0][0].value(), "9");
  bool saw = false;
  for (const auto& n : q.notices)
    if (n == "cmp 9 5") saw = true;
  EXPECT_TRUE(saw);
}

TEST(SnapshotTest, DumpRestoreDumpIsFixedPoint) {
  Database src{minipg_info("13.0")};
  auto r = run(src,
               "CREATE TABLE t (a int, b float, c text);"
               "INSERT INTO t VALUES (1, 2.25, 'x'), (2, NULL, 'y');"
               "GRANT SELECT ON t TO bob;"
               "CREATE FUNCTION dbl(integer) RETURNS integer "
               "AS $$BEGIN RETURN $1 * 2; END$$ LANGUAGE plpgsql;");
  for (const auto& st : r.statements)
    ASSERT_FALSE(st.failed()) << st.error_message;
  std::string snap = snapshot_database(src);
  Database dst{minipg_info("13.0")};
  ASSERT_TRUE(restore_database(dst, snap));
  EXPECT_EQ(snapshot_database(dst), snap);
}

TEST(SnapshotTest, CrossVersionWarmKeepsTargetIdentity) {
  // Snapshots from one minipg version warm another: engine identity is a
  // header comment, not restored state (the point of N-versioning).
  Database src{minipg_info("13.0")};
  run(src, "CREATE TABLE t (a int); INSERT INTO t VALUES (7);");
  Database dst{minipg_info("10.7")};
  ASSERT_TRUE(restore_database(dst, snapshot_database(src)));
  EXPECT_EQ(dst.info().version, "10.7");
  EXPECT_EQ(last(dst, "SELECT a FROM t;").rows[0][0].value(), "7");
}

TEST(SnapshotTest, RoachdbTargetSkipsUdfsSilently) {
  Database src{minipg_info("13.0")};
  auto r = run(src,
               "CREATE TABLE t (a int); INSERT INTO t VALUES (3);"
               "CREATE FUNCTION idf(integer) RETURNS integer "
               "AS $$BEGIN RETURN $1; END$$ LANGUAGE plpgsql;"
               "CREATE OPERATOR <<< (procedure=idf, leftarg=integer, "
               "rightarg=integer);");
  for (const auto& st : r.statements)
    ASSERT_FALSE(st.failed()) << st.error_message;

  Database dst{roachdb_info()};
  ASSERT_FALSE(dst.info().supports_udf);
  std::string err;
  ASSERT_TRUE(restore_database(dst, snapshot_database(src), &err)) << err;
  EXPECT_EQ(dst.functions().size(), 0u);
  EXPECT_EQ(dst.operators().size(), 0u);
  EXPECT_EQ(last(dst, "SELECT a FROM t;").rows[0][0].value(), "3");
}

TEST(SnapshotTest, MalformedSnapshotFailsAndClears) {
  Database db{minipg_info("13.0")};
  run(db, "CREATE TABLE keep (a int); INSERT INTO keep VALUES (1);");

  std::string err;
  EXPECT_FALSE(restore_database(db, "not a snapshot", &err));
  EXPECT_NE(err.find("bad header"), std::string::npos) << err;
  // A failed restore must leave the database cleared (empty instance),
  // never a half-warmed mix of old and new state.
  EXPECT_TRUE(db.tables().empty());

  run(db, "CREATE TABLE keep (a int);");
  EXPECT_FALSE(restore_database(
      db, "RDDRSNAP 1\nT t\tpostgres\t0\nC a\t1\nR I:1\tI:2\n", &err));
  EXPECT_NE(err.find("row arity"), std::string::npos) << err;
  EXPECT_TRUE(db.tables().empty());

  // Row before any table header.
  EXPECT_FALSE(restore_database(db, "RDDRSNAP 1\nR I:1\n", &err));
  EXPECT_NE(err.find("row before table"), std::string::npos) << err;
}

TEST(SnapshotTest, TruncatedGarbageAndWrongVersionAreDistinguished) {
  Database db{minipg_info("13.0")};
  std::string err;

  EXPECT_FALSE(restore_database(db, "", &err));
  EXPECT_NE(err.find("empty input"), std::string::npos) << err;

  // A version stamp we don't speak is upgrade skew, not corruption.
  EXPECT_FALSE(restore_database(db, "RDDRSNAP 2\nT t\tpostgres\t0\n", &err));
  EXPECT_NE(err.find("unsupported version"), std::string::npos) << err;

  // Binary garbage (NULs included) is just a bad header.
  EXPECT_FALSE(
      restore_database(db, std::string("\x00\x7f\xffgarbage", 10), &err));
  EXPECT_NE(err.find("bad header"), std::string::npos) << err;

  // A transfer cut mid-record: the writer always ends with a newline, so
  // its absence must be rejected *before* a half row parses as a smaller
  // valid-looking table.
  run(db, "CREATE TABLE keep (a int); INSERT INTO keep VALUES (1);");
  std::string whole = snapshot_database(db);
  std::string cut = whole.substr(0, whole.size() - 3);
  ASSERT_NE(cut.back(), '\n');
  EXPECT_FALSE(restore_database(db, cut, &err));
  EXPECT_NE(err.find("truncated input"), std::string::npos) << err;
  EXPECT_TRUE(db.tables().empty());  // cleared, never half-warmed
}

/// One seeded adversarial datum: delimiter soup, empty strings, texts on
/// both sides of Datum's 22-byte inline limit, embedded NULs, hexfloat
/// edge values, ±inf and NaN — everything the tab/newline-framed text
/// format or the datum layout could plausibly mangle.
Datum adversarial_datum(Rng& rng) {
  switch (rng.next() % 13) {
    case 10: return Datum::text(std::string(21, 'x') + '\t');
    case 11: return Datum::text(std::string(22, '\n') + 'y');
    case 12: {
      // NULs inside an inline (19-byte) or a heap (29-byte) text.
      std::string nul("\0nul\0in\tthe\0middle\0", 19);
      if (rng.next() % 2) nul.append(10, '\0');
      return Datum::text(nul);
    }
    case 0: return Datum::null();
    case 1: return Datum::text("");
    case 2: return Datum::text("tab\tnl\nbsl\\cr\rmix\t\\n");
    case 3: return Datum::text(std::string(1, '\\') + "t is not a tab");
    case 4: return Datum::integer(rng.next());
    case 5: return Datum::floating(std::numeric_limits<double>::infinity());
    case 6: return Datum::floating(-std::numeric_limits<double>::infinity());
    case 7: return Datum::floating(std::numeric_limits<double>::quiet_NaN());
    case 8:
      // Subnormals, max double, negative zero: hexfloat edges.
      switch (rng.next() % 3) {
        case 0: return Datum::floating(std::numeric_limits<double>::denorm_min());
        case 1: return Datum::floating(std::numeric_limits<double>::max());
        default: return Datum::floating(-0.0);
      }
    default: return Datum::floating(rng.uniform01() * 1e307 - 5e306);
  }
}

bool datum_equal(const Datum& a, const Datum& b) {
  if (a.type() != b.type()) return false;
  if (a.type() == Type::kFloat) {
    double x = a.as_float(), y = b.as_float();
    if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
    // Bit-exact, so -0.0 vs 0.0 and every subnormal must survive.
    return std::signbit(x) == std::signbit(y) && x == y;
  }
  return a == b;
}

TEST(SnapshotTest, AdversarialDatumsRoundTripOnBothEngines) {
  for (const EngineInfo& info : {minipg_info("13.0"), roachdb_info()}) {
    Rng rng(0xADDA7A);
    Database src{info};
    TableData* t = src.create_table(
        "hostile", {{"i", Type::kInt}, {"f", Type::kFloat}, {"s", Type::kText}});
    for (int row = 0; row < 200; ++row) {
      Row r;
      for (int col = 0; col < 3; ++col) r.push_back(adversarial_datum(rng));
      t->rows.push_back(std::move(r));
    }

    std::string snap = snapshot_database(src);
    Database dst{info};
    std::string err;
    ASSERT_TRUE(restore_database(dst, snap, &err)) << info.product << ": " << err;
    const TableData* got = dst.find_table("hostile");
    ASSERT_NE(got, nullptr);
    ASSERT_EQ(got->rows.size(), t->rows.size());
    for (size_t r = 0; r < t->rows.size(); ++r)
      for (size_t c = 0; c < 3; ++c)
        EXPECT_TRUE(datum_equal(t->rows[r][c], got->rows[r][c]))
            << info.product << " row " << r << " col " << c;
    // And the re-dump is a fixed point: no drift on the second hop.
    EXPECT_EQ(snapshot_database(dst), snap) << info.product;
  }
}

}  // namespace
}  // namespace rddr::sqldb
