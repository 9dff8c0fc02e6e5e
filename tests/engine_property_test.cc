// Property tests for the SQL engine's semantics: aggregates agree with
// hand computation over random data, engine personalities agree on ordered
// queries for random seeds, indexed SELECT/UPDATE/DELETE and probing joins
// agree with their heap-scan forms, LIKE agrees with a reference matcher,
// value comparison is a proper ordering, every builtin function and
// operator keeps the contract its builtins() entry declares, and every
// printed expression parses back to the same program.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>

#include "common/rng.h"
#include "common/strutil.h"
#include "sqldb/engine.h"
#include "sqldb/eval.h"
#include "sqldb/parser.h"
#include "sqldb/snapshot.h"
#include "workloads/tpch.h"

namespace rddr::sqldb {
namespace {

class EngineProperty : public ::testing::TestWithParam<int> {
 protected:
  uint64_t seed() const { return static_cast<uint64_t>(GetParam()); }
};

TEST_P(EngineProperty, AggregatesMatchHandComputation) {
  Rng rng(seed());
  Database db(minipg_info("13.0"));
  Session s(db, "postgres");
  s.execute("CREATE TABLE r (grp int, v int);");
  int n = static_cast<int>(rng.uniform(1, 60));
  std::map<int64_t, std::pair<int64_t, int64_t>> expect;  // grp -> (count,sum)
  std::string insert = "INSERT INTO r VALUES ";
  for (int i = 0; i < n; ++i) {
    int64_t g = rng.uniform(0, 4);
    int64_t v = rng.uniform(-100, 100);
    expect[g].first += 1;
    expect[g].second += v;
    insert += strformat("(%lld,%lld)%s", static_cast<long long>(g),
                        static_cast<long long>(v), i + 1 < n ? "," : ";");
  }
  ASSERT_FALSE(s.execute(insert).statements[0].failed());
  auto out = s.execute(
      "SELECT grp, count(*), sum(v) FROM r GROUP BY grp ORDER BY grp;")
                 .statements[0];
  ASSERT_FALSE(out.failed()) << out.error_message;
  ASSERT_EQ(out.rows.size(), expect.size());
  size_t i = 0;
  for (const auto& [g, cs] : expect) {
    EXPECT_EQ(out.rows[i][0].value(), std::to_string(g));
    EXPECT_EQ(out.rows[i][1].value(), std::to_string(cs.first));
    EXPECT_EQ(out.rows[i][2].value(), std::to_string(cs.second));
    ++i;
  }
}

TEST_P(EngineProperty, PersonalitiesAgreeOnOrderedQueries) {
  // The N-versioning prerequisite (§V-C2): identical data + ORDER BY =>
  // identical results regardless of scan-order personality.
  Rng rng(seed());
  Database pg(minipg_info("13.0"));
  Database roach(roachdb_info());
  std::string ddl = "CREATE TABLE d (k int, s text, f float);";
  std::string insert = "INSERT INTO d VALUES ";
  int n = static_cast<int>(rng.uniform(5, 40));
  for (int i = 0; i < n; ++i) {
    insert += strformat("(%lld,'%s',%lld.5)%s",
                        static_cast<long long>(rng.uniform(0, 20)),
                        rng.alnum_token(4).c_str(),
                        static_cast<long long>(rng.uniform(0, 50)),
                        i + 1 < n ? "," : ";");
  }
  const char* queries[] = {
      "SELECT k, s, f FROM d ORDER BY k, s, f;",
      "SELECT k, count(*), sum(f) FROM d GROUP BY k ORDER BY k;",
      "SELECT s FROM d WHERE k BETWEEN 3 AND 12 ORDER BY s;",
      "SELECT k, f FROM d WHERE f > 10 ORDER BY f DESC, k LIMIT 5;",
  };
  Session s1(pg, "postgres"), s2(roach, "postgres");
  s1.execute(ddl);
  s1.execute(insert);
  s2.execute(ddl);
  s2.execute(insert);
  for (const char* q : queries) {
    auto r1 = s1.execute(q).statements[0];
    auto r2 = s2.execute(q).statements[0];
    ASSERT_FALSE(r1.failed()) << q << ": " << r1.error_message;
    ASSERT_FALSE(r2.failed()) << q << ": " << r2.error_message;
    EXPECT_EQ(r1.rows, r2.rows) << q;
  }
}

TEST_P(EngineProperty, IndexedEqualityMatchesFullScan) {
  Rng rng(seed());
  Database with_idx(minipg_info("13.0"));
  Database without_idx(minipg_info("13.0"));
  for (Database* db : {&with_idx, &without_idx}) {
    auto* t = db->create_table("t", {{"id", Type::kInt}, {"v", Type::kText}});
    Rng data(seed() * 7 + 1);
    for (int i = 0; i < 300; ++i)
      t->rows.push_back({Datum::integer(data.uniform(0, 50)),
                         Datum::text(data.alnum_token(3))});
  }
  with_idx.find_table("t")->build_index("id");
  Session a(with_idx, "postgres"), b(without_idx, "postgres");
  for (int trial = 0; trial < 10; ++trial) {
    std::string q = strformat("SELECT v FROM t WHERE id = %lld ORDER BY v;",
                              static_cast<long long>(rng.uniform(0, 50)));
    auto ra = a.execute(q).statements[0];
    auto rb = b.execute(q).statements[0];
    EXPECT_EQ(ra.rows, rb.rows) << q;
  }
}

/// 2^53: the first int64 whose successor has the same double, so kBig
/// and kBig + 1 are equal only to a compare that goes through doubles.
constexpr int64_t kBig = int64_t{1} << 53;

/// The ids of KeyedDmlMatchesScannedForm: 0..9 for n < 10, then kBig,
/// kBig + 1, INT64_MIN, INT64_MAX, -1 and -7 for n = 10..15. A negative
/// id is spelled as a negation (`-7`), which the index serves as Postgres
/// folds it: a constant key.
int64_t dml_id(int64_t n) {
  static constexpr int64_t kPast[] = {kBig,      kBig + 1, INT64_MIN,
                                      INT64_MAX, -1,       -7};
  return n < 10 ? n : kPast[n - 10];
}

TEST_P(EngineProperty, KeyedDmlMatchesScannedForm) {
  // Each random UPDATE/DELETE runs on two identical databases: keyed
  // (`WHERE id = k ...`, an index probe) and scanned (`WHERE id + 0 = k
  // ...`, which no index serves). Keyed DML visits only the key's rows, so
  // the one allowed difference is a WHERE conjunct that fails on a row
  // outside them: the scanned form fails there and the keyed form need
  // not. A heap-scan SELECT over the rows outside the key detects that
  // case; every other statement must leave both databases identical.
  Rng rng(seed() * 13 + 5);
  int allowed_differences = 0;
  int failed_with_effects = 0;
  for (int round = 0; round < 8; ++round) {
    Database keyed_db(minipg_info("13.0"));
    Database scanned_db(minipg_info("13.0"));
    Rng data(rng.next());
    for (Database* db : {&keyed_db, &scanned_db}) {
      Rng d = data;  // identical rows in both
      auto* t = db->create_table(
          "t", {{"id", Type::kInt}, {"v", Type::kInt}, {"s", Type::kText}});
      // Ids 0..9 and the edge ids of dml_id with duplicates and NULLs;
      // row 0 has id 0, which the guard family below fails on. Texts of
      // 0, 3, 22, 23 and 64 bytes sit on both sides of Datum's inline
      // limit.
      static constexpr size_t kTextBytes[] = {0, 3, 22, 23, 64};
      for (int i = 0; i < 40; ++i) {
        Datum id = Datum::integer(0);
        if (i > 0)
          id = d.uniform(0, 6) > 0 ? Datum::integer(dml_id(d.uniform(0, 15)))
                                   : Datum::null();
        Datum v = d.uniform(0, 9) > 0 ? Datum::integer(d.uniform(-1, 2))
                                      : Datum::null();
        t->rows.push_back({std::move(id), std::move(v),
                           Datum::text(d.alnum_token(kTextBytes[d.uniform(0, 4)]))});
      }
      t->build_index("id");
      // Text ids through INSERT: the int column reads a number's text as
      // that number and refuses any other text, so no text id reaches the
      // table for either form to read differently.
      Session s(*db, "postgres");
      const std::pair<const char*, bool> texts[] = {
          {"' 7'", false}, {"'9007199254740993'", false},
          {"'1.0'", true}, {"'x'", true}};
      for (const auto& [text, refused] : texts) {
        StatementResult r =
            s.execute(strformat("INSERT INTO t VALUES (%s, 1, 'ins');", text))
                .statements[0];
        ASSERT_EQ(r.failed(), refused) << text << ": " << r.error_message;
        if (refused) {
          EXPECT_EQ(*r.error_sqlstate, "22P02") << text;
        }
      }
    }
    Session keyed(keyed_db, "postgres"), scanned(scanned_db, "postgres");
    for (int trial = 0; trial < 32; ++trial) {
      // No table starts with keys 10..12; 13..18 stand for kBig, kBig + 1,
      // INT64_MIN, INT64_MAX, -1 and -7.
      const int64_t n = rng.uniform(0, 18);
      const int64_t k = n < 13 ? n : dml_id(n - 3);
      const std::string key = strformat("%lld", static_cast<long long>(k));
      // The key conjunct, in keyed and scanned spelling.
      const bool key_first = rng.uniform(0, 1) == 0;
      const std::string keyed_pred = key_first ? "id = " + key : key + " = id";
      const std::string scanned_pred = "id + 0 = " + key;
      // Guard family: `id / id = 1` fails only on id 0 rows and comes
      // first, so it runs on every row the access path visits.
      const int shape = static_cast<int>(rng.uniform(0, 5));
      const bool guard = shape == 5;
      std::string extra;
      switch (shape) {
        case 1:
          extra = strformat("v > %lld",
                            static_cast<long long>(rng.uniform(-2, 2)));
          break;
        case 2: extra = "10 / v > 0"; break;  // fails on v = 0, NULL ids too
        case 3: extra = "s <> 'zzz'"; break;
        default: break;
      }
      const bool extra_first = rng.uniform(0, 1) == 0;
      auto where = [&](const std::string& pred) {
        if (guard) return "id / id = 1 AND " + pred;
        if (extra.empty()) return pred;
        return extra_first ? extra + " AND " + pred : pred + " AND " + extra;
      };
      static const char* const kSets[] = {
          "v = v + 1",
          "v = 10 / v",                // fails on a matched v = 0 row
          "v = v + 1, id = 100 / v",   // fails after its first SET applied
          "id = id + 1",               // moves the indexed column; 22003
                                       // on INT64_MAX
          "id = NULL, s = 'moved'",    // takes the row out of the index
          "s = 'set'",
          "id = 3",                    // onto a key most tables hold
          "id = 12",                   // onto a key no table starts with
          "id = -7, s = ''",           // onto a negative key
          "id = -9223372036854775808",  // onto INT64_MIN
          "s = 'twenty-two bytes long.'",  // the longest inline text
          // The shortest heap text; fails after it on a v = 0 row.
          "s = 'twenty-three bytes long', v = 10 / v",
          "s = s || s || s",           // grows a text across the limit
      };
      const bool is_delete = rng.uniform(0, 3) == 0;
      const char* set = guard ? kSets[0] : kSets[rng.uniform(0, 12)];
      auto statement = [&](const std::string& pred) {
        return (is_delete ? std::string("DELETE FROM t WHERE ")
                          : "UPDATE t SET " + std::string(set) + " WHERE ") +
               where(pred) + ";";
      };
      const std::string keyed_sql = statement(keyed_pred);
      const std::string scanned_sql = statement(scanned_pred);

      const TableData& kt = *keyed_db.find_table("t");
      size_t candidates = 0;
      bool has_zero = false;
      for (const auto& row : kt.rows) {
        if (row[0].type() != Type::kInt) continue;
        candidates += row[0].as_int() == k;
        has_zero |= row[0].as_int() == 0;
      }
      const size_t heap_rows = kt.rows.size();
      const std::string before = snapshot_database(keyed_db);
      const bool fails_outside =
          scanned
              .execute("SELECT count(*) FROM t WHERE NOT coalesce(id = " + key +
                       ", false) AND (" + where(scanned_pred) + ");")
              .statements[0]
              .failed();

      StatementResult kr = keyed.execute(keyed_sql).statements[0];
      StatementResult sr = scanned.execute(scanned_sql).statements[0];
      SCOPED_TRACE(keyed_sql);
      if (guard) {
        EXPECT_EQ(fails_outside, k != 0 && has_zero);
      }
      if (!kr.failed()) {
        EXPECT_EQ(kr.rows_scanned, static_cast<int64_t>(candidates));
      }
      if (fails_outside) {
        ASSERT_TRUE(sr.failed());
        if (guard) {
          // The explicit allowed difference: the guard failed on an id 0
          // row that the key's access path never visits.
          EXPECT_EQ(*sr.error_sqlstate, "22012");
          ASSERT_FALSE(kr.failed()) << kr.error_message;
          EXPECT_EQ(kr.command_tag, (is_delete ? "DELETE " : "UPDATE ") +
                                        std::to_string(candidates));
        }
        ++allowed_differences;
        // Continue from the keyed database's state.
        ASSERT_TRUE(restore_database(scanned_db, snapshot_database(keyed_db)));
        continue;
      }
      EXPECT_EQ(kr.command_tag, sr.command_tag);
      EXPECT_EQ(kr.error_sqlstate, sr.error_sqlstate);
      if (!sr.failed()) {
        EXPECT_EQ(sr.rows_scanned, static_cast<int64_t>(heap_rows));
      }
      const std::string after = snapshot_database(keyed_db);
      ASSERT_EQ(after, snapshot_database(scanned_db));
      failed_with_effects += kr.failed() && after != before;
      ASSERT_EQ(keyed_db.find_table("t")->hash_indexes,
                scanned_db.find_table("t")->hash_indexes);
    }
  }
  // The generator reaches both the allowed difference and statements
  // that fail part-way, keeping identical partial effects.
  EXPECT_GT(allowed_differences, 0);
  EXPECT_GT(failed_with_effects, 0);
}

namespace {
/// A join key drawn to reach every class of the join key tables: integer
/// duplicates, NULL, floats equal to integers (1 = 1.0) and -0.0, plus,
/// when `any_type`, the keys that every outer value visits: NaN (equal to
/// every number), text that coerces to a number, and bools. Each keeps
/// `x + 0 = y` equal to `x = y`.
Datum random_join_key(Rng& rng, bool any_type) {
  switch (rng.uniform(0, any_type ? 12 : 8)) {
    case 0: return Datum();
    case 1: return Datum::floating(static_cast<double>(rng.uniform(0, 3)));
    case 2: return Datum::floating(2.5);
    case 3: return Datum::floating(-0.0);
    case 9: return Datum::floating(std::nan(""));
    case 10: return Datum::text("2");
    case 11: return Datum::text("2.5");
    case 12: return Datum::boolean(rng.uniform(0, 1) == 1);
    default: return Datum::integer(rng.uniform(0, 3));
  }
}

/// `sql` with each `ON x = ...` respelled `ON x + 0 = ...`, which no join
/// key table serves.
std::string scanned_spelling(std::string sql) {
  for (size_t at = sql.find(" ON "); at != std::string::npos;
       at = sql.find(" ON ", at + 1)) {
    size_t eq = sql.find(" = ", at);
    if (eq != std::string::npos) sql.insert(eq, " + 0");
  }
  return sql;
}
}  // namespace

TEST_P(EngineProperty, JoinProbeMatchesScannedForm) {
  // Each random two- or three-table join runs in probing spelling (`ON
  // a.k = b.k`: the join level visits only its key table's candidates)
  // and scanned spelling (`ON a.k + 0 = b.k`: every row, the nested loop).
  // Rows, errors and rows_scanned must match. The one allowed difference
  // is an ON conjunct that fails on a row the key table never offers: the
  // scanned form fails there and the probing form need not. A count query
  // over the pairs whose key conjunct is not true detects that case.
  Rng rng(seed() * 17 + 3);
  int allowed_differences = 0;
  int joins_with_rows = 0;
  for (int round = 0; round < 8; ++round) {
    Database db(minipg_info("13.0"));
    const bool any_type = round % 2 == 1;
    for (const char* name : {"a", "b", "c"}) {
      auto* t = db.create_table(name, {{"k", Type::kInt},
                                       {"v", Type::kInt},
                                       {"w", Type::kInt},
                                       {"s", Type::kText}});
      const int n = static_cast<int>(rng.uniform(4, 12));
      for (int i = 0; i < n; ++i) {
        // Row 0 has a NULL key, which the guard family below fails on.
        Datum k = i == 0 ? Datum::null() : random_join_key(rng, any_type);
        Datum v = rng.uniform(0, 9) > 0 ? Datum::integer(rng.uniform(-1, 2))
                                        : Datum::null();
        // w is 0 exactly on the NULL-key rows, which no key table offers.
        Datum w = Datum::integer(k.is_null() ? 0 : rng.uniform(1, 3));
        t->rows.push_back({std::move(k), std::move(v), std::move(w),
                           Datum::text(rng.alnum_token(2))});
      }
    }
    // Row-level security on one inner table (or none) for user alice: an
    // RLS level keeps the scan, so a policy that fails on some row fails
    // both forms alike.
    const int rls_choice = static_cast<int>(rng.uniform(0, 2));
    const std::string rls_table = rls_choice == 1 ? "b" : rls_choice == 2 ? "c" : "";
    const bool failing_policy = !rls_table.empty() && rng.uniform(0, 1) == 1;
    {
      Session admin(db, "postgres");
      // A function and an operator that raise a notice per call: an ON
      // that calls either keeps the scan, so notices match too.
      std::string ddl =
          "GRANT SELECT ON a TO alice; GRANT SELECT ON b TO alice;"
          "GRANT SELECT ON c TO alice;"
          "CREATE FUNCTION noisy(int) RETURNS bool AS "
          "'BEGIN RAISE NOTICE ''row %'', $1; RETURN true; END' "
          "LANGUAGE plpgsql;"
          "CREATE FUNCTION noisy_lt(int, int) RETURNS bool AS "
          "'BEGIN RAISE NOTICE ''lt %, %'', $1, $2; RETURN $1 < $2; END' "
          "LANGUAGE plpgsql;"
          "CREATE OPERATOR <<< (procedure=noisy_lt, leftarg=int, "
          "rightarg=int);";
      if (!rls_table.empty())
        ddl += "ALTER TABLE " + rls_table + " ENABLE ROW LEVEL SECURITY;"
               "CREATE POLICY p ON " + rls_table + " USING (" +
               (failing_policy ? "100 / (w - 1) >= 0" : "v <> 1") + ");";
      for (const auto& r : admin.execute(ddl).statements)
        ASSERT_FALSE(r.failed()) << r.error_message;
    }
    Session session(db, rls_table.empty() ? "postgres" : "alice");

    for (int trial = 0; trial < 16; ++trial) {
      struct Level {
        std::string inner, outer, probing_on, scanned_on, scanned_key;
      };
      std::vector<Level> levels = {{"b", "a", "", "", ""}};
      if (rng.uniform(0, 1) == 1)
        levels.push_back({"c", rng.uniform(0, 1) ? "a" : "b", "", "", ""});
      // At most one level carries a conjunct that can fail: the guard
      // `100 / w > 0` (fails only on NULL-key rows) or `10 / v > 0`. None
      // does under a failing policy.
      const int failing =
          failing_policy ? -1
                         : static_cast<int>(rng.uniform(
                               -1, static_cast<int64_t>(levels.size()) - 1));
      const bool guard = failing >= 0 && rng.uniform(0, 2) > 0;
      for (size_t l = 0; l < levels.size(); ++l) {
        Level& lv = levels[l];
        const std::string in = lv.inner + ".k", out = lv.outer + ".k";
        std::string probing_key =
            rng.uniform(0, 1) ? out + " = " + in : in + " = " + out;
        lv.scanned_key = out + " + 0 = " + in;
        if (static_cast<int>(l) != failing && rng.uniform(0, 7) == 0) {
          // Under an OR the equality admits no key table.
          probing_key = "(" + probing_key + " OR " + in + " = 2)";
          lv.scanned_key = "(" + lv.scanned_key + " OR " + in + " = 2)";
        }
        std::string extra;
        if (static_cast<int>(l) == failing) {
          extra = guard ? "100 / " + lv.inner + ".w > 0"
                        : "10 / " + lv.inner + ".v > 0";
        } else {
          switch (rng.uniform(0, 5)) {
            case 1:
              extra = strformat("%s.v > %lld", lv.inner.c_str(),
                                static_cast<long long>(rng.uniform(-2, 1)));
              break;
            case 2: extra = lv.outer + ".s <> 'zz'"; break;
            case 3: extra = lv.inner + ".v IS NOT NULL"; break;
            case 4: extra = "noisy(" + lv.inner + ".v)"; break;
            case 5: extra = "NOT " + lv.inner + ".v <<< -5"; break;
            default: break;
          }
        }
        const bool extra_first = guard || rng.uniform(0, 1) == 0;
        auto on = [&](const std::string& key) {
          if (extra.empty()) return key;
          return extra_first ? extra + " AND " + key : key + " AND " + extra;
        };
        lv.probing_on = on(probing_key);
        lv.scanned_on = on(lv.scanned_key);
      }
      static const char* const kItems[] = {
          "a.v, a.s, b.k, b.s", "count(*), sum(b.v)", "b.k, count(*)"};
      const int items = static_cast<int>(rng.uniform(0, 2));
      auto query = [&](auto&& on_of, const std::string& select) {
        std::string sql = "SELECT " + select + " FROM a";
        for (size_t l = 0; l < levels.size(); ++l)
          sql += " JOIN " + levels[l].inner + " ON " + on_of(l);
        if (items == 2) sql += " GROUP BY b.k";
        return sql + ";";
      };
      std::string select = kItems[items];
      if (items == 0 && levels.size() == 2) select += ", c.k, c.w";
      const std::string probing_sql =
          query([&](size_t l) { return levels[l].probing_on; }, select);
      const std::string scanned_sql =
          query([&](size_t l) { return levels[l].scanned_on; }, select);
      SCOPED_TRACE(probing_sql);
      StatementResult pr = session.execute(probing_sql).statements[0];
      StatementResult sr = session.execute(scanned_sql).statements[0];

      bool fails_outside = false;
      if (failing >= 0) {
        const Level& lf = levels[static_cast<size_t>(failing)];
        fails_outside =
            session
                .execute(query(
                    [&](size_t l) {
                      if (static_cast<int>(l) != failing)
                        return levels[l].scanned_on;
                      return "NOT coalesce(" + lf.scanned_key + ", false) AND (" +
                             lf.scanned_on + ")";
                    },
                    "count(*)"))
                .statements[0]
                .failed();
      }
      if (!fails_outside) {
        EXPECT_EQ(pr.error_sqlstate, sr.error_sqlstate) << pr.error_message;
        EXPECT_EQ(pr.rows, sr.rows);
        EXPECT_EQ(pr.command_tag, sr.command_tag);
        EXPECT_EQ(pr.rows_scanned, sr.rows_scanned);
        EXPECT_EQ(pr.notices, sr.notices);
        joins_with_rows += !pr.failed() && items == 0 && !pr.rows.empty();
        continue;
      }
      ASSERT_TRUE(sr.failed());
      const Level& lf = levels[static_cast<size_t>(failing)];
      if (guard && lf.inner == rls_table) {
        // An RLS level keeps the scan, so both forms fail alike.
        EXPECT_EQ(pr.error_sqlstate, sr.error_sqlstate);
        EXPECT_EQ(pr.rows_scanned, sr.rows_scanned);
      } else if (guard) {
        // The explicit allowed difference: the guard fails on a NULL-key
        // row, which the key table offers only to a text, bool or NaN outer
        // key (those visit every row). Otherwise the probing form succeeds
        // with the rows and count of the unguarded join.
        bool visits_all = false;
        for (const Row& row : db.find_table(lf.outer)->rows) {
          const Datum& k = row[0];
          visits_all |= k.type() == Type::kText || k.type() == Type::kBool ||
                        (k.type() == Type::kFloat && std::isnan(k.as_float()));
        }
        if (visits_all && pr.failed()) {
          EXPECT_EQ(*pr.error_sqlstate, "22012");
          continue;
        }
        ASSERT_FALSE(pr.failed()) << pr.error_message;
        std::vector<Level> unguarded = levels;
        unguarded[static_cast<size_t>(failing)].scanned_on = lf.scanned_key;
        StatementResult ur =
            session
                .execute(query([&](size_t l) { return unguarded[l].scanned_on; },
                               select))
                .statements[0];
        ASSERT_FALSE(ur.failed()) << ur.error_message;
        EXPECT_EQ(pr.rows, ur.rows);
        EXPECT_EQ(pr.rows_scanned, ur.rows_scanned);
        ++allowed_differences;
      }
    }
  }
  // The generator reaches the allowed difference and non-empty joins.
  EXPECT_GT(allowed_differences, 0);
  EXPECT_GT(joins_with_rows, 0);

  // The TPC-H-lite join queries, on this seed's scale-0.25 data.
  Database tpch(minipg_info("13.0"));
  workloads::load_tpch(tpch, workloads::TpchScale{0.25}, seed());
  Session s(tpch, "postgres");
  int joins = 0;
  for (const auto& q : workloads::tpch_queries()) {
    if (q.find(" JOIN ") == std::string::npos) continue;
    ++joins;
    const std::string scanned = scanned_spelling(q);
    ASSERT_NE(scanned, q);
    StatementResult pr = s.execute(q).statements[0];
    StatementResult sr = s.execute(scanned).statements[0];
    ASSERT_FALSE(pr.failed()) << q << ": " << pr.error_message;
    ASSERT_FALSE(sr.failed()) << scanned << ": " << sr.error_message;
    EXPECT_EQ(pr.rows, sr.rows) << q;
    EXPECT_EQ(pr.rows_scanned, sr.rows_scanned) << q;
  }
  EXPECT_EQ(joins, 10);
}

namespace {
/// Reference LIKE matcher (simple recursion) to check the engine's.
bool ref_like(std::string_view text, std::string_view pat) {
  if (pat.empty()) return text.empty();
  if (pat[0] == '%')
    return ref_like(text, pat.substr(1)) ||
           (!text.empty() && ref_like(text.substr(1), pat));
  if (text.empty()) return false;
  if (pat[0] == '_' || pat[0] == text[0])
    return ref_like(text.substr(1), pat.substr(1));
  return false;
}
}  // namespace

TEST_P(EngineProperty, LikeAgreesWithReferenceMatcher) {
  Rng rng(seed());
  Database db(minipg_info("13.0"));
  Session s(db, "postgres");
  s.execute("CREATE TABLE t (x text);");
  std::vector<std::string> values;
  for (int i = 0; i < 20; ++i) {
    std::string v;
    for (int j = 0; j < rng.uniform(0, 6); ++j)
      v.push_back(static_cast<char>('a' + rng.uniform(0, 2)));
    values.push_back(v);
    s.execute("INSERT INTO t VALUES ('" + v + "');");
  }
  for (int trial = 0; trial < 10; ++trial) {
    std::string pat;
    for (int j = 0; j < rng.uniform(1, 5); ++j) {
      switch (rng.uniform(0, 3)) {
        case 0: pat += '%'; break;
        case 1: pat += '_'; break;
        default: pat.push_back(static_cast<char>('a' + rng.uniform(0, 2)));
      }
    }
    auto out =
        s.execute("SELECT count(*) FROM t WHERE x LIKE '" + pat + "';")
            .statements[0];
    ASSERT_FALSE(out.failed());
    int64_t expected = 0;
    for (const auto& v : values)
      if (ref_like(v, pat)) ++expected;
    EXPECT_EQ(out.rows[0][0].value(), std::to_string(expected)) << pat;
  }
}

TEST_P(EngineProperty, CompareIsAntisymmetricAndTransitiveOnSamples) {
  Rng rng(seed());
  std::vector<Datum> pool;
  for (int i = 0; i < 12; ++i) {
    switch (rng.uniform(0, 2)) {
      case 0: pool.push_back(Datum::integer(rng.uniform(-5, 5))); break;
      case 1:
        pool.push_back(Datum::floating(
            static_cast<double>(rng.uniform(-50, 50)) / 10.0));
        break;
      default: pool.push_back(Datum::integer(rng.uniform(-5, 5))); break;
    }
  }
  for (const auto& a : pool)
    for (const auto& b : pool) {
      auto ab = a.compare(b);
      auto ba = b.compare(a);
      ASSERT_TRUE(ab.has_value());
      ASSERT_TRUE(ba.has_value());
      EXPECT_EQ(*ab, -*ba);
      for (const auto& c : pool) {
        auto bc = b.compare(c);
        auto ac = a.compare(c);
        if (*ab <= 0 && *bc <= 0) {
          EXPECT_LE(*ac, 0);
        }
      }
    }
}

namespace {
/// A random expression tree over the columns of
///   t (i int, f float, s text, n int)
/// that renders either with column references or with one row's values
/// spelled as literals.
struct GenExpr {
  std::string op;  // leaf literal text, or the node's shape
  int column = -1;  // leaf column ordinal, -1 otherwise
  bool negated = false;
  std::vector<GenExpr> kids;
};

const char* const kGenColumns[] = {"i", "f", "s", "n"};

std::string literal_for(const Datum& d) {
  switch (d.type()) {
    case Type::kNull: return "null";
    case Type::kText: return "'" + std::string(d.as_text()) + "'";
    case Type::kFloat:
      return d.as_float() < 0 ? strformat("(-%.1f)", -d.as_float())
                              : strformat("%.1f", d.as_float());
    case Type::kInt:
      return d.as_int() < 0 ? strformat("(-%lld)", static_cast<long long>(-d.as_int()))
                            : std::to_string(d.as_int());
    default: return d.as_bool() ? "true" : "false";
  }
}

Datum random_value(Rng& rng, int column) {
  if (rng.uniform(0, 4) == 0) return Datum();
  switch (column) {
    case 1: return Datum::floating(static_cast<double>(rng.uniform(-19, 19)) / 2.0);
    case 2: {
      const char* texts[] = {"", "a", "ab", "b_c", "10", "2.5", "abc"};
      return Datum::text(texts[rng.uniform(0, 6)]);
    }
    default: return Datum::integer(rng.uniform(-9, 9));
  }
}

GenExpr gen_expr(Rng& rng, int depth) {
  GenExpr e;
  if (depth == 0 || rng.uniform(0, 3) == 0) {
    if (rng.uniform(0, 1) == 0) {
      e.column = static_cast<int>(rng.uniform(0, 3));
    } else {
      switch (rng.uniform(0, 4)) {
        case 0: e.op = literal_for(random_value(rng, 0)); break;
        case 1: e.op = literal_for(random_value(rng, 1)); break;
        case 2: e.op = literal_for(random_value(rng, 2)); break;
        case 3: e.op = "null"; break;
        default: e.op = rng.uniform(0, 1) ? "true" : "false";
      }
    }
    return e;
  }
  const char* binary[] = {"+", "-", "*", "/", "%", "=", "<>", "<",
                          "<=", ">", ">=", "and", "or", "||"};
  const char* shapes[] = {"binary", "binary", "binary", "not", "neg",
                          "case", "in", "between", "like", "isnull",
                          "coalesce"};
  std::string shape = shapes[rng.uniform(0, 10)];
  e.negated = rng.uniform(0, 2) == 0;
  size_t kids = 1;
  if (shape == "binary") {
    e.op = binary[rng.uniform(0, 13)];
    kids = 2;
  } else {
    e.op = shape;
    if (shape == "case") kids = static_cast<size_t>(rng.uniform(2, 5));
    if (shape == "in") kids = static_cast<size_t>(rng.uniform(2, 4));
    if (shape == "between") kids = 3;
    if (shape == "like") kids = 2;
    if (shape == "coalesce") kids = static_cast<size_t>(rng.uniform(1, 3));
  }
  for (size_t k = 0; k < kids; ++k) e.kids.push_back(gen_expr(rng, depth - 1));
  return e;
}

/// Renders `e`; with `row` set, column references become its literals.
std::string render(const GenExpr& e, const std::vector<Datum>* row) {
  if (e.column >= 0)
    return row ? literal_for((*row)[static_cast<size_t>(e.column)])
               : kGenColumns[e.column];
  if (e.kids.empty()) return e.op;
  std::vector<std::string> k;
  for (const auto& kid : e.kids) k.push_back(render(kid, row));
  std::string neg = e.negated ? " not" : "";
  if (e.op == "not") return "(not " + k[0] + ")";
  if (e.op == "neg") return "(-" + k[0] + ")";
  if (e.op == "isnull") return "(" + k[0] + " is" + neg + " null)";
  if (e.op == "like") return "(" + k[0] + neg + " like " + k[1] + ")";
  if (e.op == "between")
    return "(" + k[0] + neg + " between " + k[1] + " and " + k[2] + ")";
  if (e.op == "in") {
    std::string out = "(" + k[0] + neg + " in (";
    for (size_t i = 1; i < k.size(); ++i) out += (i > 1 ? ", " : "") + k[i];
    return out + "))";
  }
  if (e.op == "coalesce") {
    std::string out = "coalesce(";
    for (size_t i = 0; i < k.size(); ++i) out += (i ? ", " : "") + k[i];
    return out + ")";
  }
  if (e.op == "case") {
    std::string out = "(case";
    size_t pairs = k.size() / 2;
    for (size_t i = 0; i < pairs; ++i)
      out += " when " + k[2 * i] + " then " + k[2 * i + 1];
    if (k.size() % 2) out += " else " + k.back();
    return out + " end)";
  }
  return "(" + k[0] + " " + e.op + " " + k[1] + ")";
}
}  // namespace

TEST_P(EngineProperty, BoundColumnsMatchLiteralEvaluation) {
  // Column binding checked against the literal path: each row of
  // SELECT <expr> FROM t equals SELECT <expr with that row's values>.
  // The WHERE form checks the filter path the same way.
  Rng rng(seed() * 31 + 7);
  Database db(minipg_info("13.0"));
  Session s(db, "postgres");
  auto* t = db.create_table("t", {{"i", Type::kInt},
                                  {"f", Type::kFloat},
                                  {"s", Type::kText},
                                  {"n", Type::kInt}});
  for (int r = 0; r < 6; ++r) {
    Row row;
    for (int c = 0; c < 4; ++c) row.push_back(random_value(rng, c));
    t->rows.push_back(std::move(row));
  }
  for (int trial = 0; trial < 40; ++trial) {
    GenExpr e = gen_expr(rng, 3);
    std::string with_columns = render(e, nullptr);
    std::vector<std::vector<std::optional<std::string>>> values, kept;
    std::optional<std::string> first_error;
    for (const auto& row : t->rows) {
      std::string lit = render(e, &row);
      auto one = s.execute("SELECT " + lit + ", case when " + lit +
                           " then 1 else 0 end;")
                     .statements[0];
      if (one.failed()) {
        first_error = *one.error_sqlstate;
        break;
      }
      ASSERT_EQ(one.rows.size(), 1u) << lit;
      values.push_back({one.rows[0][0]});
      if (one.rows[0][1] == "1") kept.push_back({row[3].is_null()
                                                     ? std::nullopt
                                                     : std::optional<std::string>(
                                                           row[3].to_text())});
    }
    auto projected = s.execute("SELECT " + with_columns + " FROM t;").statements[0];
    auto filtered =
        s.execute("SELECT n FROM t WHERE " + with_columns + ";").statements[0];
    if (first_error) {
      ASSERT_TRUE(projected.failed()) << with_columns;
      EXPECT_EQ(*projected.error_sqlstate, *first_error) << with_columns;
      ASSERT_TRUE(filtered.failed()) << with_columns;
      EXPECT_EQ(*filtered.error_sqlstate, *first_error) << with_columns;
      continue;
    }
    ASSERT_FALSE(projected.failed()) << with_columns << ": " << projected.error_message;
    EXPECT_EQ(projected.rows, values) << with_columns;
    ASSERT_FALSE(filtered.failed()) << with_columns << ": " << filtered.error_message;
    EXPECT_EQ(filtered.rows, kept) << with_columns;
  }
}

namespace {
/// Same operators, names, literals (type and value), flags and operands.
bool same_program(const Node& a, const Node& b) {
  if (a.op != b.op || a.name != b.name || a.table != b.table ||
      a.negated != b.negated || a.star != b.star || a.distinct != b.distinct ||
      a.has_else != b.has_else || a.column != b.column ||
      a.n_kids != b.n_kids || !(a.literal == b.literal))
    return false;
  const Node *x = a.first, *y = b.first;
  for (; x && y; x = x->next, y = y->next)
    if (!same_program(*x, *y)) return false;
  return !x && !y;
}

/// Every expression of `st`, in statement order.
std::vector<const Node*> expressions_of(const Statement& st) {
  std::vector<const Node*> out;
  auto add = [&out](const Node* e) {
    if (e) out.push_back(e);
  };
  if (const SelectStmt* sel = st.select) {
    for (const SelectItem& item : sel->items) add(item.expr);
    for (const TableRef& ref : sel->from) add(ref.join_on);
    add(sel->where);
    for (const Node* g : sel->group_by) add(g);
    add(sel->having);
    for (const OrderItem& oi : sel->order_by) add(oi.expr);
  }
  if (st.insert)
    for (const List<Node*>& row : st.insert->rows)
      for (const Node* v : row) add(v);
  if (st.update) {
    for (const SetClause& set : st.update->sets) add(set.value);
    add(st.update->where);
  }
  if (st.del) add(st.del->where);
  if (st.create_function) {
    for (const Node* a : st.create_function->notice_args) add(a);
    add(st.create_function->return_expr);
  }
  if (st.create_policy) add(st.create_policy->using_expr);
  return out;
}

/// Parses `sql`, prints each expression, parses that and checks that the
/// two programs are the same and print the same.
void expect_round_trip(const std::string& sql) {
  auto parsed = parse_sql(sql);
  if (!parsed.ok()) return;  // a refused text has no program to print
  for (const Statement& st : parsed.value()) {
    for (const Node* e : expressions_of(st)) {
      const std::string printed = to_sql(*e);
      auto again = parse_expression(printed);
      ASSERT_TRUE(again.ok()) << sql << "\n  printed " << printed << ": "
                              << again.error();
      EXPECT_EQ(to_sql(again.value().expression()), printed) << sql;
      EXPECT_TRUE(same_program(*e, again.value().expression()))
          << sql << "\n  printed " << printed;
    }
  }
}
}  // namespace

TEST(ParserRoundTrip, TpchQueriesAndSemanticsGolden) {
  // The EXPLAIN printer is also how the catalog copies a policy or a
  // function body, so what it prints must parse back to the program.
  for (const std::string& q : workloads::tpch_queries()) {
    ASSERT_TRUE(parse_sql(q).ok()) << q;
    expect_round_trip(q);
  }
  // Each form the printer must spell with care: a float with an integral
  // value, INT64_MIN under a minus, quoted names, DISTINCT, and NOT and
  // the postfix predicates as operands.
  for (const char* sql :
       {"SELECT 2.0 * x, -(-9223372036854775808), \"Mixed Case\", "
        "\"t x\".\"y\" FROM t;",
        "SELECT count(DISTINCT x) FROM t GROUP BY y HAVING sum(x) > 1.5e20;",
        "SELECT a = (b IS NULL), (NOT a) IS NULL, -(x IS NULL), "
        "x LIKE (y LIKE z), a BETWEEN (b IN (1)) AND NOT c FROM t;"}) {
    ASSERT_TRUE(parse_sql(sql).ok()) << sql;
    expect_round_trip(sql);
  }
  std::ifstream in(std::string(RDDR_SOURCE_DIR) +
                   "/tests/golden/sql_semantics.txt");
  ASSERT_TRUE(in);
  int statements = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    expect_round_trip(line.substr(0, line.find(" => ")));
    ++statements;
  }
  EXPECT_GT(statements, 90);
}

TEST_P(EngineProperty, RandomExpressionsRoundTrip) {
  Rng rng(seed() * 17 + 3);
  std::vector<Datum> row;
  for (int c = 0; c < 4; ++c) row.push_back(random_value(rng, c));
  for (int trial = 0; trial < 40; ++trial) {
    GenExpr e = gen_expr(rng, 3);
    expect_round_trip("SELECT " + render(e, nullptr) + " FROM t WHERE " +
                      render(e, &row) + ";");
  }
}

namespace {
/// Literal arguments of each kind, all of which read as that kind.
std::vector<std::string> samples_of(ArgKind kind) {
  switch (kind) {
    case ArgKind::kText: return {"'héllo'", "'abc'", "''"};
    case ArgKind::kNumber: return {"2", "-3", "2.5", "0"};
    case ArgKind::kInt8: return {"2", "0", "-1"};
    default: return {"'x'", "1", "null"};
  }
}

ArgKind kind_of(const BuiltinDef& def, size_t i) {
  return i < std::size(def.kinds) ? def.kinds[i] : ArgKind::kAny;
}

std::string outcome(const StatementResult& r) {
  if (r.failed()) return "ERROR " + *r.error_sqlstate + " " + r.error_message;
  if (r.rows.size() != 1 || r.rows[0].size() != 1)
    return strformat("%zu rows", r.rows.size());
  return r.rows[0][0].value_or("NULL");
}

/// The builtin `name` applied to `args`: `name(args)` for a function, and
/// `(op a)` or `(a op b)` for an operator.
std::string spell(std::string_view name, const std::vector<std::string>& args) {
  const std::string op(name);
  if (!is_operator_name(name)) {
    std::string call = op + "(";
    for (size_t i = 0; i < args.size(); ++i) call += (i ? ", " : "") + args[i];
    return call + ")";
  }
  if (args.size() == 1) return "(" + op + " " + args[0] + ")";
  return "(" + args[0] + " " + op + " " + args[1] + ")";
}

/// The builtin `name` applied to literal arguments, as the outcome of its
/// SELECT-list spelling. The same call over a row holding the arguments
/// must agree in the SELECT list, in a WHERE filter and in an UPDATE's SET.
std::string call_outcome(std::string_view name,
                         const std::vector<std::string>& args) {
  Database db(minipg_info("13.0"));
  Session s(db, "postgres");
  std::string columns, literals;
  std::vector<std::string> references;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const char* type = a[0] == '\'' || a == "null" ? "text"
                       : a.find('.') != std::string::npos ? "float" : "int";
    columns += strformat("a%zu %s, ", i, type);
    literals += a + ", ";
    references.push_back(strformat("a%zu", i));
  }
  s.execute("CREATE TABLE args (" + columns + "out text);");
  s.execute("INSERT INTO args VALUES (" + literals + "null);");
  const std::string call = spell(name, args);
  const std::string over_row = spell(name, references);
  auto run = [&](const std::string& sql) {
    return s.execute(sql).statements[0];
  };
  const std::string selected = outcome(run("SELECT " + call + ";"));
  EXPECT_EQ(outcome(run("SELECT " + over_row + " FROM args;")), selected)
      << call;
  // The row passes the filter iff its value renders as `selected`.
  auto filtered = run("SELECT 'kept' FROM args WHERE coalesce(" + over_row +
                      " || '', 'NULL') = '" + selected + "';");
  auto updated = run("UPDATE args SET out = " + over_row + ";");
  if (selected.starts_with("ERROR ")) {
    EXPECT_EQ(outcome(filtered), selected) << call;
    EXPECT_EQ(outcome(updated), selected) << call;
  } else {
    EXPECT_EQ(outcome(filtered), "kept") << call;
    EXPECT_FALSE(updated.failed()) << call << ": " << updated.error_message;
    EXPECT_EQ(outcome(run("SELECT out FROM args;")), selected) << call;
  }
  return selected;
}
}  // namespace

TEST(BuiltinContract, EveryEntryKeepsItsContract) {
  for (const BuiltinDef& def : builtins()) {
    const std::string_view name = def.names[0];
    SCOPED_TRACE(std::string(name));
    if (def.max_args == BuiltinDef::kVariadic) {
      // The evaluator reads the arguments of a variadic builtin as they are.
      for (ArgKind kind : def.kinds) EXPECT_EQ(kind, ArgKind::kAny);
    }
    const size_t widest = std::min<size_t>(def.max_args, def.min_args + 2u);
    for (size_t n = def.min_args; n <= widest; ++n) {
      // Every tuple of samples, through every name and spelling.
      std::vector<std::string> args(n);
      std::vector<size_t> pick(n, 0);
      while (true) {
        for (size_t i = 0; i < n; ++i)
          args[i] = samples_of(kind_of(def, i))[pick[i]];
        const std::string got = call_outcome(name, args);
        for (std::string_view alias : def.names) {
          if (!alias.empty() && alias != name) {
            EXPECT_EQ(call_outcome(alias, args), got) << alias;
          }
        }
        size_t i = 0;
        while (i < n && ++pick[i] == samples_of(kind_of(def, i)).size())
          pick[i++] = 0;
        if (i == n) break;
      }
      // Strict: NULL in any one position gives NULL.
      for (size_t p = 0; def.strict && p < n; ++p) {
        for (size_t i = 0; i < n; ++i) args[i] = samples_of(kind_of(def, i))[0];
        args[p] = "null";
        EXPECT_EQ(call_outcome(name, args), "NULL") << "NULL at " << p;
      }
    }
    // Each declared error, raised by its example with its SQLSTATE.
    for (const BuiltinDef::Error& e : def.errors) {
      if (!e.sqlstate) continue;
      std::vector<std::string> args = split(e.example, ',');
      for (auto& a : args) a = std::string(trim(a));
      EXPECT_EQ(call_outcome(name, args),
                strformat("ERROR %s %s", e.sqlstate, e.message))
          << e.example;
    }
    // Outside the arity range there is no such function. An operator's
    // arity is its syntax.
    if (is_operator_name(name)) continue;
    auto no_such_function = [&](size_t n) {
      const std::vector<std::string> args(n, samples_of(kind_of(def, 0))[0]);
      return call_outcome(name, args).starts_with("ERROR 42883 ");
    };
    if (def.max_args != BuiltinDef::kVariadic) {
      EXPECT_TRUE(no_such_function(def.max_args + 1u));
    }
    if (def.min_args > 0) {
      EXPECT_TRUE(no_such_function(def.min_args - 1u));
    }
  }
}

namespace {
/// A random boolean predicate over the columns of
///   t (id int, i int, f float, s text, n int)
/// drawn from the builtins() table. An entry whose NOT raises nothing when
/// it is applied to `true` is a predicate; it takes values when applied to
/// `1` too (the comparisons), and predicates otherwise (NOT, coalesce).
/// Every other entry is a value. AND, OR and IS NULL, which are not
/// entries, join them.
struct Predicate {
  const BuiltinDef* def = nullptr;  // null: `shape` or a leaf
  std::string shape;                // "and", "or", "is null", or leaf text
  std::vector<Predicate> kids;
};

class PredicateGen {
 public:
  explicit PredicateGen(Rng& rng) : rng_(rng) {
    Database db(minipg_info("13.0"));
    Session s(db, "postgres");
    auto boolean = [&](const BuiltinDef& def, const std::string& arg) {
      const std::vector<std::string> args(def.min_args, arg);
      return !s.execute("SELECT NOT " + spell(def.names[0], args) + ";")
                  .statements[0]
                  .failed();
    };
    for (const BuiltinDef& def : builtins()) {
      if (!boolean(def, "true")) values_.push_back(&def);
      else if (boolean(def, "1")) over_values_.push_back(&def);
      else over_predicates_.push_back(&def);
    }
  }

  Predicate predicate(int depth) {
    const int pick = static_cast<int>(rng_.uniform(0, depth > 0 ? 5 : 1));
    if (pick == 0) return apply(pick_from(over_values_), depth, false);
    if (pick == 1) return {nullptr, "is null", {value(depth)}};
    if (pick == 2) return apply(pick_from(over_predicates_), depth, true);
    if (pick == 5) return {nullptr, rng_.uniform(0, 1) ? "true" : "null", {}};
    return {nullptr, pick == 3 ? "and" : "or",
            {predicate(depth - 1), predicate(depth - 1)}};
  }

 private:
  const BuiltinDef& pick_from(const std::vector<const BuiltinDef*>& defs) {
    const int64_t last = static_cast<int64_t>(defs.size()) - 1;
    return *defs[static_cast<size_t>(rng_.uniform(0, last))];
  }

  Predicate value(int depth) {
    if (depth <= 0 || rng_.uniform(0, 1) == 0) {
      const int column = static_cast<int>(rng_.uniform(0, 3));
      if (rng_.uniform(0, 2) == 0)
        return {nullptr, literal_for(random_value(rng_, column)), {}};
      return {nullptr, kGenColumns[column], {}};
    }
    return apply(pick_from(values_), depth, false);
  }

  Predicate apply(const BuiltinDef& def, int depth, bool predicates) {
    const size_t widest = std::min<size_t>(def.max_args, def.min_args + 2u);
    const size_t n = static_cast<size_t>(
        rng_.uniform(def.min_args, static_cast<int64_t>(widest)));
    Predicate p{&def, "", {}};
    for (size_t i = 0; i < n; ++i)
      p.kids.push_back(predicates ? predicate(depth - 1) : value(depth - 1));
    return p;
  }

  Rng& rng_;
  std::vector<const BuiltinDef*> values_, over_values_, over_predicates_;
};

/// The comparison that is true exactly when `op` is false, for operands
/// that are not NULL; empty for any other name.
std::string_view negation_of(std::string_view op) {
  static constexpr std::pair<std::string_view, std::string_view> kPairs[] = {
      {"=", "<>"}, {"<>", "="}, {"!=", "="},  {"<", ">="},
      {">=", "<"}, {">", "<="}, {"<=", ">"}};
  for (const auto& [a, b] : kPairs)
    if (a == op) return b;
  return {};
}

/// `p` as SQL. Spelling 0 is plain; any other spells each node, at random,
/// as an equivalent form that evaluates the same operands in the same
/// order: a name through its alias, `a = b` as `NOT (a <> b)`, `x IS NULL`
/// as `NOT (x IS NOT NULL)` and `p AND q` as `NOT (NOT p OR NOT q)`.
std::string render(const Predicate& p, Rng* respell) {
  std::vector<std::string> k;
  for (const Predicate& kid : p.kids) k.push_back(render(kid, respell));
  const bool other = respell && respell->uniform(0, 1) == 1;
  if (p.def) {
    std::string_view name = p.def->names[0];
    if (other && !p.def->names[1].empty()) return spell(p.def->names[1], k);
    if (other && k.size() == 2 && !negation_of(name).empty())
      return "(not " + spell(negation_of(name), k) + ")";
    return spell(name, k);
  }
  if (p.shape == "is null")
    return other ? "(not (" + k[0] + " is not null))"
                 : "(" + k[0] + " is null)";
  if (k.empty()) return p.shape;
  if (other) {
    const char* dual = p.shape == "and" ? " or " : " and ";
    return "(not ((not " + k[0] + ")" + dual + "(not " + k[1] + ")))";
  }
  return "(" + k[0] + " " + p.shape + " " + k[1] + ")";
}

/// The partition of a row set by a predicate: its rows where it is true,
/// false and NULL, and its NoREC count, or the SQLSTATE that evaluating it
/// raised.
struct Partition {
  std::string error;
  std::vector<std::string> counts;
  bool operator==(const Partition&) const = default;
};

Partition partition(Session& s, const std::string& p, const std::string& rows) {
  const std::string where =
      rows.empty() ? " WHERE " : " WHERE " + rows + " AND ";
  const std::string queries[] = {
      "SELECT count(*) FROM t" + where + p + ";",
      "SELECT count(*) FROM t" + where + "NOT " + p + ";",
      "SELECT count(*) FROM t" + where + p + " IS NULL;",
      "SELECT coalesce(sum(CASE WHEN " + p + " THEN 1 ELSE 0 END), 0) FROM t" +
          (rows.empty() ? "" : " WHERE " + rows) + ";",
      "SELECT count(*) FROM t" + (rows.empty() ? "" : " WHERE " + rows) + ";",
  };
  Partition out;
  for (const std::string& q : queries) {
    auto r = s.execute(q).statements[0];
    if (r.failed()) {
      // Each query evaluates the predicate on the same rows in the same
      // order, so each raises the same error.
      EXPECT_TRUE(out.error.empty() || out.error == *r.error_sqlstate) << q;
      out.error = *r.error_sqlstate;
      continue;
    }
    out.counts.push_back(r.rows[0][0].value());
  }
  if (!out.error.empty()) {
    EXPECT_EQ(out.counts.size(), 1u) << "only count(*) succeeds: " << p;
    out.counts.clear();
  }
  return out;
}
}  // namespace

TEST_P(EngineProperty, PredicatesPartitionEveryRowSet) {
  // Ternary logic partitioning (TLP): WHERE p, WHERE NOT p and WHERE p IS
  // NULL split the rows, so their counts add up to count(*). Non-optimizing
  // reference engine construction (NoREC): WHERE p counts the rows that
  // sum(CASE WHEN p THEN 1 ELSE 0 END) counts. Both hold for the scanned
  // path (every row) and the keyed path (`id = k AND p`, an index probe),
  // on minipg and roachdb, for each equivalent spelling of p, and every
  // spelling gives the same partition. A predicate is skipped only when
  // every spelling raises the same SQLSTATE.
  Rng rng(seed() * 13 + 5);
  const int n = static_cast<int>(rng.uniform(3, 10));
  std::vector<Row> rows;
  for (int r = 1; r <= n; ++r) {
    Row row{Datum::integer(r)};
    for (int c = 0; c < 4; ++c) row.push_back(random_value(rng, c));
    rows.push_back(std::move(row));
  }
  Database pg(minipg_info("13.0")), roach(roachdb_info());
  std::vector<Session> sessions;
  for (Database* db : {&pg, &roach}) {
    auto* t = db->create_table("t", {{"id", Type::kInt},
                                     {"i", Type::kInt},
                                     {"f", Type::kFloat},
                                     {"s", Type::kText},
                                     {"n", Type::kInt}});
    t->rows = rows;
    t->build_index("id");
    sessions.emplace_back(*db, "postgres");
  }
  PredicateGen gen(rng);
  int checked = 0;
  for (int trial = 0; trial < 25; ++trial) {
    const Predicate p = gen.predicate(3);
    const std::string key =
        strformat("id = %lld", static_cast<long long>(rng.uniform(1, n)));
    for (const std::string& path : {std::string(), key}) {
      std::vector<Partition> seen;  // per spelling, on minipg
      std::string first;
      for (int spelling = 0; spelling < 3; ++spelling) {
        Rng respell(seed() * 1000 +
                    static_cast<uint64_t>(trial * 3 + spelling));
        const std::string sql = render(p, spelling ? &respell : nullptr);
        if (!spelling) first = sql;
        std::vector<Partition> engines;
        for (Session& s : sessions) {
          Partition part = partition(s, sql, path);
          if (part.error.empty()) {
            const auto& c = part.counts;
            EXPECT_EQ(std::stoll(c[0]) + std::stoll(c[1]) + std::stoll(c[2]),
                      std::stoll(c[4]))
                << "TLP: " << sql << " WHERE " << path;
            EXPECT_EQ(c[0], c[3]) << "NoREC: " << sql << " WHERE " << path;
          }
          engines.push_back(std::move(part));
        }
        // roachdb scans in its own order, so the first row that raises,
        // and with it the SQLSTATE, may differ.
        EXPECT_EQ(engines[0].error.empty(), engines[1].error.empty()) << sql;
        if (engines[0].error.empty() && engines[1].error.empty()) {
          EXPECT_EQ(engines[0].counts, engines[1].counts) << sql;
        }
        seen.push_back(engines[0]);
      }
      for (const Partition& part : seen)
        EXPECT_EQ(part, seen[0]) << first << "\n  WHERE " << path;
      if (seen[0].error.empty()) ++checked;
    }
  }
  // Most predicates raise nothing.
  EXPECT_GT(checked, 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperty, ::testing::Range(1, 16));

}  // namespace
}  // namespace rddr::sqldb
