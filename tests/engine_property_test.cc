// Property tests for the SQL engine's semantics: aggregates agree with
// hand computation over random data, engine personalities agree on ordered
// queries for random seeds, LIKE agrees with a reference matcher, and
// value comparison is a proper ordering.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "common/strutil.h"
#include "sqldb/engine.h"

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

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperty, ::testing::Range(1, 16));

}  // namespace
}  // namespace rddr::sqldb
