// Microbenchmarks (google-benchmark) of the hot paths on RDDR's critical
// path: framing, tokenizing, de-noise + diff, content decoding, the
// engine's query execution, and checkpoint page encoding.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "common/strutil.h"
#include "proto/http/coding.h"
#include "proto/http/parser.h"
#include "proto/json/json.h"
#include "proto/pgwire/pgwire.h"
#include "rddr/arena.h"
#include "rddr/diff_engine.h"
#include "rddr/diff_simd.h"
#include "rddr/plugins.h"
#include "sqldb/engine.h"
#include "sqldb/parser.h"
#include "sqldb/storage/page.h"
#include "sqldb/storage/storage_engine.h"
#include "workloads/pgbench.h"
#include "workloads/tpch.h"

namespace {

using namespace rddr;

void BM_HttpParseRequest(benchmark::State& state) {
  http::Request req;
  req.method = "POST";
  req.target = "/api/v1/render";
  req.headers.set("Host", "svc");
  req.headers.set("Content-Type", "application/json");
  req.body = std::string(static_cast<size_t>(state.range(0)), 'x');
  Bytes wire = req.to_bytes();
  for (auto _ : state) {
    http::RequestParser p;
    p.feed(wire);
    benchmark::DoNotOptimize(p.take());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(wire.size()));
}
BENCHMARK(BM_HttpParseRequest)->Arg(64)->Arg(4096)->Arg(65536);

void BM_PgFrameMessages(benchmark::State& state) {
  Bytes wire;
  for (int i = 0; i < 100; ++i)
    wire += pg::build_data_row({std::string("value-") + std::to_string(i),
                                std::string("second-column")});
  for (auto _ : state) {
    pg::MessageReader r(false);
    r.feed(wire);
    benchmark::DoNotOptimize(r.take());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(wire.size()));
}
BENCHMARK(BM_PgFrameMessages);

void BM_Xz77Compress(benchmark::State& state) {
  Rng rng(1);
  Bytes input;
  for (int i = 0; i < state.range(0) / 16; ++i)
    input += "<tr><td>cell " + std::to_string(i % 50) + "</td></tr>\n";
  for (auto _ : state)
    benchmark::DoNotOptimize(http::xz77_compress(input));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_Xz77Compress)->Arg(4096)->Arg(65536);

void BM_Xz77Decompress(benchmark::State& state) {
  Bytes input;
  for (int i = 0; i < state.range(0) / 16; ++i)
    input += "<tr><td>cell " + std::to_string(i % 50) + "</td></tr>\n";
  Bytes packed = http::xz77_compress(input);
  for (auto _ : state)
    benchmark::DoNotOptimize(http::xz77_decompress(packed));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_Xz77Decompress)->Arg(4096)->Arg(65536);

// Shared corpus for the de-noise benchmarks: 3 instances, lines/instance
// = range(0). 1/5 of lines carry a real per-instance token (alnum, >= 10
// chars, differs everywhere), 1/5 differ everywhere but are rejected as
// tokens (non-alnum character mid-run), 3/5 are byte-identical. Both
// benchmarks below report items = lines x 3 instances, so their items/s
// are directly comparable.
std::vector<std::vector<std::string>> denoise_corpus(int64_t lines) {
  Rng rng(3);
  std::vector<std::vector<std::string>> instances(3);
  for (int64_t i = 0; i < lines; ++i) {
    if (i % 5 == 0) {
      for (auto& inst : instances)
        inst.push_back("csrf=" + rng.alnum_token(32));
    } else if (i % 5 == 1) {
      for (auto& inst : instances)
        inst.push_back("t=" + rng.alnum_token(24) + "!x" + rng.alnum_token(8));
    } else {
      std::string line = "line " + std::to_string(i) + " stable";
      for (auto& inst : instances) inst.push_back(line);
    }
  }
  return instances;
}

// Mask-and-compare reference: per line, derive the filter-pair mask from
// instances 0/1 and hold instance 2 to it — the old pairwise
// build_noise_mask + masked_compare walk, now on the SIMD diff kernels.
void BM_NoiseMaskAndCompare(benchmark::State& state) {
  auto inst = denoise_corpus(state.range(0));
  const core::simd::Ops& ops = core::simd::native();
  const size_t lines = inst[0].size();
  for (auto _ : state) {
    bool ok = true;
    for (size_t i = 0; i < lines; ++i) {
      core::diff::LineMask m =
          core::diff::build_line_mask(inst[0][i], inst[1][i], ops);
      ok &= core::diff::masked_line_check(inst[0][i], inst[2][i], m, ops)
                .fail == core::diff::LineFail::kNone;
    }
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0) * 3);
}
BENCHMARK(BM_NoiseMaskAndCompare)->Arg(50)->Arg(500);

// Ephemeral-token detection across N=3 instances on the same corpus —
// diff::detect_tokens over canonical views, scratch arena reset per
// round, candidates validated in place and materialised only on accept.
void BM_DenoiseTokenDetect(benchmark::State& state) {
  auto inst = denoise_corpus(state.range(0));
  const core::simd::Ops& ops = core::simd::native();
  core::Arena canon_arena(64 << 10);
  core::CanonicalUnit* canon = canon_arena.alloc_array<core::CanonicalUnit>(3);
  for (size_t i = 0; i < 3; ++i) {
    canon[i] = core::CanonicalUnit{};
    canon[i].per_line = true;
    for (const std::string& l : inst[i])
      canon[i].lines.push_back(canon_arena, ByteView(l));
  }
  core::Arena scratch(64 << 10);
  for (auto _ : state) {
    scratch.reset();
    benchmark::DoNotOptimize(core::diff::detect_tokens(canon, 3, scratch, ops));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0) * 3);
}
BENCHMARK(BM_DenoiseTokenDetect)->Arg(50)->Arg(500);

// The batched data plane end to end: one DiffEngine::compare call
// canonicalises all 3 HTTP responses into the engine arena and runs the
// N-way SIMD divergence scan. Steady state allocates nothing (the arena
// is reset, not freed, between batches).
void BM_DiffEngineCompare3(benchmark::State& state) {
  core::HttpPlugin plugin;
  core::DiffEngine engine;
  Rng rng(3);
  auto page = [&](const std::string& tok) {
    http::Response r = http::make_response(
        200, "<html><input value=\"" + tok + "\"><p>body body body</p></html>");
    return core::Unit{r.to_bytes(), "http-resp"};
  };
  std::vector<core::Unit> units{page(rng.alnum_token(32)),
                                page(rng.alnum_token(32)),
                                page(rng.alnum_token(32))};
  core::KnownVariance kv;
  core::CompareContext ctx;
  ctx.filter_pair = true;
  ctx.variance = &kv;
  int64_t bytes = 0;
  for (const auto& u : units) bytes += static_cast<int64_t>(u.data.size());
  for (auto _ : state) {
    core::BatchVerdict v =
        engine.compare(plugin, units, ctx, core::VoteMode::kStrict);
    benchmark::DoNotOptimize(v.agreed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * bytes);
}
BENCHMARK(BM_DiffEngineCompare3);

void BM_JsonParseDump(benchmark::State& state) {
  std::string doc = R"({"items":[)";
  for (int i = 0; i < 50; ++i) {
    if (i) doc += ",";
    doc += R"({"id":)" + std::to_string(i) + R"(,"name":"item","score":1.5})";
  }
  doc += "]}";
  for (auto _ : state) {
    auto v = json::parse(doc);
    benchmark::DoNotOptimize(v->dump());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_JsonParseDump);

void BM_SqlIndexedLookup(benchmark::State& state) {
  sqldb::Database db(sqldb::minipg_info("13.0"));
  workloads::load_pgbench(db, 10000, 1);
  sqldb::Session s(db, "postgres");
  Rng rng(4);
  for (auto _ : state) {
    auto q = workloads::pgbench_select_tx(rng, 10000);
    benchmark::DoNotOptimize(s.execute(q));
  }
}
BENCHMARK(BM_SqlIndexedLookup);

// The pgbench read-write UPDATE, `SET abalance = abalance + d` on a column
// no index covers, over 2000 accounts. `key` is the WHERE's key conjunct:
// `aid` probes the hash index, `aid + 0` forces a heap scan with the WHERE
// evaluated on every row. Items are the rows the statements scanned.
void run_pgbench_update(benchmark::State& state, const char* key) {
  constexpr int kAccounts = 2000;
  sqldb::Database db(sqldb::minipg_info("13.0"));
  workloads::load_pgbench(db, kAccounts, 1);
  sqldb::Session s(db, "postgres");
  Rng rng(4);
  int64_t rows_scanned = 0;
  for (auto _ : state) {
    std::string q = strformat(
        "UPDATE pgbench_accounts SET abalance = abalance + %lld WHERE %s = %lld;",
        static_cast<long long>(rng.uniform(-5000, 5000)), key,
        static_cast<long long>(rng.uniform(1, kAccounts)));
    auto r = s.execute(q);
    rows_scanned += r.rows_scanned;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(rows_scanned);
}

void BM_SqlUpdateKeyed(benchmark::State& state) {
  run_pgbench_update(state, "aid");
}
BENCHMARK(BM_SqlUpdateKeyed);

void BM_SqlUpdateHeapScan(benchmark::State& state) {
  run_pgbench_update(state, "aid + 0");
}
BENCHMARK(BM_SqlUpdateHeapScan);

// One checkpoint page image of pgbench_accounts at the storage engine's
// default page size. Items are rows encoded.
void BM_EncodePage(benchmark::State& state) {
  sqldb::Database db(sqldb::minipg_info("13.0"));
  workloads::load_pgbench(db, 2000, 1);
  const sqldb::TableData& t = *db.find_table("pgbench_accounts");
  const size_t rows = sqldb::storage::StorageOptions{}.rows_per_page;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        sqldb::storage::encode_page(t, 3, 1234, 3 * rows, rows));
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_EncodePage);

void BM_SqlTpchQ1(benchmark::State& state) {
  sqldb::Database db(sqldb::minipg_info("13.0"));
  workloads::load_tpch(db, workloads::TpchScale{0.25}, 1);
  sqldb::Session s(db, "postgres");
  const auto& q1 = workloads::tpch_queries()[0];
  for (auto _ : state) benchmark::DoNotOptimize(s.execute(q1));
}
BENCHMARK(BM_SqlTpchQ1);

// Q3: customer JOIN orders JOIN lineitem, grouped; each join level
// probes its per-statement key table.
void BM_SqlTpchJoinQ3(benchmark::State& state) {
  sqldb::Database db(sqldb::minipg_info("13.0"));
  workloads::load_tpch(db, workloads::TpchScale{0.25}, 1);
  sqldb::Session s(db, "postgres");
  const auto& q3 = workloads::tpch_queries()[1];
  for (auto _ : state) benchmark::DoNotOptimize(s.execute(q3));
}
BENCHMARK(BM_SqlTpchJoinQ3);

void BM_SqlParseOnly(benchmark::State& state) {
  const auto& q = workloads::tpch_queries()[1];  // join-heavy text
  for (auto _ : state) benchmark::DoNotOptimize(sqldb::parse_sql(q));
}
BENCHMARK(BM_SqlParseOnly);

// The pgbench -S point SELECT, parse only: the text every backend parses
// once per pgbench-ro transaction. Texts are generated up front so the
// loop times the parser, not the formatting.
void BM_SqlParsePointSelect(benchmark::State& state) {
  Rng rng(4);
  std::vector<std::string> texts;
  for (int i = 0; i < 1024; ++i)
    texts.push_back(workloads::pgbench_select_tx(rng, 20000));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sqldb::parse_sql(texts[i]));
    i = (i + 1) % texts.size();
  }
}
BENCHMARK(BM_SqlParsePointSelect);

}  // namespace

BENCHMARK_MAIN();
