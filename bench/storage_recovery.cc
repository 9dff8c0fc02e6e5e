// Durable-storage benchmark (not a paper figure; its output is pinned as
// tests/golden/paper/storage_recovery/).
//
// Measures the three quantities the storage engine's recovery path is
// designed around, all on the deterministic simulator, so every number
// is virtual and machine-independent (bench/run_benches.sh times the
// whole run from outside, into BENCH_paper.json):
//
//  * cold-start redo: modeled recovery time (root + page reads + WAL
//    replay) of a crashed replica as the un-checkpointed WAL tail grows;
//  * buffer-pool hit rate: point-query workload under shrinking frame
//    budgets (the fig6 cache-pressure knob);
//  * incremental vs full resync: bytes shipped to top up a peer that is
//    one statement behind on a ~1%-dirty database — page-mode delta vs a
//    full snapshot, plus the WAL-tail delta for the same gap.
//
// Self-checks (exit nonzero on failure, both modes):
//  * same seed ⇒ byte-identical recovery trace and recovered snapshot;
//  * the 1%-dirty page delta is >10x smaller than the full snapshot;
//  * recovery reproduces the pre-crash snapshot exactly.
//
// --smoke: reduced sizes, the same checks and a one-line summary; tier-1
// pins it as bench.storage_recovery_smoke.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strutil.h"
#include "netsim/block_device.h"
#include "netsim/simulator.h"
#include "sqldb/engine.h"
#include "sqldb/snapshot.h"
#include "sqldb/storage/storage_engine.h"
#include "workloads/pgbench.h"

using namespace rddr;
using sqldb::storage::StorageEngine;
using sqldb::storage::StorageOptions;

namespace {

/// A durable replica: engine + database over its own devices, with the
/// statement hooks a SqlServer would drive.
struct Replica {
  sim::Simulator sim;
  std::shared_ptr<sim::BlockDevice> data;
  std::shared_ptr<sim::BlockDevice> wal;
  std::unique_ptr<sqldb::Database> db;
  std::unique_ptr<StorageEngine> engine;

  Replica(int accounts, StorageOptions opts, uint64_t seed) {
    sim::BlockDevice::Options dev;
    dev.rng_seed = seed;
    data = std::make_shared<sim::BlockDevice>(dev);
    dev.rng_seed = seed + 1;
    wal = std::make_shared<sim::BlockDevice>(dev);
    db = std::make_unique<sqldb::Database>(sqldb::minipg_info("13.0"));
    workloads::load_pgbench(*db, accounts, /*seed=*/9);
    engine = std::make_unique<StorageEngine>(sim, data, wal, opts);
    engine->bootstrap(*db, /*lineage_seed=*/seed);
    sim.run_until_idle();  // initial checkpoint
  }

  sim::Time exec(const std::string& sql) {
    engine->begin_statement();
    sqldb::Session s(*db, "postgres");
    s.execute(sql);
    return engine->end_statement("postgres", sql);
  }

  /// Crash + cold start: devices keep their durable image, a fresh engine
  /// rebuilds a fresh database from it.
  StorageEngine::RecoveryResult crash_and_recover(StorageOptions opts) {
    engine.reset();
    data->crash();
    wal->crash();
    db = std::make_unique<sqldb::Database>(sqldb::minipg_info("13.0"));
    engine = std::make_unique<StorageEngine>(sim, data, wal, opts);
    return engine->recover(*db);
  }
};

int g_failures = 0;

void check(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "storage_recovery CHECK FAILED: %s\n", what);
  g_failures++;
}

// ---- cold-start redo ---------------------------------------------------

struct ColdStart {
  size_t wal_tail = 0;
  double recovery_io_ms = 0;  // virtual time: machine-independent
  uint64_t pages_read = 0;
  uint64_t wal_records_replayed = 0;
  std::string trace;
  std::string snapshot;
};

ColdStart cold_start(int accounts, size_t wal_tail, uint64_t seed) {
  StorageOptions opts;
  opts.checkpoint_every_records = 1u << 30;  // only explicit checkpoints
  Replica r(accounts, opts, seed);
  Rng rng(seed);
  for (size_t i = 0; i < wal_tail; ++i)
    r.exec(strformat(
        "UPDATE pgbench_accounts SET abalance = abalance + 1 WHERE aid = %lld",
        static_cast<long long>(rng.uniform(1, accounts))));
  std::string before = snapshot_database(*r.db);

  auto rec = r.crash_and_recover(opts);
  ColdStart out;
  check(rec.ok, "cold-start recovery succeeded");
  check(snapshot_database(*r.db) == before,
        "recovery reproduces the pre-crash snapshot");
  out.wal_tail = wal_tail;
  out.recovery_io_ms = static_cast<double>(rec.io_time) / sim::kMillisecond;
  out.pages_read = rec.pages_read;
  out.wal_records_replayed = rec.wal_records_replayed;
  out.trace = rec.trace;
  out.snapshot = snapshot_database(*r.db);
  return out;
}

// ---- buffer-pool hit rate ----------------------------------------------

struct PoolPoint {
  uint64_t frame_budget = 0;
  double hit_rate = 0;
  double avg_io_us_per_query = 0;
};

PoolPoint pool_point(int accounts, uint64_t budget, size_t queries) {
  StorageOptions opts;
  opts.frame_budget = budget;
  opts.checkpoint_every_records = 1u << 30;
  Replica r(accounts, opts, /*seed=*/21);
  Rng rng(33);
  sim::Time io = 0;
  for (size_t i = 0; i < queries; ++i)
    io += r.exec(strformat(
        "SELECT abalance FROM pgbench_accounts WHERE aid = %lld",
        static_cast<long long>(rng.uniform(1, accounts))));
  PoolPoint p;
  p.frame_budget = budget;
  p.hit_rate = r.engine->pool().hit_rate();
  p.avg_io_us_per_query = static_cast<double>(io) / sim::kMicrosecond /
                          static_cast<double>(queries);
  return p;
}

// ---- incremental vs full resync ----------------------------------------

struct ResyncPoint {
  size_t rows = 0;
  uint64_t full_snapshot_bytes = 0;
  uint64_t delta_pages_bytes = 0;
  uint64_t pages_shipped = 0;
  uint64_t delta_wal_bytes = 0;
  double ratio = 0;
};

ResyncPoint resync_point(int accounts, int dirty_statements) {
  // Two replicas of one lineage; A runs ahead while B is down. Page mode
  // is forced for the page-vs-snapshot number by truncating A's WAL.
  StorageOptions opts;
  opts.checkpoint_every_records = 1u << 30;
  Replica a(accounts, opts, /*seed=*/5);
  Replica b(accounts, opts, /*seed=*/5);
  for (int i = 0; i < dirty_statements; ++i)
    a.exec(strformat(
        "UPDATE pgbench_accounts SET abalance = abalance + 1 WHERE aid = %d",
        i * 64 + 1));  // one statement per page: dirty pages == statements

  ResyncPoint out;
  out.rows = a.db->find_table("pgbench_accounts")->rows.size();
  out.full_snapshot_bytes = snapshot_database(*a.db).size();

  StorageEngine::DeltaStats wal_stats;
  auto wal_delta = a.engine->build_delta(b.engine->committed_lsn(),
                                         b.engine->lineage_id(), &wal_stats);
  check(wal_delta.has_value() && std::strcmp(wal_stats.mode, "wal") == 0,
        "WAL-tail delta available while the tail is retained");
  out.delta_wal_bytes = wal_stats.bytes;

  StorageOptions trunc = opts;
  trunc.wal_keep_records = 0;
  a.engine.reset();
  a.engine = std::make_unique<StorageEngine>(a.sim, a.data, a.wal, trunc);
  auto rec = a.engine->recover(*a.db);
  check(rec.ok, "source replica re-opens for page-mode delta");
  a.engine->force_checkpoint();
  a.sim.run_until_idle();  // checkpoint truncates the WAL past B's LSN

  StorageEngine::DeltaStats page_stats;
  auto page_delta = a.engine->build_delta(b.engine->committed_lsn(),
                                          b.engine->lineage_id(), &page_stats);
  check(page_delta.has_value() && std::strcmp(page_stats.mode, "pages") == 0,
        "page-mode delta after the WAL tail is gone");
  if (page_delta) {
    StorageEngine::DeltaStats applied;
    std::string err;
    check(b.engine->apply_delta(*page_delta, &applied, &err),
          "page-mode delta applies");
    check(snapshot_database(*b.db) == snapshot_database(*a.db),
          "delta-warmed replica matches the source");
    out.delta_pages_bytes = page_stats.bytes;
    out.pages_shipped = page_stats.pages_shipped;
    out.ratio = static_cast<double>(page_stats.bytes) /
                static_cast<double>(out.full_snapshot_bytes);
  }
  return out;
}

int run(bool smoke) {
  const int accounts = smoke ? 3200 : 12800;  // 50 / 200 pages
  // Enough queries that compulsory (first-touch) misses cannot drag an
  // all-resident pool below the 0.9 hit-rate floor.
  const size_t pool_queries = smoke ? 1500 : 4000;

  // Cold-start redo, twice at the largest tail for the determinism check.
  std::vector<ColdStart> cold;
  for (size_t tail : smoke ? std::vector<size_t>{128}
                           : std::vector<size_t>{0, 256, 1024})
    cold.push_back(cold_start(accounts, tail, /*seed=*/11));
  ColdStart rerun = cold_start(accounts, cold.back().wal_tail, /*seed=*/11);
  check(rerun.trace == cold.back().trace,
        "same seed gives a byte-identical recovery trace");
  check(rerun.snapshot == cold.back().snapshot,
        "same seed gives a byte-identical recovered snapshot");

  std::vector<PoolPoint> pool;
  for (uint64_t budget : smoke ? std::vector<uint64_t>{16, 512}
                               : std::vector<uint64_t>{16, 64, 256, 512})
    pool.push_back(pool_point(accounts, budget, pool_queries));
  check(pool.front().hit_rate < pool.back().hit_rate,
        "hit rate rises with the frame budget");
  check(pool.back().hit_rate > 0.9,
        "an over-provisioned pool serves mostly hits");

  // ~1% dirty: one statement per page on a 50/200-page table.
  ResyncPoint resync = resync_point(accounts, accounts / 6400 + 1);
  check(resync.delta_pages_bytes * 10 < resync.full_snapshot_bytes,
        "1%-dirty page delta is >10x smaller than a full snapshot");
  check(resync.delta_wal_bytes * 10 < resync.full_snapshot_bytes,
        "WAL-tail delta is >10x smaller than a full snapshot");

  if (g_failures) {
    std::fprintf(stderr, "storage_recovery: %d check(s) FAILED\n", g_failures);
    return 1;
  }
  if (smoke) {
    std::printf("{\"smoke\": {\"cold_start_io_ms\": %.3f, "
                "\"delta_ratio\": %.4f, \"checks\": \"ok\"}}\n",
                cold.back().recovery_io_ms, resync.ratio);
    return 0;
  }

  std::printf("{\n  \"cold_start\": [\n");
  for (size_t i = 0; i < cold.size(); ++i)
    std::printf("    {\"wal_tail\": %zu, \"recovery_io_ms\": %.3f, "
                "\"pages_read\": %llu, \"wal_records_replayed\": %llu}%s\n",
                cold[i].wal_tail, cold[i].recovery_io_ms,
                static_cast<unsigned long long>(cold[i].pages_read),
                static_cast<unsigned long long>(cold[i].wal_records_replayed),
                i + 1 < cold.size() ? "," : "");
  std::printf("  ],\n  \"buffer_pool\": [\n");
  for (size_t i = 0; i < pool.size(); ++i)
    std::printf("    {\"frame_budget\": %llu, \"hit_rate\": %.4f, "
                "\"avg_io_us_per_query\": %.2f}%s\n",
                static_cast<unsigned long long>(pool[i].frame_budget),
                pool[i].hit_rate, pool[i].avg_io_us_per_query,
                i + 1 < pool.size() ? "," : "");
  std::printf(
      "  ],\n"
      "  \"resync_1pct_dirty\": {\"rows\": %zu, "
      "\"full_snapshot_bytes\": %llu, \"delta_pages_bytes\": %llu, "
      "\"pages_shipped\": %llu, \"delta_wal_bytes\": %llu, "
      "\"ratio\": %.4f},\n"
      "  \"checks\": \"ok\"\n}\n",
      resync.rows,
      static_cast<unsigned long long>(resync.full_snapshot_bytes),
      static_cast<unsigned long long>(resync.delta_pages_bytes),
      static_cast<unsigned long long>(resync.pages_shipped),
      static_cast<unsigned long long>(resync.delta_wal_bytes), resync.ratio);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  return run(smoke);
}
