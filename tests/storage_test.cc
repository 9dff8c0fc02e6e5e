// Durable storage engine tests: block device fault model, page/WAL
// codecs, buffer pool, crash recovery (clean, torn, mid-checkpoint),
// incremental resync deltas, and the server/orchestrator volume loop.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/strutil.h"
#include "netsim/block_device.h"
#include "netsim/network.h"
#include "netsim/simulator.h"
#include "services/orchestrator.h"
#include "sqldb/client.h"
#include "sqldb/codec.h"
#include "sqldb/engine.h"
#include "sqldb/server.h"
#include "sqldb/snapshot.h"
#include "sqldb/storage/buffer_pool.h"
#include "sqldb/storage/page.h"
#include "sqldb/storage/storage_engine.h"
#include "sqldb/storage/wal.h"
#include "workloads/pgbench.h"

namespace rddr {
namespace {

using sqldb::Database;
using sqldb::Session;
using sqldb::minipg_info;
using sqldb::snapshot_database;
using sqldb::storage::BufferPool;
using sqldb::storage::LogManager;
using sqldb::storage::StorageEngine;
using sqldb::storage::StorageOptions;
using sqldb::storage::WalRecord;

// ---- BlockDevice -------------------------------------------------------

TEST(BlockDevice, StagedWritesBecomeDurableOnlyAfterSync) {
  sim::BlockDevice dev({});
  dev.write(2, "hello");
  EXPECT_TRUE(dev.read(2).ok);  // staged reads back
  EXPECT_EQ(dev.durable_blocks(), 0u);
  // With zero fault probabilities a crash promotes staged blocks (the OS
  // happened to write them out); loss requires configured fault probs.
  dev.crash();
  EXPECT_EQ(dev.durable_blocks(), 1u);
  dev.write(3, "gone");
  dev.sync();
  EXPECT_EQ(dev.durable_blocks(), 2u);
  EXPECT_EQ(dev.read(3).data, "gone");
}

TEST(BlockDevice, CrashDropsStagedWritesUnderLostWriteFaults) {
  sim::BlockDevice::Options opts;
  opts.faults.lost_write_prob = 1.0;
  sim::BlockDevice dev(opts);
  dev.write(2, "synced");
  dev.sync();
  dev.write(2, "staged-overwrite");
  dev.write(3, "staged-new");
  dev.crash();
  EXPECT_EQ(dev.read(2).data, "synced");  // overwrite lost, old survives
  EXPECT_FALSE(dev.read(3).exists);
  EXPECT_EQ(dev.counters().lost_writes, 2u);
}

TEST(BlockDevice, ForcedTornCrashKeepsStrictPrefixOfNewData) {
  sim::BlockDevice dev({});
  dev.write(5, std::string(100, 'n'));
  dev.force_torn_on_next_crash();
  dev.crash();
  auto r = dev.read(5);
  ASSERT_TRUE(r.ok);
  EXPECT_LT(r.data.size(), 100u);  // a proper prefix survived
  EXPECT_GE(r.data.size(), 1u);
  EXPECT_EQ(r.data, std::string(r.data.size(), 'n'));
  EXPECT_EQ(dev.counters().torn_writes, 1u);
}

TEST(BlockDevice, SeededReadErrorsAreTransientAndDeterministic) {
  sim::BlockDevice::Options opts;
  opts.faults.read_error_prob = 0.5;
  opts.rng_seed = 7;
  sim::BlockDevice dev(opts);
  dev.write(2, "data");
  dev.sync();
  int errors = 0;
  for (int i = 0; i < 100; ++i)
    if (!dev.read(2).ok) ++errors;
  EXPECT_GT(errors, 20);
  EXPECT_LT(errors, 80);
  EXPECT_EQ(dev.counters().read_errors, static_cast<uint64_t>(errors));
  // Same seed, same error sequence.
  sim::BlockDevice dev2(opts);
  dev2.write(2, "data");
  dev2.sync();
  int errors2 = 0;
  for (int i = 0; i < 100; ++i)
    if (!dev2.read(2).ok) ++errors2;
  EXPECT_EQ(errors, errors2);
}

// ---- Page codec --------------------------------------------------------

TEST(PageCodec, RoundTripsRowsAndRejectsCorruption) {
  Database db(minipg_info("13.0"));
  Session s(db, "postgres");
  s.execute("CREATE TABLE t (a INT, b TEXT)");
  s.execute("INSERT INTO t VALUES (1, 'x\ty'), (2, ''), (3, 'line\nbreak')");
  const sqldb::TableData* t = db.find_table("t");
  ASSERT_NE(t, nullptr);
  Bytes img = sqldb::storage::encode_page(*t, 0, 42, 0, 64);
  auto decoded = sqldb::storage::decode_page(img);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->table, "t");
  EXPECT_EQ(decoded->page_no, 0u);
  EXPECT_EQ(decoded->page_lsn, 42u);
  ASSERT_EQ(decoded->rows.size(), 3u);
  EXPECT_EQ(decoded->rows[0][1].as_text(), "x\ty");
  EXPECT_EQ(decoded->rows[2][1].as_text(), "line\nbreak");
  // Any flipped byte in the body must fail the checksum.
  Bytes bad = img;
  bad[bad.size() / 2] ^= 1;
  EXPECT_FALSE(sqldb::storage::decode_page(bad).has_value());
  // A truncated image must not decode either.
  EXPECT_FALSE(
      sqldb::storage::decode_page(ByteView(img).substr(0, img.size() - 4))
          .has_value());
}

// ---- WAL ---------------------------------------------------------------

TEST(Wal, AppendFlushRecoverRoundTrip) {
  auto dev = std::make_shared<sim::BlockDevice>(sim::BlockDevice::Options{});
  LogManager wal(dev);
  wal.reset(0);
  wal.append({1, "postgres", "INSERT INTO t VALUES (1)"});
  wal.append({2, "alice", "UPDATE t SET a = 2"});
  EXPECT_TRUE(wal.has_staged());
  wal.flush();
  LogManager fresh(dev);
  auto rec = fresh.recover();
  ASSERT_TRUE(rec.ok);
  EXPECT_FALSE(rec.torn);
  ASSERT_EQ(rec.records.size(), 2u);
  EXPECT_EQ(rec.records[0].lsn, 1u);
  EXPECT_EQ(rec.records[1].user, "alice");
  EXPECT_EQ(rec.records[1].sql, "UPDATE t SET a = 2");
}

TEST(Wal, TornTailYieldsValidPrefix) {
  auto dev = std::make_shared<sim::BlockDevice>(sim::BlockDevice::Options{});
  LogManager wal(dev);
  wal.reset(0);
  for (uint64_t i = 1; i <= 4; ++i)
    wal.append({i, "postgres", strformat("INSERT INTO t VALUES (%llu)",
                                         static_cast<unsigned long long>(i))});
  dev->force_torn_on_next_crash();  // tears the highest staged block
  dev->crash();
  LogManager fresh(dev);
  auto rec = fresh.recover();
  ASSERT_TRUE(rec.ok);
  EXPECT_TRUE(rec.torn);
  ASSERT_EQ(rec.records.size(), 3u);  // record 4 lost, prefix intact
  EXPECT_EQ(rec.records.back().lsn, 3u);
}

TEST(Wal, TruncateKeepsReachbackWindowForDeltas) {
  auto dev = std::make_shared<sim::BlockDevice>(sim::BlockDevice::Options{});
  LogManager wal(dev);
  wal.reset(0);
  for (uint64_t i = 1; i <= 10; ++i) wal.append({i, "u", "sql"});
  wal.flush();
  wal.truncate_through(/*through_lsn=*/8, /*keep_records=*/4);
  // 1..6 dropped; 7..10 stay (the newest keep_records survive even below
  // through_lsn — the incremental-resync reach-back window).
  EXPECT_EQ(wal.retained_records(), 4u);
  auto after6 = wal.records_after(6);
  ASSERT_TRUE(after6.has_value());
  EXPECT_EQ(after6->size(), 4u);
  EXPECT_EQ(after6->front().lsn, 7u);
  EXPECT_FALSE(wal.records_after(5).has_value());  // beyond the window
  // The truncated log still recovers from disk.
  LogManager fresh(dev);
  auto rec = fresh.recover();
  ASSERT_TRUE(rec.ok);
  ASSERT_EQ(rec.records.size(), 4u);
  EXPECT_EQ(rec.records.front().lsn, 7u);
}

// ---- Buffer pool -------------------------------------------------------

TEST(BufferPool, LruEvictsCleanAndPinsDirty) {
  BufferPool pool(/*frame_budget=*/2);
  EXPECT_FALSE(pool.touch({"t", 0}, 100));  // miss
  EXPECT_FALSE(pool.touch({"t", 1}, 100));  // miss
  EXPECT_TRUE(pool.touch({"t", 0}, 100));   // hit
  EXPECT_FALSE(pool.touch({"t", 2}, 100));  // miss, evicts page 1 (LRU)
  EXPECT_EQ(pool.frames(), 2u);
  EXPECT_FALSE(pool.touch({"t", 1}, 100));  // page 1 is gone again
  EXPECT_EQ(pool.stats().evictions, 2u);
  // Dirty frames never evict; once every frame is dirty the pool
  // overflows its budget and records the pressure instead.
  pool.mark_dirty({"t", 5}, 100);
  pool.mark_dirty({"t", 6}, 100);
  pool.mark_dirty({"t", 7}, 100);
  EXPECT_GT(pool.stats().dirty_overflows, 0u);
  EXPECT_EQ(pool.dirty_frames(), 3u);
  EXPECT_GT(pool.frames(), pool.budget());
  pool.mark_clean({"t", 5});  // checkpoint wrote it back: evictable again
  EXPECT_EQ(pool.dirty_frames(), 2u);
  EXPECT_LE(pool.frames(), pool.budget());
}

// ---- Storage engine ----------------------------------------------------

struct EngineHarness {
  sim::Simulator sim;
  std::shared_ptr<sim::BlockDevice> data;
  std::shared_ptr<sim::BlockDevice> wal;
  std::unique_ptr<Database> db;
  std::unique_ptr<StorageEngine> engine;

  explicit EngineHarness(StorageOptions opts = {},
                         sim::BlockDevice::Options dev_opts = {}) {
    data = std::make_shared<sim::BlockDevice>(dev_opts);
    auto wal_opts = dev_opts;
    wal_opts.rng_seed = dev_opts.rng_seed + 1;
    wal = std::make_shared<sim::BlockDevice>(wal_opts);
    db = std::make_unique<Database>(minipg_info("13.0"));
    engine = std::make_unique<StorageEngine>(sim, data, wal, opts);
  }

  void exec(const std::string& sql, const std::string& user = "postgres") {
    engine->begin_statement();
    Session s(*db, user);
    s.execute(sql);
    engine->end_statement(user, sql);
  }

  /// Simulates a process crash + restart: the engine and database are
  /// torn down, the devices take a crash, and a fresh engine recovers.
  StorageEngine::RecoveryResult crash_and_recover(StorageOptions opts = {}) {
    engine.reset();  // cancels pending flush/checkpoint events
    data->crash();
    wal->crash();
    db = std::make_unique<Database>(minipg_info("13.0"));
    engine = std::make_unique<StorageEngine>(sim, data, wal, opts);
    return engine->recover(*db);
  }
};

TEST(StorageEngine, BootstrapCheckpointRecoverRoundTrip) {
  EngineHarness h;
  EXPECT_FALSE(h.engine->has_durable_state());
  h.engine->bootstrap(*h.db, /*lineage_seed=*/42);
  h.sim.run_until_idle();  // initial checkpoint (empty catalog)
  EXPECT_TRUE(h.engine->has_durable_state());
  h.exec("CREATE TABLE accounts (id INT, name TEXT)");
  h.exec("INSERT INTO accounts VALUES (1, 'ann'), (2, 'bob')");
  h.engine->force_checkpoint();
  h.sim.run_until_idle();
  h.exec("INSERT INTO accounts VALUES (3, 'cid')");  // WAL tail past ckpt
  h.exec("UPDATE accounts SET name = 'ann2' WHERE id = 1");
  std::string before = snapshot_database(*h.db);
  uint64_t lsn_before = h.engine->committed_lsn();
  uint64_t lineage = h.engine->lineage_id();

  auto rec = h.crash_and_recover();
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(snapshot_database(*h.db), before);
  EXPECT_EQ(h.engine->committed_lsn(), lsn_before);
  EXPECT_EQ(h.engine->lineage_id(), lineage);
  EXPECT_EQ(rec.wal_records_replayed, 2u);  // the two post-checkpoint stmts
  EXPECT_GT(rec.pages_read, 0u);
}

TEST(StorageEngine, GroupCommitCrashLosesUnflushedTail) {
  StorageOptions opts;
  opts.wal_flush_interval = 5 * sim::kMillisecond;
  sim::BlockDevice::Options dev_opts;
  dev_opts.faults.lost_write_prob = 1.0;  // crash drops everything staged
  EngineHarness h(opts, dev_opts);
  h.engine->bootstrap(*h.db, 1);
  h.sim.run_until_idle();
  h.exec("CREATE TABLE t (a INT)");
  h.exec("INSERT INTO t VALUES (1)");
  h.sim.run_until_idle();  // group-commit flush fires: lsn 1..2 durable
  h.exec("INSERT INTO t VALUES (2)");
  h.exec("INSERT INTO t VALUES (3)");
  // No sim run: the last two commits are staged only.
  EXPECT_EQ(h.engine->committed_lsn(), 4u);

  auto rec = h.crash_and_recover(opts);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(h.engine->committed_lsn(), 2u);  // acked-but-unflushed lost
  const sqldb::TableData* t = h.db->find_table("t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->rows.size(), 1u);
}

TEST(StorageEngine, TornWalTailRecoversValidPrefix) {
  StorageOptions opts;
  opts.wal_flush_interval = 5 * sim::kMillisecond;
  EngineHarness h(opts);
  h.engine->bootstrap(*h.db, 1);
  h.sim.run_until_idle();
  h.exec("CREATE TABLE t (a INT)");
  h.sim.run_until_idle();
  h.exec("INSERT INTO t VALUES (1)");
  h.exec("INSERT INTO t VALUES (2)");
  h.wal->force_torn_on_next_crash();  // tears the lsn-3 record

  auto rec = h.crash_and_recover(opts);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_TRUE(rec.wal_torn);
  EXPECT_EQ(h.engine->committed_lsn(), 2u);
  const sqldb::TableData* t = h.db->find_table("t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->rows.size(), 1u);
}

TEST(StorageEngine, CrashMidCheckpointFallsBackToOldRootPlusRedo) {
  StorageOptions opts;
  opts.checkpoint_pages_per_step = 1;  // long write-out window
  EngineHarness h(opts);
  workloads::load_pgbench(*h.db, /*accounts=*/300, /*seed=*/9);
  h.engine->bootstrap(*h.db, 1);
  h.sim.run_until_idle();  // initial checkpoint completes
  // One update per logical page: five dirty pages make the paced
  // write-out span several steps.
  for (int i = 0; i < 5; ++i)
    h.exec(strformat(
        "UPDATE pgbench_accounts SET abalance = abalance + 1 WHERE aid = %d",
        i * 64 + 1));
  std::string before = snapshot_database(*h.db);
  h.engine->force_checkpoint();
  // Advance just past one step: a page or two staged, root not written.
  h.sim.run_until(h.sim.now() + 3 * sim::kMillisecond);
  EXPECT_TRUE(h.engine->checkpoint_in_progress());

  auto rec = h.crash_and_recover(opts);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(snapshot_database(*h.db), before);  // old root + full redo
  EXPECT_EQ(rec.wal_records_replayed, 5u);
}

TEST(StorageEngine, KeyedUpdateTouchesAndDirtiesOnlyItsPage) {
  // pgbench-rw-durable's shape: 2000 accounts (32 pages) over 16 frames.
  StorageOptions opts;
  opts.frame_budget = 16;
  EngineHarness keyed(opts), scanned(opts);
  for (EngineHarness* h : {&keyed, &scanned}) {
    workloads::load_pgbench(*h->db, /*accounts=*/2000, /*seed=*/9);
    h->engine->bootstrap(*h->db, /*lineage_seed=*/7);
    h->sim.run_until_idle();  // initial checkpoint completes: all clean
    ASSERT_EQ(h->engine->pool().dirty_frames(), 0u);
  }
  auto touches = [](const EngineHarness& h) {
    const auto& st = h.engine->pool().stats();
    return st.hits + st.misses;
  };
  const std::string keyed_sql =
      "UPDATE pgbench_accounts SET abalance = abalance + 5 WHERE aid = 1000";
  const std::string scanned_sql =
      "UPDATE pgbench_accounts SET abalance = abalance + 5 WHERE aid + 0 = 1000";
  uint64_t keyed_before = touches(keyed), scanned_before = touches(scanned);
  keyed.exec(keyed_sql);
  scanned.exec(scanned_sql);
  // The index probe touches the one page holding aid 1000 and dirties it
  // while it is resident. The scanned form reads all 32 pages, and by
  // the time it dirties page 15 the later pages have evicted it, so the
  // write faults it in again: one more pool access.
  EXPECT_EQ(touches(keyed) - keyed_before, 1u);
  EXPECT_EQ(touches(scanned) - scanned_before, 32u + 1u);
  EXPECT_EQ(keyed.engine->pool().dirty_frames(), 1u);
  EXPECT_EQ(scanned.engine->pool().dirty_frames(), 1u);
  EXPECT_EQ(snapshot_database(*keyed.db), snapshot_database(*scanned.db));

  // Checkpointed page images carry each page's LSN, so identical data
  // devices mean identical page_lsns as well as identical rows.
  for (EngineHarness* h : {&keyed, &scanned}) {
    h->engine->force_checkpoint();
    h->sim.run_until_idle();
  }
  for (uint64_t b = 0; b < 128; ++b) {
    auto kb = keyed.data->read(b), sb = scanned.data->read(b);
    ASSERT_EQ(kb.exists, sb.exists) << "data block " << b;
    EXPECT_EQ(kb.data, sb.data) << "data block " << b;
  }
  // The WAL is byte-identical except for the one record that carries
  // each form's own statement text.
  int records_differing = 0;
  for (uint64_t b = 0; b < 64; ++b) {
    auto kb = keyed.wal->read(b), sb = scanned.wal->read(b);
    ASSERT_EQ(kb.exists, sb.exists) << "wal block " << b;
    if (kb.data == sb.data) continue;
    ++records_differing;
    auto kf = sqldb::open_line(kb.data), sf = sqldb::open_line(sb.data);
    ASSERT_TRUE(kf && sf) << "wal block " << b;
    ASSERT_EQ(kf->size(), 4u);
    ASSERT_EQ(sf->size(), 4u);
    EXPECT_EQ((*kf)[0], (*sf)[0]);  // record magic
    EXPECT_EQ((*kf)[1], (*sf)[1]);  // LSN
    EXPECT_EQ((*kf)[2], (*sf)[2]);  // user
    EXPECT_EQ((*kf)[3], keyed_sql);
    EXPECT_EQ((*sf)[3], scanned_sql);
  }
  EXPECT_EQ(records_differing, 1);
}

TEST(StorageEngine, SameSeedRecoveryTraceIsByteIdentical) {
  auto run = [](uint64_t seed) {
    StorageOptions opts;
    opts.wal_flush_interval = 5 * sim::kMillisecond;
    sim::BlockDevice::Options dev_opts;
    dev_opts.faults.torn_write_prob = 0.3;
    dev_opts.faults.lost_write_prob = 0.2;
    dev_opts.rng_seed = seed;
    EngineHarness h(opts, dev_opts);
    workloads::load_pgbench(*h.db, 50, 9);
    h.engine->bootstrap(*h.db, seed);
    h.sim.run_until_idle();
    for (int i = 0; i < 8; ++i)
      h.exec(strformat(
          "UPDATE pgbench_accounts SET abalance = abalance + %d WHERE aid = %d",
          i + 1, i % 50 + 1));
    auto rec = h.crash_and_recover(opts);
    return rec.trace + (rec.ok ? "|ok" : "|" + rec.error) +
           snapshot_database(*h.db);
  };
  EXPECT_EQ(run(11), run(11));
}

TEST(StorageEngine, CorruptRootRecoversEmptyWithZeroLineage) {
  EngineHarness h;
  h.engine->bootstrap(*h.db, 1);
  h.sim.run_until_idle();
  h.exec("CREATE TABLE t (a INT)");
  h.engine->force_checkpoint();
  h.sim.run_until_idle();
  // Scribble over both root slots.
  h.data->write(0, "garbage");
  h.data->write(1, "more garbage");
  h.data->sync();

  auto rec = h.crash_and_recover();
  EXPECT_FALSE(rec.ok);
  EXPECT_EQ(h.engine->lineage_id(), 0u);  // full-resync territory
  EXPECT_EQ(h.db->tables().size(), 0u);   // never half-recovered
  sqldb::storage::StorageEngine::DeltaStats ds;
  EXPECT_FALSE(h.engine->build_delta(0, 0, &ds).has_value());
}

// ---- Incremental resync deltas ----------------------------------------

struct ReplicaPair {
  EngineHarness a, b;

  explicit ReplicaPair(StorageOptions opts = {}, int accounts = 200)
      : a(opts), b(opts) {
    workloads::load_pgbench(*a.db, accounts, 9);
    workloads::load_pgbench(*b.db, accounts, 9);
    a.engine->bootstrap(*a.db, /*lineage_seed=*/7);
    b.engine->bootstrap(*b.db, /*lineage_seed=*/7);
    a.sim.run_until_idle();
    b.sim.run_until_idle();
  }

  void exec_both(const std::string& sql) {
    a.exec(sql);
    b.exec(sql);
  }
};

TEST(StorageDelta, WalModeReplaysTailAndConverges) {
  ReplicaPair pair;
  EXPECT_EQ(pair.a.engine->lineage_id(), pair.b.engine->lineage_id());
  pair.exec_both("UPDATE pgbench_accounts SET abalance = 5 WHERE aid = 1");
  // A moves ahead while B is "down".
  pair.a.exec("UPDATE pgbench_accounts SET abalance = 6 WHERE aid = 2");
  pair.a.exec("UPDATE pgbench_tellers SET tbalance = 1 WHERE tid = 1");

  StorageEngine::DeltaStats built;
  auto delta = pair.a.engine->build_delta(pair.b.engine->committed_lsn(),
                                          pair.b.engine->lineage_id(), &built);
  ASSERT_TRUE(delta.has_value());
  EXPECT_STREQ(built.mode, "wal");
  EXPECT_EQ(built.wal_records, 2u);

  StorageEngine::DeltaStats applied;
  std::string err;
  ASSERT_TRUE(pair.b.engine->apply_delta(*delta, &applied, &err)) << err;
  EXPECT_EQ(snapshot_database(*pair.b.db), snapshot_database(*pair.a.db));
  EXPECT_EQ(pair.b.engine->committed_lsn(), pair.a.engine->committed_lsn());
}

TEST(StorageDelta, PagesModeShipsOnlyDirtyPages) {
  StorageOptions opts;
  opts.wal_keep_records = 0;  // no WAL reach-back: force pages mode
  ReplicaPair pair(opts, /*accounts=*/640);  // 10 pages of accounts
  // A advances 3 statements touching one page, then checkpoints (which
  // truncates the WAL past B's LSN).
  for (int i = 0; i < 3; ++i)
    pair.a.exec(strformat(
        "UPDATE pgbench_accounts SET abalance = %d WHERE aid = 1", i + 1));
  pair.a.engine->force_checkpoint();
  pair.a.sim.run_until_idle();

  StorageEngine::DeltaStats built;
  auto delta = pair.a.engine->build_delta(pair.b.engine->committed_lsn(),
                                          pair.b.engine->lineage_id(), &built);
  ASSERT_TRUE(delta.has_value());
  EXPECT_STREQ(built.mode, "pages");
  EXPECT_EQ(built.pages_shipped, 1u);  // one dirty page out of ~13
  EXPECT_LT(built.bytes, snapshot_database(*pair.a.db).size());

  StorageEngine::DeltaStats applied;
  std::string err;
  ASSERT_TRUE(pair.b.engine->apply_delta(*delta, &applied, &err)) << err;
  EXPECT_EQ(snapshot_database(*pair.b.db), snapshot_database(*pair.a.db));
  EXPECT_EQ(pair.b.engine->committed_lsn(), pair.a.engine->committed_lsn());
  EXPECT_EQ(pair.b.engine->lineage_id(), pair.a.engine->lineage_id());
  // B keeps working after the rebase: replicated statements stay aligned.
  pair.exec_both("UPDATE pgbench_accounts SET abalance = 9 WHERE aid = 2");
  EXPECT_EQ(snapshot_database(*pair.b.db), snapshot_database(*pair.a.db));
}

TEST(StorageDelta, OnePercentDirtyShipsFarFewerBytesThanSnapshot) {
  StorageOptions opts;
  opts.wal_keep_records = 0;
  ReplicaPair pair(opts, /*accounts=*/6400);  // 100 pages
  pair.a.exec("UPDATE pgbench_accounts SET abalance = 1 WHERE aid = 1");
  pair.a.engine->force_checkpoint();
  pair.a.sim.run_until_idle();

  StorageEngine::DeltaStats built;
  auto delta = pair.a.engine->build_delta(pair.b.engine->committed_lsn(),
                                          pair.b.engine->lineage_id(), &built);
  ASSERT_TRUE(delta.has_value());
  size_t full = snapshot_database(*pair.a.db).size();
  EXPECT_LT(built.bytes * 10, full);  // ~1% dirty → >10x smaller transfer
  StorageEngine::DeltaStats applied;
  ASSERT_TRUE(pair.b.engine->apply_delta(*delta, &applied, nullptr));
  EXPECT_EQ(snapshot_database(*pair.b.db), snapshot_database(*pair.a.db));
}

TEST(StorageDelta, LineageMismatchRefusesDelta) {
  ReplicaPair pair;
  EngineHarness other;
  workloads::load_pgbench(*other.db, 200, 9);
  other.engine->bootstrap(*other.db, /*lineage_seed=*/999);  // different salt
  other.sim.run_until_idle();
  StorageEngine::DeltaStats ds;
  EXPECT_FALSE(pair.a.engine
                   ->build_delta(other.engine->committed_lsn(),
                                 other.engine->lineage_id(), &ds)
                   .has_value());
  // Corrupted delta bytes are rejected before any state changes.
  pair.a.exec("UPDATE pgbench_accounts SET abalance = 5 WHERE aid = 1");
  auto delta = pair.a.engine->build_delta(pair.b.engine->committed_lsn(),
                                          pair.b.engine->lineage_id(), &ds);
  ASSERT_TRUE(delta.has_value());
  std::string bad = *delta;
  bad[bad.size() / 2] ^= 1;
  std::string before = snapshot_database(*pair.b.db);
  std::string err;
  EXPECT_FALSE(pair.b.engine->apply_delta(bad, nullptr, &err));
  EXPECT_EQ(snapshot_database(*pair.b.db), before);
}

// ---- Rich catalog through recovery and deltas --------------------------

// A table with a hash index, bulk-loaded before bootstrap (indexes have no
// SQL form), on which the statements below add everything else a catalog
// can hold.
void load_notes(Database& db) {
  Session s(db, "postgres");
  s.execute(
      "CREATE TABLE notes (id int, owner_name text, score float, body text);"
      "INSERT INTO notes VALUES (1, 'alice', 1.5, 'first'),"
      " (2, 'bob', -0.25, 'second')");
  db.find_table("notes")->build_index("id");
}

// A grant, an RLS policy, a minipg UDF and operator, and rows holding a
// NULL, a float that needs a hexfloat, text with a tab and a newline, and
// a duplicated indexed key — one WAL record each.
const std::vector<std::string>& rich_statements() {
  static const std::vector<std::string> stmts = {
      "INSERT INTO notes VALUES (3, 'alice', 0.1, 'tab\there'),"
      " (4, 'bob', NULL, 'line\nbreak'), (4, 'carol', 2.5, NULL)",
      "GRANT SELECT ON notes TO alice",
      "ALTER TABLE notes ENABLE ROW LEVEL SECURITY",
      "CREATE POLICY own ON notes TO alice USING (owner_name = current_user())",
      "CREATE FUNCTION gt2(integer, integer) RETURNS boolean "
      "AS $$BEGIN RAISE NOTICE 'cmp % %', $1, $2; "
      "RETURN $1 > $2; END$$ LANGUAGE plpgsql",
      "CREATE OPERATOR >>> (procedure=gt2, leftarg=integer, "
      "rightarg=integer, restrict=scalargtsel)",
  };
  return stmts;
}

/// Rows the index serves for the duplicated key, in result order.
std::string lookup_dup_key(Database& db) {
  Session s(db, "postgres");
  auto r = s.execute("SELECT owner_name FROM notes WHERE id = 4");
  std::string out;
  for (const auto& row : r.statements.back().rows)
    out += row[0].value_or("NULL") + ";";
  return out;
}

struct NotesPair {
  EngineHarness a, b;

  explicit NotesPair(StorageOptions opts = {}) : a(opts), b(opts) {
    load_notes(*a.db);
    load_notes(*b.db);
    a.engine->bootstrap(*a.db, /*lineage_seed=*/7);
    b.engine->bootstrap(*b.db, /*lineage_seed=*/7);
    a.sim.run_until_idle();
    b.sim.run_until_idle();
    for (const auto& sql : rich_statements()) a.exec(sql);
  }
};

TEST(StorageEngine, RecoverRestoresRichCatalogAndIndexOrder) {
  EngineHarness h;
  load_notes(*h.db);
  h.engine->bootstrap(*h.db, 3);
  h.sim.run_until_idle();
  const auto& stmts = rich_statements();
  // Half the script lands in the checkpoint, half stays in the WAL tail.
  for (size_t i = 0; i < stmts.size() / 2; ++i) h.exec(stmts[i]);
  h.engine->force_checkpoint();
  h.sim.run_until_idle();
  for (size_t i = stmts.size() / 2; i < stmts.size(); ++i) h.exec(stmts[i]);
  std::string before = snapshot_database(*h.db);
  std::string lookup = lookup_dup_key(*h.db);
  EXPECT_EQ(lookup, "bob;carol;");

  auto rec = h.crash_and_recover();
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(rec.wal_records_replayed, stmts.size() - stmts.size() / 2);
  EXPECT_EQ(snapshot_database(*h.db), before);
  EXPECT_EQ(lookup_dup_key(*h.db), lookup);

  // And again with the whole script inside the checkpoint: no redo, so
  // the catalog and index come from the root and pages alone.
  h.engine->force_checkpoint();
  h.sim.run_until_idle();
  rec = h.crash_and_recover();
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(rec.wal_records_replayed, 0u);
  EXPECT_EQ(snapshot_database(*h.db), before);
  EXPECT_EQ(lookup_dup_key(*h.db), lookup);
}

TEST(StorageDelta, PagesModeCarriesRichCatalogAndIndexOrder) {
  StorageOptions opts;
  opts.wal_keep_records = 0;  // force pages mode
  NotesPair pair(opts);
  pair.a.engine->force_checkpoint();
  pair.a.sim.run_until_idle();

  StorageEngine::DeltaStats built;
  auto delta = pair.a.engine->build_delta(pair.b.engine->committed_lsn(),
                                          pair.b.engine->lineage_id(), &built);
  ASSERT_TRUE(delta.has_value());
  EXPECT_STREQ(built.mode, "pages");
  std::string err;
  ASSERT_TRUE(pair.b.engine->apply_delta(*delta, nullptr, &err)) << err;
  EXPECT_EQ(snapshot_database(*pair.b.db), snapshot_database(*pair.a.db));
  EXPECT_EQ(lookup_dup_key(*pair.b.db), lookup_dup_key(*pair.a.db));
  EXPECT_EQ(pair.b.engine->committed_lsn(), pair.a.engine->committed_lsn());
  // The applied state is durable: B recovers it from its own volume.
  pair.b.sim.run_until_idle();
  std::string applied = snapshot_database(*pair.b.db);
  auto rec = pair.b.crash_and_recover(opts);
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(snapshot_database(*pair.b.db), applied);
}

TEST(StorageDelta, FlippedBodyByteIsRefusedWithoutSideEffects) {
  for (uint64_t keep : {uint64_t{4096}, uint64_t{0}}) {  // wal, then pages
    StorageOptions opts;
    opts.wal_keep_records = keep;
    NotesPair pair(opts);
    pair.a.engine->force_checkpoint();
    pair.a.sim.run_until_idle();
    StorageEngine::DeltaStats built;
    auto delta = pair.a.engine->build_delta(
        pair.b.engine->committed_lsn(), pair.b.engine->lineage_id(), &built);
    ASSERT_TRUE(delta.has_value());
    EXPECT_STREQ(built.mode, keep ? "wal" : "pages");
    std::string bad = *delta;
    size_t body = bad.find('\n') + 1;
    bad[body + (bad.size() - body) / 2] ^= 1;

    std::string before = snapshot_database(*pair.b.db);
    uint64_t lsn = pair.b.engine->committed_lsn();
    uint64_t lineage = pair.b.engine->lineage_id();
    std::string err;
    EXPECT_FALSE(pair.b.engine->apply_delta(bad, nullptr, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_EQ(snapshot_database(*pair.b.db), before);
    EXPECT_EQ(pair.b.engine->committed_lsn(), lsn);
    EXPECT_EQ(pair.b.engine->lineage_id(), lineage);
  }
}

// ---- Durable forms golden ----------------------------------------------

#ifndef RDDR_SOURCE_DIR
#define RDDR_SOURCE_DIR "."
#endif

// Every durable byte the storage engine and snapshot writer produce, for
// the rich-catalog database above: the root image, one page, the WAL
// header and one record block, a wal-mode and a pages-mode delta, and the
// snapshot. Set RDDR_DUMP_GOLDEN=<dir> to write the golden instead of
// comparing — only when a change is meant to alter a durable format.
TEST(DurableForms, MatchGolden) {
  NotesPair wal_pair;  // WAL retained: the delta replays statements
  StorageEngine::DeltaStats ds;
  auto wal_delta = wal_pair.a.engine->build_delta(
      wal_pair.b.engine->committed_lsn(), wal_pair.b.engine->lineage_id(),
      &ds);
  ASSERT_TRUE(wal_delta.has_value());
  ASSERT_STREQ(ds.mode, "wal");

  StorageOptions opts;
  opts.wal_keep_records = 0;
  NotesPair pages_pair(opts);
  EngineHarness& a = pages_pair.a;
  a.engine->force_checkpoint();  // truncates the WAL past B's LSN
  a.sim.run_until_idle();
  a.exec("UPDATE notes SET score = 0.3 WHERE id = 1");  // a WAL tail
  auto pages_delta = a.engine->build_delta(
      pages_pair.b.engine->committed_lsn(), pages_pair.b.engine->lineage_id(),
      &ds);
  ASSERT_TRUE(pages_delta.has_value());
  ASSERT_STREQ(ds.mode, "pages");

  auto block = [](sim::BlockDevice& dev, uint64_t b) {
    auto r = dev.read(b);
    EXPECT_TRUE(r.ok) << "block " << b;
    return std::string(r.data);
  };
  // The newest page is the highest live block: the notes page the
  // checkpoint rewrote.
  uint64_t last_page = 2;
  for (uint64_t b = 2; b < 64; ++b)
    if (a.data->read(b).exists) last_page = b;

  std::string got;
  auto add = [&got](const char* name, const std::string& bytes) {
    got += strformat("== %s %zu\n", name, bytes.size()) + bytes + "\n";
  };
  add("root slot 0", block(*a.data, 0));
  add("root slot 1", block(*a.data, 1));
  add("page", block(*a.data, last_page));
  add("wal header", block(*wal_pair.a.wal, 0));
  add("wal record", block(*wal_pair.a.wal, 1));
  add("truncated wal header", block(*a.wal, 0));
  add("wal delta", *wal_delta);
  add("pages delta", *pages_delta);
  add("snapshot", snapshot_database(*a.db));

  std::string path = std::string(RDDR_SOURCE_DIR) + "/tests/golden/";
  if (const char* dump = std::getenv("RDDR_DUMP_GOLDEN")) {
    std::ofstream(std::string(dump) + "/durable_forms.txt", std::ios::binary)
        << got;
    GTEST_SKIP() << "golden dumped";
  }
  std::ifstream in(path + "durable_forms.txt", std::ios::binary);
  std::ostringstream golden;
  golden << in.rdbuf();
  ASSERT_FALSE(golden.str().empty()) << "missing golden in " << path;
  EXPECT_EQ(got, golden.str());
}

// ---- Server + orchestrator volume loop ---------------------------------

TEST(DurableServer, RestartRecoversCommittedStateFromVolume) {
  sim::Simulator sim;
  sim::Network net{sim, 10 * sim::kMicrosecond};
  services::Orchestrator orch(sim, net, /*seed=*/3);
  orch.add_host("h", 8, 8LL << 30);
  orch.register_image("minipg", [&](const services::ContainerSpec& spec) {
    auto db = std::make_shared<Database>(minipg_info("13.0"));
    workloads::load_pgbench(*db, 50, 9);
    auto& vol = orch.volume(spec.container_name);
    sqldb::SqlServer::Options so;
    so.address = spec.address;
    so.rng_seed = spec.rng_seed;
    so.storage = std::make_shared<StorageEngine>(sim, vol.data, vol.wal,
                                                 StorageOptions{});
    so.lineage_seed = 3;
    return std::make_shared<sqldb::SqlServer>(net, *spec.host, db, so);
  });
  orch.deploy("pg-0", "minipg", "13.0", "h", "pg-0:5432");
  sim.run_until_idle();  // initial checkpoint

  int64_t observed = -1;
  bool update_ok = false;
  auto client = std::make_unique<sqldb::PgClient>(net, "cli", "pg-0:5432",
                                                  "postgres");
  client->query("UPDATE pgbench_accounts SET abalance = 777 WHERE aid = 7",
                [&](sqldb::QueryOutcome o) { update_ok = !o.failed(); });
  sim.run_until_idle();
  ASSERT_TRUE(update_ok);
  client->close();

  orch.crash("pg-0");
  sim.run_until_idle();
  orch.restart("pg-0");
  sim.run_until_idle();  // recovery IO elapses, then listen

  auto server = orch.get<sqldb::SqlServer>("pg-0");
  ASSERT_NE(server, nullptr);
  EXPECT_TRUE(server->last_recovery().ok) << server->last_recovery().error;
  EXPECT_GT(server->last_recovery().io_time, 0);
  auto client2 = std::make_unique<sqldb::PgClient>(net, "cli2", "pg-0:5432",
                                                   "postgres");
  client2->query("SELECT abalance FROM pgbench_accounts WHERE aid = 7",
                 [&](sqldb::QueryOutcome o) {
                   if (!o.failed() && !o.rows.empty() && !o.rows[0].empty() &&
                       o.rows[0][0])
                     observed = parse_i64(*o.rows[0][0]).value_or(-1);
                 });
  sim.run_until_idle();
  EXPECT_EQ(observed, 777);  // the write survived the crash
}

}  // namespace
}  // namespace rddr
