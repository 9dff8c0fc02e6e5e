// Durable storage engine for sqldb (the tentpole of DESIGN.md "Durable
// storage & recovery").
//
// Ties the pieces together: slotted pages (page.h) over a data
// BlockDevice, a statement-level WAL (wal.h) on its own device, an LRU
// buffer pool (buffer_pool.h), copy-on-write checkpoints with dual root
// slots, redo recovery, and page/WAL-tail incremental resync deltas.
//
// Model. The in-memory Database stays the authoritative executor state
// (the engine substitutes for a DBMS process; see engine.h) — the
// storage engine listens to its mutations (MutationListener) to maintain
// page-level dirty tracking, charges modeled IO latency for buffer-pool
// misses and WAL commits, and keeps a durable image from which the full
// state can be rebuilt after `Host` crash/restart:
//
//   durable state = root manifest (catalog + page map, dual slots with
//                   checksums, alternating blocks 0/1)
//                 + page images (CoW: checkpoints write dirty pages to
//                   fresh blocks; the old root stays valid until the new
//                   root is synced)
//                 + WAL tail (statements after the root's LSN)
//
// Format owners: this file the root manifest and resync delta, page.h
// page images, wal.h the WAL; the catalog records inside roots and
// pages-mode deltas are sqldb/snapshot.h's, and escaping, rows and
// checksum framing sqldb/codec.h's.
//
// LSN discipline: the LSN counts mutating statement scripts since
// bootstrap. Replicas of one lineage fed the same replicated statement
// stream assign identical LSNs, which is what makes `page_lsn <= L ⇒
// byte-identical page` hold across replicas and page-level resync sound.
//
// Checkpoints are spread over virtual time (a state machine stepping a
// few page writes per tick) so crash-during-checkpoint windows exist;
// page images are captured synchronously at checkpoint start, so the
// written set is consistent at the checkpoint LSN no matter how many
// statements land during the window.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "netsim/block_device.h"
#include "netsim/simulator.h"
#include "sqldb/engine.h"
#include "sqldb/storage/buffer_pool.h"
#include "sqldb/storage/wal.h"

namespace rddr::sqldb::storage {

struct StorageOptions {
  /// Rows per logical page (fixed per deployment: page-level resync needs
  /// identical row→page mapping on every replica of a lineage).
  uint64_t rows_per_page = 64;
  /// Buffer pool frame budget (pages resident at once) — the fig6
  /// cache-pressure knob.
  uint64_t frame_budget = 256;
  /// 0 = the WAL is synced inside every commit (no torn tail possible,
  /// higher per-query IO). >0 = group commit: appends stage and a
  /// background flush runs this often — the window partial-WAL-flush
  /// faults live in.
  sim::Time wal_flush_interval = 0;
  /// WAL records between automatic checkpoints.
  uint64_t checkpoint_every_records = 256;
  /// Page writes staged per checkpoint step (with the fixed gap between
  /// steps, kCheckpointStepInterval in storage_engine.cc: how long the
  /// crash-during-checkpoint window is).
  uint64_t checkpoint_pages_per_step = 16;
  /// Records kept in the WAL past a checkpoint — the reach-back window
  /// for WAL-mode incremental resync.
  uint64_t wal_keep_records = 4096;
};

struct StorageCounters {
  uint64_t wal_records_appended = 0;
  uint64_t wal_bytes_appended = 0;
  uint64_t wal_flushes = 0;
  uint64_t checkpoints_started = 0;
  uint64_t checkpoints_completed = 0;
  uint64_t pages_written = 0;
  uint64_t pages_read = 0;
  uint64_t recoveries = 0;
  uint64_t recovery_failures = 0;
  uint64_t wal_records_replayed = 0;
  uint64_t wal_bytes_replayed = 0;
  uint64_t deltas_built = 0;
  uint64_t deltas_applied = 0;
};

class StorageEngine : public MutationListener {
 public:
  StorageEngine(sim::Simulator& sim, std::shared_ptr<sim::BlockDevice> data,
                std::shared_ptr<sim::BlockDevice> wal, StorageOptions opts);
  ~StorageEngine() override;

  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  // ---- Lifecycle -------------------------------------------------------

  /// True when the data device holds a valid root manifest (at least one
  /// checkpoint completed in a previous life).
  bool has_durable_state() const;

  struct RecoveryResult {
    bool ok = false;
    std::string error;
    /// Modeled IO + replay latency; the server defers its listen() by
    /// this (a recovering container is not instantly serving).
    sim::Time io_time = 0;
    uint64_t pages_read = 0;
    uint64_t wal_records_replayed = 0;
    uint64_t wal_bytes_replayed = 0;
    bool wal_torn = false;  ///< replay stopped at a torn record
    /// Deterministic recovery trace: same seed ⇒ byte-identical.
    std::string trace;
  };

  /// Crash recovery: replaces `db`'s contents from the durable image
  /// (root + pages + WAL redo) and attaches to it. On failure the
  /// database is left cleared — the caller treats the instance as empty
  /// (peer resync territory), never half-recovered.
  RecoveryResult recover(Database& db);

  /// First boot: adopts `db`'s current contents (bulk-loaded by the
  /// image factory) as the storage state at LSN 0, attaches, and starts
  /// the initial checkpoint. `lineage_seed` salts the lineage id —
  /// replicas bootstrapped from identical content share it, which gates
  /// incremental resync. Returns the modeled IO of the WAL reset.
  sim::Time bootstrap(Database& db, uint64_t lineage_seed = 0);

  void detach();
  bool attached() const { return db_ != nullptr; }

  // ---- Commit path (pgwire server) ------------------------------------

  void begin_statement();
  /// After Session::execute: logs the script to the WAL if it mutated
  /// state, schedules group-commit flush / checkpoint as configured, and
  /// returns the modeled IO latency (buffer misses + WAL cost) the
  /// server adds to the response time.
  sim::Time end_statement(const std::string& user, std::string_view sql);

  // ---- Incremental resync ---------------------------------------------

  uint64_t committed_lsn() const { return lsn_; }
  uint64_t lineage_id() const { return lineage_id_; }

  struct DeltaStats {
    uint64_t pages_shipped = 0;
    uint64_t wal_records = 0;
    uint64_t wal_bytes = 0;
    uint64_t bytes = 0;
    const char* mode = "none";  // "wal" | "pages"
  };

  /// Source side: a delta bringing a same-lineage peer at `target_lsn`
  /// up to this replica's LSN — the WAL tail when it reaches back far
  /// enough, dirty pages (page_lsn > target_lsn) + catalog otherwise.
  /// nullopt: lineages differ / target is ahead — full snapshot needed.
  std::optional<std::string> build_delta(uint64_t target_lsn,
                                         uint64_t target_lineage,
                                         DeltaStats* stats) const;

  /// Target side: applies a delta built against exactly this LSN and
  /// lineage. One whole-delta checksum guards it: a checksum, header,
  /// lineage, LSN or parse failure refuses the delta before anything
  /// changes. Past that, a wal-mode delta may stop part-way through its
  /// replay, and a pages-mode delta whose catalog or rows fail to install
  /// leaves the database cleared and the lineage zero. Callers fall back
  /// to a full snapshot on any false.
  bool apply_delta(std::string_view delta, DeltaStats* stats,
                   std::string* error = nullptr);

  /// After a full-snapshot load: re-adopts the database contents, aligns
  /// LSN/lineage with the snapshot's source, resets the WAL and starts a
  /// checkpoint so the durable image catches up.
  sim::Time rebase(uint64_t source_lsn, uint64_t source_lineage);

  // ---- Modeled resources ----------------------------------------------

  /// Simulated resident bytes: buffer-pool frames + staged WAL. Bounded
  /// by the frame budget — the bigger-than-memory story for fig6.
  int64_t resident_bytes() const;

  // ---- Introspection / chaos hooks ------------------------------------

  const StorageCounters& counters() const { return counters_; }
  const BufferPool& pool() const { return pool_; }
  const StorageOptions& options() const { return opts_; }
  bool checkpoint_in_progress() const { return ckpt_.active; }
  /// Kicks a checkpoint now (no-op if one is running) — lets the chaos
  /// harness open a crash-during-checkpoint window on demand.
  void force_checkpoint() { maybe_start_checkpoint(/*force=*/true); }
  sim::BlockDevice& wal_device() { return *wal_dev_; }

  // ---- MutationListener -----------------------------------------------

  void on_rows_appended(const TableData& table, size_t first_new_row) override;
  void on_row_updated(const TableData& table, size_t ordinal) override;
  void on_rows_compacted(const TableData& table, size_t first_changed,
                         size_t old_row_count) override;
  void on_table_created(const TableData& table) override;
  void on_table_dropped(const std::string& name) override;
  void on_catalog_changed(const TableData& table) override;
  void on_schema_changed() override;
  void on_scan(const TableData& table,
               const std::vector<size_t>* candidates) override;

 private:
  struct TableState {
    std::vector<uint64_t> page_lsns;  // logical page -> last-touch LSN
    std::vector<uint64_t> blocks;     // logical page -> device block (0=none)
    uint64_t avg_page_bytes = 3072;   // frame-size estimate for the pool
  };

  struct RootImage {
    uint64_t seq = 0;
    uint64_t lsn = 0;
    uint64_t lineage = 0;
    uint64_t next_free_block = 2;
    uint64_t rows_per_page = 64;
    std::string catalog;  // catalog_records (sqldb/snapshot.h)
    struct TableMap {
      std::string name;
      uint64_t nrows = 0;
      std::vector<uint64_t> blocks;
    };
    std::vector<TableMap> tables;
  };

  struct Checkpoint {
    bool active = false;
    uint64_t seq = 0;
    uint64_t target_lsn = 0;
    std::vector<std::pair<BufferPool::Key, Bytes>> writes;  // captured images
    std::vector<std::pair<BufferPool::Key, uint64_t>> new_blocks;
    std::vector<uint64_t> free_after;  // superseded blocks
    Bytes root_image;
    size_t next_write = 0;
    uint64_t step_event = 0;
  };

  uint64_t effective_lsn() const { return replaying_ ? replay_lsn_ : lsn_ + 1; }
  uint64_t npages(size_t rows) const {
    return rows ? (rows + opts_.rows_per_page - 1) / opts_.rows_per_page : 0;
  }
  TableState& ensure_table(const TableData& t);
  void mark_page(const TableData& t, uint64_t page);
  void adopt_tables(uint64_t page_lsn);
  void reclaim_all_blocks();
  /// The one redo step (crash recovery and wal-mode deltas): re-executes
  /// `rec` so its mutations mark pages with its LSN, and advances to it.
  void redo(const WalRecord& rec);

  Bytes encode_root(const RootImage& root) const;
  std::optional<RootImage> decode_root(ByteView bytes) const;
  std::optional<RootImage> read_root(sim::Time* io) const;

  void maybe_start_checkpoint(bool force);
  void checkpoint_step();
  void finish_checkpoint();
  void schedule_flush();

  sim::Simulator& sim_;
  std::shared_ptr<sim::BlockDevice> data_;
  std::shared_ptr<sim::BlockDevice> wal_dev_;
  StorageOptions opts_;
  LogManager wal_;
  BufferPool pool_;
  Database* db_ = nullptr;

  uint64_t lsn_ = 0;
  uint64_t checkpointed_lsn_ = 0;
  uint64_t lineage_id_ = 0;
  uint64_t root_seq_ = 0;
  uint64_t next_free_block_ = 2;  // 0/1 are the root slots
  uint64_t wal_records_since_ckpt_ = 0;
  std::map<std::string, TableState> tables_;
  std::vector<uint64_t> stale_blocks_;  // freed at next checkpoint

  bool statement_mutated_ = false;
  sim::Time pending_io_ = 0;
  bool replaying_ = false;
  uint64_t replay_lsn_ = 0;

  Checkpoint ckpt_;
  uint64_t flush_event_ = 0;

  mutable StorageCounters counters_;  // build_delta (const) counts builds
};

}  // namespace rddr::sqldb::storage
