// Write-ahead log for the sqldb storage engine.
//
// Statement-level redo log (the MySQL-binlog point in the design space:
// the engine is deterministic, so re-executing the committed statement
// stream reproduces the exact state). One record per mutating statement
// script, one device block per record, each a sealed line
// (sqldb/codec.h):
//
//   block 0:    RDDRWALH 1\t<start_block>\t<start_lsn>\t<checksum>
//   block k>=1: RDDRWALR 1\t<lsn>\t<user>\t<sql>\t<checksum>
//
// Appends are *staged* on the BlockDevice; `flush` is the group-commit
// durability barrier. After a crash, `recover` scans forward from the
// header's start block and stops at the first missing or corrupt record —
// exactly the partial-WAL-flush semantics torn/lost staged writes
// produce. Records are also mirrored in memory so the retained tail can
// feed WAL-mode incremental resync without device reads.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "netsim/block_device.h"

namespace rddr::sqldb::storage {

struct WalRecord {
  uint64_t lsn = 0;
  std::string user;
  std::string sql;
};

class LogManager {
 public:
  explicit LogManager(std::shared_ptr<sim::BlockDevice> dev);

  /// Appends a record (staged; durable after the next flush). Returns the
  /// modeled device write latency.
  sim::Time append(WalRecord rec);

  /// Group-commit barrier: stages become durable. Returns sync latency.
  sim::Time flush();
  bool has_staged() const { return staged_records_ > 0; }

  struct RecoverResult {
    std::vector<WalRecord> records;  ///< valid durable tail, LSN order
    bool torn = false;               ///< scan stopped at a corrupt record
    sim::Time io = 0;
    std::string error;  ///< non-empty when the header itself is unreadable
    bool ok = true;
  };
  /// Rebuilds in-memory state from the device (crash recovery). The next
  /// append continues after the last valid record.
  RecoverResult recover();

  /// Initializes an empty log starting at `start_lsn` (bootstrap/rebase).
  /// Returns the modeled IO (header write + sync).
  sim::Time reset(uint64_t start_lsn);

  /// Drops retained records with lsn <= `through_lsn`, except that the
  /// newest `keep_records` stay retained (the incremental-resync window).
  /// Returns the modeled IO (header rewrite; trims are free).
  sim::Time truncate_through(uint64_t through_lsn, uint64_t keep_records);

  /// Retained records with lsn > `after_lsn`, oldest first. nullopt when
  /// the tail does not reach back to `after_lsn` (a full/page resync is
  /// needed instead).
  std::optional<std::vector<WalRecord>> records_after(uint64_t after_lsn) const;

  uint64_t retained_records() const { return records_.size(); }
  /// Payload bytes currently staged (not yet flushed) — part of the
  /// container's modeled resident memory.
  uint64_t staged_bytes() const { return staged_bytes_; }

 private:
  static std::string encode_record(const WalRecord& rec);
  static std::optional<WalRecord> decode_record(std::string_view bytes);
  std::string encode_header() const;
  sim::Time write_header();

  std::shared_ptr<sim::BlockDevice> dev_;
  std::deque<WalRecord> records_;  // retained tail mirror (durable+staged)
  uint64_t start_block_ = 1;       // device block of records_.front()
  uint64_t next_block_ = 1;
  uint64_t start_lsn_ = 0;  // lsn before records_.front()
  uint64_t staged_records_ = 0;
  uint64_t staged_bytes_ = 0;
};

}  // namespace rddr::sqldb::storage
