// Deterministic simulated block device.
//
// The durability substrate under sqldb's storage engine (DESIGN.md
// "Durable storage & recovery"): a map of numbered blocks with a *staged*
// write cache in front of a *durable* image. `write` stages; `sync` is
// the durability barrier that promotes every staged block to the durable
// image. A `crash` discards or mangles the staged set under a seeded
// fault model — torn writes keep only a prefix of the new content spliced
// over the old, lost writes vanish entirely — which is how torn-page and
// partial-WAL-flush scenarios arise in an otherwise synchronous
// single-threaded simulation.
//
// The device is passive: it never touches the Simulator. Each operation
// returns the virtual time it should cost (charged per `page_size` unit of
// payload) and the caller schedules that delay on its own clock, keeping
// storage latency inside the same deterministic pipeline as network and
// CPU costs (the CloudNativeSim simulated-resource approach; PAPERS.md).
//
// Determinism: fault rolls come from an owned forked Rng, staged blocks
// are iterated in block order at crash time, and all latencies are fixed
// functions of payload size — same seed, same op sequence, byte-identical
// durable images.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/bytes.h"
#include "common/rng.h"
#include "netsim/simulator.h"

namespace rddr::sim {

/// Seeded fault model applied by BlockDevice. All probabilities are per
/// staged block at crash time except `read_error_prob` (per read).
struct DiskFaults {
  double torn_write_prob = 0.0;  ///< staged block persists as a prefix
  double lost_write_prob = 0.0;  ///< staged block is dropped entirely
  double read_error_prob = 0.0;  ///< transient read failure (retryable)
};

class BlockDevice {
 public:
  struct Options {
    /// Latency accounting granularity: payloads are charged per
    /// ceil(size / page_size) pages. Blocks may hold any payload size.
    uint64_t page_size = 4096;
    Time read_latency = 20 * kMicrosecond;    ///< per page read
    Time write_latency = 40 * kMicrosecond;   ///< per page staged
    Time sync_latency = 250 * kMicrosecond;   ///< per sync barrier
    DiskFaults faults;
    uint64_t rng_seed = 1;
  };

  struct ReadResult {
    bool ok = false;      ///< false: transient read error or missing block
    bool exists = false;  ///< block has content (staged or durable)
    Bytes data;
    Time latency = 0;
  };

  struct Counters {
    uint64_t reads = 0, writes = 0, syncs = 0;
    uint64_t bytes_read = 0, bytes_written = 0;
    uint64_t read_errors = 0;
    uint64_t torn_writes = 0, lost_writes = 0;  ///< applied at crash
    uint64_t crashes = 0;
  };

  explicit BlockDevice(Options opts);

  /// Stages `data` as the new content of `block` (whole-block replace).
  /// Staged content is visible to `read` but not durable until `sync`.
  /// Returns the modeled latency of the write.
  Time write(uint64_t block, Bytes data);

  /// Reads `block` (staged content wins over durable). A seeded transient
  /// read error returns ok=false with exists untouched — callers treat it
  /// like a checksum failure and may retry or fall back.
  ReadResult read(uint64_t block) const;

  /// `read`, retried up to kReadAttempts times while the block exists but
  /// the read errors; adds every try's latency to `*io` (if non-null).
  static constexpr int kReadAttempts = 3;
  ReadResult read_retrying(uint64_t block, Time* io) const;

  /// Durability barrier: every staged block becomes durable, in block
  /// order. Returns the modeled latency (sync_latency + per-page write
  /// cost of the promoted payloads).
  Time sync();

  /// Removes `block` from both staged and durable images (used by WAL
  /// truncation). Free: modeled as metadata-only.
  void trim(uint64_t block);

  /// Power loss: applies the fault model to each staged block in block
  /// order — survive intact, survive torn (prefix spliced over the old
  /// durable content), or vanish — then clears the staged set. The
  /// durable image is otherwise untouched.
  void crash();

  /// Chaos hook: the next crash tears the highest staged block (the
  /// in-flight tail), regardless of probabilities. No-op if nothing is
  /// staged at crash time.
  void force_torn_on_next_crash() { force_torn_ = true; }

  uint64_t staged_blocks() const { return staged_.size(); }
  uint64_t durable_blocks() const { return durable_.size(); }
  /// Total durable payload bytes (simulated disk usage).
  uint64_t durable_bytes() const { return durable_bytes_; }

  const Counters& counters() const { return counters_; }
  const Options& options() const { return opts_; }

 private:
  Time pages_cost(size_t size, Time per_page) const {
    uint64_t pages = (size + opts_.page_size - 1) / opts_.page_size;
    if (pages == 0) pages = 1;
    return static_cast<Time>(pages) * per_page;
  }

  Options opts_;
  mutable Rng rng_;
  std::map<uint64_t, Bytes> staged_;
  std::map<uint64_t, Bytes> durable_;
  uint64_t durable_bytes_ = 0;
  bool force_torn_ = false;
  mutable Counters counters_;
};

}  // namespace rddr::sim
