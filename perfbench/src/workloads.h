// The four benchmark workloads: their fixed shapes, the inputs generated
// from a workload seed, and one measured round (set up, run, check).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "shims.h"
#include "sqldb/engine.h"

namespace perfbench {

enum class Kind { kPgbenchRo, kPgbenchRwDurable, kTpchAnalytic, kScaleout };

/// Fixed shape of a workload (everything but the seed).
struct Spec {
  std::string name;
  Kind kind = Kind::kPgbenchRo;
  // Closed loop: clients x transactions per client.
  int clients = 0;
  int tx_per_client = 0;
  // Open loop (kScaleout, behind a frontier): Poisson arrivals.
  int requests = 0;
  double rate_per_s = 0;
  // Data and deployment.
  int accounts = 0;
  double tpch_scale = 0;
  uint64_t frame_budget = 0;  // > 0: durable storage on every replica
  int shards = 1;
  size_t islands = 0;
  double cpu_per_query = 0;
  double cpu_per_row = 0;
  double admission_rate = 0;  // frontier admission cap per shard
};

/// Looks a workload up by name; `tiny` shrinks it for the self-test.
/// Returns false for an unknown name.
bool find_spec(const std::string& name, bool tiny, Spec* out);
std::vector<std::string> workload_names();

/// Everything generated from the seed: dataset seeds and the SQL of every
/// transaction (per client for closed loops, per arrival for open loops).
struct Inputs {
  uint64_t seed = 0;
  uint64_t data_seed = 0;
  std::vector<std::vector<std::string>> client_sql;
  std::vector<std::string> arrival_sql;
  /// pgbench-rw-durable: the reference database's snapshot, built by
  /// applying every generated transaction through Session::execute.
  std::string reference_snapshot;
};

/// `wrong_reference` adds one extra UPDATE to the reference (self-test).
Inputs make_inputs(const Spec& spec, uint64_t seed, bool wrong_reference);

/// Bulk-loads the workload's dataset (pgbench or TPC-H-lite) into `db`.
void load_data(const Spec& spec, uint64_t data_seed, rddr::sqldb::Database& db);

/// What one round switches on.
struct RoundConfig {
  size_t islands = 0;          // overrides spec.islands when nonzero
  /// Timing plugin (recording response units), allocation counting and
  /// SQL capture.
  bool shims = false;
  bool tracer = false;  // obs::Tracer on pool, servers and proxies
};

/// Per-layer counters one round yields.
struct LayerCounts {
  uint64_t events = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_copied = 0;
  uint64_t connections = 0;
  // ParallelExecutor::stats() (zero when the round ran one event loop).
  double model_speedup = 0;
  uint64_t windows = 0;
  uint64_t barrier_stalls = 0;
  uint64_t merged_messages = 0;
  // Frontier (from the registry given to Builder::metrics).
  uint64_t offered = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  double queued_ms_p50 = 0;
  // Durable storage, summed over replicas.
  uint64_t replicas = 0;
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;
  uint64_t pages_written = 0;
  uint64_t checkpoints = 0;
  double pool_hit_rate_sum = 0;
  // Tracer rounds only.
  uint64_t spans = 0;
  // Shim rounds only.
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
  uint64_t frame_ns = 0;
  uint64_t frame_allocs = 0;
  uint64_t units = 0;
  uint64_t canon_ns = 0;
  uint64_t canon_calls = 0;
};

struct RoundResult {
  double setup_s = 0;  // host seconds: load, start servers, deploy
  double run_s = 0;    // host seconds: first request to last outcome
  /// The run phase cut into slices: a cut every kSlices-th part of the
  /// transactions issued, the last slice ending at the last outcome. Each
  /// slice holds the same simulated work in every round of a run.
  std::vector<uint64_t> slice_ns;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;         // errors other than a designed overload shed
  uint64_t shed = 0;           // open loop: 53300 rejections
  uint64_t interventions = 0;  // divergence records seen by on_divergence
  double virt_elapsed_s = 0;
  // Virtual request latency: median and the highest of p99/p90 with at
  // least ten samples ranked beyond it.
  uint64_t samples = 0;
  double lat_p50_ms = 0;
  double lat_tail_ms = 0;
  uint64_t tail_pct = 0;
  uint64_t tail_beyond = 0;
  LayerCounts layers;
  std::vector<std::string> check_failures;
  /// Every virtual-time output, printed exactly (%.17g): equal strings ==
  /// byte-identical virt_* metrics.
  std::string virt_signature;
  /// Shim rounds: SQL in the order the client pool issued it, and the
  /// response units per proxy session.
  std::vector<std::string> captured_sql;
  std::shared_ptr<TimedPgPlugin> plugin;
};

constexpr uint64_t kSlices = 64;

RoundResult run_round(const Spec& spec, const Inputs& inputs,
                      const RoundConfig& cfg);

}  // namespace perfbench
