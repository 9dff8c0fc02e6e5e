// Seeded chaos harness for self-healing N-version deployments.
//
// From one integer seed, generate_fault_plan() derives a random schedule
// of benign faults (crashes with restart or replacement, egress stalls,
// partitions, latency spikes) and run_chaos() executes it against a live
// pgbench-style read/write workload on a 3-version sqldb deployment with
// resync + replacement enabled, then checks the recovery invariants:
//
//   1. benign traffic never triggers an intervention (no divergences, no
//      bus aborts, and no quorum outvote of a merely-slow instance);
//   2. every client query is accounted for — answered or refused with a
//      visible connection loss, never silently dropped;
//   3. the deployment returns to full-N health after the last fault.
//
// Everything runs on the deterministic simulator: a failing seed fails
// byte-identically every time, and shrink_fault_plan() greedily minimises
// a failing schedule to a smallest still-failing repro.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netsim/block_device.h"
#include "netsim/simulator.h"
#include "rddr/options.h"

namespace rddr::chaos {

enum class FaultKind {
  kCrashRestart,  // container crash, restarted after `duration`
  kCrashReplace,  // container crash, replaced (fresh name/seed) after it
  kStall,         // egress frozen for `duration` (alive but silent)
  kPartition,     // node isolated from the network for `duration`
  kLatencySpike,  // +`extra` per-direction latency for `duration`
  // Disk faults (generated only with ChaosOptions::durable_storage):
  kTornWrite,        // crash tearing the last staged WAL block, restart
  kPartialWal,       // crash inside the group-commit window, restart
  kCrashCheckpoint,  // force a checkpoint, crash mid-write-out, restart
  kCrashResync,      // crash, restart, then crash a peer mid-resync
};

const char* fault_kind_name(FaultKind kind);

struct FaultSpec {
  FaultKind kind = FaultKind::kCrashRestart;
  sim::Time at = 0;        // absolute virtual time
  sim::Time duration = 0;  // downtime / stall / partition / spike length
  sim::Time extra = 0;     // added latency (kLatencySpike only)
  size_t instance = 0;     // deployment slot [0, N)
};

/// One line per fault, e.g. "crash-restart @1.20s +0.50s on instance 2".
std::string describe(const FaultSpec& fault);
std::string describe(const std::vector<FaultSpec>& plan);

/// A generated plan holds 1..kMaxFaults faults.
inline constexpr size_t kMaxFaults = 3;
/// Faults are drawn from [kFaultWindowStart, ChaosOptions::fault_window_end).
inline constexpr sim::Time kFaultWindowStart = 500 * sim::kMillisecond;

struct ChaosOptions {
  size_t n_instances = 3;
  int accounts = 20;  // small table => updates collide with later reads
  size_t clients = 3;
  size_t queries_per_client = 60;
  /// End of the fault window (see kFaultWindowStart).
  sim::Time fault_window_end = 8 * sim::kSecond;
  /// Extra drain time after the last fault for probes + resync to finish.
  sim::Time settle = 20 * sim::kSecond;
  /// Ablation switch: with resync off, a restarted replica rejoins with
  /// stale state and the invariants catch it (the harness's self-test).
  bool resync_enabled = true;
  /// Durable-storage profile: every replica runs over an orchestrator
  /// volume (sqldb/storage), restarts recover from disk (WAL redo), and
  /// resync warms incrementally (WAL tail / dirty pages) with a
  /// full-snapshot fallback. Enables the disk FaultKinds in generated
  /// plans.
  bool durable_storage = false;
  /// Seeded device fault probabilities applied to every volume (only
  /// meaningful with durable_storage).
  sim::DiskFaults disk_faults;
  /// Group-commit interval for the durable profile (0 = sync every
  /// commit; the default keeps a WAL tail staged so crash windows exist).
  sim::Time wal_flush_interval = 5 * sim::kMillisecond;
  /// Buffer-pool frame budget per replica (durable profile).
  uint64_t frame_budget = 128;
  /// Floor of the modeled resync transfer window (wide windows make the
  /// peer-kill scenario deterministic).
  sim::Time resync_min_transfer = sim::kMillisecond;
  /// Peer-kill scenario switch: the first time an instance enters resync,
  /// crash the peer that served as its warm source mid-window (restarted
  /// shortly after). The invariants then check the resyncing replica
  /// completes from another healthy peer or stays quarantined — never
  /// readmitted with partial state.
  bool kill_peer_mid_resync = false;
};

struct ChaosReport {
  std::vector<FaultSpec> plan;
  bool ok = true;
  std::vector<std::string> violations;

  // Per-query session accounting.
  uint64_t issued = 0;
  uint64_t served = 0;
  uint64_t refused = 0;  // visible connection loss / proxy refusal
  uint64_t lost = 0;     // issued but never answered nor refused

  uint64_t interventions = 0;     // divergence aborts (must be 0)
  uint64_t quorum_outvotes = 0;   // must be 0: benign faults never diverge
  size_t healthy_at_end = 0;
  size_t n_instances = 0;
  /// Last fault end -> first moment the deployment was back at full N
  /// (-1 when it never recovered).
  sim::Time recovery_time = -1;
  core::ProxyStats stats;  // incoming-proxy counters at the end

  std::string summary() const;
};

/// Deterministic random schedule for `seed` (same seed, same plan).
std::vector<FaultSpec> generate_fault_plan(uint64_t seed,
                                           const ChaosOptions& opts);

/// Builds a fresh simulated deployment (N sqldb replicas behind an
/// incoming proxy under kQuorum, orchestrator-managed, resync +
/// replacement wired) and executes `plan` against the workload. All
/// randomness derives from `seed`.
ChaosReport run_chaos(const std::vector<FaultSpec>& plan,
                      const ChaosOptions& opts, uint64_t seed);

/// generate_fault_plan + run_chaos in one call.
ChaosReport run_chaos_seed(uint64_t seed, const ChaosOptions& opts);

/// Satellite scenario: durable 3-replica deployment, crash+restart one
/// replica, then kill the trusted peer serving its resync mid-transfer.
/// Passes when the resyncing replica completes from another healthy peer
/// (or retries after quarantine) and the usual chaos invariants hold.
ChaosReport run_peer_kill_resync(uint64_t seed, ChaosOptions opts = {});

struct ShrinkResult {
  std::vector<FaultSpec> plan;  // minimal still-failing schedule
  ChaosReport report;           // its report (report.ok == false)
  size_t runs = 0;              // executions spent shrinking
};

/// Greedy delta-debugging: repeatedly drop single faults while the plan
/// still fails, then halve surviving durations where failure persists.
/// Deterministic: the same failing plan shrinks to the same repro.
ShrinkResult shrink_fault_plan(const std::vector<FaultSpec>& failing_plan,
                               const ChaosOptions& opts, uint64_t seed);

// ---- front-tier shard-kill scenario (rddr/frontier.h) ----

/// minipg replicas in each shard's pool.
inline constexpr size_t kInstancesPerShard = 3;

struct ShardKillOptions {
  size_t shards = 3;
  int accounts = 20;
  /// Client sessions opened over the run, each on a fresh connection
  /// with a distinct source (so consistent hashing spreads them); the
  /// spacing and per-session query count are fixed in chaos.cc.
  size_t sessions = 150;
  /// Extra drain time after the last session for probes to readmit.
  sim::Time settle = 15 * sim::kSecond;
};

struct ShardKillReport {
  bool ok = true;
  std::vector<std::string> violations;
  uint64_t issued = 0;   // queries sent
  uint64_t served = 0;
  uint64_t refused = 0;  // failed or connection lost
  uint64_t lost = 0;     // never answered nor refused
  /// Refusals of sessions opened while the shard was down. Expected: a
  /// brief detection burst right after the kill, then zero — the router
  /// re-routes around the dead shard.
  uint64_t refused_during_outage = 0;
  /// Sessions the killed shard served after the pool restarted (proves
  /// readmission returned it to the rotation).
  uint64_t sessions_after_readmit = 0;
  size_t killed_shard_healthy_at_end = 0;
  /// restart -> the killed shard's pool back at full health (-1 = never).
  sim::Time readmit_time = -1;

  std::string summary() const;
};

/// Deploys an S-shard Frontier (per-shard minipg pools, kQuorum health),
/// crashes one shard's entire pool mid-workload, restarts it, and checks:
/// (1) no query is silently lost; (2) after a bounded detection window the
/// router sheds nothing and re-routes every new session to live shards;
/// (3) the restarted pool is probed, readmitted, and serves sessions
/// again. Fully deterministic per seed.
ShardKillReport run_shard_kill(const ShardKillOptions& opts, uint64_t seed);

}  // namespace rddr::chaos
