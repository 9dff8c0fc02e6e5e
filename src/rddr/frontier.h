// Scale-out front tier: sharded RDDR pools behind one public address.
//
// A single incoming/outgoing proxy pair is the throughput ceiling of the
// paper's deployment — every compared unit crosses one pump loop. The
// Frontier removes that ceiling horizontally: it owns S independent
// NVersionDeployment shards (each a full proxy pair fronting its own
// N-version pool, or the shared pool) and routes accepted client
// connections across them with deterministic consistent hashing, so one
// session always lands on one shard and a same-seed run replays
// byte-identically.
//
// Overload handling (DESIGN.md "Scale-out & overload"):
//  * Admission control — a per-shard token bucket (AdmissionOptions::
//    rate_per_s/burst) bounds the session-admission rate.
//  * Bounded queueing — connections that cannot be admitted immediately
//    wait in a per-shard queue of at most `queue_limit`; arrival at a full
//    queue sheds instantly.
//  * Load shedding — a queued connection not admitted within
//    `shed_deadline` is rejected fast and protocol-correctly: the client
//    receives ProtocolPlugin::overload_response() (e.g. SQLSTATE 53300,
//    HTTP 503) instead of a hang or a raw close.
//  * Backpressure — admission consults the shard's live load
//    (active_sessions vs max_sessions, IncomingProxy::pending_units vs
//    queued_units_watermark), so a saturated pool slows admission instead
//    of growing unbounded internal queues; IncomingProxy::Config::
//    on_load_change wakes the frontier when load drops.
//  * Accept-queue depth — AdmissionOptions::accept_queue bounds the
//    simulated kernel backlog of the public listener
//    (Network::set_accept_queue_depth); overflow is refused before the
//    frontier ever sees the connection.
//
// Metrics (under "<name>."): offered, admitted, shed, shed_deadline,
// shed_queue_full, shed_unroutable counters; queued_ms histogram
// (admission-queue wait of admitted connections); per-shard gauges
// s<k>.active_sessions and s<k>.admission_queue. With a Tracer, every
// shed connection records a "shed" span tagged with the reason and shard.
//
// Build one via NVersionDeployment::Builder:
//
//   auto front = core::NVersionDeployment::Builder()
//                    .listen("svc:80")
//                    .versions({"a:80", "b:80", "c:80"})
//                    .plugin(std::make_shared<core::HttpPlugin>())
//                    .shards(4)
//                    .admission({.rate_per_s = 4000, .queue_limit = 64})
//                    .build_frontier(net, host);
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "rddr/deployment.h"

namespace rddr::core {

/// FNV-1a 64-bit with an avalanche finalizer — the frontier's stable
/// session-key hash. Exposed so tests can predict ring placement.
uint64_t hash_key(const std::string& key);

/// Consistent-hash ring over shard indices with virtual nodes. Routing is
/// a pure function of (key, shard count, enabled set): the same key maps
/// to the same shard across runs, and disabling one shard moves only the
/// ~1/S of keys that hashed to it (the classic consistent-hash property).
class ConsistentHash {
 public:
  explicit ConsistentHash(size_t shards, size_t vnodes_per_shard = 64);

  size_t shards() const { return nshards_; }

  /// Routes `key` to its shard, walking the ring clockwise past any
  /// disabled shards. Returns shards() when every shard is disabled.
  size_t route(const std::string& key) const;

  /// Marks a shard (un)routable; route() skips disabled shards.
  void set_shard_enabled(size_t shard, bool enabled);
  bool shard_enabled(size_t shard) const { return enabled_.at(shard); }

 private:
  size_t nshards_;
  std::vector<bool> enabled_;
  /// (point, shard), sorted by point.
  std::vector<std::pair<uint64_t, size_t>> ring_;
};

/// The front tier itself. Usually constructed via
/// NVersionDeployment::Builder::build_frontier.
class Frontier {
 public:
  struct Options {
    /// Public address clients dial (the only listener the tier exposes).
    std::string listen_address;
    std::string name = "frontier";
    AdmissionOptions admission;
    /// Plugin whose overload_response() shed connections receive (shared
    /// with the shards in Builder-built frontiers).
    std::shared_ptr<ProtocolPlugin> plugin;
    /// One fully resolved deployment per shard; each incoming config must
    /// have an empty listen_address (shards are fed by direct handoff).
    std::vector<NVersionDeployment::Options> shards;
    /// Observability sinks (optional, not owned).
    obs::MetricsRegistry* metrics = nullptr;
    obs::Tracer* tracer = nullptr;
    /// Island of each shard's column (one entry per shard; empty = all on
    /// island 0). The frontier's dial-time island router on
    /// `listen_address` picks the shard from ConnectMeta::source and lands
    /// the server half of the connection on that shard's island;
    /// on_accept then trusts the recorded route hint, so every shard's
    /// admission queue, tokens and handoff run on the shard's own island.
    /// Filled by Builder::build_frontier from Builder::islands(); see that
    /// knob for the determinism contract.
    std::vector<IslandId> shard_islands;
  };

  /// Shard k's proxies run on shard_hosts[k % shard_hosts.size()].
  Frontier(sim::Network& net, std::vector<sim::Host*> shard_hosts,
           Options options);
  ~Frontier();
  Frontier(const Frontier&) = delete;
  Frontier& operator=(const Frontier&) = delete;

  size_t shard_count() const { return shards_.size(); }
  NVersionDeployment& shard(size_t k) { return *shards_.at(k); }
  const NVersionDeployment& shard(size_t k) const { return *shards_.at(k); }

  /// Island shard k's column is pinned to (0 on a 1-island run).
  /// Observers that sample a shard's live state mid-run (health, session
  /// counters) must schedule onto this island — a cross-island read is
  /// tear-free but sees a window-dependent snapshot.
  IslandId shard_island(size_t k) const {
    return opts_.shard_islands.empty() ? 0 : opts_.shard_islands.at(k);
  }

  /// Shard `key` would route to right now (tests / operators).
  size_t route_of(const std::string& key) const;

  /// Administratively (un)drains one shard: disabled shards receive no
  /// new sessions; established sessions keep running.
  void set_shard_enabled(size_t k, bool enabled);

  /// A shard is routable when enabled and its pool has a healthy
  /// instance.
  bool shard_available(size_t k) const;

  /// Frontier-level counters only (offered/admitted/shed live here; the
  /// shard proxies' counters are separate).
  ProxyStats stats() const { return counters_.snapshot(); }

  /// Frontier counters plus every shard deployment's aggregate.
  ProxyStats aggregate_stats() const;

  /// Total divergences across all shards.
  uint64_t divergences() const;

  /// Registry the frontier publishes into (configured one, else private).
  obs::MetricsRegistry& metrics() { return *metrics_; }

  /// Connections currently parked in shard k's admission queue.
  size_t admission_queue_len(size_t k) const {
    return shard_state_.at(k).queue.size();
  }

 private:
  struct Waiting {
    sim::ConnPtr conn;
    sim::Time enqueued = 0;
    uint64_t shed_event = 0;  // pending deadline event (0 = none)
    uint64_t seq = 0;         // connection id; keys queue-entry lookup
  };
  struct ShardState {
    double tokens = 0;
    sim::Time last_refill = 0;
    std::deque<Waiting> queue;
    uint64_t token_wake_event = 0;  // pending refill-drain event
    bool drain_scheduled = false;   // coalesces on_load_change wakeups
    obs::Gauge* active_sessions = nullptr;
    obs::Gauge* admission_queue = nullptr;
  };

  void on_accept(sim::ConnPtr conn);
  /// Shard for a connect-time key; shared by route_of() and the island
  /// router (clients dial from one island, so the lazy ring sync stays
  /// unracy).
  size_t route_for_key(const std::string& key) const;
  /// Consumes a token and admits, or returns false (bucket empty /
  /// backpressured shard).
  bool try_admit(size_t k);
  void admit(size_t k, Waiting w);
  void shed(Waiting& w, const std::string& reason, obs::Counter* reason_ctr,
            int shard);
  void refill(size_t k);
  /// Admits from shard k's queue while tokens and backpressure allow;
  /// re-arms the token wakeup when the queue stays non-empty.
  void drain(size_t k);
  void schedule_drain(size_t k);
  void update_gauges(size_t k);
  /// Virtual time until the bucket holds >= 1 token (rate-limited shards).
  sim::Time time_to_next_token(const ShardState& st) const;

  sim::Network& net_;
  Options opts_;
  obs::MetricsRegistry owned_metrics_;  // fallback registry
  obs::MetricsRegistry* metrics_;  // configured, else &owned_metrics_
  ProxyCounters counters_;
  obs::Counter* offered_ = nullptr;
  obs::Counter* shed_deadline_ = nullptr;
  obs::Counter* shed_queue_full_ = nullptr;
  obs::Counter* shed_unroutable_ = nullptr;
  std::vector<std::unique_ptr<NVersionDeployment>> shards_;
  /// Routing is (admin flag && pool health); the flags are synced into the
  /// ring lazily on each route, hence mutable.
  mutable ConsistentHash router_;
  std::vector<bool> admin_enabled_;
  std::vector<ShardState> shard_state_;
};

}  // namespace rddr::core
