// Seeded topology generator for the scenario factory (ROADMAP item 5).
//
// In the spirit of Ditto's generated service graphs, one integer seed
// synthesizes a small N-tier topology over the existing building blocks
// (sqldb replicas, HttpServer apps, shared leaf services) with sampled
// per-node latencies and payload sizes, and drops RDDR deployments on
// chosen edges through the one construction path the rest of the repo
// uses (NVersionDeployment::Builder / build_frontier).
//
// Three graph shapes cover the protocol/edge mixes the fuzzer needs:
//
//   kind 0  "pg-direct"       client -> RDDR(pgwire, strict) -> 3x minipg
//   kind 1  "http-fanout"     client -> Frontier(http, 2 shards)
//                                    -> 3x app --fan-out--> K shared leaves
//   kind 2  "http-diamond-pg" client -> RDDR(http) -> 3x app -> 2 shared
//                                    mids -> RDDR(pgwire) -> 3x minipg
//
// Every protected pool is a filter pair (two identical-image instances)
// plus one diverse version, under kStrict degradation: any response
// divergence is blocked, which is what makes the fuzzer's leak invariant
// meaningful. Each topology plants version-keyed secrets ("SECRET-<tag>")
// that only a divergence-protected path can reach, and stamps per-version
// benign variance (a build_sha ParameterStatus, an X-Backend-Build
// header) that the corpus miner must learn to ignore (paper §IV-B4).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "netsim/simulator.h"
#include "rddr/deployment.h"
#include "rddr/frontier.h"
#include "services/http_service.h"
#include "sqldb/server.h"

namespace rddr::scenario {

/// Marker planted in every version-keyed secret. The fuzzer's leak
/// invariant scans all client-received bytes for it.
inline constexpr const char* kSecretMarker = "SECRET-";

struct TopologyOptions {
  /// Graph shape, in [0, Topology::kKinds).
  int kind = 0;
  /// Drives every sampled quantity (latencies, sizes, fan-out width).
  uint64_t seed = 1;
  /// Known-variance rules applied to every RDDR edge. The default rules
  /// do NOT cover the per-version build stamps this topology plants —
  /// running with the default measures the pre-mining benign-divergence
  /// rate; running with the miner's tuned variance measures the after.
  core::KnownVariance variance;
  /// Corpus hook threaded into every RDDR edge (each deployment's
  /// DivergenceBus record stream, via Builder::on_divergence): fired per
  /// intervention and per quorum outvote.
  std::function<void(const core::DivergenceRecord&)> on_divergence;
  /// Per-unit compare timeout on every edge, so composed stall faults
  /// produce visible aborts instead of hangs.
  sim::Time unit_timeout = 250 * sim::kMillisecond;
  /// Idle-session read timeout on every edge (the slowloris shed knob;
  /// 0 disables it — the fuzzer's self-test uses that to prove the
  /// no-hang invariant actually fires).
  sim::Time idle_timeout = 600 * sim::kMillisecond;
  /// Partition the simulation into this many islands (<= 1 = one
  /// island). The service graph is one tightly coupled column (shared
  /// hosts, same-tick fan-out joins), so it is pinned to one island and
  /// the harness drives it from island 0 across the entry links; every
  /// islands value must produce an identical run.
  size_t islands = 1;
};

class Topology {
 public:
  static constexpr int kKinds = 3;
  static const char* kind_name(int kind);

  /// Builds the whole graph over the caller's simulator/network. All
  /// randomness comes from opts.seed; same seed, same graph.
  Topology(sim::Simulator& sim, sim::Network& net, TopologyOptions opts);
  ~Topology();
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  const TopologyOptions& options() const { return opts_; }

  /// Address clients (benign and adversarial) dial.
  const std::string& entry() const { return entry_; }
  /// True when the entry edge speaks pgwire (kind 0), else HTTP.
  bool pg_entry() const { return opts_.kind == 0; }

  /// Node names carrying backend traffic — targets for composed
  /// netsim::FaultPlan chaos (latency spikes, egress stalls).
  const std::vector<std::string>& backend_nodes() const {
    return backend_nodes_;
  }

  /// Aggregate proxy stats over every RDDR edge in the graph.
  core::ProxyStats stats() const;
  /// Live sessions across every RDDR edge (the fuzzer's no-hang check).
  size_t active_sessions() const;
  /// Interventions across every edge's bus.
  uint64_t divergences() const;

  /// One line per sampled property (latencies, fan-out, tags) — the
  /// build-determinism comparison surface.
  std::string describe() const;

  /// A benign request for sequence number i: SQL text for pg entries, an
  /// HTTP request target for http entries.
  std::string benign_request(size_t i, Rng& rng) const;

  /// Number of pgbench accounts loaded into sql pools (query generation).
  int accounts() const { return accounts_; }

 private:
  void apply_islands();
  void build_pg_direct();
  void build_http_fanout();
  void build_http_diamond();

  /// Deploys a 3-instance minipg pool (pair tag + diverse tag) with
  /// pgbench data, a version-keyed secret_t table, and a per-version
  /// build_sha startup parameter. Returns the instance addresses.
  std::vector<std::string> make_pg_pool(const std::string& base,
                                        sim::Host& host);
  /// Samples a small per-node extra latency and applies it.
  void sample_latency(const std::string& node);

  sim::Simulator& sim_;
  sim::Network& net_;
  TopologyOptions opts_;
  Rng rng_;
  int accounts_ = 50;
  size_t fanout_ = 0;  // leaves (kind 1)

  std::vector<std::unique_ptr<sim::Host>> hosts_;
  std::vector<std::shared_ptr<sqldb::Database>> dbs_;
  std::vector<std::unique_ptr<sqldb::SqlServer>> sql_servers_;
  std::vector<std::unique_ptr<services::HttpServer>> http_servers_;
  std::vector<std::unique_ptr<services::HttpClient>> http_clients_;
  std::unique_ptr<core::NVersionDeployment> entry_dep_;
  std::unique_ptr<core::Frontier> frontier_;
  std::unique_ptr<core::NVersionDeployment> inner_dep_;

  std::string entry_;
  std::vector<std::string> backend_nodes_;
  std::string desc_;
};

}  // namespace rddr::scenario
