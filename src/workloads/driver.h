// The two SQL load drivers behind the Fig 4/5/6 benches and the
// ablations: a closed-loop client pool (N clients, each issuing its
// transactions back to back) and an open-loop Poisson driver. Each reports
// through the struct it returns (PoolResult, OpenLoopResult) and nothing
// else; workloads/harness.h builds the deployments they drive.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/rng.h"
#include "common/stats.h"
#include "netsim/network.h"
#include "obs/trace.h"

namespace rddr::workloads {

struct ClientPoolOptions {
  /// Clients connect as user "postgres".
  std::string address;
  int clients = 1;
  int transactions_per_client = 100;
  /// Produces the next SQL text for a client (called per transaction).
  std::function<std::string(Rng&, int client_id, int tx_index)> next_query;
  /// Optional per-transaction completion hook (Fig 4 tracks latency per
  /// query index).
  std::function<void(int client_id, int tx_index, double latency_ms)>
      on_tx_complete;
  uint64_t seed = 1;
  /// Optional tracer: each client connection becomes one trace whose id is
  /// carried to the server/proxy via ConnectMeta, linking the pool's
  /// requests to "session" and "db.query" spans downstream.
  obs::Tracer* tracer = nullptr;
};

struct PoolResult {
  uint64_t completed = 0;
  uint64_t failed = 0;
  SampleStats latency_ms;       // per-transaction latency
  sim::Time elapsed = 0;        // first send -> last completion

  double throughput_tps() const {
    return elapsed > 0 ? static_cast<double>(completed) /
                             (static_cast<double>(elapsed) / 1e9)
                       : 0.0;
  }
};

/// Runs the pool to completion on the given simulator (drains all events).
PoolResult run_client_pool(sim::Simulator& sim, sim::Network& net,
                           const ClientPoolOptions& options);

/// Open-loop Poisson driver: arrivals follow a seeded exponential
/// inter-arrival process at `rate_per_s`, each arrival opening a fresh
/// connection and issuing one query — arrivals do NOT wait for previous
/// requests, so offered load stays fixed as the system saturates. This is
/// the right harness for the overload experiments (fig5_scaleout): a
/// closed-loop pool self-throttles and can never drive a server past its
/// capacity, hiding exactly the regime admission control exists for.
struct OpenLoopOptions {
  /// Arrival i connects as user "postgres" with ConnectMeta::source
  /// "open-client-<i>": distinct sources spread sessions across a
  /// Frontier's shards.
  std::string address;
  /// Mean arrival rate (requests/second of virtual time).
  double rate_per_s = 1000;
  /// Total arrivals to generate.
  int requests = 1000;
  /// SQL for arrival `req_index` (called once per arrival).
  std::function<std::string(Rng&, int req_index)> next_query;
  uint64_t seed = 1;
  obs::Tracer* tracer = nullptr;
};

struct OpenLoopResult {
  uint64_t offered = 0;    // arrivals generated
  uint64_t completed = 0;  // queries answered successfully
  /// Arrivals that got an error or lost the connection before an answer —
  /// shed by the front tier, refused, or failed by the pool. A fast
  /// rejection is the design goal; `rejection_ms` measures it.
  uint64_t rejected = 0;
  SampleStats latency_ms;    // successful requests, send -> answer
  SampleStats rejection_ms;  // rejected requests, send -> rejection
  sim::Time elapsed = 0;     // first arrival -> last outcome

  double goodput_tps() const {
    return elapsed > 0 ? static_cast<double>(completed) /
                             (static_cast<double>(elapsed) / 1e9)
                       : 0.0;
  }
};

/// Runs all arrivals and waits for every outstanding request to resolve.
OpenLoopResult run_open_loop(sim::Simulator& sim, sim::Network& net,
                             const OpenLoopOptions& options);

}  // namespace rddr::workloads
