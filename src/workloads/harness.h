// The deployment every paper measurement shares (Figs 4-6, §V-G and the
// ablations): N minipg replicas of one dataset on a simulated host,
// fronted by RDDR (core::NVersionDeployment), by an envoy-style
// services::TcpProxy or by nothing, and driven by a client pool.
// start_replicas() builds the replicas; the fronts stay on their own
// builders. run_fig5_point() is the one definition of a Fig 5 cell.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "netsim/host.h"
#include "netsim/network.h"
#include "sqldb/server.h"
#include "workloads/driver.h"
#include "workloads/tpch.h"

namespace rddr::workloads {

/// pgbench-lite: `accounts` rows of pgbench_accounts (data seed 9).
struct Pgbench {
  int accounts = 0;
};
/// What every replica loads: pgbench-lite or TPC-H-lite (data seed 42).
using Dataset = std::variant<Pgbench, TpchScale>;

struct Replicas {
  std::vector<std::unique_ptr<sqldb::SqlServer>> servers;
  /// "<prefix>-<i>:5432" in replica order: the version list for a front.
  std::vector<std::string> addresses;
};

/// Starts `count` minipg 13.0 replicas, each with its own copy of `data`.
/// Replica i takes `options` with address "<prefix>-<i>:5432" and rng_seed
/// options.rng_seed + i, and runs on hosts[i % hosts.size()].
Replicas start_replicas(sim::Network& net, int count, const Dataset& data,
                        sqldb::SqlServer::Options options,
                        const std::vector<sim::Host*>& hosts,
                        const std::string& prefix = "pg");

/// A proxy CPU model for NVersionDeployment::Builder::cpu_model.
struct ProxyCpuModel {
  double per_unit_s;
  double per_byte_s;
};
/// The paper's Python proxy: a few hundred us of tokenize+diff work per
/// message, calibrated to Fig 5's ~10% RDDR penalty at 8 clients.
inline constexpr ProxyCpuModel kPaperProxyCpu{50e-6, 5e-9};

/// Fig 5's three deployments.
enum class Fig5Front { kRddr, kEnvoy, kBare };

/// pgbench SELECT transactions each Fig 5 client issues.
inline constexpr int kFig5TxPerClient = 100;

struct Fig5Point {
  PoolResult pool;
  /// The network's payload counters after the run.
  uint64_t payload_bytes_sent = 0;
  uint64_t payload_bytes_copied = 0;
};

/// One Fig 5 cell: `clients` closed-loop pgbench -S clients (pool seed 5)
/// against 3 (RDDR) or 1 minipg replicas of 20000 accounts on one 32-core
/// host, each query charged 2 ms of CPU.
Fig5Point run_fig5_point(Fig5Front front, int clients);

}  // namespace rddr::workloads
