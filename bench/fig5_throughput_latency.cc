// Regenerates Figure 5: pgbench -S throughput and latency for 1..256
// clients across three deployments — RDDR (3x minipg), 1x minipg behind an
// envoy-style front proxy, and bare 1x minipg.
//
// Paper setup: Postgres scale-100 (10M rows) on a 32-vCPU server, clients
// on a separate machine, 10,000 SELECT transactions per client. Here the
// dataset is smaller and the per-query CPU cost (2 ms) models the paper's
// working set; transactions are scaled to 100/client so the full sweep
// finishes in seconds. Expected shape (paper §V-G2): all three track each
// other at low concurrency (~10% RDDR penalty at 8 clients); RDDR's
// throughput tapers first because its 3 instances exhaust the 32 cores
// ~3x sooner; latency grows correspondingly.
#include <cstdio>
#include <memory>
#include <vector>

#include "netsim/host.h"
#include "netsim/network.h"
#include "obs/metrics.h"
#include "rddr/rddr.h"
#include "services/tcp_proxy.h"
#include "sqldb/server.h"
#include "workloads/driver.h"
#include "workloads/pgbench.h"

using namespace rddr;

namespace {

constexpr int kAccounts = 20000;
constexpr int kTxPerClient = 100;
constexpr double kCpuPerQuery = 2e-3;  // models the paper's SF-100 SELECT

enum class Deployment { kBare, kEnvoy, kRddr };

const char* name_of(Deployment d) {
  switch (d) {
    case Deployment::kBare: return "1x minipg";
    case Deployment::kEnvoy: return "1x minipg + envoy";
    case Deployment::kRddr: return "RDDR (3x minipg)";
  }
  return "?";
}

struct Measurement {
  double tps = 0;
  double latency_ms = 0;
  double failures = 0;
};

Measurement run_one(Deployment d, int clients) {
  sim::Simulator simulator;
  sim::Network net(simulator, 50 * sim::kMicrosecond);
  sim::Host server_host(simulator, "server", 32, 128LL << 30);

  int n = d == Deployment::kRddr ? 3 : 1;
  std::vector<std::shared_ptr<sqldb::Database>> dbs;
  std::vector<std::unique_ptr<sqldb::SqlServer>> servers;
  for (int i = 0; i < n; ++i) {
    auto db = std::make_shared<sqldb::Database>(sqldb::minipg_info("13.0"));
    workloads::load_pgbench(*db, kAccounts, 9);
    sqldb::SqlServer::Options so;
    so.address = "pg-" + std::to_string(i) + ":5432";
    so.cpu_per_query = kCpuPerQuery;
    so.cpu_per_row = 0;
    so.rng_seed = 20 + static_cast<uint64_t>(i);
    dbs.push_back(db);
    servers.push_back(
        std::make_unique<sqldb::SqlServer>(net, server_host, db, so));
  }

  std::unique_ptr<services::TcpProxy> envoy;
  std::unique_ptr<core::NVersionDeployment> rddr;
  std::string address = "pg-0:5432";
  if (d == Deployment::kEnvoy) {
    services::TcpProxy::Options po;
    po.address = "front:5432";
    po.backend_address = "pg-0:5432";
    envoy = std::make_unique<services::TcpProxy>(net, server_host, po);
    address = "front:5432";
  } else if (d == Deployment::kRddr) {
    // The cpu model matches the paper's Python proxy: a few hundred us of
    // tokenize+diff work per message (calibrated to the ~10% penalty at 8
    // clients).
    rddr = core::NVersionDeployment::Builder()
               .listen("front:5432")
               .versions({"pg-0:5432", "pg-1:5432", "pg-2:5432"})
               .plugin(std::make_shared<core::PgPlugin>())
               .filter_pair(true)
               .cpu_model(50e-6, 5e-9)
               .build(net, server_host);
    address = "front:5432";
  }

  // The pool publishes its aggregates into the registry; the table below
  // is printed from those series rather than from the PoolResult.
  obs::MetricsRegistry registry;
  workloads::ClientPoolOptions opts;
  opts.address = address;
  opts.clients = clients;
  opts.transactions_per_client = kTxPerClient;
  opts.seed = 5;
  opts.metrics = &registry;
  opts.next_query = [](Rng& rng, int, int) {
    return workloads::pgbench_select_tx(rng, kAccounts);
  };
  workloads::run_client_pool(simulator, net, opts);

  Measurement m;
  m.tps = registry.gauge("pool.tps")->value();
  m.latency_ms = registry.gauge("pool.latency_mean_ms")->value();
  m.failures = static_cast<double>(registry.counter("pool.tx_failed")->value());
  return m;
}

}  // namespace

int main() {
  std::printf(
      "=== Figure 5: pgbench throughput and latency (%d tx/client) ===\n\n",
      kTxPerClient);
  std::printf("%-8s", "clients");
  for (auto d : {Deployment::kRddr, Deployment::kEnvoy, Deployment::kBare})
    std::printf(" | %-18s", name_of(d));
  std::printf("\n%-8s", "");
  for (int i = 0; i < 3; ++i) std::printf(" | %8s %9s", "tps", "lat(ms)");
  std::printf("\n%s\n", std::string(74, '-').c_str());

  double rddr_at_8 = 0, envoy_at_8 = 0;
  for (int clients : {1, 2, 4, 8, 16, 32, 64, 128, 256}) {
    std::printf("%-8d", clients);
    for (auto d : {Deployment::kRddr, Deployment::kEnvoy, Deployment::kBare}) {
      Measurement m = run_one(d, clients);
      std::printf(" | %8.0f %9.2f", m.tps, m.latency_ms);
      if (m.failures > 0) std::printf("!");
      if (clients == 8 && d == Deployment::kRddr) rddr_at_8 = m.tps;
      if (clients == 8 && d == Deployment::kEnvoy) envoy_at_8 = m.tps;
    }
    std::printf("\n");
  }
  if (envoy_at_8 > 0)
    std::printf(
        "\nAt 8 clients RDDR delivers %.0f%% of the envoy-fronted baseline's "
        "throughput (paper: ~90%%).\n",
        100.0 * rddr_at_8 / envoy_at_8);
  std::printf(
      "Paper shape check: three curves overlap at low concurrency; RDDR "
      "tapers first (3 instances exhaust the cores sooner); latency rises "
      "once each deployment saturates (Fig 5).\n");
  return 0;
}
