// Regenerates Figure 4: TPC-H performance of a 3-versioned RDDR deployment
// normalized to a single bare instance, for 1/2/4/8/16 concurrent clients.
//
// Paper setup: Postgres + TPC-H SF 10, AWS 32-vCPU/128-GB host. Here:
// minipg + TPC-H-lite (see DESIGN.md), a 32-core simulated host, per-row
// CPU cost model. Expected shapes (paper §V-G1):
//   * memory max ~3x at every client count;
//   * CPU max ~3x at 1 client, falling as the baseline also saturates;
//   * time avg near 1x at low concurrency, growing once 3N tasks exceed
//     the core count, approaching a constant (not exponential) factor.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "rddr/rddr.h"
#include "workloads/harness.h"

using namespace rddr;

namespace {

constexpr double kScale = 0.25;
constexpr int kCores = 32;

struct RunMetrics {
  std::vector<SampleStats> per_query_latency;  // [query index]
  double cpu_max_cores = 0;
  double mem_max_gb = 0;
};

RunMetrics run_deployment(int n_instances, int clients) {
  sim::Simulator simulator;
  sim::Network net(simulator, 50 * sim::kMicrosecond);
  sim::Host host(simulator, "server", kCores, 128LL << 30);

  sqldb::SqlServer::Options so;
  so.cpu_per_query = 500e-6;
  so.cpu_per_row = 1e-6;  // per-row scan cost drives the analytics
  so.rng_seed = 10;
  workloads::Replicas replicas =
      workloads::start_replicas(net, n_instances, workloads::TpchScale{kScale},
                                so, {&host});

  std::unique_ptr<core::NVersionDeployment> proxy;
  std::string address = replicas.addresses[0];
  if (n_instances > 1) {
    proxy = core::NVersionDeployment::Builder()
                .listen("db:5432")
                .versions(replicas.addresses)
                .plugin(std::make_shared<core::PgPlugin>())
                .filter_pair(true)
                .build(net, host);
    address = "db:5432";
  }

  host.reset_metrics();
  host.start_sampling(20 * sim::kMillisecond);

  const auto& queries = workloads::tpch_queries();
  RunMetrics metrics;
  metrics.per_query_latency.resize(queries.size());

  workloads::ClientPoolOptions opts;
  opts.address = address;
  opts.clients = clients;
  opts.transactions_per_client = static_cast<int>(queries.size());
  opts.next_query = [&queries](Rng&, int, int tx) { return queries[static_cast<size_t>(tx)]; };
  opts.on_tx_complete = [&metrics](int, int tx, double ms) {
    metrics.per_query_latency[static_cast<size_t>(tx)].add(ms);
  };
  workloads::PoolResult pool = workloads::run_client_pool(simulator, net, opts);
  host.stop_sampling();

  if (pool.failed > 0)
    std::fprintf(stderr, "WARNING: %llu failed transactions\n",
                 static_cast<unsigned long long>(pool.failed));
  // Host resource maxima: the peaks of the sampled series.
  double cpu_pct = 0, mem_bytes = 0;
  for (const sim::ResourceSample& r : host.samples()) {
    cpu_pct = std::max(cpu_pct, r.cpu_pct);
    mem_bytes = std::max(mem_bytes, r.mem_bytes);
  }
  metrics.cpu_max_cores = cpu_pct / 100.0 * kCores;
  metrics.mem_max_gb = mem_bytes / 1e9;
  return metrics;
}

}  // namespace

int main() {
  std::printf(
      "=== Figure 4: TPC-H — 3-version RDDR normalized to single instance "
      "===\n(TPC-H-lite scale %.2f, %d-core host; boxes are over the %zu "
      "queries)\n\n",
      kScale, kCores, workloads::tpch_queries().size());
  std::printf("%-8s | %-38s | %-10s | %-10s\n", "clients",
              "time avg normalized (p5/med/mean/p95)", "CPU max x",
              "mem max x");
  std::printf("%s\n", std::string(80, '-').c_str());

  for (int clients : {1, 2, 4, 8, 16}) {
    std::fprintf(stderr, "[fig4] clients=%d baseline...\n", clients);
    RunMetrics base = run_deployment(1, clients);
    std::fprintf(stderr, "[fig4] clients=%d rddr...\n", clients);
    RunMetrics rddr3 = run_deployment(3, clients);

    SampleStats ratios;
    for (size_t q = 0; q < base.per_query_latency.size(); ++q) {
      double b = base.per_query_latency[q].mean();
      double r = rddr3.per_query_latency[q].mean();
      if (b > 0) ratios.add(r / b);
    }
    std::printf("%-8d | %5.2f / %5.2f / %5.2f / %5.2f          | %9.2fx | %9.2fx\n",
                clients, ratios.percentile(5), ratios.percentile(50),
                ratios.mean(), ratios.percentile(95),
                rddr3.cpu_max_cores / base.cpu_max_cores,
                rddr3.mem_max_gb / base.mem_max_gb);
  }
  std::printf(
      "\nPaper shape check: memory ~3x throughout; CPU ~3x at 1 client then "
      "falling; slowdown approaches a constant as clients grow (Fig 4).\n");
  return 0;
}
