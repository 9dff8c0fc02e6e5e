// Ablation: overhead as a function of N (the abstract's claim that RDDR's
// "performance overhead ... is near-linear in the number of redundant
// microservices").
//
// Sweeps N = 1..5 identical minipg instances behind RDDR under a fixed
// pgbench load and reports memory, aggregate CPU, unsaturated latency, and
// the saturated throughput ceiling. Memory and CPU should scale ~N; the
// throughput ceiling ~1/N (the cores are split N ways); unsaturated
// latency should stay nearly flat (replicas run in parallel).
#include <cstdio>
#include <memory>
#include <vector>

#include "rddr/rddr.h"
#include "workloads/harness.h"
#include "workloads/pgbench.h"

using namespace rddr;

namespace {

constexpr int kAccounts = 10000;
constexpr double kCpuPerQuery = 2e-3;

struct Point {
  double mem_gb = 0;
  double cpu_core_s = 0;
  double lat_low_ms = 0;   // 4 clients: far from saturation
  double tps_high = 0;     // 128 clients: the saturated ceiling
};

Point run_n(int n) {
  Point p;
  for (int clients : {4, 128}) {
    sim::Simulator simulator;
    sim::Network net(simulator, 50 * sim::kMicrosecond);
    sim::Host host(simulator, "server", 32, 128LL << 30);
    sqldb::SqlServer::Options so;
    so.cpu_per_query = kCpuPerQuery;
    so.cpu_per_row = 0;
    so.rng_seed = 40;
    workloads::Replicas replicas = workloads::start_replicas(
        net, n, workloads::Pgbench{kAccounts}, so, {&host});
    std::unique_ptr<core::NVersionDeployment> rddr;
    std::string address = replicas.addresses[0];
    if (n > 1) {
      rddr = core::NVersionDeployment::Builder()
                 .listen("front:5432")
                 .versions(replicas.addresses)
                 .plugin(std::make_shared<core::PgPlugin>())
                 .filter_pair(true)
                 .cpu_model(50e-6, 2e-9)
                 .build(net, host);
      address = "front:5432";
    }
    host.reset_metrics();
    workloads::ClientPoolOptions opts;
    opts.address = address;
    opts.clients = clients;
    opts.transactions_per_client = 100;
    opts.seed = 5;
    opts.next_query = [](Rng& rng, int, int) {
      return workloads::pgbench_select_tx(rng, kAccounts);
    };
    auto result = workloads::run_client_pool(simulator, net, opts);
    if (clients == 4) {
      p.lat_low_ms = result.latency_ms.mean();
      p.mem_gb = static_cast<double>(host.memory_bytes()) / 1e9;
      p.cpu_core_s = host.busy_core_seconds();
    } else {
      p.tps_high = result.throughput_tps();
    }
  }
  return p;
}

}  // namespace

int main() {
  std::printf(
      "=== Ablation: cost vs N (abstract: overhead \"near-linear in the "
      "number of redundant microservices\") ===\n\n");
  std::printf("%-4s %12s %14s %16s %18s\n", "N", "memory(GB)",
              "cpu(core-s)", "latency@4 (ms)", "ceiling@128 (tps)");
  std::printf("%s\n", std::string(68, '-').c_str());
  Point base{};
  for (int n = 1; n <= 5; ++n) {
    Point p = run_n(n);
    if (n == 1) base = p;
    std::printf("%-4d %12.3f %14.2f %16.2f %18.0f", n, p.mem_gb,
                p.cpu_core_s, p.lat_low_ms, p.tps_high);
    if (n > 1)
      std::printf("   (mem %.2fx, cpu %.2fx, ceiling %.2fx)",
                  p.mem_gb / base.mem_gb, p.cpu_core_s / base.cpu_core_s,
                  p.tps_high / base.tps_high);
    std::printf("\n");
  }
  std::printf(
      "\nExpected: memory and cpu scale ~N (near-linear), unsaturated "
      "latency stays ~flat (replicas run in parallel), and the saturated "
      "ceiling scales ~1/N.\n");
  return 0;
}
