// Ablation: served-request fraction under instance crashes, per
// DegradationPolicy (fault model extension of paper §IV-D, which notes
// RDDR "currently handles instance failure as divergence").
//
// A 1000-request pgbench-style closed loop (10 clients x 100 SELECT
// transactions) runs against N=3 minipg instances behind the incoming
// proxy while a FaultPlan crashes instances mid-run (each crash takes one
// instance down for 150 ms, round-robin across the replicas, spaced 60 ms
// apart so higher rates overlap and drop below 2 healthy instances).
//
// Expected shape: kStrict's served fraction collapses at the first crash
// (unanimity is unrecoverable mid-session); kQuorum rides out any single
// crash but fails closed when overlapping crashes leave <2 instances;
// kFailOpen additionally serves the single-survivor window uncompared,
// trading verification for availability.
//
// Output: a human-readable table, then one JSON document on the last line
// (machine-readable, for plotting).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/log.h"
#include "netsim/fault.h"
#include "proto/json/json.h"
#include "rddr/deployment.h"
#include "rddr/plugins.h"
#include "workloads/harness.h"
#include "workloads/pgbench.h"

using namespace rddr;

namespace {

constexpr int kAccounts = 1000;
constexpr int kClients = 10;
constexpr int kTxPerClient = 100;
constexpr double kCpuPerQuery = 2e-3;  // ~250 ms total run: crashes land mid-run
constexpr sim::Time kFirstCrash = 30 * sim::kMillisecond;
constexpr sim::Time kCrashSpacing = 60 * sim::kMillisecond;
constexpr sim::Time kDowntime = 150 * sim::kMillisecond;

struct Outcome {
  uint64_t completed = 0;
  uint64_t failed = 0;
  core::ProxyStats stats;
  uint64_t bus_events = 0;

  double served_fraction() const {
    uint64_t total = completed + failed;
    return total ? static_cast<double>(completed) / static_cast<double>(total)
                 : 0.0;
  }
};

Outcome run_one(core::DegradationPolicy policy, int crashes) {
  sim::Simulator simulator;
  sim::Network net(simulator, 10 * sim::kMicrosecond);
  sim::Host host(simulator, "server", 32, 16LL << 30);

  sqldb::SqlServer::Options so;
  so.cpu_per_query = kCpuPerQuery;
  so.cpu_per_row = 0;
  so.rng_seed = 20;
  workloads::Replicas replicas = workloads::start_replicas(
      net, 3, workloads::Pgbench{kAccounts}, so, {&host});

  core::HealthTracker::Options health;
  health.reconnect_jitter = 0;  // deterministic across runs
  auto deployment =
      core::NVersionDeployment::Builder()
          .listen("front:5432")
          .versions(replicas.addresses)
          .plugin(std::make_shared<core::PgPlugin>())
          .filter_pair()
          .degradation(policy)
          .health(health)
          // Crash k: instance (2, 1, 0, 2, 1, 0, ...) down for kDowntime
          // starting kFirstCrash + k * kCrashSpacing. Spacing < downtime,
          // so consecutive crashes overlap: two instances down at once
          // from the second crash on.
          .faults([crashes](sim::FaultPlan& faults) {
            for (int k = 0; k < crashes; ++k) {
              std::string node = "pg-" + std::to_string(2 - (k % 3));
              faults.crash_for(
                  kFirstCrash + static_cast<sim::Time>(k) * kCrashSpacing,
                  kDowntime, node);
            }
          })
          .build(net, host);

  workloads::ClientPoolOptions pool;
  pool.address = "front:5432";
  pool.clients = kClients;
  pool.transactions_per_client = kTxPerClient;
  pool.seed = 5;
  pool.next_query = [](Rng& rng, int, int) {
    return workloads::pgbench_select_tx(rng, kAccounts);
  };
  auto result = workloads::run_client_pool(simulator, net, pool);

  Outcome o;
  o.completed = result.completed;
  o.failed = result.failed;
  o.stats = deployment->aggregate_stats();
  o.bus_events = deployment->divergences();
  return o;
}

}  // namespace

int main() {
  // The crash schedule intentionally floods the proxy's WARN channel
  // (quarantines, drops, fail-open) — keep stdout to the table + JSON.
  set_log_level(LogLevel::kError);
  const core::DegradationPolicy policies[] = {
      core::DegradationPolicy::kStrict, core::DegradationPolicy::kQuorum,
      core::DegradationPolicy::kFailOpen};
  const int crash_counts[] = {0, 1, 2, 4, 8};

  std::printf(
      "=== Ablation: availability under instance crashes "
      "(%d requests, N=3) ===\n\n",
      kClients * kTxPerClient);
  std::printf("%-10s %8s %8s %8s %12s %11s %12s\n", "policy", "crashes",
              "served", "failed", "divergences", "quarantines",
              "passthrough");

  json::Array rows;
  for (auto policy : policies) {
    for (int crashes : crash_counts) {
      Outcome o = run_one(policy, crashes);
      std::printf("%-10s %8d %7.1f%% %8llu %12llu %11llu %12llu\n",
                  core::to_string(policy), crashes,
                  100.0 * o.served_fraction(),
                  static_cast<unsigned long long>(o.failed),
                  static_cast<unsigned long long>(o.stats.divergences),
                  static_cast<unsigned long long>(o.stats.quarantines),
                  static_cast<unsigned long long>(o.stats.passthrough_sessions));
      json::Object row;
      row["policy"] = core::to_string(policy);
      row["crashes"] = crashes;
      row["served_fraction"] = o.served_fraction();
      row["completed"] = static_cast<int64_t>(o.completed);
      row["failed"] = static_cast<int64_t>(o.failed);
      row["divergences"] = static_cast<int64_t>(o.stats.divergences);
      row["bus_events"] = static_cast<int64_t>(o.bus_events);
      row["instance_unreachable"] =
          static_cast<int64_t>(o.stats.instance_unreachable);
      row["quarantines"] = static_cast<int64_t>(o.stats.quarantines);
      row["reconnects"] = static_cast<int64_t>(o.stats.reconnects);
      row["degraded_sessions"] =
          static_cast<int64_t>(o.stats.degraded_sessions);
      row["quorum_outvotes"] = static_cast<int64_t>(o.stats.quorum_outvotes);
      row["passthrough_sessions"] =
          static_cast<int64_t>(o.stats.passthrough_sessions);
      rows.push_back(std::move(row));
    }
    std::printf("\n");
  }

  json::Object doc;
  doc["bench"] = "ablation_fault_availability";
  doc["requests"] = kClients * kTxPerClient;
  doc["n_instances"] = 3;
  doc["crash_downtime_ms"] =
      static_cast<int64_t>(kDowntime / sim::kMillisecond);
  doc["crash_spacing_ms"] =
      static_cast<int64_t>(kCrashSpacing / sim::kMillisecond);
  doc["results"] = std::move(rows);
  std::printf("%s\n", json::Value(std::move(doc)).dump().c_str());
  return 0;
}
