// Simulator-core and data-plane throughput benchmark (not a paper figure).
//
// Measures the three quantities the zero-copy / allocation-free overhaul
// targets, and prints one JSON document (committed as BENCH_simloop.json):
//
//  * events/sec through the simulator core, under three scheduling
//    patterns: fill-drain (bulk schedule then run), ping-pong (each event
//    schedules the next — the proxy pump shape), and schedule+cancel
//    pairs (the timeout-arm/disarm shape that previously leaked into
//    unordered_map churn).
//  * fan-out copy efficiency: the fig5 RDDR deployment (3x minipg, 16
//    pgbench clients, seed 5) with the Network's payload counters —
//    bytes copied vs bytes sent. Before the overhaul every sent byte was
//    copied (ratio 1.0).
//  * wall time of that fig5 point, as the end-to-end trajectory number.
//
// --smoke: quick run of the fill-drain pattern only, exits nonzero if
// events/sec falls below RDDR_SIMLOOP_FLOOR (default 1e6) — the perf
// regression gate wired into tests/run_sanitized.sh.
//
// Reference numbers in "baseline" were measured at the pre-overhaul seed
// commit with the same build type (RelWithDebInfo default preset) on the
// same pattern code, so the speedup fields are apples-to-apples.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "netsim/host.h"
#include "netsim/network.h"
#include "netsim/parallel.h"
#include "obs/metrics.h"
#include "rddr/rddr.h"
#include "sqldb/server.h"
#include "workloads/driver.h"
#include "workloads/pgbench.h"

using namespace rddr;

namespace {

// Pre-overhaul numbers: the seed-commit Simulator (std::priority_queue +
// unordered_map handlers + std::function) compiled at -O2 -DNDEBUG and run
// through these exact pattern functions on the same machine.
// The fig5 *driver* wall-time trajectory is captured by bench/run_benches.sh
// (baseline: 3.245 s for the full sweep), since the driver is its own binary.
constexpr double kBaselineFillDrainEps = 4068591;
constexpr double kBaselinePingpongEps = 19240265;
constexpr double kBaselineSchedCancelPps = 8574284;

double wall_seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Bulk schedule `batch` events, drain, repeat. Deterministic pseudo-delays
// keep the heap honestly shuffled without an Rng dependency.
double bench_fill_drain(size_t total_events) {
  sim::Simulator sim;
  volatile uint64_t sink = 0;
  const size_t batch = 10000;
  uint64_t lcg = 12345;
  auto t0 = std::chrono::steady_clock::now();
  size_t done = 0;
  while (done < total_events) {
    for (size_t i = 0; i < batch; ++i) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      sim.schedule(static_cast<sim::Time>((lcg >> 33) % 1000),
                   [&sink] { sink = sink + 1; });
    }
    sim.run_until_idle();
    done += batch;
  }
  return static_cast<double>(done) / wall_seconds(t0);
}

// Each event schedules its successor: measures bare per-event overhead at
// heap depth ~1 (the request/response pump shape).
double bench_pingpong(size_t total_events) {
  sim::Simulator sim;
  size_t remaining = total_events;
  std::function<void()> hop = [&] {
    if (--remaining > 0) sim.schedule(10, [&hop] { hop(); });
  };
  auto t0 = std::chrono::steady_clock::now();
  sim.schedule(10, [&hop] { hop(); });
  sim.run_until_idle();
  return static_cast<double>(total_events) / wall_seconds(t0);
}

// Arm-then-disarm, the timeout pattern: every pair must be O(1) and leave
// no residue in the simulator.
double bench_sched_cancel(size_t total_pairs) {
  sim::Simulator sim;
  auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < total_pairs; ++i) {
    uint64_t id = sim.schedule(1000, [] {});
    sim.cancel(id);
    if (i % 4096 == 0) sim.run_until_idle();  // let time move occasionally
  }
  sim.run_until_idle();
  return static_cast<double>(total_pairs) / wall_seconds(t0);
}

struct FanoutResult {
  double wall_s = 0;
  double tps = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_copied = 0;
};

// The fig5 RDDR deployment at 16 clients, instrumented (identical config
// to bench/fig5_throughput_latency.cc and tests/determinism_test.cc).
FanoutResult run_fanout_point() {
  sim::Simulator simulator;
  sim::Network net(simulator, 50 * sim::kMicrosecond);
  sim::Host server_host(simulator, "server", 32, 128LL << 30);

  std::vector<std::shared_ptr<sqldb::Database>> dbs;
  std::vector<std::unique_ptr<sqldb::SqlServer>> servers;
  for (int i = 0; i < 3; ++i) {
    auto db = std::make_shared<sqldb::Database>(sqldb::minipg_info("13.0"));
    workloads::load_pgbench(*db, 20000, 9);
    sqldb::SqlServer::Options so;
    so.address = "pg-" + std::to_string(i) + ":5432";
    so.cpu_per_query = 2e-3;
    so.cpu_per_row = 0;
    so.rng_seed = 20 + static_cast<uint64_t>(i);
    dbs.push_back(db);
    servers.push_back(
        std::make_unique<sqldb::SqlServer>(net, server_host, db, so));
  }
  auto rddr = core::NVersionDeployment::Builder()
                  .listen("front:5432")
                  .versions({"pg-0:5432", "pg-1:5432", "pg-2:5432"})
                  .plugin(std::make_shared<core::PgPlugin>())
                  .filter_pair(true)
                  .cpu_model(50e-6, 5e-9)
                  .build(net, server_host);

  obs::MetricsRegistry registry;
  workloads::ClientPoolOptions opts;
  opts.address = "front:5432";
  opts.clients = 16;
  opts.transactions_per_client = 100;
  opts.seed = 5;
  opts.metrics = &registry;
  opts.next_query = [](Rng& rng, int, int) {
    return workloads::pgbench_select_tx(rng, 20000);
  };
  auto t0 = std::chrono::steady_clock::now();
  workloads::run_client_pool(simulator, net, opts);
  FanoutResult r;
  r.wall_s = wall_seconds(t0);
  r.tps = registry.gauge("pool.tps")->value();
  r.bytes_sent = net.payload_bytes_sent();
  r.bytes_copied = net.payload_bytes_copied();
  return r;
}

struct IslandPoint {
  size_t islands = 0;
  double events_per_sec = 0;
  double model_speedup = 1.0;
  uint64_t windows = 0;
  uint64_t barrier_stalls = 0;
};

// Multi-island event loop: per-island ping-pong chains with a cross-island
// hop every 32nd event (the shard-column shape — mostly local work, a
// steady trickle across the cuts). Measures raw events/sec through the
// windowed executor and its deterministic model_speedup.
IslandPoint bench_islands(size_t islands, size_t events_per_island) {
  sim::Simulator sim;
  sim.configure_islands(islands, 10 * sim::kMicrosecond);
  IslandPoint p;
  p.islands = islands;
  std::vector<size_t> remaining(islands, events_per_island);
  std::vector<uint64_t> executed(islands, 0);  // written by owner island only
  std::vector<std::function<void()>> hop(islands);
  for (size_t i = 0; i < islands; ++i) {
    hop[i] = [&, i] {
      ++executed[i];
      if (remaining[i] == 0 || --remaining[i] == 0) return;
      if (remaining[i] % 32 == 0 && islands > 1) {
        // Cross-island hop: must clear the conservative lookahead.
        size_t j = (i + 1) % islands;
        sim.schedule_on(j, sim.now() + 20 * sim::kMicrosecond,
                        [&, j] { hop[j](); });
      } else {
        sim.schedule_on(i, sim.now() + sim::kMicrosecond, [&, i] { hop[i](); });
      }
    };
  }
  auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < islands; ++i)
    sim.schedule_on(i, sim::kMicrosecond * (i + 1), [&, i] { hop[i](); });
  sim.run_until_idle();
  double wall = wall_seconds(t0);
  uint64_t total = 0;
  for (uint64_t e : executed) total += e;
  p.events_per_sec = wall > 0 ? static_cast<double>(total) / wall : 0;
  if (const auto* ex = sim.executor()) {
    const auto& st = ex->stats();
    p.model_speedup = st.model_speedup();
    p.windows = st.windows;
    p.barrier_stalls = st.barrier_stalls;
  }
  return p;
}

int run_smoke() {
  double floor_eps = 1e6;
  if (const char* env = std::getenv("RDDR_SIMLOOP_FLOOR"))
    floor_eps = std::atof(env);
  double eps = bench_fill_drain(200000);
  std::printf("{\"smoke\": {\"fill_drain_events_per_sec\": %.0f, "
              "\"floor\": %.0f, \"pass\": %s}}\n",
              eps, floor_eps, eps >= floor_eps ? "true" : "false");
  if (eps < floor_eps) {
    std::fprintf(stderr,
                 "simloop smoke FAILED: %.0f events/sec < floor %.0f\n", eps,
                 floor_eps);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return run_smoke();

  double fill_drain = bench_fill_drain(2000000);
  double pingpong = bench_pingpong(1000000);
  double sched_cancel = bench_sched_cancel(4000000);
  FanoutResult fan = run_fanout_point();

  double copy_ratio =
      fan.bytes_sent ? static_cast<double>(fan.bytes_copied) /
                           static_cast<double>(fan.bytes_sent)
                     : 0.0;
  std::printf("{\n");
  std::printf("  \"simloop\": {\n");
  std::printf("    \"fill_drain_events_per_sec\": %.0f,\n", fill_drain);
  std::printf("    \"pingpong_events_per_sec\": %.0f,\n", pingpong);
  std::printf("    \"sched_cancel_pairs_per_sec\": %.0f\n", sched_cancel);
  std::printf("  },\n");
  std::printf("  \"parallel\": {\n");
  std::printf("    \"threads\": %u,\n", std::thread::hardware_concurrency());
  std::printf("    \"islands\": [\n");
  const size_t counts[] = {1, 2, 4, 8};
  for (size_t ci = 0; ci < 4; ++ci) {
    IslandPoint ip = bench_islands(counts[ci], 200000);
    std::printf("      {\"islands\": %zu, \"events_per_sec\": %.0f, "
                "\"model_speedup\": %.4f, \"windows\": %llu, "
                "\"barrier_stalls\": %llu}%s\n",
                ip.islands, ip.events_per_sec, ip.model_speedup,
                static_cast<unsigned long long>(ip.windows),
                static_cast<unsigned long long>(ip.barrier_stalls),
                ci + 1 < 4 ? "," : "");
  }
  std::printf("    ]\n");
  std::printf("  },\n");
  std::printf("  \"fanout_fig5_rddr_16c\": {\n");
  std::printf("    \"wall_s\": %.4f,\n", fan.wall_s);
  std::printf("    \"tps\": %.2f,\n", fan.tps);
  std::printf("    \"payload_bytes_sent\": %llu,\n",
              static_cast<unsigned long long>(fan.bytes_sent));
  std::printf("    \"payload_bytes_copied\": %llu,\n",
              static_cast<unsigned long long>(fan.bytes_copied));
  std::printf("    \"copy_ratio\": %.4f,\n", copy_ratio);
  std::printf("    \"fanout_bytes_per_sec\": %.0f\n",
              fan.wall_s > 0 ? static_cast<double>(fan.bytes_sent) / fan.wall_s
                             : 0.0);
  std::printf("  },\n");
  std::printf("  \"baseline\": {\n");
  std::printf("    \"fill_drain_events_per_sec\": %.0f,\n",
              kBaselineFillDrainEps);
  std::printf("    \"pingpong_events_per_sec\": %.0f,\n",
              kBaselinePingpongEps);
  std::printf("    \"sched_cancel_pairs_per_sec\": %.0f,\n",
              kBaselineSchedCancelPps);
  std::printf("    \"copy_ratio\": 1.0\n");
  std::printf("  },\n");
  std::printf("  \"speedup\": {\n");
  std::printf("    \"fill_drain\": %.2f,\n", fill_drain / kBaselineFillDrainEps);
  std::printf("    \"pingpong\": %.2f,\n", pingpong / kBaselinePingpongEps);
  std::printf("    \"sched_cancel\": %.2f,\n",
              sched_cancel / kBaselineSchedCancelPps);
  std::printf("    \"copy_reduction\": %.4f\n", 1.0 - copy_ratio);
  std::printf("  }\n");
  std::printf("}\n");
  return 0;
}
