// Simulator-core throughput benchmark (not a paper figure). Every number
// it prints is a host measurement; bench/run_benches.sh records its JSON
// in BENCH_paper.json. The paper's virtual outputs, including the Fig 5
// fan-out copy counters, are checked by tier-1 instead.
//
//  * events/sec through the simulator core, under three scheduling
//    patterns: fill-drain (bulk schedule then run), ping-pong (each event
//    schedules the next — the proxy pump shape), and schedule+cancel
//    pairs (the timeout-arm/disarm shape).
//  * events/sec through the windowed multi-island executor at 1, 2, 4
//    and 8 islands.
//
// --smoke: quick run of the fill-drain pattern only, exits nonzero if
// events/sec falls below kSmokeFloorEps — the perf regression gate run by
// bench/run_benches.sh --smoke.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "netsim/simulator.h"

using namespace rddr;

namespace {

// The --smoke floor on fill-drain events/sec.
constexpr double kSmokeFloorEps = 1e6;

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

// Multi-island event loop: per-island ping-pong chains with a cross-island
// hop every 32nd event (the shard-column shape — mostly local work, a
// steady trickle across the cuts). Measures raw events/sec through the
// windowed executor.
double bench_islands(size_t islands, size_t events_per_island) {
  sim::Simulator sim;
  sim.configure_islands(islands, 10 * sim::kMicrosecond);
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
  return wall > 0 ? static_cast<double>(total) / wall : 0;
}

int run_smoke() {
  double eps = bench_fill_drain(200000);
  std::printf("{\"smoke\": {\"fill_drain_events_per_sec\": %.0f, "
              "\"floor\": %.0f, \"pass\": %s}}\n",
              eps, kSmokeFloorEps, eps >= kSmokeFloorEps ? "true" : "false");
  if (eps < kSmokeFloorEps) {
    std::fprintf(stderr,
                 "simloop smoke FAILED: %.0f events/sec < floor %.0f\n", eps,
                 kSmokeFloorEps);
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
    std::printf("      {\"islands\": %zu, \"events_per_sec\": %.0f}%s\n",
                counts[ci], bench_islands(counts[ci], 200000),
                ci + 1 < 4 ? "," : "");
  }
  std::printf("    ]\n");
  std::printf("  }\n");
  std::printf("}\n");
  return 0;
}
