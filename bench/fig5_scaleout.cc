// Scale-out experiment: offered load x shard count for the sharded front
// tier (rddr/frontier.h), driven open-loop.
//
// Fig 5 showed the single proxy pair is the deployment's throughput
// ceiling. This bench shows the ceiling is horizontal: S consistent-hash
// shards, each a full RDDR pool with per-shard admission control, lift
// goodput ~Sx while overload is shed fast and protocol-correctly instead
// of collapsing the pool.
//
// The driver is open-loop Poisson (workloads::run_open_loop): arrivals do
// not wait for completions, so offered load stays fixed past saturation —
// the regime a closed-loop pool can never reach and exactly where
// admission control matters.
//
// Checks enforced on every run (full and --smoke), exit 1 on failure:
//   * determinism  — the whole sweep, run twice with the same seeds, emits
//                    byte-identical JSON;
//   * scale-out    — at 2x the single-shard saturation load, 4 shards
//                    deliver >= 3x the single-shard peak goodput;
//   * fast shed    — shed connections are rejected in < 1/10 of the
//                    saturated (unprotected) service latency;
//   * shed protocol— a shed pg connection receives SQLSTATE 53300, not a
//                    hang or a raw close.
//
// stdout is the JSON result document and stderr the human table; both
// are deterministic. tier-1 pins the --smoke run; bench/run_benches.sh
// checks the full run against tests/golden/paper/fig5_scaleout/ and times
// it into BENCH_paper.json.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/strutil.h"
#include "rddr/rddr.h"
#include "sqldb/client.h"
#include "workloads/harness.h"
#include "workloads/pgbench.h"

using namespace rddr;

namespace {

constexpr double kCpuPerQuery = 2e-3;  // per-tx minipg CPU (fig5's model)
constexpr double kAdmissionRate = 4200;  // per-shard admitted sessions/s

int g_failures = 0;

#define CHECK_MSG(cond, ...)                                     \
  do {                                                           \
    if (!(cond)) {                                               \
      std::fprintf(stderr, "FAIL: " __VA_ARGS__);                \
      std::fprintf(stderr, "\n");                                \
      ++g_failures;                                              \
    }                                                            \
  } while (0)

struct Point {
  size_t shards = 0;
  double offered_rate = 0;
  bool protected_tier = true;
  workloads::OpenLoopResult r;
};

/// One deployment + one open-loop run. Shard k gets its own 32-core host
/// carrying its proxy pair and its 3 minipg instances (fig5's co-located
/// placement, replicated per shard).
Point run_point(size_t shards, double offered_rate, double duration_s,
                int accounts, bool protected_tier) {
  sim::Simulator simulator;
  sim::Network net(simulator, 50 * sim::kMicrosecond);

  std::vector<std::unique_ptr<sim::Host>> hosts;
  std::vector<sim::Host*> host_ptrs;
  std::vector<workloads::Replicas> shard_replicas;
  std::vector<std::vector<std::string>> pools;
  for (size_t k = 0; k < shards; ++k) {
    hosts.push_back(std::make_unique<sim::Host>(
        simulator, "node-" + std::to_string(k), 32, 128LL << 30));
    host_ptrs.push_back(hosts.back().get());
    sqldb::SqlServer::Options so;
    so.cpu_per_query = kCpuPerQuery;
    so.cpu_per_row = 0;
    so.rng_seed = 20 + k * 10;
    shard_replicas.push_back(workloads::start_replicas(
        net, 3, workloads::Pgbench{accounts}, so, {hosts.back().get()},
        strformat("pg-s%zu", k)));
    pools.push_back(shard_replicas.back().addresses);
  }

  core::AdmissionOptions adm;  // defaults = unprotected (no rate limit)
  if (protected_tier) {
    adm.rate_per_s = kAdmissionRate;
    adm.burst = 32;
    adm.queue_limit = 64;
    adm.shed_deadline = 5 * sim::kMillisecond;
  }
  auto front = core::NVersionDeployment::Builder()
                   .name("front")
                   .listen("front:5432")
                   .plugin(std::make_shared<core::PgPlugin>())
                   .filter_pair(true)
                   .cpu_model(workloads::kPaperProxyCpu.per_unit_s,
                              workloads::kPaperProxyCpu.per_byte_s)
                   .admission(adm)
                   .shard_versions(pools)
                   .build_frontier(net, host_ptrs);

  workloads::OpenLoopOptions opts;
  opts.address = "front:5432";
  opts.rate_per_s = offered_rate;
  opts.requests = static_cast<int>(offered_rate * duration_s);
  opts.seed = 5;
  opts.next_query = [accounts](Rng& rng, int) {
    return workloads::pgbench_select_tx(rng, accounts);
  };
  Point p;
  p.shards = shards;
  p.offered_rate = offered_rate;
  p.protected_tier = protected_tier;
  p.r = workloads::run_open_loop(simulator, net, opts);
  return p;
}

std::string point_json(const Point& p) {
  return strformat(
      "    {\"shards\": %zu, \"offered_rate\": %.0f, \"protected\": %s, "
      "\"offered\": %llu, \"completed\": %llu, \"rejected\": %llu, "
      "\"goodput_tps\": %.6f, \"latency_p50_ms\": %.6f, "
      "\"rejection_p50_ms\": %.6f}",
      p.shards, p.offered_rate, p.protected_tier ? "true" : "false",
      static_cast<unsigned long long>(p.r.offered),
      static_cast<unsigned long long>(p.r.completed),
      static_cast<unsigned long long>(p.r.rejected), p.r.goodput_tps(),
      p.r.latency_ms.percentile(50), p.r.rejection_ms.percentile(50));
}

double shed_fraction(const Point& p) {
  return p.r.offered > 0
             ? static_cast<double>(p.r.rejected) /
                   static_cast<double>(p.r.offered)
             : 0.0;
}

/// A pg client shed by a saturated frontier must see SQLSTATE 53300 — the
/// protocol-correct "too many connections" error — not a hang or raw
/// close.
void check_shed_protocol() {
  sim::Simulator simulator;
  sim::Network net(simulator, 50 * sim::kMicrosecond);
  sim::Host host(simulator, "node", 32, 128LL << 30);
  sqldb::SqlServer::Options so;
  so.rng_seed = 20;
  workloads::Replicas replicas = workloads::start_replicas(
      net, 3, workloads::Pgbench{100}, so, {&host});
  core::AdmissionOptions adm;
  adm.rate_per_s = 1;  // refill is negligible within the test window
  adm.burst = 1;       // exactly one admission
  adm.queue_limit = 1;
  adm.shed_deadline = 2 * sim::kMillisecond;
  auto front = core::NVersionDeployment::Builder()
                   .name("front")
                   .listen("front:5432")
                   .versions(replicas.addresses)
                   .plugin(std::make_shared<core::PgPlugin>())
                   .filter_pair(true)
                   .admission(adm)
                   .build_frontier(net, host);

  std::vector<std::unique_ptr<sqldb::PgClient>> clients;
  std::vector<sqldb::QueryOutcome> outcomes(3);
  std::vector<bool> answered(3, false);
  for (int c = 0; c < 3; ++c) {
    clients.push_back(std::make_unique<sqldb::PgClient>(
        net, "shedcheck-" + std::to_string(c), "front:5432", "postgres"));
    clients.back()->query("SELECT 1;",
                          [&outcomes, &answered, c](sqldb::QueryOutcome o) {
                            outcomes[static_cast<size_t>(c)] = std::move(o);
                            answered[static_cast<size_t>(c)] = true;
                          });
  }
  simulator.run_until(sim::kSecond);

  int ok = 0, shed_53300 = 0;
  for (int c = 0; c < 3; ++c) {
    CHECK_MSG(answered[static_cast<size_t>(c)],
              "shed-protocol: client %d hung (no answer after 1s)", c);
    if (!answered[static_cast<size_t>(c)]) continue;
    const auto& o = outcomes[static_cast<size_t>(c)];
    if (!o.failed()) ++ok;
    else if (o.error_sqlstate == "53300") ++shed_53300;
    else
      CHECK_MSG(false,
                "shed-protocol: client %d failed with sqlstate '%s' "
                "(connection_lost=%d) instead of 53300",
                c, o.error_sqlstate.value_or("<none>").c_str(),
                o.connection_lost ? 1 : 0);
  }
  CHECK_MSG(ok == 1, "shed-protocol: expected exactly 1 admitted client, got %d",
            ok);
  CHECK_MSG(shed_53300 == 2,
            "shed-protocol: expected 2 clients shed with 53300, got %d",
            shed_53300);
  std::fprintf(stderr,
               "[shed protocol] 1 admitted, %d shed with SQLSTATE 53300, "
               "0 hung\n",
               shed_53300);
}

struct SweepResult {
  std::vector<Point> points;
  std::string json;
};

SweepResult run_sweep(const std::vector<double>& grid1,
                      const std::vector<double>& grid4, double two_sat,
                      double duration_s, int accounts) {
  SweepResult sr;
  std::string json = "[\n";
  bool first = true;
  auto add = [&](Point p) {
    if (!first) json += ",\n";
    first = false;
    json += point_json(p);
    sr.points.push_back(std::move(p));
  };
  for (double rate : grid1)
    add(run_point(1, rate, duration_s, accounts, true));
  for (double rate : grid4)
    add(run_point(4, rate, duration_s, accounts, true));
  // The unprotected reference: same topology, admission off — its p50
  // service latency under 2x-saturation load is what shedding must beat.
  add(run_point(1, two_sat, duration_s, accounts, false));
  json += "\n  ]";
  sr.json = std::move(json);
  return sr;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  // Grids chosen around the per-shard admission cap (4200/s) and the
  // ~5300 tps pool capacity: saturation (shed fraction >= 1/3) lands at
  // 7000 offered, so 2x saturation = 14000 appears in both grids.
  std::vector<double> grid1 =
      smoke ? std::vector<double>{2800, 7000, 14000}
            : std::vector<double>{1400, 2800, 4200, 5600, 7000,
                                  8400, 11200, 14000};
  std::vector<double> grid4 =
      smoke ? std::vector<double>{14000}
            : std::vector<double>{5600, 11200, 14000, 16800};
  const double duration_s = smoke ? 0.15 : 0.5;
  const int accounts = smoke ? 2000 : 20000;

  std::fprintf(stderr, "=== Scale-out: sharded front tier, open-loop load "
                       "(%s) ===\n",
               smoke ? "smoke" : "full");

  SweepResult a = run_sweep(grid1, grid4, 14000, duration_s, accounts);
  SweepResult b = run_sweep(grid1, grid4, 14000, duration_s, accounts);
  CHECK_MSG(a.json == b.json,
            "determinism: two same-seed sweeps produced different JSON");

  std::fprintf(stderr, "%-7s %-9s %-10s %10s %10s %12s %14s %16s\n",
               "shards", "offered/s", "protected", "completed", "rejected",
               "goodput", "latency p50", "rejection p50");
  for (const auto& p : a.points)
    std::fprintf(stderr,
                 "%-7zu %-9.0f %-10s %10llu %10llu %12.0f %11.2f ms %13.2f "
                 "ms\n",
                 p.shards, p.offered_rate, p.protected_tier ? "yes" : "NO",
                 static_cast<unsigned long long>(p.r.completed),
                 static_cast<unsigned long long>(p.r.rejected),
                 p.r.goodput_tps(), p.r.latency_ms.percentile(50),
                 p.r.rejection_ms.percentile(50));

  // Saturation: the first single-shard rate shedding >= 1/3 of arrivals.
  double sat_rate = 0, peak1 = 0;
  for (const auto& p : a.points) {
    if (p.shards != 1 || !p.protected_tier) continue;
    peak1 = std::max(peak1, p.r.goodput_tps());
    if (sat_rate == 0 && shed_fraction(p) >= 1.0 / 3.0)
      sat_rate = p.offered_rate;
  }
  CHECK_MSG(sat_rate > 0, "no single-shard rate reached 1/3 shed fraction");

  const Point* p4 = nullptr;
  const Point* p1_2sat = nullptr;
  const Point* unprot = nullptr;
  for (const auto& p : a.points) {
    if (p.shards == 4 && p.offered_rate == 2 * sat_rate) p4 = &p;
    if (p.shards == 1 && p.protected_tier && p.offered_rate == 2 * sat_rate)
      p1_2sat = &p;
    if (!p.protected_tier) unprot = &p;
  }
  CHECK_MSG(p4 && p1_2sat && unprot,
            "sweep missing the 2x-saturation points (sat=%.0f)", sat_rate);
  if (p4 && p1_2sat && unprot) {
    std::fprintf(stderr,
                 "\nsaturation %.0f/s; single-shard peak %.0f tps; 4-shard "
                 "goodput at 2x saturation %.0f tps (%.2fx peak)\n",
                 sat_rate, peak1, p4->r.goodput_tps(),
                 p4->r.goodput_tps() / peak1);
    CHECK_MSG(p4->r.goodput_tps() >= 3.0 * peak1,
              "scale-out: 4-shard goodput %.0f < 3x single-shard peak %.0f",
              p4->r.goodput_tps(), 3.0 * peak1);
    double shed_p50 = p1_2sat->r.rejection_ms.percentile(50);
    double sat_p50 = unprot->r.latency_ms.percentile(50);
    std::fprintf(stderr,
                 "shed rejection p50 %.2f ms vs unprotected saturated "
                 "service p50 %.2f ms (%.1fx faster)\n",
                 shed_p50, sat_p50, sat_p50 / std::max(shed_p50, 1e-9));
    CHECK_MSG(shed_p50 < sat_p50 / 10.0,
              "fast shed: rejection p50 %.2f ms not < saturated p50/10 "
              "(%.2f ms)",
              shed_p50, sat_p50 / 10.0);
  }

  check_shed_protocol();

  std::printf("{\n  \"mode\": \"%s\",\n  \"points\": %s,\n"
              "  \"deterministic\": %s\n}\n",
              smoke ? "smoke" : "full", a.json.c_str(),
              a.json == b.json ? "true" : "false");

  if (g_failures > 0) {
    std::fprintf(stderr, "\n%d check(s) FAILED\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "\nall scale-out checks passed\n");
  return 0;
}
