// Determinism regression for the data-plane / event-loop overhaul.
//
// The simulator substrate promises: same seed => byte-identical results,
// regardless of how the internals schedule, batch, or share buffers.
//
//  * Fig5Medians       — workloads::run_fig5_point, the Fig 5 RDDR point at
//                        16 clients, must reproduce the exact pool
//                        aggregates (tps / latency mean / p50 / elapsed)
//                        down to the last double bit, and the network's
//                        payload bytes sent and copied.
//  * TraceChromeExport — the trace_smoke scenario (N=3 HTTP quorum with one
//                        divergent instance, tracer seed 42) must emit the
//                        Chrome trace_event export that the trace_smoke pin
//                        holds (tests/golden/paper/trace_smoke/).
//  * RepeatedRunsAgree — two runs in one process agree, which the pins
//                        (one run per process) cannot check.
//  * ScaleoutFingerprintSameSeedTwice, ShardKillReportSameSeedTwice,
//    FuzzReportSameSeedTwice — the same in-process repeat for the sharded
//    frontier (pool aggregates, counters and the Chrome export), the
//    shard-kill chaos report and the adversarial fuzzer's report.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "common/strutil.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rddr/rddr.h"
#include "scenario/fuzzer.h"
#include "services/http_service.h"
#include "workloads/harness.h"
#include "workloads/pgbench.h"

namespace rddr {
namespace {

#ifndef RDDR_SOURCE_DIR
#define RDDR_SOURCE_DIR "."
#endif

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The trace_smoke scenario: N=3 HTTP quorum, instance 2 divergent, tracer
// seed 42, three sequential requests. TraceChromeExport holds its export
// to the trace_smoke pin's file, so the two cannot drift apart unseen.
std::string run_trace_chrome_export() {
  sim::Simulator simulator;
  sim::Network net(simulator, 10 * sim::kMicrosecond);
  sim::Host host(simulator, "node", 8, 4LL << 30);

  auto make_instance = [&](const std::string& address,
                           const std::string& body) {
    services::HttpServer::Options o;
    o.address = address;
    auto server = std::make_unique<services::HttpServer>(net, host, o);
    server->set_handler([body](const http::Request&, services::Responder r) {
      r(http::make_response(200, body));
    });
    return server;
  };
  auto i0 = make_instance("svc-0:80", "public data");
  auto i1 = make_instance("svc-1:80", "public data");
  auto i2 = make_instance("svc-2:80", "public data AND A SECRET");

  obs::Tracer tracer([&simulator] { return simulator.now(); }, 42);
  obs::MetricsRegistry registry;
  auto deployment = core::NVersionDeployment::Builder()
                        .listen("svc:80")
                        .versions({"svc-0:80", "svc-1:80", "svc-2:80"})
                        .plugin(std::make_shared<core::HttpPlugin>())
                        .degradation(core::DegradationPolicy::kQuorum)
                        .metrics(&registry)
                        .trace(&tracer)
                        .build(net, host);

  services::HttpClient client(net, "client");
  int served = 0;
  for (int k = 0; k < 3; ++k) {
    simulator.schedule(k * 10 * sim::kMillisecond, [&] {
      client.get("svc:80", "/", [&](int status, const http::Response*) {
        if (status == 200) ++served;
      });
    });
  }
  simulator.run_until_idle();
  EXPECT_EQ(served, 3);
  EXPECT_EQ(tracer.open_spans(), 0u);
  return tracer.export_chrome();
}

TEST(DeterminismRegression, Fig5Medians) {
  workloads::Fig5Point point =
      workloads::run_fig5_point(workloads::Fig5Front::kRddr, 16);
  const workloads::PoolResult& p = point.pool;
  // Captured at the virtual-time Host scheduler change (which reorders the
  // processor-sharing float arithmetic and so legitimately moved these by
  // ~2e-4 relative); nothing after it may move a single bit of these.
  EXPECT_EQ(p.throughput_tps(), 4757.3350442613091);
  EXPECT_EQ(p.latency_ms.mean(), 3.3577506068749932);
  EXPECT_EQ(p.latency_ms.percentile(50), 3.3599869999999998);
  EXPECT_EQ(static_cast<double>(p.elapsed) / 1e9, 0.33632274899999998);
  EXPECT_EQ(static_cast<double>(p.failed), 0.0);
  // The network's fan-out counters: bytes handed to send() and the share
  // of them that was copied rather than shared. Every send on this path
  // hands its own buffer over (the client's startup, Query and Terminate
  // were the 98973 copied bytes until they did too).
  EXPECT_EQ(point.payload_bytes_sent, 846223u);
  EXPECT_EQ(point.payload_bytes_copied, 0u);
}

TEST(DeterminismRegression, TraceChromeExport) {
  const std::string path = std::string(RDDR_SOURCE_DIR) +
                           "/tests/golden/paper/trace_smoke/trace_smoke.json";
  std::string golden = read_file(path);
  ASSERT_FALSE(golden.empty()) << "missing golden: " << path;
  // Byte-identical Chrome trace: same span ids, same virtual timestamps,
  // same ordering — scheduling internals must not leak into the output.
  EXPECT_EQ(run_trace_chrome_export(), golden);
}

// Two runs in the same process must also agree with each other (guards
// against hidden global state in the new buffer sharing / slot reuse).
TEST(DeterminismRegression, RepeatedRunsAgree) {
  std::string a = run_trace_chrome_export();
  std::string b = run_trace_chrome_export();
  EXPECT_EQ(a, b);
}

// A compact fig5_scaleout point: 4 shards, each with its own host and
// 3-instance minipg pool, driven by a closed client pool through the
// sharded frontier. Returns the full determinism surface: pool aggregates,
// frontier counters, divergences, and the canonical Chrome trace export.
std::string run_scaleout_fingerprint() {
  sim::Simulator sim;
  sim::Network net(sim, 50 * sim::kMicrosecond);
  obs::Tracer tracer([&sim] { return sim.now(); }, /*seed=*/42);

  const size_t kShards = 4;
  std::vector<std::unique_ptr<sim::Host>> hosts;
  std::vector<sim::Host*> host_ptrs;
  std::vector<workloads::Replicas> shard_replicas;
  std::vector<std::vector<std::string>> pools;
  for (size_t k = 0; k < kShards; ++k) {
    hosts.push_back(std::make_unique<sim::Host>(
        sim, "node-" + std::to_string(k), 32, 128LL << 30));
    host_ptrs.push_back(hosts.back().get());
    sqldb::SqlServer::Options so;
    so.cpu_per_query = 2e-3;
    so.rng_seed = 20 + k * 10;
    so.tracer = &tracer;
    shard_replicas.push_back(workloads::start_replicas(
        net, 3, workloads::Pgbench{200}, so, {hosts.back().get()},
        strformat("pg-s%zu", k)));
    pools.push_back(shard_replicas.back().addresses);
  }
  auto front = core::NVersionDeployment::Builder()
                   .name("front")
                   .listen("front:5432")
                   .plugin(std::make_shared<core::PgPlugin>())
                   .filter_pair(true)
                   .cpu_model(workloads::kPaperProxyCpu.per_unit_s,
                              workloads::kPaperProxyCpu.per_byte_s)
                   .shard_versions(pools)
                   .trace(&tracer)
                   .build_frontier(net, host_ptrs);

  workloads::ClientPoolOptions opts;
  opts.address = "front:5432";
  opts.clients = 8;
  opts.transactions_per_client = 12;
  opts.seed = 5;
  opts.tracer = &tracer;
  opts.next_query = [](Rng& rng, int, int) {
    return workloads::pgbench_select_tx(rng, 200);
  };
  workloads::PoolResult pool = workloads::run_client_pool(sim, net, opts);

  core::ProxyStats agg = front->aggregate_stats();
  std::string fp = strformat(
      "tps=%.17g mean=%.17g p50=%.17g elapsed=%.17g failed=%llu "
      "sessions=%llu units=%llu divergences=%llu shed=%llu bus=%llu\n",
      pool.throughput_tps(), pool.latency_ms.mean(),
      pool.latency_ms.percentile(50),
      static_cast<double>(pool.elapsed) / 1e9,
      static_cast<unsigned long long>(pool.failed),
      static_cast<unsigned long long>(agg.sessions),
      static_cast<unsigned long long>(agg.units_compared),
      static_cast<unsigned long long>(agg.divergences),
      static_cast<unsigned long long>(front->stats().shed),
      static_cast<unsigned long long>(front->divergences()));
  fp += tracer.export_chrome();
  return fp;
}

TEST(DeterminismRegression, ScaleoutFingerprintSameSeedTwice) {
  const std::string first = run_scaleout_fingerprint();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, run_scaleout_fingerprint());
}

TEST(DeterminismRegression, ShardKillReportSameSeedTwice) {
  chaos::ShardKillOptions opts;
  opts.sessions = 60;
  opts.settle = 8 * sim::kSecond;
  const std::string first = chaos::run_shard_kill(opts, /*seed=*/7).summary();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, chaos::run_shard_kill(opts, /*seed=*/7).summary());
}

TEST(DeterminismRegression, FuzzReportSameSeedTwice) {
  for (int topo = 0; topo < 2; ++topo) {
    SCOPED_TRACE(strformat("topology=%d", topo));
    scenario::FuzzOptions fopts;
    fopts.topology = topo;
    fopts.benign_sessions = 6;
    fopts.ops_per_family = 1;
    const std::string first =
        scenario::run_fuzz_seed(/*seed=*/11, fopts).summary();
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, scenario::run_fuzz_seed(/*seed=*/11, fopts).summary());
  }
}

}  // namespace
}  // namespace rddr
