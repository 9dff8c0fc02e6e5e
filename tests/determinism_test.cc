// Determinism regression for the data-plane / event-loop overhaul.
//
// The simulator substrate promises: same seed => byte-identical results,
// regardless of how the internals schedule, batch, or share buffers. These
// tests pin two seeded end-to-end runs to goldens captured from the
// pre-optimization baseline:
//
//  * Fig5Medians     — the fig5 RDDR deployment (3x minipg, 16 pgbench
//                      clients, seed 5) must reproduce the exact pool
//                      aggregates (tps / latency mean / p50 / elapsed)
//                      down to the last double bit.
//  * TraceChromeExport — the trace_smoke scenario (N=3 HTTP quorum with
//                      one divergent instance, tracer seed 42) must emit a
//                      Chrome trace_event export byte-identical to
//                      tests/golden/trace_smoke_chrome.json.
//
// Set RDDR_DUMP_GOLDEN=<dir> to (re)write the golden files instead of
// comparing — only do that when a change is *supposed* to alter the
// simulation outcome, and say so in the PR.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "netsim/host.h"
#include "netsim/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rddr/rddr.h"
#include "services/http_service.h"
#include "sqldb/server.h"
#include "workloads/driver.h"
#include "workloads/pgbench.h"

namespace rddr {
namespace {

#ifndef RDDR_SOURCE_DIR
#define RDDR_SOURCE_DIR "."
#endif

std::string golden_path(const char* name) {
  if (const char* dump = std::getenv("RDDR_DUMP_GOLDEN"))
    return std::string(dump) + "/" + name;
  return std::string(RDDR_SOURCE_DIR) + "/tests/golden/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

struct Fig5Point {
  double tps = 0;
  double latency_mean_ms = 0;
  double latency_p50_ms = 0;
  double elapsed_s = 0;
  double failed = 0;
};

// Exactly the fig5 driver's RDDR deployment at 16 clients (seed 5).
Fig5Point run_fig5_rddr_point() {
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
  workloads::run_client_pool(simulator, net, opts);

  Fig5Point p;
  p.tps = registry.gauge("pool.tps")->value();
  p.latency_mean_ms = registry.gauge("pool.latency_mean_ms")->value();
  p.latency_p50_ms = registry.gauge("pool.latency_p50_ms")->value();
  p.elapsed_s = registry.gauge("pool.elapsed_s")->value();
  p.failed = static_cast<double>(registry.counter("pool.tx_failed")->value());
  return p;
}

// Exactly bench/trace_smoke.cc's scenario: N=3 HTTP quorum, instance 2
// divergent, tracer seed 42, three sequential requests.
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
  Fig5Point p = run_fig5_rddr_point();
  if (std::getenv("RDDR_DUMP_GOLDEN")) {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "tps=%.17g\nlatency_mean_ms=%.17g\nlatency_p50_ms=%.17g\n"
                  "elapsed_s=%.17g\nfailed=%.17g\n",
                  p.tps, p.latency_mean_ms, p.latency_p50_ms, p.elapsed_s,
                  p.failed);
    write_file(golden_path("fig5_rddr_point.txt"), buf);
    GTEST_SKIP() << "golden dumped";
  }
  // Captured at the virtual-time Host scheduler change (which reorders the
  // processor-sharing float arithmetic and so legitimately moved these by
  // ~2e-4 relative); nothing after it may move a single bit of these.
  EXPECT_EQ(p.tps, 4757.3350442613091);
  EXPECT_EQ(p.latency_mean_ms, 3.3577506068749932);
  EXPECT_EQ(p.latency_p50_ms, 3.3599869999999998);
  EXPECT_EQ(p.elapsed_s, 0.33632274899999998);
  EXPECT_EQ(p.failed, 0.0);
}

TEST(DeterminismRegression, TraceChromeExport) {
  std::string chrome = run_trace_chrome_export();
  if (std::getenv("RDDR_DUMP_GOLDEN")) {
    write_file(golden_path("trace_smoke_chrome.json"), chrome);
    GTEST_SKIP() << "golden dumped";
  }
  std::string golden = read_file(golden_path("trace_smoke_chrome.json"));
  ASSERT_FALSE(golden.empty())
      << "missing golden: " << golden_path("trace_smoke_chrome.json");
  // Byte-identical Chrome trace: same span ids, same virtual timestamps,
  // same ordering — scheduling internals must not leak into the output.
  EXPECT_EQ(chrome, golden);
}

// Two runs in the same process must also agree with each other (guards
// against hidden global state in the new buffer sharing / slot reuse).
TEST(DeterminismRegression, RepeatedRunsAgree) {
  std::string a = run_trace_chrome_export();
  std::string b = run_trace_chrome_export();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace rddr
