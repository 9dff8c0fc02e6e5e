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
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "netsim/host.h"
#include "netsim/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rddr/rddr.h"
#include "services/http_service.h"
#include "workloads/harness.h"

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

}  // namespace
}  // namespace rddr
