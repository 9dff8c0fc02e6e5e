// Trace smoke check: a seeded N=3 kQuorum run with one divergent instance
// must (a) close every span by simulation end and (b) produce a verdict
// span tagged with the outvoted instance. Exits nonzero otherwise, so it
// doubles as a CI gate for the observability layer.
//
// Side effects: writes trace_smoke.json (Chrome trace_event format — load
// via chrome://tracing or https://ui.perfetto.dev) and
// trace_smoke_metrics.json (flat metrics dump) into the working directory.
#include <cstdio>
#include <memory>
#include <string>

#include "netsim/host.h"
#include "netsim/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "proto/http/coding.h"
#include "rddr/deployment.h"
#include "rddr/plugins.h"
#include "services/http_service.h"

using namespace rddr;
using services::HttpClient;
using services::HttpServer;

namespace {

std::unique_ptr<HttpServer> make_instance(sim::Network& net, sim::Host& host,
                                          const std::string& address,
                                          const std::string& body) {
  HttpServer::Options o;
  o.address = address;
  auto server = std::make_unique<HttpServer>(net, host, o);
  server->set_handler([body](const http::Request&, services::Responder r) {
    r(http::make_response(200, body));
  });
  return server;
}

bool write_file(const char* path, const std::string& content) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) return false;
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main() {
  sim::Simulator simulator;
  sim::Network net(simulator, 10 * sim::kMicrosecond);
  sim::Host host(simulator, "node", 8, 4LL << 30);

  // Instance 2 leaks extra bytes; quorum must outvote it.
  auto i0 = make_instance(net, host, "svc-0:80", "public data");
  auto i1 = make_instance(net, host, "svc-1:80", "public data");
  auto i2 = make_instance(net, host, "svc-2:80", "public data AND A SECRET");

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

  // Three sequential requests: the first outvotes svc-2, the rest run
  // degraded on the surviving pair — both shapes end up in the trace.
  HttpClient client(net, "client");
  int served = 0;
  for (int k = 0; k < 3; ++k) {
    simulator.schedule(k * 10 * sim::kMillisecond, [&] {
      client.get("svc:80", "/", [&](int status, const http::Response*) {
        if (status == 200) ++served;
      });
    });
  }
  simulator.run_until_idle();

  bool outvoted_tagged = false;
  std::string outvoted;
  for (const auto& span : tracer.spans()) {
    for (const auto& [key, value] : span.tags) {
      if (key == "outvoted_instance") {
        outvoted_tagged = true;
        outvoted = value;
      }
    }
  }

  std::string trace_json = tracer.export_chrome();
  if (!write_file("trace_smoke.json", trace_json) ||
      !write_file("trace_smoke_metrics.json", registry.dump_json())) {
    std::fprintf(stderr, "FAIL: could not write output files\n");
    return 1;
  }

  std::printf("served=%d spans=%zu open=%zu quorum_outvotes=%llu\n", served,
              tracer.span_count(), tracer.open_spans(),
              static_cast<unsigned long long>(
                  deployment->aggregate_stats().quorum_outvotes));
  std::printf("wrote trace_smoke.json (%zu bytes), trace_smoke_metrics.json\n",
              trace_json.size());

  int rc = 0;
  if (served != 3) {
    std::fprintf(stderr, "FAIL: expected 3 served requests, got %d\n", served);
    rc = 1;
  }
  if (tracer.open_spans() != 0) {
    std::fprintf(stderr, "FAIL: %zu spans still open at simulation end\n",
                 tracer.open_spans());
    rc = 1;
  }
  if (!outvoted_tagged) {
    std::fprintf(stderr, "FAIL: no span carries an outvoted_instance tag\n");
    rc = 1;
  } else {
    std::printf("outvoted_instance=%s\n", outvoted.c_str());
  }
  if (rc == 0) std::printf("trace smoke: OK\n");
  return rc;
}
