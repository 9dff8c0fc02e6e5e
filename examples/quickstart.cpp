// Quickstart: N-version a microservice with RDDR in ~50 lines of setup.
//
// We deploy two diverse implementations of a markdown-rendering REST
// service (the paper's §V-A library-diversity pattern), put the RDDR
// incoming proxy in front of them, and show that
//   * benign requests flow through untouched, and
//   * an XSS exploit that only one implementation mishandles is blocked
//     before the malicious bytes reach the client.
//
// Everything runs on the deterministic network simulator, so the output
// is identical on every run — including the trace: the run is recorded
// with obs::Tracer and written to quickstart_trace.json, which loads in
// chrome://tracing (or https://ui.perfetto.dev) and shows the exploit
// request's diff span ending in an intervention.
#include <cstdio>

#include "netsim/host.h"
#include "netsim/network.h"
#include "obs/trace.h"
#include "proto/json/json.h"
#include "rddr/rddr.h"
#include "services/http_service.h"
#include "services/rest_service.h"

using namespace rddr;

int main() {
  // --- the world: one simulated machine with a network -------------------
  sim::Simulator simulator;
  sim::Network net(simulator, 50 * sim::kMicrosecond);
  sim::Host host(simulator, "node-1", /*cores=*/8, /*memory=*/8LL << 30);

  // --- two diverse instances of the same service -------------------------
  services::RestLibraryService::Options a, b;
  a.address = "render-0:80";
  a.kind = services::RestLibraryService::Kind::kMarkdown;
  a.library = "mdtwo";  // vulnerable to CVE-2020-11888-style XSS
  b.address = "render-1:80";
  b.kind = services::RestLibraryService::Kind::kMarkdown;
  b.library = "mdone";  // independent implementation, not vulnerable
  services::RestLibraryService instance0(net, host, a);
  services::RestLibraryService instance1(net, host, b);

  // --- RDDR: replicate, de-noise, diff, respond --------------------------
  obs::Tracer tracer([&simulator] { return simulator.now(); }, 7);
  auto rddr = core::NVersionDeployment::Builder()
                  .listen("render:80")  // the address clients use
                  .versions({"render-0:80", "render-1:80"})
                  .plugin(std::make_shared<core::HttpPlugin>())
                  .trace(&tracer)
                  .build(net, host);

  // --- a client ----------------------------------------------------------
  auto render = [&](const char* label, const std::string& markdown) {
    http::Request req;
    req.method = "POST";
    req.target = "/render";
    req.headers.set("Content-Type", "application/json");
    req.body = json::Value(json::Object{{"markdown", markdown}}).dump();
    int status = -1;
    Bytes body;
    services::HttpClient client(net, "quickstart-client");
    client.request("render:80", std::move(req),
                   [&](int s, const http::Response* r) {
                     status = s;
                     if (r) body = r->body;
                   });
    simulator.run_until_idle();
    std::printf("%-8s -> HTTP %d  %s\n", label, status,
                body.substr(0, 100).c_str());
  };

  std::printf("== benign request ==\n");
  render("benign", "# Hello\n**RDDR** [docs](https://example.com)");

  std::printf("\n== exploit request (javascript: URL hidden behind a "
              "control character) ==\n");
  render("exploit", "[click me](java\x0bscript:alert(1))");

  std::printf("\nRDDR interventions: %zu\n", rddr->bus().count());
  for (const auto& rec : rddr->bus().records())
    if (rec.is_intervention())
      std::printf("  t=%.3fms  %s: %s\n", sim::to_seconds(rec.time) * 1e3,
                  rec.proxy.c_str(), rec.reason.c_str());

  // The whole run was traced; open the file in chrome://tracing and look
  // for the diff span whose verdict tag says "divergent".
  std::string trace = tracer.export_chrome();
  if (std::FILE* f = std::fopen("quickstart_trace.json", "w")) {
    std::fwrite(trace.data(), 1, trace.size(), f);
    std::fclose(f);
    std::printf("\nwrote quickstart_trace.json (%zu spans)\n",
                tracer.spans().size());
  }
  return 0;
}
