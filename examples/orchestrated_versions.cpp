// Version diversity via the orchestrator (paper §V-D).
//
// "N-versioned deployments of multiple versions are straightforward to
// deploy because of the way that containerized platforms like Docker
// handle versioning ... the deployed version can be changed by simply
// changing the specified version tag."
//
// This example registers a wsgx (nginx-like) image with the mini
// orchestrator and deploys the paper's CVE-2017-7529 configuration purely
// by listing tags: {"1.13.2", "1.13.2", "1.13.4"} — the filter pair runs
// the currently-deployed version, the third instance the patched one.
#include <cstdio>

#include "netsim/host.h"
#include "netsim/network.h"
#include "rddr/rddr.h"
#include "services/http_service.h"
#include "services/orchestrator.h"
#include "services/static_server.h"

using namespace rddr;

int main() {
  sim::Simulator simulator;
  sim::Network net(simulator, 50 * sim::kMicrosecond);
  services::Orchestrator orch(simulator, net);
  orch.add_host("worker-1", 16, 32LL << 30);

  // Register the image once; the TAG selects the build.
  orch.register_image("wsgx", [&](const services::ContainerSpec& spec) {
    services::StaticFileServer::Options o;
    o.address = spec.address;
    o.version = spec.tag;
    auto server = std::make_shared<services::StaticFileServer>(
        net, *spec.host, o);
    server->add_document("/index.html",
                         "<html><body>hello from wsgx</body></html>");
    return server;
  });

  // The paper's deployment, expressed as tags.
  auto addresses =
      orch.deploy_replicas("web", "wsgx", {"1.13.2", "1.13.2", "1.13.4"},
                           "worker-1", 80);
  std::printf("deployed %zu containers:", orch.container_count());
  for (const auto& name : orch.container_names())
    std::printf(" %s", name.c_str());
  std::printf("\n\n");

  // "Server" header differs per version: run the filter pair so it counts
  // as known variance instead of a divergence.
  auto rddr = core::NVersionDeployment::Builder()
                  .listen("web:80")
                  .versions(addresses)
                  .plugin(std::make_shared<core::HttpPlugin>())
                  .filter_pair()
                  .build(net, orch.host("worker-1"));

  auto fetch = [&](const char* label, const char* range) {
    http::Request req;
    req.method = "GET";
    req.target = "/index.html";
    if (range) req.headers.set("Range", range);
    int status = -1;
    Bytes body;
    services::HttpClient client(net, "browser");
    client.request("web:80", std::move(req),
                   [&](int s, const http::Response* r) {
                     status = s;
                     if (r) body = r->body;
                   });
    simulator.run_until_idle();
    std::printf("  %-28s -> HTTP %d (%zu bytes)%s\n", label, status,
                body.size(),
                body.find("cache-secret") != Bytes::npos ? "  LEAKED!" : "");
  };

  std::printf("== benign traffic (responses identical across versions; the "
              "differing Server: header is configured known variance) ==\n");
  fetch("GET (full)", nullptr);
  fetch("GET Range: bytes=0-9", "bytes=0-9");
  fetch("GET Range: bytes=-10", "bytes=-10");

  std::printf("\n== CVE-2017-7529: oversized suffix range overflows the "
              "1.13.2 pair's arithmetic ==\n");
  fetch("GET Range: bytes=-9000", "bytes=-9000");

  std::printf("\ninterventions: %zu\n", rddr->bus().count());
  for (const auto& rec : rddr->bus().records())
    if (rec.is_intervention())
      std::printf("  %s\n", rec.reason.c_str());

  std::printf("\nRolling the deployment forward is one line: deploy tags "
              "{\"1.13.4\", \"1.13.4\", \"1.13.5\"} instead.\n");
  return 0;
}
