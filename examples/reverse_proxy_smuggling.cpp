// Reverse-proxy diversity against request smuggling (paper §V-C1,
// CVE-2019-18277).
//
// hap (HAProxy 1.5.3 flavour) and ngx are deployed as diverse
// implementations of the same reverse proxy, with RDDR's incoming proxy in
// front and its outgoing proxy between the pair and the internal API
// service S1. The smuggled "GET /admin" rides inside a POST body that hap
// frames with Content-Length while S1 frames it as chunked; ngx refuses
// the ambiguous request outright, and the disagreement is RDDR's signal.
#include <cstdio>

#include "netsim/host.h"
#include "netsim/network.h"
#include "rddr/rddr.h"
#include "services/http_service.h"
#include "services/reverse_proxy.h"
#include "services/simple_api.h"

using namespace rddr;

namespace {
constexpr char kSmuggle[] =
    "POST / HTTP/1.1\r\n"
    "Host: edge\r\n"
    "Content-Length: 38\r\n"
    "Transfer-Encoding: \x0b"
    "chunked\r\n"
    "\r\n"
    "0\r\n\r\nGET /admin HTTP/1.1\r\nHost: s1\r\n\r\n";
}

int main() {
  sim::Simulator simulator;
  sim::Network net(simulator, 50 * sim::kMicrosecond);
  sim::Host host(simulator, "node-1", 16, 16LL << 30);

  services::SimpleApiService::Options api;
  api.address = "s1-real:80";
  services::SimpleApiService s1(net, host, api);

  services::ReverseProxy::Options hap_o;
  hap_o.address = "proxy-0:80";
  hap_o.backend_address = "s1:80";  // both proxies dial the outgoing proxy
  hap_o.flavor = services::ReverseProxy::Flavor::kHap153;
  hap_o.instance_name = "hap";
  services::ReverseProxy hap(net, host, hap_o);

  services::ReverseProxy::Options ngx_o = hap_o;
  ngx_o.address = "proxy-1:80";
  ngx_o.flavor = services::ReverseProxy::Flavor::kNgx;
  ngx_o.instance_name = "ngx";
  services::ReverseProxy ngx(net, host, ngx_o);

  // The outgoing proxy needs a wider group window than the default, so it
  // takes a full Config instead of the inherit form.
  core::OutgoingProxy::Config out;
  out.listen_address = "s1:80";
  out.backend_address = "s1-real:80";
  out.group_size = 2;
  out.plugin = std::make_shared<core::HttpPlugin>();
  out.group_window = 50 * sim::kMillisecond;
  auto rddr = core::NVersionDeployment::Builder()
                  .listen("edge:80")
                  .versions({"proxy-0:80", "proxy-1:80"})
                  .plugin(std::make_shared<core::HttpPlugin>())
                  .backend(out)
                  .build(net, host);
  std::printf(
      "Setup note: the paper reports adding ngx as the diverse proxy took\n"
      "174 lines of configuration and about an hour (§V-C1); here it is the\n"
      "~8 lines above that clone hap's options with a different flavor.\n\n");

  std::printf("== benign request through both proxies (merged at the "
              "outgoing proxy) ==\n");
  {
    int status = -1;
    Bytes body;
    services::HttpClient client(net, "browser");
    http::Request req;
    req.method = "POST";
    req.target = "/api/echo";
    req.body = "ping";
    client.request("edge:80", std::move(req), [&](int s, const http::Response* r) {
      status = s;
      if (r) body = r->body;
    });
    simulator.run_until_idle();
    std::printf("  POST /api/echo -> HTTP %d: %s\n", status, body.c_str());
  }

  std::printf("\n== the smuggling payload ==\n");
  {
    auto conn = net.connect("edge:80", {.source = "attacker"});
    Bytes got;
    bool closed = false;
    conn->set_on_data([&](ByteView d) { got += Bytes(d); });
    conn->set_on_close([&] { closed = true; });
    conn->send(ByteView(kSmuggle, sizeof(kSmuggle) - 1));
    simulator.run_until_idle();
    std::printf("  connection closed: %s\n", closed ? "yes" : "no");
    std::printf("  admin secret leaked to attacker: %s\n",
                got.find("SECRET-ADMIN-TOKEN") != Bytes::npos ? "YES (bad!)"
                                                              : "no");
    std::printf("  /admin invocations at S1: %llu\n",
                static_cast<unsigned long long>(s1.admin_hits()));
  }

  std::printf("\n== interventions ==\n");
  for (const auto& rec : rddr->bus().records())
    if (rec.is_intervention())
      std::printf("  [%s] %s\n", rec.proxy.c_str(), rec.reason.c_str());
  return 0;
}
