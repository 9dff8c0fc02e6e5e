// Ablation of the two design features the paper argues are what make
// N-versioning deployable on real web applications (§IV-B2, §IV-B3):
//
//   1. filter-pair de-noising: without it, every response carrying a
//      random token is a false-positive divergence;
//   2. ephemeral-state (CSRF) handling: without it, instances reject the
//      replayed token of their sibling and benign POSTs break;
//   3. the instance timeout (§IV-D): OFF reproduces the paper's DoS
//      limitation, ON is the suggested mitigation.
#include <cstdio>
#include <memory>

#include "common/rng.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "rddr/rddr.h"
#include "services/http_service.h"

using namespace rddr;

namespace {

struct Outcome {
  int ok = 0;
  int blocked = 0;
};

/// N token-emitting instances; `requests` benign GETs; returns pass/block
/// counts.
Outcome run_token_traffic(bool filter_pair, int requests) {
  sim::Simulator simulator;
  sim::Network net(simulator, 20 * sim::kMicrosecond);
  sim::Host host(simulator, "node", 8, 8LL << 30);

  std::vector<std::unique_ptr<services::HttpServer>> instances;
  for (int i = 0; i < 3; ++i) {
    services::HttpServer::Options o;
    o.address = "svc-" + std::to_string(i) + ":80";
    auto s = std::make_unique<services::HttpServer>(net, host, o);
    auto rng = std::make_shared<Rng>(100 + static_cast<uint64_t>(i));
    s->set_handler([rng](const http::Request&, services::Responder r) {
      r(http::make_response(
          200, "<html><input name=\"csrf\" value=\"" + rng->alnum_token(32) +
                   "\"><p>stable content</p></html>"));
    });
    instances.push_back(std::move(s));
  }
  auto proxy = core::NVersionDeployment::Builder()
                   .listen("svc:80")
                   .versions({"svc-0:80", "svc-1:80", "svc-2:80"})
                   .plugin(std::make_shared<core::HttpPlugin>())
                   .filter_pair(filter_pair)
                   .build(net, host);

  Outcome out;
  for (int i = 0; i < requests; ++i) {
    int status = -2;
    services::HttpClient client(net, "client");
    client.get("svc:80", "/",
               [&status](int s, const http::Response*) { status = s; });
    simulator.run_until_idle();
    if (status == 200) ++out.ok;
    else ++out.blocked;
  }
  return out;
}

}  // namespace

int main() {
  std::printf("=== Ablation: de-noising, CSRF handling, timeout policy ===\n\n");

  std::printf("[1] Filter-pair de-noising (benign responses with a random "
              "32-char token):\n");
  Outcome with_fp = run_token_traffic(true, 50);
  Outcome without_fp = run_token_traffic(false, 50);
  std::printf("    with de-noising    : %2d/50 passed, %2d blocked\n",
              with_fp.ok, with_fp.blocked);
  std::printf("    without de-noising : %2d/50 passed, %2d blocked "
              "(every benign response is a false positive)\n\n",
              without_fp.ok, without_fp.blocked);

  std::printf(
      "[2] Ephemeral-state handling (CSRF round trip):\n"
      "    Without it the instances receive a sibling's token: the replica\n"
      "    set silently diverges (only instance 0 performs the action) —\n"
      "    and because instance 0 and 1 form the de-noising pair, their\n"
      "    disagreement is even masked as noise.\n");
  for (bool handle : {true, false}) {
    sim::Simulator simulator;
    sim::Network net(simulator, 20 * sim::kMicrosecond);
    sim::Host host(simulator, "node", 8, 8LL << 30);
    // Instances that issue a token on GET and require it back on POST.
    struct TokenSvc {
      std::unique_ptr<services::HttpServer> server;
      std::shared_ptr<Rng> rng;
      std::shared_ptr<std::string> last_token;
      std::shared_ptr<int> accepted;
    };
    std::vector<TokenSvc> instances;
    for (int i = 0; i < 3; ++i) {
      TokenSvc svc;
      services::HttpServer::Options o;
      o.address = "svc-" + std::to_string(i) + ":80";
      svc.server = std::make_unique<services::HttpServer>(net, host, o);
      svc.rng = std::make_shared<Rng>(200 + static_cast<uint64_t>(i));
      svc.last_token = std::make_shared<std::string>();
      svc.accepted = std::make_shared<int>(0);
      auto rng = svc.rng;
      auto last = svc.last_token;
      auto accepted = svc.accepted;
      svc.server->set_handler(
          [rng, last, accepted](const http::Request& req,
                                services::Responder r) {
            if (req.method == "GET") {
              *last = rng->alnum_token(32);
              r(http::make_response(200, "<input value=\"" + *last + "\">"));
              return;
            }
            if (req.body.find(*last) != Bytes::npos) {
              ++*accepted;
              r(http::make_response(200, "<p>accepted</p>"));
            } else {
              r(http::make_response(403, "<p>bad token</p>"));
            }
          });
      instances.push_back(std::move(svc));
    }
    core::HttpPlugin::Options popts;
    popts.handle_ephemeral_state = handle;
    auto proxy = core::NVersionDeployment::Builder()
                     .listen("svc:80")
                     .versions({"svc-0:80", "svc-1:80", "svc-2:80"})
                     .plugin(std::make_shared<core::HttpPlugin>(popts))
                     .filter_pair(true)
                     .build(net, host);

    // GET the token, then POST it back.
    Bytes page;
    services::HttpClient client(net, "client");
    client.get("svc:80", "/", [&page](int, const http::Response* r) {
      if (r) page = r->body;
    });
    simulator.run_until_idle();
    size_t start = page.find("value=\"") + 7;
    std::string token = page.substr(start, page.find('"', start) - start);
    http::Request post;
    post.method = "POST";
    post.target = "/";
    post.body = "csrf=" + token;
    int status = -2;
    services::HttpClient client2(net, "client");
    client2.request("svc:80", std::move(post),
                    [&status](int s, const http::Response*) { status = s; });
    simulator.run_until_idle();
    int accepted_instances = 0;
    for (const auto& svc : instances)
      if (*svc.accepted > 0) ++accepted_instances;
    std::printf(
        "    CSRF handling %-3s  : client saw %s; %d/3 instances actually "
        "performed the action%s\n",
        handle ? "ON" : "OFF",
        status == 200 ? "200 accepted"
                      : (status == 403 ? "403 blocked" : "connection abort"),
        accepted_instances,
        accepted_instances == 3 ? "" : "  <-- silent replica divergence");
  }

  std::printf("\n[3] Timeout policy against a hung instance (§IV-D):\n");
  for (sim::Time timeout : {sim::Time{0}, sim::Time{1} * sim::kSecond}) {
    sim::Simulator simulator;
    sim::Network net(simulator, 20 * sim::kMicrosecond);
    sim::Host host(simulator, "node", 8, 8LL << 30);
    services::HttpServer::Options o0, o1;
    o0.address = "svc-0:80";
    o1.address = "svc-1:80";
    services::HttpServer good(net, host, o0), hung(net, host, o1);
    good.set_handler([](const http::Request&, services::Responder r) {
      r(http::make_response(200, "ok"));
    });
    hung.set_handler([](const http::Request&, services::Responder) {});
    auto proxy = core::NVersionDeployment::Builder()
                     .listen("svc:80")
                     .versions({"svc-0:80", "svc-1:80"})
                     .plugin(std::make_shared<core::HttpPlugin>())
                     .unit_timeout(timeout)
                     .build(net, host);
    int status = -2;
    services::HttpClient client(net, "client");
    client.get("svc:80", "/",
               [&status](int s, const http::Response*) { status = s; });
    simulator.run_until(10 * sim::kSecond);
    std::printf("    timeout %-9s  : client after 10s -> %s\n",
                timeout == 0 ? "OFF" : "1s",
                status == -2 ? "STILL WAITING (the paper's DoS limitation)"
                             : "aborted with intervention page");
  }

  std::printf(
      "\n[4] Divergence-signature blocking against repeated-divergence DoS "
      "(§IV-D,\n    sketched as future work in the paper; implemented "
      "here):\n");
  for (bool signatures : {false, true}) {
    sim::Simulator simulator;
    sim::Network net(simulator, 20 * sim::kMicrosecond);
    sim::Host host(simulator, "node", 8, 8LL << 30);
    std::vector<std::unique_ptr<services::HttpServer>> instances;
    for (int i = 0; i < 2; ++i) {
      services::HttpServer::Options o;
      o.address = "svc-" + std::to_string(i) + ":80";
      auto s = std::make_unique<services::HttpServer>(net, host, o);
      int flavour = i;
      s->set_handler(
          [flavour](const http::Request& req, services::Responder r) {
            r(http::make_response(
                200, req.target == "/evil" && flavour == 1 ? "LEAK"
                                                           : "normal"));
          });
      instances.push_back(std::move(s));
    }
    auto proxy = core::NVersionDeployment::Builder()
                     .listen("svc:80")
                     .versions({"svc-0:80", "svc-1:80"})
                     .plugin(std::make_shared<core::HttpPlugin>())
                     .signature_blocking(signatures)
                     .build(net, host);

    // The attacker hammers the diverging input 100 times.
    for (int i = 0; i < 100; ++i) {
      services::HttpClient client(net, "attacker");
      client.get("svc:80", "/evil", [](int, const http::Response*) {});
      simulator.run_until_idle();
    }
    uint64_t instance_work =
        instances[0]->requests_served() + instances[1]->requests_served();
    std::printf(
        "    signatures %-4s    : 100 attack repeats -> %llu full diff "
        "cycles, %llu refused at the proxy, instances served %llu requests\n",
        signatures ? "ON" : "OFF",
        static_cast<unsigned long long>(proxy->incoming().stats().divergences),
        static_cast<unsigned long long>(
            proxy->incoming().stats().signature_blocks),
        static_cast<unsigned long long>(instance_work));
  }
  return 0;
}
