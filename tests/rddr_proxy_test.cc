// End-to-end tests of the incoming/outgoing proxies over the simulated
// network, using small HTTP instances and the sqldb servers.
#include <gtest/gtest.h>

#include <vector>

#include "netsim/host.h"
#include "netsim/network.h"
#include "rddr/deployment.h"
#include "rddr/plugins.h"
#include "proto/http/coding.h"
#include "proto/http/parser.h"
#include "services/http_service.h"
#include "services/static_server.h"
#include "sqldb/client.h"
#include "sqldb/server.h"

namespace rddr::core {
namespace {

using services::HttpClient;
using services::HttpServer;

/// A fresh simulator, network and host, for tests that run several inputs.
struct World {
  sim::Simulator sim;
  sim::Network net{sim, 10 * sim::kMicrosecond};
  sim::Host host{sim, "node", 8, 4LL << 30};
};

class ProxyTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  sim::Network net{sim, 10 * sim::kMicrosecond};
  sim::Host host{sim, "node", 8, 4LL << 30};

  /// A toy instance: responds with `body` for every request, optionally
  /// appending a per-instance random token line.
  std::unique_ptr<HttpServer> make_instance(const std::string& address,
                                            const std::string& body) {
    HttpServer::Options o;
    o.address = address;
    auto server = std::make_unique<HttpServer>(net, host, o);
    server->set_handler([body](const http::Request&, services::Responder r) {
      r(http::make_response(200, body));
    });
    return server;
  }
};

TEST_F(ProxyTest, UnanimousResponseForwarded) {
  auto i0 = make_instance("svc-0:80", "same answer");
  auto i1 = make_instance("svc-1:80", "same answer");
  auto i2 = make_instance("svc-2:80", "same answer");

  IncomingProxy::Config cfg;
  cfg.listen_address = "svc:80";
  cfg.instance_addresses = {"svc-0:80", "svc-1:80", "svc-2:80"};
  cfg.plugin = std::make_shared<HttpPlugin>();
  DivergenceBus bus;
  IncomingProxy proxy(net, host, cfg, &bus);

  int status = -2;
  Bytes body;
  HttpClient client(net, "client");
  client.get("svc:80", "/", [&](int s, const http::Response* r) {
    status = s;
    if (r) body = r->body;
  });
  sim.run_until_idle();
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "same answer");
  EXPECT_EQ(proxy.stats().divergences, 0u);
  EXPECT_EQ(proxy.stats().units_compared, 1u);
  EXPECT_EQ(bus.count(), 0u);
}

TEST_F(ProxyTest, DivergenceBlockedWithInterventionPage) {
  auto i0 = make_instance("svc-0:80", "public data");
  auto i1 = make_instance("svc-1:80", "public data");
  auto i2 = make_instance("svc-2:80", "public data AND A SECRET");

  IncomingProxy::Config cfg;
  cfg.listen_address = "svc:80";
  cfg.instance_addresses = {"svc-0:80", "svc-1:80", "svc-2:80"};
  cfg.plugin = std::make_shared<HttpPlugin>();
  DivergenceBus bus;
  IncomingProxy proxy(net, host, cfg, &bus);

  int status = -2;
  Bytes body;
  HttpClient client(net, "client");
  client.get("svc:80", "/", [&](int s, const http::Response* r) {
    status = s;
    if (r) body = r->body;
  });
  sim.run_until_idle();
  EXPECT_EQ(status, 403);
  EXPECT_NE(body.find("RDDR intervened"), Bytes::npos);
  EXPECT_EQ(body.find("SECRET"), Bytes::npos);
  EXPECT_EQ(proxy.stats().divergences, 1u);
  ASSERT_EQ(bus.count(), 1u);
}

TEST_F(ProxyTest, LoadChangeFiresPerComparedBatchAndOncePerRelease) {
  // A front tier drains its admission queue on these wakeups: one per
  // compare batch that consumed queued units, and exactly one when a
  // session is released.
  auto i0 = make_instance("svc-0:80", "same answer");
  auto i1 = make_instance("svc-1:80", "same answer");
  auto i2 = make_instance("svc-2:80", "same answer");

  int wakeups = 0;
  IncomingProxy::Config cfg;
  cfg.listen_address = "svc:80";
  cfg.instance_addresses = {"svc-0:80", "svc-1:80", "svc-2:80"};
  cfg.plugin = std::make_shared<HttpPlugin>();
  cfg.on_load_change = [&wakeups] { ++wakeups; };
  IncomingProxy proxy(net, host, cfg);

  // Three keep-alive requests on one session: three compared batches.
  auto client = net.connect("svc:80", {.source = "client"});
  ASSERT_NE(client, nullptr);
  Bytes got;
  client->set_on_data([&got](ByteView d) { got += Bytes(d); });
  for (int k = 0; k < 3; ++k)
    client->send("GET / HTTP/1.1\r\nHost: svc\r\n\r\n");
  sim.run_until_idle();
  EXPECT_EQ(proxy.stats().units_compared, 3u);
  EXPECT_EQ(proxy.active_sessions(), 1u);
  EXPECT_EQ(wakeups, 3);

  // Closing the session releases it: exactly one more wakeup.
  client->close();
  sim.run_until_idle();
  EXPECT_EQ(proxy.active_sessions(), 0u);
  EXPECT_EQ(wakeups, 4);
  EXPECT_EQ(proxy.stats().divergences, 0u);
}

TEST_F(ProxyTest, InstanceConnectionRefusedIsUnavailabilityNotDivergence) {
  auto i0 = make_instance("svc-0:80", "x");
  // svc-1:80 does not exist. An unreachable instance is a fault, not an
  // attack: the client is still refused (kStrict cannot verify), but it is
  // counted as unavailability and nothing is reported on the bus.
  IncomingProxy::Config cfg;
  cfg.listen_address = "svc:80";
  cfg.instance_addresses = {"svc-0:80", "svc-1:80"};
  cfg.plugin = std::make_shared<HttpPlugin>();
  DivergenceBus bus;
  IncomingProxy proxy(net, host, cfg, &bus);

  int status = -2;
  HttpClient client(net, "client");
  client.get("svc:80", "/", [&](int s, const http::Response*) { status = s; });
  sim.run_until_idle();
  EXPECT_EQ(status, 403);  // intervention page
  EXPECT_EQ(proxy.stats().divergences, 0u);
  EXPECT_EQ(proxy.stats().instance_unreachable, 1u);
  EXPECT_EQ(bus.count(), 0u);
  // The upstream opened to svc-0 before the refusal must not leak.
  EXPECT_EQ(net.live_connections("svc-0"), 0u);
}

TEST_F(ProxyTest, TimeoutDisabledByDefaultHangs) {
  // Paper §IV-D: without the timeout mitigation, a hung instance hangs the
  // session (the DoS limitation).
  auto i0 = make_instance("svc-0:80", "x");
  HttpServer::Options o;
  o.address = "svc-1:80";
  HttpServer hung(net, host, o);
  hung.set_handler([](const http::Request&, services::Responder) {
    // Never responds.
  });

  IncomingProxy::Config cfg;
  cfg.listen_address = "svc:80";
  cfg.instance_addresses = {"svc-0:80", "svc-1:80"};
  cfg.plugin = std::make_shared<HttpPlugin>();
  IncomingProxy proxy(net, host, cfg);

  int status = -2;
  HttpClient client(net, "client");
  client.get("svc:80", "/", [&](int s, const http::Response*) { status = s; });
  sim.run_until(10 * sim::kSecond);
  EXPECT_EQ(status, -2);  // still waiting: no divergence, no response
  EXPECT_EQ(proxy.stats().divergences, 0u);
}

TEST_F(ProxyTest, TimeoutMitigationAborts) {
  auto i0 = make_instance("svc-0:80", "x");
  HttpServer::Options o;
  o.address = "svc-1:80";
  HttpServer hung(net, host, o);
  hung.set_handler([](const http::Request&, services::Responder) {});

  IncomingProxy::Config cfg;
  cfg.listen_address = "svc:80";
  cfg.instance_addresses = {"svc-0:80", "svc-1:80"};
  cfg.plugin = std::make_shared<HttpPlugin>();
  cfg.unit_timeout = sim::kSecond;
  IncomingProxy proxy(net, host, cfg);

  int status = -2;
  HttpClient client(net, "client");
  client.get("svc:80", "/", [&](int s, const http::Response*) { status = s; });
  sim.run_until(10 * sim::kSecond);
  EXPECT_EQ(status, 403);
  EXPECT_EQ(proxy.stats().timeouts, 1u);
}

TEST_F(ProxyTest, IdleTimeoutDisabledByDefaultKeepsSlowSessions) {
  // Without the idle-timeout knob a half-sent request pins its session
  // slot forever (the slowloris limitation the knob exists to close).
  auto i0 = make_instance("svc-0:80", "x");
  auto i1 = make_instance("svc-1:80", "x");

  IncomingProxy::Config cfg;
  cfg.listen_address = "svc:80";
  cfg.instance_addresses = {"svc-0:80", "svc-1:80"};
  cfg.plugin = std::make_shared<HttpPlugin>();
  IncomingProxy proxy(net, host, cfg);

  auto conn = net.connect("svc:80", {.source = "client"});
  ASSERT_NE(conn, nullptr);
  conn->send("GET / HTTP/1.1\r\nHost: svc\r\nX-Slow: ");  // never finished
  sim.run_until(30 * sim::kSecond);
  EXPECT_EQ(proxy.active_sessions(), 1u);
  EXPECT_EQ(proxy.stats().idle_sheds, 0u);
}

TEST_F(ProxyTest, IdleTimeoutShedsSlowlorisDespiteByteTrickle) {
  // A slowloris sender trickles one header byte per tick: the connection
  // is never byte-idle, but no client unit ever completes. The idle
  // timeout is progress-based, so the session is still shed, with the
  // plugin's protocol-correct overload response.
  auto i0 = make_instance("svc-0:80", "x");
  auto i1 = make_instance("svc-1:80", "x");

  IncomingProxy::Config cfg;
  cfg.listen_address = "svc:80";
  cfg.instance_addresses = {"svc-0:80", "svc-1:80"};
  cfg.plugin = std::make_shared<HttpPlugin>();
  cfg.idle_timeout = sim::kSecond;
  IncomingProxy proxy(net, host, cfg);

  auto conn = net.connect("svc:80", {.source = "client"});
  ASSERT_NE(conn, nullptr);
  Bytes got;
  conn->set_on_data([&](ByteView d) { got += Bytes(d); });
  conn->send("GET / HTTP/1.1\r\nHost: svc\r\nX-Slow: ");
  // One header byte every 400ms, forever short of "\r\n\r\n".
  std::function<void()> trickle = [&] {
    if (!conn->is_open()) return;
    conn->send("a");
    sim.schedule(400 * sim::kMillisecond, trickle);
  };
  sim.schedule(400 * sim::kMillisecond, trickle);

  sim.run_until(10 * sim::kSecond);
  EXPECT_EQ(proxy.stats().idle_sheds, 1u);
  EXPECT_EQ(proxy.active_sessions(), 0u);
  EXPECT_NE(got.find("503"), Bytes::npos);       // overload_response()
  EXPECT_NE(got.find("Retry-After"), Bytes::npos);
  EXPECT_EQ(proxy.stats().divergences, 0u);  // shedding is not intervention
}

TEST_F(ProxyTest, IdleTimeoutSparedByProtocolProgress) {
  // Requests spaced wider than the idle window apart would each be shed;
  // spaced inside it, every completed unit resets the clock and the
  // persistent session survives all of them.
  auto i0 = make_instance("svc-0:80", "ok");
  auto i1 = make_instance("svc-1:80", "ok");

  IncomingProxy::Config cfg;
  cfg.listen_address = "svc:80";
  cfg.instance_addresses = {"svc-0:80", "svc-1:80"};
  cfg.plugin = std::make_shared<HttpPlugin>();
  cfg.idle_timeout = sim::kSecond;
  IncomingProxy proxy(net, host, cfg);

  auto conn = net.connect("svc:80", {.source = "client"});
  ASSERT_NE(conn, nullptr);
  size_t responses = 0;
  http::ResponseParser parser;
  conn->set_on_data([&](ByteView d) {
    parser.feed(d);
    responses += parser.take().size();
  });
  const Bytes req = "GET / HTTP/1.1\r\nHost: svc\r\n\r\n";
  for (int i = 0; i < 5; ++i)
    sim.schedule(i * 600 * sim::kMillisecond, [&, i] {
      if (conn->is_open()) conn->send(req);
    });
  // Last request lands at 2.4s; at 3s all five answered and the window
  // (rearmed by that final response) has not yet expired.
  sim.run_until(3 * sim::kSecond);
  EXPECT_EQ(responses, 5u);
  EXPECT_EQ(proxy.stats().idle_sheds, 0u);
  // ... and once the client goes quiet for a full window, the proxy
  // reclaims the slot.
  sim.run_until(30 * sim::kSecond);
  EXPECT_EQ(proxy.stats().idle_sheds, 1u);
  EXPECT_EQ(proxy.active_sessions(), 0u);
}

TEST_F(ProxyTest, FilterPairAbsorbsPerInstanceTokens) {
  // Each instance embeds its own random token; with the filter pair the
  // client sees instance 0's page and no divergence fires.
  auto make_tokened = [&](const std::string& address, uint64_t seed) {
    HttpServer::Options o;
    o.address = address;
    auto server = std::make_unique<HttpServer>(net, host, o);
    auto rng = std::make_shared<Rng>(seed);
    server->set_handler(
        [rng](const http::Request&, services::Responder r) {
          r(http::make_response(
              200, "<input value=\"" + rng->alnum_token(24) + "\">ok"));
        });
    return server;
  };
  auto i0 = make_tokened("svc-0:80", 1);
  auto i1 = make_tokened("svc-1:80", 2);
  auto i2 = make_tokened("svc-2:80", 3);

  IncomingProxy::Config cfg;
  cfg.listen_address = "svc:80";
  cfg.instance_addresses = {"svc-0:80", "svc-1:80", "svc-2:80"};
  cfg.plugin = std::make_shared<HttpPlugin>();
  cfg.filter_pair = true;
  IncomingProxy proxy(net, host, cfg);

  int status = -2;
  HttpClient client(net, "client");
  client.get("svc:80", "/", [&](int s, const http::Response*) { status = s; });
  sim.run_until_idle();
  EXPECT_EQ(status, 200);
  EXPECT_EQ(proxy.stats().divergences, 0u);
}

TEST_F(ProxyTest, WithoutFilterPairTokensCauseFalsePositive) {
  // Ablation: the same deployment WITHOUT de-noising blocks benign
  // traffic — why §IV-B2 exists.
  auto make_tokened = [&](const std::string& address, uint64_t seed) {
    HttpServer::Options o;
    o.address = address;
    auto server = std::make_unique<HttpServer>(net, host, o);
    auto rng = std::make_shared<Rng>(seed);
    server->set_handler(
        [rng](const http::Request&, services::Responder r) {
          r(http::make_response(
              200, "<input value=\"" + rng->alnum_token(24) + "\">ok"));
        });
    return server;
  };
  auto i0 = make_tokened("svc-0:80", 1);
  auto i1 = make_tokened("svc-1:80", 2);
  auto i2 = make_tokened("svc-2:80", 3);

  IncomingProxy::Config cfg;
  cfg.listen_address = "svc:80";
  cfg.instance_addresses = {"svc-0:80", "svc-1:80", "svc-2:80"};
  cfg.plugin = std::make_shared<HttpPlugin>();
  cfg.filter_pair = false;
  IncomingProxy proxy(net, host, cfg);

  int status = -2;
  HttpClient client(net, "client");
  client.get("svc:80", "/", [&](int s, const http::Response*) { status = s; });
  sim.run_until_idle();
  EXPECT_EQ(status, 403);
  EXPECT_EQ(proxy.stats().divergences, 1u);
}

TEST_F(ProxyTest, PipelinedRequestsAllCompared) {
  auto i0 = make_instance("svc-0:80", "r");
  auto i1 = make_instance("svc-1:80", "r");
  IncomingProxy::Config cfg;
  cfg.listen_address = "svc:80";
  cfg.instance_addresses = {"svc-0:80", "svc-1:80"};
  cfg.plugin = std::make_shared<HttpPlugin>();
  IncomingProxy proxy(net, host, cfg);

  // Raw pipelined connection (the HttpClient closes after one response).
  auto conn = net.connect("svc:80", {.source = "client"});
  http::Request r1, r2, r3;
  r1.method = r2.method = r3.method = "GET";
  r1.target = "/a";
  r2.target = "/b";
  r3.target = "/c";
  conn->send(r1.to_bytes() + r2.to_bytes() + r3.to_bytes());
  Bytes got;
  conn->set_on_data([&](ByteView d) { got += Bytes(d); });
  sim.run_until_idle();
  EXPECT_EQ(proxy.stats().units_replicated, 3u);
  EXPECT_EQ(proxy.stats().units_compared, 3u);
  http::ResponseParser rp;
  rp.feed(got);
  EXPECT_EQ(rp.take().size(), 3u);
}

TEST_F(ProxyTest, CompressedResponsesDiffedDecoded) {
  // End-to-end §IV-B1: instances serve xz77-compressed bodies; RDDR's HTTP
  // plugin decodes before diffing. Identical documents pass; a tampered
  // instance diverges even though every compressed byte stream differs
  // from the others only after decoding.
  auto make_wsgx = [&](const std::string& address, const Bytes& doc) {
    services::StaticFileServer::Options o;
    o.address = address;
    o.version = "1.13.4";
    auto s = std::make_unique<services::StaticFileServer>(net, host, o);
    s->add_document("/page", doc);
    return s;
  };
  Bytes doc = "<html><body>repeated content repeated content</body></html>";
  auto i0 = make_wsgx("svc-0:80", doc);
  auto i1 = make_wsgx("svc-1:80", doc);

  IncomingProxy::Config cfg;
  cfg.listen_address = "svc:80";
  cfg.instance_addresses = {"svc-0:80", "svc-1:80"};
  cfg.plugin = std::make_shared<HttpPlugin>();
  DivergenceBus bus;
  IncomingProxy proxy(net, host, cfg, &bus);

  http::Request req;
  req.method = "GET";
  req.target = "/page";
  req.headers.set("Accept-Encoding", "xz77");
  int status = -2;
  Bytes body;
  http::HeaderMap headers;
  HttpClient client(net, "client");
  client.request("svc:80", std::move(req),
                 [&](int s, const http::Response* r) {
                   status = s;
                   if (r) {
                     body = r->body;
                     headers = r->headers;
                   }
                 });
  sim.run_until_idle();
  ASSERT_EQ(status, 200);
  EXPECT_EQ(headers.get("Content-Encoding").value(), "xz77");
  EXPECT_EQ(http::xz77_decompress(body).value(), doc);
  EXPECT_EQ(bus.count(), 0u);

  // Tamper with one instance's document: blocked despite compression.
  auto i2 = make_wsgx("svc-2:80", doc + "<!-- secret -->");
  IncomingProxy::Config cfg2 = cfg;
  cfg2.listen_address = "svc2:80";
  cfg2.instance_addresses = {"svc-0:80", "svc-2:80"};
  IncomingProxy proxy2(net, host, cfg2, &bus);
  http::Request req2;
  req2.method = "GET";
  req2.target = "/page";
  req2.headers.set("Accept-Encoding", "xz77");
  int status2 = -2;
  HttpClient client2(net, "client");
  client2.request("svc2:80", std::move(req2),
                  [&](int s, const http::Response*) { status2 = s; });
  sim.run_until_idle();
  EXPECT_EQ(status2, 403);
  EXPECT_EQ(bus.count(), 1u);
}

// ---------- Outgoing proxy ----------

TEST_F(ProxyTest, OutgoingProxyMergesAgreeingRequests) {
  // Backend sqldb instance.
  auto db = std::make_shared<sqldb::Database>(sqldb::minipg_info("13.0"));
  {
    sqldb::Session s(*db, "postgres");
    s.execute("CREATE TABLE t (a int); INSERT INTO t VALUES (7);"
              "GRANT SELECT ON t TO app;");
  }
  sqldb::SqlServer::Options so;
  so.address = "backend:5432";
  sqldb::SqlServer backend(net, host, db, so);

  OutgoingProxy::Config cfg;
  cfg.listen_address = "rddr-out:5432";
  cfg.backend_address = "backend:5432";
  cfg.group_size = 3;
  cfg.plugin = std::make_shared<PgPlugin>();
  DivergenceBus bus;
  OutgoingProxy proxy(net, host, cfg, &bus);

  // Three "instances" issue the identical query with one flow label.
  std::vector<std::unique_ptr<sqldb::PgClient>> clients;
  std::vector<sqldb::QueryOutcome> outcomes(3);
  for (int i = 0; i < 3; ++i) {
    clients.push_back(std::make_unique<sqldb::PgClient>(
        net, "inst-" + std::to_string(i), "rddr-out:5432", "app", "flow-1"));
    clients[static_cast<size_t>(i)]->query(
        "SELECT a FROM t;", [&outcomes, i](sqldb::QueryOutcome out) {
          outcomes[static_cast<size_t>(i)] = std::move(out);
        });
  }
  sim.run_until_idle();
  for (const auto& out : outcomes) {
    ASSERT_FALSE(out.failed()) << out.error_message;
    ASSERT_EQ(out.rows.size(), 1u);
    EXPECT_EQ(out.rows[0][0].value(), "7");
  }
  // The backend served the query ONCE (merged), not three times.
  EXPECT_EQ(backend.queries_served(), 1u);
  EXPECT_EQ(bus.count(), 0u);
}

TEST_F(ProxyTest, OutgoingProxyCatchesDivergingRequest) {
  // One instance sends different SQL. kStrict cuts every instance off;
  // kQuorum forwards the 2-of-3 majority's query once and outvotes the
  // divergent instance, which is cut off and written off for good.
  for (DegradationPolicy policy :
       {DegradationPolicy::kStrict, DegradationPolicy::kQuorum}) {
    SCOPED_TRACE(static_cast<int>(policy));
    World w;
    auto db = std::make_shared<sqldb::Database>(sqldb::minipg_info("13.0"));
    sqldb::SqlServer::Options so;
    so.address = "backend:5432";
    sqldb::SqlServer backend(w.net, w.host, db, so);

    OutgoingProxy::Config cfg;
    cfg.listen_address = "rddr-out:5432";
    cfg.backend_address = "backend:5432";
    cfg.group_size = 3;
    cfg.plugin = std::make_shared<PgPlugin>();
    cfg.degradation = policy;
    // The quorum input runs without the filter pair: its vote reports the
    // whole-unit reason rather than the masked per-line one.
    cfg.filter_pair = policy == DegradationPolicy::kStrict;
    if (policy != DegradationPolicy::kStrict)
      cfg.instance_sources = {"inst-0", "inst-1", "inst-2"};
    DivergenceBus bus;
    OutgoingProxy proxy(w.net, w.host, cfg, &bus);

    std::vector<std::unique_ptr<sqldb::PgClient>> clients;
    std::vector<bool> lost(3, false);
    for (size_t i = 0; i < 3; ++i) {
      clients.push_back(std::make_unique<sqldb::PgClient>(
          w.net, "inst-" + std::to_string(i), "rddr-out:5432", "app",
          "flow-1"));
      std::string sql = i < 2 ? "SELECT 1;" : "SELECT 1; -- sanitized";
      clients[i]->query(sql, [&lost, i](sqldb::QueryOutcome out) {
        lost[i] = out.connection_lost;
      });
    }
    w.sim.run_until_idle();
    if (policy == DegradationPolicy::kStrict) {
      EXPECT_EQ(lost, (std::vector<bool>{true, true, true}));  // all cut off
      EXPECT_EQ(backend.queries_served(), 0u);  // nothing reached the backend
      EXPECT_EQ(bus.count(), 1u);
      continue;
    }
    EXPECT_EQ(backend.queries_served(), 1u);
    EXPECT_EQ(bus.count(), 0u);
    ASSERT_EQ(bus.records().size(), 1u);
    EXPECT_EQ(bus.records()[0].verdict, "outvote");
    EXPECT_EQ(bus.records()[0].reason, "Query SQL differs across instances");
    EXPECT_EQ(proxy.stats().quorum_outvotes, 1u);
    EXPECT_EQ(proxy.stats().degraded_sessions, 1u);
    EXPECT_EQ(lost, (std::vector<bool>{false, false, true}));
    EXPECT_EQ(proxy.health().state(2), HealthTracker::State::kDead);
  }
}

TEST_F(ProxyTest, OutgoingProxyGroupWindowCatchesMissingInstance) {
  // kStrict: an instance that never dials in is divergence-by-absence.
  // Non-strict policies treat a no-show as unavailability: the window
  // completes the group with whoever came, down to the floor
  // (two for kQuorum, one uncompared member for kFailOpen).
  struct Case {
    DegradationPolicy policy;
    size_t joined;
  };
  for (Case c : {Case{DegradationPolicy::kStrict, 2},
                 Case{DegradationPolicy::kQuorum, 1},
                 Case{DegradationPolicy::kQuorum, 2},
                 Case{DegradationPolicy::kFailOpen, 1},
                 Case{DegradationPolicy::kFailOpen, 2}}) {
    SCOPED_TRACE(testing::Message()
                 << "policy " << static_cast<int>(c.policy) << ", joined "
                 << c.joined);
    World w;
    auto db = std::make_shared<sqldb::Database>(sqldb::minipg_info("13.0"));
    sqldb::SqlServer::Options so;
    so.address = "backend:5432";
    sqldb::SqlServer backend(w.net, w.host, db, so);

    OutgoingProxy::Config cfg;
    cfg.listen_address = "rddr-out:5432";
    cfg.backend_address = "backend:5432";
    cfg.group_size = 3;
    cfg.plugin = std::make_shared<PgPlugin>();
    cfg.group_window = 50 * sim::kMillisecond;
    cfg.degradation = c.policy;
    if (c.policy != DegradationPolicy::kStrict)
      cfg.instance_sources = {"inst-0", "inst-1", "inst-2"};
    DivergenceBus bus;
    OutgoingProxy proxy(w.net, w.host, cfg, &bus);

    std::vector<std::unique_ptr<sqldb::PgClient>> clients;
    for (size_t i = 0; i < c.joined; ++i) {
      clients.push_back(std::make_unique<sqldb::PgClient>(
          w.net, "inst-" + std::to_string(i), "rddr-out:5432", "app",
          "flow-1"));
      if (c.policy != DegradationPolicy::kStrict)
        clients.back()->query("SELECT 1;", [](sqldb::QueryOutcome) {});
    }
    w.sim.run_until_idle();
    const ProxyStats st = proxy.stats();
    if (c.policy == DegradationPolicy::kStrict) {
      ASSERT_EQ(bus.count(), 1u);
      EXPECT_NE(bus.records()[0].reason.find("2 of 3"), std::string::npos);
    } else if (c.policy == DegradationPolicy::kQuorum && c.joined == 1) {
      ASSERT_EQ(bus.count(), 1u);
      EXPECT_NE(bus.records()[0].reason.find(
                    "1 of 3 instances is below the degradation floor"),
                std::string::npos);
      EXPECT_EQ(backend.queries_served(), 0u);
    } else if (c.joined == 1) {  // kFailOpen: the sole member is uncompared
      EXPECT_EQ(bus.count(), 0u);
      EXPECT_EQ(backend.queries_served(), 1u);
      EXPECT_EQ(st.passthrough_sessions, 1u);
      EXPECT_EQ(st.instance_unreachable, 2u);
    } else {
      EXPECT_EQ(bus.count(), 0u);
      EXPECT_EQ(backend.queries_served(), 1u);
      EXPECT_EQ(st.degraded_sessions, 1u);
      EXPECT_EQ(st.instance_unreachable, 1u);
      EXPECT_EQ(st.quarantines, 1u);
    }
  }
}

TEST_F(ProxyTest, BusAbortsIncomingSessionsOnOutgoingDivergence) {
  // Incoming proxy guards HTTP instances that each call a backend through
  // the outgoing proxy; when the outgoing proxy reports divergence, the
  // client's session is aborted with the intervention page.
  DivergenceBus bus;

  IncomingProxy::Config in_cfg;
  in_cfg.listen_address = "svc:80";
  in_cfg.instance_addresses = {"svc-0:80", "svc-1:80"};
  in_cfg.plugin = std::make_shared<HttpPlugin>();
  IncomingProxy incoming(net, host, in_cfg, &bus);

  // Instances that never answer (they would "wait for the backend").
  HttpServer::Options o0, o1;
  o0.address = "svc-0:80";
  o1.address = "svc-1:80";
  HttpServer s0(net, host, o0), s1(net, host, o1);
  auto hang = [](const http::Request&, services::Responder) {};
  s0.set_handler(hang);
  s1.set_handler(hang);

  int status = -2;
  Bytes body;
  HttpClient client(net, "client");
  client.get("svc:80", "/", [&](int s, const http::Response* r) {
    status = s;
    if (r) body = r->body;
  });
  auto report = [&](const std::string& proxy, const std::string& verdict) {
    DivergenceRecord rec;
    rec.time = sim.now();
    rec.proxy = proxy;
    rec.verdict = verdict;
    rec.reason = "backend query diverged";
    bus.report(rec);
  };
  // A sibling's outvote is absorbed, and a record carrying the proxy's own
  // name is its own report: neither aborts the session.
  sim.schedule(3 * sim::kMillisecond, [&] {
    report("rddr-out", "outvote");
    report(in_cfg.name, "intervention");
  });
  sim.run_until(4 * sim::kMillisecond);
  EXPECT_EQ(status, -2);
  EXPECT_EQ(incoming.stats().divergences, 0u);
  EXPECT_EQ(net.live_connections("client"), 1u);
  // While the client waits, the outgoing proxy reports divergence.
  sim.schedule(5 * sim::kMillisecond,
               [&] { report("rddr-out", "intervention"); });
  sim.run_until_idle();
  EXPECT_EQ(status, 403);
  EXPECT_NE(body.find("RDDR intervened"), Bytes::npos);
  EXPECT_EQ(incoming.stats().divergences, 1u);
}

TEST_F(ProxyTest, BusAbortsOutgoingGroupsOnIncomingDivergence) {
  // The reverse direction: the outgoing proxy holds an active flow group
  // when the incoming proxy reports divergence — the group (instance legs
  // and backend leg) must be torn down so nothing tainted reaches the
  // backend.
  auto db = std::make_shared<sqldb::Database>(sqldb::minipg_info("13.0"));
  sqldb::SqlServer::Options so;
  so.address = "backend:5432";
  sqldb::SqlServer backend(net, host, db, so);

  OutgoingProxy::Config cfg;
  cfg.listen_address = "rddr-out:5432";
  cfg.backend_address = "backend:5432";
  cfg.group_size = 2;
  cfg.plugin = std::make_shared<PgPlugin>();
  DivergenceBus bus;
  OutgoingProxy proxy(net, host, cfg, &bus);

  sqldb::PgClient a(net, "inst-0", "rddr-out:5432", "app", "flow-1");
  sqldb::PgClient b(net, "inst-1", "rddr-out:5432", "app", "flow-1");
  sim.run_until(20 * sim::kMillisecond);
  ASSERT_FALSE(a.broken());
  ASSERT_FALSE(b.broken());

  auto report = [&](const std::string& proxy, const std::string& verdict) {
    DivergenceRecord rec;
    rec.time = sim.now();
    rec.proxy = proxy;
    rec.verdict = verdict;
    rec.reason = "client response diverged";
    bus.report(rec);
  };
  // A sibling's outvote is absorbed, and a record carrying the proxy's own
  // name is its own report: neither tears the group down.
  report("rddr-in", "outvote");
  report(cfg.name, "intervention");
  sim.run_until(40 * sim::kMillisecond);
  EXPECT_FALSE(a.broken());
  EXPECT_FALSE(b.broken());
  EXPECT_EQ(proxy.stats().divergences, 0u);
  EXPECT_EQ(net.live_connections("backend"), 1u);

  report("rddr-in", "intervention");
  sim.run_until_idle();
  EXPECT_TRUE(a.broken());
  EXPECT_TRUE(b.broken());
  EXPECT_EQ(proxy.stats().divergences, 1u);
  EXPECT_EQ(net.live_connections("backend"), 0u);
}

TEST(ProxyCounters, TableBindsEveryRegistryNameToItsStatsField) {
  // Spelled out by hand on purpose: a table entry that renames a metric or
  // drops a field must fail here.
  struct Field {
    const char* name;
    uint64_t ProxyStats::*field;
  };
  const std::vector<Field> fields = {
      {"p.sessions", &ProxyStats::sessions},
      {"p.units_replicated", &ProxyStats::units_replicated},
      {"p.units_compared", &ProxyStats::units_compared},
      {"p.divergences", &ProxyStats::divergences},
      {"p.timeouts", &ProxyStats::timeouts},
      {"p.idle_sheds", &ProxyStats::idle_sheds},
      {"p.passthrough_sessions", &ProxyStats::passthrough_sessions},
      {"p.signature_blocks", &ProxyStats::signature_blocks},
      {"p.path_blocks", &ProxyStats::path_blocks},
      {"p.instance_unreachable", &ProxyStats::instance_unreachable},
      {"p.quarantines", &ProxyStats::quarantines},
      {"p.reconnects", &ProxyStats::reconnects},
      {"p.degraded_sessions", &ProxyStats::degraded_sessions},
      {"p.quorum_outvotes", &ProxyStats::quorum_outvotes},
      {"p.resyncs", &ProxyStats::resyncs},
      {"p.replacements", &ProxyStats::replacements},
      {"p.journal_replayed_requests", &ProxyStats::journal_replayed_requests},
      {"p.pages_shipped", &ProxyStats::pages_shipped},
      {"p.wal_bytes_replayed", &ProxyStats::wal_bytes_replayed},
      {"p.admitted", &ProxyStats::admitted},
      {"p.shed", &ProxyStats::shed},
  };
  ASSERT_EQ(fields.size(), 21u);
  ASSERT_EQ(sizeof(ProxyStats), fields.size() * sizeof(uint64_t))
      << "ProxyStats has a field this list does not name";

  for (size_t i = 0; i < fields.size(); ++i) {
    obs::MetricsRegistry reg;
    ProxyCounters counters;
    counters.bind(reg, "p");
    ASSERT_EQ(reg.to_json().find("counters")->as_object().size(),
              fields.size());
    ASSERT_NE(reg.find_counter(fields[i].name), nullptr) << fields[i].name;
    reg.counter(fields[i].name)->inc();
    ProxyStats snap = counters.snapshot();
    for (size_t j = 0; j < fields.size(); ++j)
      EXPECT_EQ(snap.*fields[j].field, i == j ? 1u : 0u)
          << "bumped " << fields[i].name << ", read " << fields[j].name;
  }

  obs::MetricsRegistry reg;
  ProxyCounters counters;
  counters.bind(reg, "p");
  reg.histogram("p.compare_ms")->observe(1.0);
  reg.histogram("p.queued_ms")->observe(2.0);
  reg.histogram("p.queued_ms")->observe(3.0);
  EXPECT_EQ(counters.compare_ms->count(), 1u);
  EXPECT_EQ(counters.queued_ms->count(), 2u);

  ProxyStats a, b;
  for (size_t i = 0; i < fields.size(); ++i) {
    a.*fields[i].field = i + 1;
    b.*fields[i].field = 100 * (i + 1);
  }
  a += b;
  for (size_t i = 0; i < fields.size(); ++i)
    EXPECT_EQ(a.*fields[i].field, 101 * (i + 1)) << fields[i].name;
}

}  // namespace
}  // namespace rddr::core
