// Unit tests for the simulated microservices: HTTP framework, echo/ASLR,
// static server (range CVE mechanics), reverse proxies, REST variants,
// DVWA, tcp proxy, orchestrator.
#include <gtest/gtest.h>

#include "netsim/host.h"
#include "netsim/network.h"
#include "services/dvwa.h"
#include "services/echo_vuln.h"
#include "services/http_service.h"
#include "services/orchestrator.h"
#include "services/rest_service.h"
#include "services/reverse_proxy.h"
#include "services/simple_api.h"
#include "services/static_server.h"
#include "services/variant_libs.h"
#include "services/tcp_proxy.h"
#include "sqldb/server.h"

namespace rddr::services {
namespace {

class ServicesTest : public ::testing::Test {
 protected:
  sim::Simulator simulator;
  sim::Network net{simulator, 10 * sim::kMicrosecond};
  sim::Host host{simulator, "node", 8, 8LL << 30};

  struct Reply {
    int status = -2;
    http::Response resp;
  };

  Reply get(const std::string& address, const std::string& target) {
    Reply out;
    HttpClient client(net, "test");
    client.get(address, target, [&](int s, const http::Response* r) {
      out.status = s;
      if (r) out.resp = *r;
    });
    simulator.run_until_idle();
    return out;
  }

  Reply send(const std::string& address, http::Request req) {
    Reply out;
    HttpClient client(net, "test");
    client.request(address, std::move(req), [&](int s, const http::Response* r) {
      out.status = s;
      if (r) out.resp = *r;
    });
    simulator.run_until_idle();
    return out;
  }

  Reply post_json(const std::string& address, const std::string& target,
                  const std::string& body) {
    http::Request req;
    req.method = "POST";
    req.target = target;
    req.headers.set("Content-Type", "application/json");
    req.body = body;
    return send(address, std::move(req));
  }
};

// ---------- HttpServer framework ----------

TEST_F(ServicesTest, HttpServerServesHandler) {
  HttpServer::Options o;
  o.address = "svc:80";
  HttpServer server(net, host, o);
  server.set_handler([](const http::Request& req, Responder r) {
    r(http::make_response(200, "echo:" + req.target));
  });
  auto reply = get("svc:80", "/abc");
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.resp.body, "echo:/abc");
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST_F(ServicesTest, HttpServerRespondsServiceUnavailableWithoutHandler) {
  HttpServer::Options o;
  o.address = "svc:80";
  HttpServer server(net, host, o);
  EXPECT_EQ(get("svc:80", "/").status, 503);
}

TEST_F(ServicesTest, HttpServer400OnGarbage) {
  HttpServer::Options o;
  o.address = "svc:80";
  HttpServer server(net, host, o);
  server.set_handler([](const http::Request&, Responder r) {
    r(http::make_response(200, "x"));
  });
  auto conn = net.connect("svc:80", {.source = "t"});
  Bytes got;
  conn->set_on_data([&](ByteView d) { got += Bytes(d); });
  conn->send("NONSENSE\r\n\r\n");
  simulator.run_until_idle();
  EXPECT_NE(got.find("400"), Bytes::npos);
}

TEST_F(ServicesTest, HttpServerAsyncHandlerResponds) {
  HttpServer::Options o;
  o.address = "svc:80";
  HttpServer server(net, host, o);
  server.set_handler([this](const http::Request&, Responder r) {
    simulator.schedule(5 * sim::kMillisecond,
                       [r] { r(http::make_response(200, "later")); });
  });
  auto reply = get("svc:80", "/");
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.resp.body, "later");
}

TEST_F(ServicesTest, HttpServerChargesCpu) {
  HttpServer::Options o;
  o.address = "svc:80";
  o.cpu_per_request = 1e-3;
  HttpServer server(net, host, o);
  server.set_handler([](const http::Request&, Responder r) {
    r(http::make_response(200, "x"));
  });
  double before = host.busy_core_seconds();
  get("svc:80", "/");
  EXPECT_NEAR(host.busy_core_seconds() - before, 1e-3, 1e-6);
}

// ---------- EchoVulnServer ----------

TEST_F(ServicesTest, EchoWithinBufferIsExact) {
  EchoVulnServer::Options o;
  o.address = "echo:7";
  EchoVulnServer echo(net, host, o);
  auto conn = net.connect("echo:7", {.source = "t"});
  Bytes got;
  conn->set_on_data([&](ByteView d) { got += Bytes(d); });
  conn->send("short message\n");
  simulator.run_until_idle();
  EXPECT_EQ(got, "short message\n");
}

TEST_F(ServicesTest, EchoOverflowLeaksPointer) {
  EchoVulnServer::Options o;
  o.address = "echo:7";
  o.buffer_size = 16;
  EchoVulnServer echo(net, host, o);
  auto conn = net.connect("echo:7", {.source = "t"});
  Bytes got;
  conn->set_on_data([&](ByteView d) { got += Bytes(d); });
  conn->send(Bytes(20, 'B') + "\n");
  simulator.run_until_idle();
  // First 16 bytes echoed, then 16 hex chars of the adjacent pointer.
  EXPECT_EQ(got.substr(0, 16), Bytes(16, 'B'));
  EXPECT_EQ(got.size(), 16 + 16 + 1u);
}

TEST_F(ServicesTest, AslrSeedsYieldDistinctSpaces) {
  EchoVulnServer::Options o0, o1, o2;
  o0.address = "e0:7";
  o0.rng_seed = 1;
  o1.address = "e1:7";
  o1.rng_seed = 2;
  o2.address = "e2:7";
  o2.aslr = false;
  EchoVulnServer a(net, host, o0), b(net, host, o1), c(net, host, o2);
  EXPECT_NE(a.leaked_pointer(), b.leaked_pointer());
  EchoVulnServer::Options o3 = o2;
  o3.address = "e3:7";
  EchoVulnServer d(net, host, o3);
  EXPECT_EQ(c.leaked_pointer(), d.leaked_pointer());  // no ASLR: same base
}

// ---------- StaticFileServer (CVE-2017-7529 mechanics) ----------

class WsgxTest : public ServicesTest {
 protected:
  Bytes doc = "0123456789abcdefghij";  // 20 bytes

  std::unique_ptr<StaticFileServer> make(const std::string& version) {
    StaticFileServer::Options o;
    o.address = "web:80";
    o.version = version;
    auto s = std::make_unique<StaticFileServer>(net, host, o);
    s->add_document("/doc", doc, "SECRETHEADER|");
    return s;
  }

  Reply ranged(const std::string& range) {
    http::Request req;
    req.method = "GET";
    req.target = "/doc";
    req.headers.set("Range", range);
    return send("web:80", std::move(req));
  }
};

TEST_F(WsgxTest, FullAndNotFound) {
  auto s = make("1.13.2");
  EXPECT_EQ(get("web:80", "/doc").resp.body, doc);
  EXPECT_EQ(get("web:80", "/missing").status, 404);
}

TEST_F(WsgxTest, ValidRangesSameAcrossVersions) {
  for (const char* v : {"1.13.2", "1.13.4"}) {
    auto s = make(v);
    EXPECT_EQ(ranged("bytes=0-3").resp.body, "0123") << v;
    EXPECT_EQ(ranged("bytes=5-").resp.body, doc.substr(5)) << v;
    EXPECT_EQ(ranged("bytes=-4").resp.body, "ghij") << v;
    EXPECT_EQ(ranged("bytes=0-1,5-6").resp.body, "0156") << v;
    EXPECT_EQ(ranged("bytes=100-200").status, 416) << v;
  }
}

TEST_F(WsgxTest, OversizedSuffixLeaksOnVulnerableVersion) {
  auto s = make("1.13.2");
  auto r = ranged("bytes=-1000");
  EXPECT_EQ(r.status, 206);
  EXPECT_NE(r.resp.body.find("SECRETHEADER"), Bytes::npos);
}

TEST_F(WsgxTest, OversizedSuffixClampedOnFixedVersion) {
  auto s = make("1.13.4");
  auto r = ranged("bytes=-1000");
  EXPECT_EQ(r.resp.body.find("SECRETHEADER"), Bytes::npos);
  EXPECT_EQ(r.resp.body, doc);  // clamped to the whole document
}

TEST_F(WsgxTest, VulnerabilityGateFollowsVersionOrder) {
  StaticFileServer::Options o;
  o.address = "x:80";
  o.version = "1.13.2";
  EXPECT_TRUE(StaticFileServer(net, host, o).vulnerable());
  net.unlisten("x:80");
  o.version = "1.13.3";
  EXPECT_FALSE(StaticFileServer(net, host, o).vulnerable());
  net.unlisten("x:80");
  o.version = "1.14.0";
  EXPECT_FALSE(StaticFileServer(net, host, o).vulnerable());
}

// ---------- ReverseProxy + SimpleApi ----------

class ProxyPairTest : public ServicesTest {
 protected:
  void SetUp() override {
    SimpleApiService::Options api;
    api.address = "s1:80";
    s1 = std::make_unique<SimpleApiService>(net, host, api);
  }

  std::unique_ptr<ReverseProxy> make(ReverseProxy::Flavor flavor,
                                     const std::string& address) {
    ReverseProxy::Options o;
    o.address = address;
    o.backend_address = "s1:80";
    o.flavor = flavor;
    o.instance_name = address;
    return std::make_unique<ReverseProxy>(net, host, o);
  }

  std::unique_ptr<SimpleApiService> s1;
};

TEST_F(ProxyPairTest, ForwardsAndPipesBack) {
  auto hap = make(ReverseProxy::Flavor::kHap153, "edge:80");
  http::Request req;
  req.method = "POST";
  req.target = "/api/echo";
  req.body = "data";
  auto r = send("edge:80", std::move(req));
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.resp.body, "public ok: data");
}

TEST_F(ProxyPairTest, AclBlocksAdminDirectly) {
  auto hap = make(ReverseProxy::Flavor::kHap153, "edge:80");
  EXPECT_EQ(get("edge:80", "/admin").status, 403);
  EXPECT_EQ(s1->admin_hits(), 0u);
}

constexpr char kSmuggle[] =
    "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 37\r\n"
    "Transfer-Encoding: \x0b"
    "chunked\r\n\r\n0\r\n\r\nGET /admin HTTP/1.1\r\nHost: x\r\n\r\n";

TEST_F(ProxyPairTest, HapSmugglesThroughToAdmin) {
  auto hap = make(ReverseProxy::Flavor::kHap153, "edge:80");
  auto conn = net.connect("edge:80", {.source = "attacker"});
  Bytes got;
  conn->set_on_data([&](ByteView d) { got += Bytes(d); });
  conn->send(ByteView(kSmuggle, sizeof(kSmuggle) - 1));
  simulator.run_until_idle();
  EXPECT_EQ(s1->admin_hits(), 1u);
  EXPECT_NE(got.find("SECRET-ADMIN-TOKEN"), Bytes::npos);
}

TEST_F(ProxyPairTest, NgxRejectsAmbiguousFraming) {
  auto ngx = make(ReverseProxy::Flavor::kNgx, "edge:80");
  auto conn = net.connect("edge:80", {.source = "attacker"});
  Bytes got;
  conn->set_on_data([&](ByteView d) { got += Bytes(d); });
  conn->send(ByteView(kSmuggle, sizeof(kSmuggle) - 1));
  simulator.run_until_idle();
  EXPECT_EQ(s1->admin_hits(), 0u);
  EXPECT_NE(got.find("400"), Bytes::npos);
}

// ---------- RestLibraryService ----------

TEST_F(ServicesTest, RestServiceRejectsWrongRoute) {
  RestLibraryService::Options o;
  o.address = "svc:80";
  o.kind = RestLibraryService::Kind::kMarkdown;
  o.library = "mdone";
  RestLibraryService svc(net, host, o);
  EXPECT_EQ(post_json("svc:80", "/wrong", "{}").status, 404);
  EXPECT_EQ(post_json("svc:80", "/render", "not json").status, 400);
  EXPECT_EQ(post_json("svc:80", "/render", "{\"oops\":1}").status, 400);
}

TEST_F(ServicesTest, RestServiceRendersMarkdown) {
  RestLibraryService::Options o;
  o.address = "svc:80";
  o.kind = RestLibraryService::Kind::kMarkdown;
  o.library = "mdone";
  RestLibraryService svc(net, host, o);
  auto r = post_json("svc:80", "/render", R"({"markdown":"# Hi"})");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.resp.body.find("<h1>Hi</h1>"), Bytes::npos);
}

TEST_F(ServicesTest, RestRsaRoundTrip) {
  RestLibraryService::Options o;
  o.address = "svc:80";
  o.kind = RestLibraryService::Kind::kRsa;
  o.library = "cryptolite";
  RestLibraryService svc(net, host, o);
  Bytes cipher = lib::rsa_encrypt("top secret", o.rsa_key, 3);
  auto r = post_json("svc:80", "/decrypt",
                     R"({"ciphertext_hex":")" + to_hex(cipher) + "\"}");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.resp.body.find("top secret"), Bytes::npos);
}

// ---------- DVWA ----------

TEST_F(ServicesTest, DvwaQueryConstructionBySecurityLevel) {
  DvwaApp::Options lo, hi;
  lo.address = "d0:80";
  lo.security = DvwaApp::Security::kLow;
  hi.address = "d1:80";
  hi.security = DvwaApp::Security::kHigh;
  DvwaApp low(net, host, lo), high(net, host, hi);
  EXPECT_EQ(low.build_query("' OR '1'='1"),
            "SELECT first_name, last_name FROM users WHERE user_id = "
            "'' OR '1'='1' ORDER BY first_name, last_name;");
  EXPECT_EQ(high.build_query("' OR '1'='1"),
            "SELECT first_name, last_name FROM users WHERE user_id = "
            "''' OR ''1''=''1' ORDER BY first_name, last_name;");
  // Benign input produces identical queries at every level.
  EXPECT_EQ(low.build_query("7"), high.build_query("7"));
}

TEST_F(ServicesTest, DvwaRejectsBadCsrfToken) {
  auto db = std::make_shared<sqldb::Database>(sqldb::minipg_info("13.0"));
  {
    sqldb::Session s(*db, "postgres");
    s.execute("CREATE TABLE users (user_id text, first_name text, "
              "last_name text); GRANT SELECT ON users TO dvwa;");
  }
  sqldb::SqlServer::Options so;
  so.address = "db:5432";
  sqldb::SqlServer server(net, host, db, so);
  DvwaApp::Options o;
  o.address = "dvwa:80";
  o.db_address = "db:5432";
  DvwaApp app(net, host, o);
  http::Request req;
  req.method = "POST";
  req.target = "/vulnerabilities/sqli";
  req.headers.set("Content-Type", "application/x-www-form-urlencoded");
  req.body = "id=1&user_token=WRONGTOKEN123456&Submit=Submit";
  EXPECT_EQ(send("dvwa:80", std::move(req)).status, 403);
  EXPECT_EQ(app.token_failures(), 1u);
}

TEST_F(ServicesTest, DvwaTokenIsSingleUse) {
  auto db = std::make_shared<sqldb::Database>(sqldb::minipg_info("13.0"));
  {
    sqldb::Session s(*db, "postgres");
    s.execute("CREATE TABLE users (user_id text, first_name text, "
              "last_name text);"
              "INSERT INTO users VALUES ('1','A','B');"
              "GRANT SELECT ON users TO dvwa;");
  }
  sqldb::SqlServer::Options so;
  so.address = "db:5432";
  sqldb::SqlServer server(net, host, db, so);
  DvwaApp::Options o;
  o.address = "dvwa:80";
  o.db_address = "db:5432";
  DvwaApp app(net, host, o);
  auto page = get("dvwa:80", "/vulnerabilities/sqli");
  size_t pos = page.resp.body.find("value=\"") + 7;
  std::string token =
      page.resp.body.substr(pos, page.resp.body.find('"', pos) - pos);
  auto mk = [&] {
    http::Request req;
    req.method = "POST";
    req.target = "/vulnerabilities/sqli";
    req.headers.set("Content-Type", "application/x-www-form-urlencoded");
    req.body = "id=1&user_token=" + token + "&Submit=Submit";
    return req;
  };
  EXPECT_EQ(send("dvwa:80", mk()).status, 200);
  EXPECT_EQ(send("dvwa:80", mk()).status, 403);  // replay rejected
}

// ---------- TcpProxy ----------

TEST_F(ServicesTest, TcpProxyRelaysBothWays) {
  net.listen("backend:1", [](sim::ConnPtr c) {
    c->set_on_data([c](ByteView d) { c->send(Bytes("pong:") + Bytes(d)); });
  });
  TcpProxy::Options o;
  o.address = "front:1";
  o.backend_address = "backend:1";
  TcpProxy proxy(net, host, o);
  auto conn = net.connect("front:1", {.source = "t"});
  Bytes got;
  conn->set_on_data([&](ByteView d) { got += Bytes(d); });
  conn->send("ping");
  simulator.run_until_idle();
  EXPECT_EQ(got, "pong:ping");
  EXPECT_EQ(proxy.bytes_relayed(), 4u + 9u);
}

TEST_F(ServicesTest, TcpProxyClosesWithBackendGone) {
  TcpProxy::Options o;
  o.address = "front:1";
  o.backend_address = "nowhere:1";
  TcpProxy proxy(net, host, o);
  auto conn = net.connect("front:1", {.source = "t"});
  bool closed = false;
  conn->set_on_close([&] { closed = true; });
  simulator.run_until_idle();
  EXPECT_TRUE(closed);
}

// ---------- Orchestrator ----------

TEST_F(ServicesTest, OrchestratorDeploysFromImages) {
  Orchestrator orch(simulator, net);
  orch.add_host("m1", 8, 8LL << 30);
  orch.register_image("echo", [&](const ContainerSpec& spec) {
    EchoVulnServer::Options o;
    o.address = spec.address;
    o.rng_seed = spec.rng_seed;
    o.aslr = spec.tag == "aslr";
    return std::make_shared<EchoVulnServer>(net, *spec.host, o);
  });
  auto addrs = orch.deploy_replicas("echo", "echo", {"aslr", "aslr"}, "m1", 7);
  ASSERT_EQ(addrs.size(), 2u);
  EXPECT_EQ(addrs[0], "echo-0:7");
  EXPECT_EQ(orch.container_count(), 2u);
  EXPECT_EQ(orch.host_of("echo-0"), "m1");
  // Replicas from the same image still get distinct randomness streams.
  auto e0 = orch.get<EchoVulnServer>("echo-0");
  auto e1 = orch.get<EchoVulnServer>("echo-1");
  ASSERT_NE(e0, nullptr);
  EXPECT_NE(e0->leaked_pointer(), e1->leaked_pointer());
  // The containers actually serve traffic.
  auto conn = net.connect("echo-1:7", {.source = "t"});
  Bytes got;
  conn->set_on_data([&](ByteView d) { got += Bytes(d); });
  conn->send("hi\n");
  simulator.run_until_idle();
  EXPECT_EQ(got, "hi\n");
}

TEST_F(ServicesTest, OrchestratorStopFreesAddress) {
  Orchestrator orch(simulator, net);
  orch.add_host("m1", 8, 8LL << 30);
  orch.register_image("api", [&](const ContainerSpec& spec) {
    SimpleApiService::Options o;
    o.address = spec.address;
    return std::make_shared<SimpleApiService>(net, *spec.host, o);
  });
  orch.deploy("api-1", "api", "v1", "m1", "api:80");
  EXPECT_TRUE(net.has_listener("api:80"));
  orch.stop("api-1");
  EXPECT_FALSE(net.has_listener("api:80"));
  EXPECT_EQ(orch.container_count(), 0u);
}

TEST_F(ServicesTest, OrchestratorStopSeversLiveConnections) {
  // A stopped container's sockets die with it. A request already in
  // flight toward the stopped service must be dropped, not delivered into
  // the destroyed object (use-after-free regression), and the client must
  // observe the close.
  Orchestrator orch(simulator, net);
  orch.add_host("m1", 8, 8LL << 30);
  orch.register_image("api", [&](const ContainerSpec& spec) {
    SimpleApiService::Options o;
    o.address = spec.address;
    return std::make_shared<SimpleApiService>(net, *spec.host, o);
  });
  orch.deploy("api-1", "api", "v1", "m1", "api:80");
  auto conn = net.connect("api:80", {.source = "t"});
  simulator.run_until_idle();
  ASSERT_TRUE(conn->is_open());
  bool closed = false;
  conn->set_on_close([&] { closed = true; });
  conn->send("GET / HTTP/1.1\r\nHost: api\r\n\r\n");  // in flight at stop
  orch.stop("api-1");
  simulator.run_until_idle();
  EXPECT_TRUE(closed);
  EXPECT_FALSE(conn->is_open());
}

TEST_F(ServicesTest, OrchestratorRejectsUnknownImageAndDuplicates) {
  Orchestrator orch(simulator, net);
  orch.add_host("m1", 8, 8LL << 30);
  EXPECT_THROW(orch.deploy("x", "ghost", "v1", "m1"), std::runtime_error);
  orch.register_image("api", [&](const ContainerSpec& spec) {
    SimpleApiService::Options o;
    o.address = spec.address;
    return std::make_shared<SimpleApiService>(net, *spec.host, o);
  });
  orch.deploy("x", "api", "v1", "m1");
  EXPECT_THROW(orch.deploy("x", "api", "v1", "m1"), std::runtime_error);
  EXPECT_THROW(orch.deploy("y", "api", "v1", "ghost-host"),
               std::runtime_error);
}

TEST_F(ServicesTest, OrchestratorRestartDerivesFreshIncarnationSeeds) {
  // A restarted process must not replay its previous life's randomness:
  // each incarnation gets a distinct (but deterministic) seed.
  auto seeds_for = [&](uint64_t orch_seed) {
    Orchestrator orch(simulator, net, orch_seed);
    orch.add_host("m1", 8, 8LL << 30);
    std::vector<uint64_t> seeds;
    orch.register_image("rec", [&](const ContainerSpec& spec) {
      seeds.push_back(spec.rng_seed);
      return std::make_shared<int>(0);
    });
    orch.deploy("svc", "rec", "v1", "m1", "svc:80");
    for (int k = 0; k < 2; ++k) {
      orch.crash("svc");
      orch.restart("svc");
    }
    return seeds;
  };
  auto seeds = seeds_for(11);
  ASSERT_EQ(seeds.size(), 3u);  // initial + two restarts
  EXPECT_NE(seeds[0], seeds[1]);
  EXPECT_NE(seeds[1], seeds[2]);
  EXPECT_NE(seeds[0], seeds[2]);
  // Deterministic: the same schedule reproduces the same seed sequence.
  EXPECT_EQ(seeds_for(11), seeds);
  EXPECT_NE(seeds_for(12), seeds);
}

TEST_F(ServicesTest, OrchestratorReplaceCreatesFreshLineage) {
  Orchestrator orch(simulator, net, 5);
  orch.add_host("m1", 8, 8LL << 30);
  std::map<std::string, uint64_t> seeds;
  orch.register_image("rec", [&](const ContainerSpec& spec) {
    seeds[spec.container_name] = spec.rng_seed;
    return std::make_shared<int>(0);
  });
  orch.deploy("pg-1", "rec", "13.0", "m1", "pg-1:5432");

  std::string a1 = orch.replace("pg-1");
  EXPECT_EQ(a1, "pg-1-r1:5432");  // lineage suffix, port preserved
  EXPECT_EQ(orch.container_count(), 1u);  // the old container is gone
  EXPECT_THROW(orch.crashed("pg-1"), std::runtime_error);

  // Replacing the replacement continues the lineage, not pg-1-r1-r1.
  std::string a2 = orch.replace("pg-1-r1");
  EXPECT_EQ(a2, "pg-1-r2:5432");
  EXPECT_EQ(orch.host_of("pg-1-r2"), "m1");
  // Every generation got its own seed.
  EXPECT_NE(seeds.at("pg-1"), seeds.at("pg-1-r1"));
  EXPECT_NE(seeds.at("pg-1-r1"), seeds.at("pg-1-r2"));
}

TEST_F(ServicesTest, OrchestratorAutoReplacementPolicy) {
  Orchestrator orch(simulator, net);
  orch.add_host("m1", 8, 8LL << 30);
  orch.register_image("rec", [&](const ContainerSpec&) {
    return std::make_shared<int>(0);
  });
  orch.deploy("svc", "rec", "v1", "m1", "svc:80");

  // The replacement is scheduled explicitly, as the chaos harness does.
  std::string replaced_with;
  simulator.schedule(100 * sim::kMillisecond, [&] {
    ASSERT_TRUE(orch.crashed("svc"));
    replaced_with = sim::Network::node_of(orch.replace("svc"));
  });

  orch.crash("svc");
  simulator.run_until(1 * sim::kSecond);
  EXPECT_EQ(replaced_with, "svc-r1");
  EXPECT_FALSE(orch.crashed("svc-r1"));
  EXPECT_THROW(orch.crashed("svc"), std::runtime_error);
}

}  // namespace
}  // namespace rddr::services
