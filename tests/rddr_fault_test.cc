// Fault injection and graceful degradation: netsim FaultPlan driving
// crashes/partitions under the three DegradationPolicy modes, plus the
// acceptance scenario — a pgbench-style run with a mid-run instance crash
// where kQuorum keeps serving and kStrict does not.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "netsim/fault.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "proto/http/coding.h"
#include "rddr/deployment.h"
#include "rddr/plugins.h"
#include "services/http_service.h"
#include "services/orchestrator.h"
#include "sqldb/client.h"
#include "workloads/harness.h"
#include "workloads/pgbench.h"

namespace rddr::core {
namespace {

using services::HttpClient;
using services::HttpServer;

class FaultTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  sim::Network net{sim, 10 * sim::kMicrosecond};
  sim::Host host{sim, "node", 8, 4LL << 30};
  sim::FaultPlan faults{net};

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

  /// Three minipg instances pg-0..pg-2 loaded with identical pgbench data.
  workloads::Replicas make_pg_instances() {
    sqldb::SqlServer::Options so;
    so.rng_seed = 20;
    return workloads::start_replicas(net, 3, workloads::Pgbench{100}, so,
                                     {&host});
  }

  IncomingProxy::Config pg_proxy_config(DegradationPolicy policy) {
    IncomingProxy::Config cfg;
    cfg.listen_address = "front:5432";
    cfg.instance_addresses = {"pg-0:5432", "pg-1:5432", "pg-2:5432"};
    cfg.plugin = std::make_shared<PgPlugin>();
    cfg.filter_pair = true;
    cfg.degradation = policy;
    cfg.health.reconnect_jitter = 0;  // deterministic probe times
    return cfg;
  }
};

// ---------- instance crash mid-session ----------

TEST_F(FaultTest, QuorumSurvivesInstanceCrashMidSession) {
  auto servers = make_pg_instances();
  DivergenceBus bus;
  IncomingProxy proxy(net, host, pg_proxy_config(DegradationPolicy::kQuorum),
                      &bus);

  sqldb::PgClient client(net, "client", "front:5432", "postgres");
  int ok = 0, bad = 0;
  auto tally = [&](sqldb::QueryOutcome o) { (o.failed() ? bad : ok)++; };
  client.query("SELECT abalance FROM pgbench_accounts WHERE aid = 1", tally);
  faults.crash_at(50 * sim::kMillisecond, "pg-2");
  sim.schedule(100 * sim::kMillisecond, [&] {
    client.query("SELECT abalance FROM pgbench_accounts WHERE aid = 2", tally);
  });
  sim.run_until(5 * sim::kSecond);

  EXPECT_EQ(ok, 2);
  EXPECT_EQ(bad, 0);
  EXPECT_FALSE(client.broken());
  EXPECT_EQ(proxy.stats().divergences, 0u);
  EXPECT_EQ(bus.count(), 0u);
  EXPECT_GE(proxy.stats().instance_unreachable, 1u);
  EXPECT_GE(proxy.stats().degraded_sessions, 1u);
  EXPECT_FALSE(proxy.health().is_healthy(2));
}

TEST_F(FaultTest, StrictRefusesAfterInstanceCrash) {
  auto servers = make_pg_instances();
  DivergenceBus bus;
  IncomingProxy proxy(net, host, pg_proxy_config(DegradationPolicy::kStrict),
                      &bus);

  sqldb::PgClient client(net, "client", "front:5432", "postgres");
  int ok = 0, bad = 0;
  auto tally = [&](sqldb::QueryOutcome o) { (o.failed() ? bad : ok)++; };
  client.query("SELECT abalance FROM pgbench_accounts WHERE aid = 1", tally);
  faults.crash_at(50 * sim::kMillisecond, "pg-2");
  sim.schedule(100 * sim::kMillisecond, [&] {
    client.query("SELECT abalance FROM pgbench_accounts WHERE aid = 2", tally);
  });
  sim.run_until(5 * sim::kSecond);

  EXPECT_EQ(ok, 1);   // first query, before the crash
  EXPECT_EQ(bad, 1);  // second query: unanimity impossible -> intervention
  EXPECT_TRUE(client.broken());
}

// ---------- crash then restart: backoff probe re-admits ----------

TEST_F(FaultTest, CrashThenRestartReconnectsAndReadmits) {
  auto servers = make_pg_instances();
  DivergenceBus bus;
  IncomingProxy proxy(net, host, pg_proxy_config(DegradationPolicy::kQuorum),
                      &bus);

  // pg-2 is down between 10ms and 500ms; the quarantine probe backoff
  // (100ms, 200ms, 400ms, ... no jitter) re-admits it on the first probe
  // after the restart.
  faults.crash_for(10 * sim::kMillisecond, 490 * sim::kMillisecond, "pg-2");

  sqldb::PgClient client(net, "client", "front:5432", "postgres");
  int ok = 0, bad = 0;
  auto tally = [&](sqldb::QueryOutcome o) { (o.failed() ? bad : ok)++; };
  sim.schedule(50 * sim::kMillisecond, [&] {
    client.query("SELECT abalance FROM pgbench_accounts WHERE aid = 1", tally);
  });
  sim.run_until(5 * sim::kSecond);

  EXPECT_EQ(ok, 1);
  EXPECT_EQ(bad, 0);
  EXPECT_GE(proxy.stats().quarantines, 1u);
  EXPECT_EQ(proxy.stats().reconnects, 1u);
  EXPECT_TRUE(proxy.health().is_healthy(2));

  // A fresh session after re-admission replicates to all three again.
  uint64_t degraded_before = proxy.stats().degraded_sessions;
  sqldb::PgClient client2(net, "client", "front:5432", "postgres");
  client2.query("SELECT abalance FROM pgbench_accounts WHERE aid = 2", tally);
  sim.run_until(6 * sim::kSecond);
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(proxy.stats().degraded_sessions, degraded_before);
  EXPECT_EQ(proxy.stats().divergences, 0u);
}

TEST_F(FaultTest, ReconnectGivesUpAndMarksInstanceDead) {
  auto servers = make_pg_instances();
  IncomingProxy::Config cfg = pg_proxy_config(DegradationPolicy::kQuorum);
  cfg.health.reconnect_max_attempts = 3;
  DivergenceBus bus;
  IncomingProxy proxy(net, host, cfg, &bus);

  faults.crash_at(10 * sim::kMillisecond, "pg-2");  // never restarted
  sqldb::PgClient client(net, "client", "front:5432", "postgres");
  int ok = 0, bad = 0;
  auto tally = [&](sqldb::QueryOutcome o) { (o.failed() ? bad : ok)++; };
  sim.schedule(50 * sim::kMillisecond, [&] {
    client.query("SELECT abalance FROM pgbench_accounts WHERE aid = 1", tally);
  });
  sim.run_until_idle();  // terminates: probing is bounded

  EXPECT_EQ(ok, 1);
  EXPECT_EQ(proxy.stats().reconnects, 0u);
  EXPECT_EQ(proxy.health().state(2), HealthTracker::State::kDead);
}

// ---------- quorum outvotes a divergent instance ----------

TEST_F(FaultTest, QuorumOutvotesDivergentInstance) {
  auto i0 = make_instance("svc-0:80", "public data");
  auto i1 = make_instance("svc-1:80", "public data");
  auto i2 = make_instance("svc-2:80", "public data AND A SECRET");

  IncomingProxy::Config cfg;
  cfg.listen_address = "svc:80";
  cfg.instance_addresses = {"svc-0:80", "svc-1:80", "svc-2:80"};
  cfg.plugin = std::make_shared<HttpPlugin>();
  cfg.degradation = DegradationPolicy::kQuorum;
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

  // The majority answer is served; the minority never reaches the client
  // and its instance is quarantined.
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "public data");
  EXPECT_EQ(proxy.stats().quorum_outvotes, 1u);
  EXPECT_EQ(proxy.stats().divergences, 0u);
  EXPECT_GE(proxy.stats().quarantines, 1u);
  EXPECT_FALSE(proxy.health().is_healthy(2));
  EXPECT_EQ(bus.count(), 0u);
}

TEST_F(FaultTest, QuorumStillIntervenesWhenNoMajority) {
  auto i0 = make_instance("svc-0:80", "answer A");
  auto i1 = make_instance("svc-1:80", "answer B");
  auto i2 = make_instance("svc-2:80", "answer C");

  IncomingProxy::Config cfg;
  cfg.listen_address = "svc:80";
  cfg.instance_addresses = {"svc-0:80", "svc-1:80", "svc-2:80"};
  cfg.plugin = std::make_shared<HttpPlugin>();
  cfg.degradation = DegradationPolicy::kQuorum;
  DivergenceBus bus;
  IncomingProxy proxy(net, host, cfg, &bus);

  int status = -2;
  HttpClient client(net, "client");
  client.get("svc:80", "/", [&](int s, const http::Response*) { status = s; });
  sim.run_until_idle();

  EXPECT_EQ(status, 403);
  EXPECT_EQ(proxy.stats().divergences, 1u);
  EXPECT_EQ(bus.count(), 1u);
}

// ---------- fail-open below two healthy instances ----------

TEST_F(FaultTest, FailOpenServesUncomparedWithAlertCounters) {
  auto i0 = make_instance("svc-0:80", "only survivor");
  auto i1 = make_instance("svc-1:80", "only survivor");
  auto i2 = make_instance("svc-2:80", "only survivor");

  IncomingProxy::Config cfg;
  cfg.listen_address = "svc:80";
  cfg.instance_addresses = {"svc-0:80", "svc-1:80", "svc-2:80"};
  cfg.plugin = std::make_shared<HttpPlugin>();
  cfg.degradation = DegradationPolicy::kFailOpen;
  DivergenceBus bus;
  IncomingProxy proxy(net, host, cfg, &bus);

  faults.crash_at(sim::kMillisecond, "svc-1");
  faults.crash_at(sim::kMillisecond, "svc-2");

  int status = -2;
  Bytes body;
  HttpClient client(net, "client");
  sim.schedule(10 * sim::kMillisecond, [&] {
    client.get("svc:80", "/", [&](int s, const http::Response* r) {
      status = s;
      if (r) body = r->body;
    });
  });
  sim.run_until(20 * sim::kSecond);

  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "only survivor");
  EXPECT_EQ(proxy.stats().passthrough_sessions, 1u);
  EXPECT_EQ(proxy.stats().degraded_sessions, 1u);
  EXPECT_EQ(proxy.stats().instance_unreachable, 2u);
  EXPECT_EQ(proxy.stats().divergences, 0u);
}

TEST_F(FaultTest, QuorumRefusesBelowTwoHealthy) {
  auto i0 = make_instance("svc-0:80", "only survivor");
  auto i1 = make_instance("svc-1:80", "only survivor");
  auto i2 = make_instance("svc-2:80", "only survivor");

  IncomingProxy::Config cfg;
  cfg.listen_address = "svc:80";
  cfg.instance_addresses = {"svc-0:80", "svc-1:80", "svc-2:80"};
  cfg.plugin = std::make_shared<HttpPlugin>();
  cfg.degradation = DegradationPolicy::kQuorum;
  DivergenceBus bus;
  IncomingProxy proxy(net, host, cfg, &bus);

  faults.crash_at(sim::kMillisecond, "svc-1");
  faults.crash_at(sim::kMillisecond, "svc-2");

  int status = -2;
  HttpClient client(net, "client");
  sim.schedule(10 * sim::kMillisecond, [&] {
    client.get("svc:80", "/", [&](int s, const http::Response*) { status = s; });
  });
  sim.run_until(20 * sim::kSecond);

  // Fail closed: a single unverifiable instance is not served.
  EXPECT_EQ(status, 403);
  EXPECT_EQ(proxy.stats().passthrough_sessions, 0u);
  EXPECT_EQ(proxy.stats().divergences, 0u);
}

// ---------- partition between the proxy and one instance ----------

TEST_F(FaultTest, PartitionDropsIsolatedInstanceAndHeals) {
  auto servers = make_pg_instances();
  DivergenceBus bus;
  IncomingProxy proxy(net, host, pg_proxy_config(DegradationPolicy::kQuorum),
                      &bus);

  // pg-2 is on the wrong side of the partition from 30ms to 400ms; the
  // proxy (named "rddr-in"), the client, and pg-0/pg-1 stay connected.
  faults.partition_for(30 * sim::kMillisecond, 370 * sim::kMillisecond,
                       {"rddr-in", "client", "pg-0", "pg-1", "front"});

  sqldb::PgClient client(net, "client", "front:5432", "postgres");
  int ok = 0, bad = 0;
  auto tally = [&](sqldb::QueryOutcome o) { (o.failed() ? bad : ok)++; };
  client.query("SELECT abalance FROM pgbench_accounts WHERE aid = 1", tally);
  sim.schedule(100 * sim::kMillisecond, [&] {
    client.query("SELECT abalance FROM pgbench_accounts WHERE aid = 2", tally);
  });
  sim.run_until(10 * sim::kSecond);

  EXPECT_EQ(ok, 2);
  EXPECT_EQ(bad, 0);
  EXPECT_FALSE(client.broken());
  EXPECT_EQ(proxy.stats().divergences, 0u);
  EXPECT_GE(proxy.stats().instance_unreachable, 1u);
  // After the partition heals, a backoff probe re-admits pg-2.
  EXPECT_EQ(proxy.stats().reconnects, 1u);
  EXPECT_TRUE(proxy.health().is_healthy(2));
}

// ---------- orchestrator-level crash/restart ----------

TEST_F(FaultTest, OrchestratorRestartPolicyRevivesCrashedContainer) {
  services::Orchestrator orch(sim, net);
  orch.add_host("m1", 8, 4LL << 30);
  int builds = 0;
  orch.register_image("web", [&](const services::ContainerSpec& spec) {
    ++builds;
    HttpServer::Options o;
    o.address = spec.address;
    auto server = std::make_shared<HttpServer>(net, orch.host("m1"), o);
    server->set_handler([](const http::Request&, services::Responder r) {
      r(http::make_response(200, "alive"));
    });
    return server;
  });
  orch.deploy("web-0", "web", "v1", "m1", "web-0:80");
  // The restart is scheduled explicitly, as the chaos harness does.
  sim.schedule(100 * sim::kMillisecond, [&] { orch.restart("web-0"); });

  orch.crash("web-0");
  EXPECT_TRUE(orch.crashed("web-0"));
  EXPECT_EQ(net.connect("web-0:80", {.source = "probe"}),
            nullptr);

  sim.run_until(sim::kSecond);
  EXPECT_FALSE(orch.crashed("web-0"));
  EXPECT_EQ(builds, 2);  // factory re-ran with the remembered spec

  int status = -2;
  HttpClient client(net, "client");
  client.get("web-0:80", "/", [&](int s, const http::Response*) { status = s; });
  sim.run_until_idle();
  EXPECT_EQ(status, 200);
}

// ---------- acceptance: availability under a mid-run crash ----------

// N=3, one instance crashed mid-run via FaultPlan, 1000 pgbench-style
// requests: kQuorum completes >= 99% with zero (false) interventions,
// kStrict serves ~0% of what remains after the crash.
class FaultAvailabilityTest : public ::testing::Test {
 protected:
  static constexpr int kAccounts = 1000;
  static constexpr int kClients = 10;
  static constexpr int kTxPerClient = 100;
  static constexpr sim::Time kCrashAt = 40 * sim::kMillisecond;

  struct Run {
    workloads::PoolResult pool;
    ProxyStats stats;
    uint64_t bus_events = 0;
    uint64_t served_after_crash = 0;
  };

  Run run_policy(DegradationPolicy policy) {
    sim::Simulator sim;
    sim::Network net(sim, 10 * sim::kMicrosecond);
    sim::Host host(sim, "node", 32, 16LL << 30);
    sim::FaultPlan faults(net);

    sqldb::SqlServer::Options so;
    so.rng_seed = 20;
    // Slow queries (2 ms CPU) so the crash lands mid-run, not after it.
    so.cpu_per_query = 2e-3;
    so.cpu_per_row = 0;
    workloads::Replicas replicas = workloads::start_replicas(
        net, 3, workloads::Pgbench{kAccounts}, so, {&host});

    IncomingProxy::Config cfg;
    cfg.listen_address = "front:5432";
    cfg.instance_addresses = replicas.addresses;
    cfg.plugin = std::make_shared<PgPlugin>();
    cfg.filter_pair = true;
    cfg.degradation = policy;
    cfg.health.reconnect_jitter = 0;
    DivergenceBus bus;
    IncomingProxy proxy(net, host, cfg, &bus);

    faults.crash_at(kCrashAt, "pg-2");

    Run r;
    workloads::ClientPoolOptions opts;
    opts.address = "front:5432";
    opts.clients = kClients;
    opts.transactions_per_client = kTxPerClient;
    opts.seed = 5;
    opts.next_query = [](Rng& rng, int, int) {
      return workloads::pgbench_select_tx(rng, kAccounts);
    };
    opts.on_tx_complete = [&](int, int, double) {
      if (sim.now() > kCrashAt) ++r.served_after_crash;
    };
    r.pool = workloads::run_client_pool(sim, net, opts);
    r.stats = proxy.stats();
    r.bus_events = bus.count();
    return r;
  }
};

TEST_F(FaultAvailabilityTest, QuorumServesThroughCrashStrictDoesNot) {
  const uint64_t total =
      static_cast<uint64_t>(kClients) * static_cast<uint64_t>(kTxPerClient);

  Run quorum = run_policy(DegradationPolicy::kQuorum);
  EXPECT_EQ(quorum.pool.completed + quorum.pool.failed, total);
  // >= 99% served, zero false interventions.
  EXPECT_GE(quorum.pool.completed, total * 99 / 100);
  EXPECT_EQ(quorum.stats.divergences, 0u);
  EXPECT_EQ(quorum.bus_events, 0u);
  EXPECT_GE(quorum.stats.degraded_sessions, 1u);
  EXPECT_GE(quorum.served_after_crash, total / 2);

  Run strict = run_policy(DegradationPolicy::kStrict);
  // Unanimity cannot be re-established once an instance is gone: at most a
  // straggler response already in flight completes after the crash.
  EXPECT_LE(strict.served_after_crash, static_cast<uint64_t>(kClients));
  EXPECT_LT(strict.pool.completed, total / 2);
  EXPECT_GE(strict.pool.failed, total / 2);
}

}  // namespace
}  // namespace rddr::core
