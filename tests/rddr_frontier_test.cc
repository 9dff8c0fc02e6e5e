// Tests for the scale-out front tier (rddr/frontier.h): consistent-hash
// routing stability, protocol-correct load shedding, admission
// backpressure, and shard draining.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "netsim/host.h"
#include "netsim/network.h"
#include "rddr/rddr.h"
#include "services/http_service.h"
#include "sqldb/client.h"
#include "workloads/harness.h"

namespace rddr::core {
namespace {

std::vector<std::string> keys(int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) out.push_back("client-" + std::to_string(i));
  return out;
}

TEST(ConsistentHash, SameKeyAlwaysSameShard) {
  ConsistentHash a(4), b(4);
  for (const auto& k : keys(500)) {
    size_t shard = a.route(k);
    EXPECT_LT(shard, 4u);
    // Routing is a pure function of the key: stable within one ring and
    // identical across independently built rings (same seed => same shard
    // across whole runs).
    EXPECT_EQ(a.route(k), shard);
    EXPECT_EQ(b.route(k), shard);
  }
}

TEST(ConsistentHash, SpreadsKeysAcrossAllShards) {
  ConsistentHash ch(4);
  std::map<size_t, int> counts;
  for (const auto& k : keys(2000)) counts[ch.route(k)]++;
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [shard, n] : counts) {
    // Expected 500 per shard; consistent hashing with 64 vnodes lands
    // within a loose band, and no shard may starve.
    EXPECT_GT(n, 250) << "shard " << shard;
    EXPECT_LT(n, 1000) << "shard " << shard;
  }
}

TEST(ConsistentHash, DisablingOneShardMovesOnlyItsKeys) {
  ConsistentHash ch(4);
  auto ks = keys(2000);
  std::map<std::string, size_t> before;
  for (const auto& k : ks) before[k] = ch.route(k);

  ch.set_shard_enabled(2, false);
  int moved = 0, was_on_2 = 0;
  for (const auto& k : ks) {
    size_t now = ch.route(k);
    EXPECT_NE(now, 2u);
    if (before[k] == 2) {
      ++was_on_2;
      EXPECT_NE(now, before[k]);
      ++moved;
    } else {
      // The consistent-hash property: keys not on the removed shard do
      // not move at all.
      EXPECT_EQ(now, before[k]) << k;
    }
  }
  EXPECT_EQ(moved, was_on_2);
  // ~1/4 of the keyspace belonged to shard 2 (loose band again).
  EXPECT_GT(was_on_2, 2000 / 4 / 2);
  EXPECT_LT(was_on_2, 2000 / 2);

  // Re-enabling restores the exact original routing.
  ch.set_shard_enabled(2, true);
  for (const auto& k : ks) EXPECT_EQ(ch.route(k), before[k]);
}

TEST(ConsistentHash, AllDisabledRoutesNowhere) {
  ConsistentHash ch(2);
  ch.set_shard_enabled(0, false);
  ch.set_shard_enabled(1, false);
  EXPECT_EQ(ch.route("anything"), 2u);
}

/// Fixture: one-shard frontier over 3 minipg instances with a tiny
/// admission budget, so the 2nd and 3rd concurrent connections shed.
class PgShedRig {
 public:
  explicit PgShedRig(AdmissionOptions adm)
      : net_(sim_, 50 * sim::kMicrosecond),
        host_(sim_, "node", 32, 16LL << 30) {
    sqldb::SqlServer::Options so;
    so.rng_seed = 20;
    replicas_ = workloads::start_replicas(net_, 3, workloads::Pgbench{100},
                                          so, {&host_});
    front_ = NVersionDeployment::Builder()
                 .name("front")
                 .listen("front:5432")
                 .versions(replicas_.addresses)
                 .plugin(std::make_shared<PgPlugin>())
                 .filter_pair(true)
                 .admission(adm)
                 .build_frontier(net_, host_);
  }

  sim::Simulator sim_;
  sim::Network net_;
  sim::Host host_;
  workloads::Replicas replicas_;
  std::unique_ptr<Frontier> front_;
};

TEST(FrontierShed, PgClientSeesSqlstate53300NotAHang) {
  AdmissionOptions adm;
  adm.rate_per_s = 1;  // refill is negligible within the test window
  adm.burst = 1;       // one admission, then shed
  adm.queue_limit = 1;
  adm.shed_deadline = 2 * sim::kMillisecond;
  PgShedRig rig(adm);

  std::vector<std::unique_ptr<sqldb::PgClient>> clients;
  std::vector<sqldb::QueryOutcome> outcomes(3);
  std::vector<bool> answered(3, false);
  for (int c = 0; c < 3; ++c) {
    clients.push_back(std::make_unique<sqldb::PgClient>(
        rig.net_, "c" + std::to_string(c), "front:5432", "postgres"));
    clients.back()->query(
        "SELECT abalance FROM pgbench_accounts WHERE aid = 1;",
        [&outcomes, &answered, c](sqldb::QueryOutcome o) {
          outcomes[static_cast<size_t>(c)] = std::move(o);
          answered[static_cast<size_t>(c)] = true;
        });
  }
  rig.sim_.run_until(sim::kSecond);

  int ok = 0, shed = 0;
  for (int c = 0; c < 3; ++c) {
    ASSERT_TRUE(answered[static_cast<size_t>(c)]) << "client " << c << " hung";
    const auto& o = outcomes[static_cast<size_t>(c)];
    if (!o.failed()) {
      ++ok;
    } else {
      // Protocol-correct rejection: the pg error code for "too many
      // connections", not a bare connection loss.
      EXPECT_EQ(o.error_sqlstate.value_or("<none>"), "53300")
          << "client " << c;
      ++shed;
    }
  }
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(shed, 2);

  ProxyStats s = rig.front_->stats();
  EXPECT_EQ(s.admitted, 1u);
  EXPECT_EQ(s.shed, 2u);
}

// Deadline sheds resolve at the configured deadline, not at the saturated
// pool's service latency.
TEST(FrontierShed, DeadlineShedIsFast) {
  AdmissionOptions adm;
  adm.rate_per_s = 1;
  adm.burst = 1;
  adm.queue_limit = 8;
  adm.shed_deadline = 3 * sim::kMillisecond;
  PgShedRig rig(adm);

  auto c1 = std::make_unique<sqldb::PgClient>(rig.net_, "c1",
                                              "front:5432", "postgres");
  auto c2 = std::make_unique<sqldb::PgClient>(rig.net_, "c2",
                                              "front:5432", "postgres");
  sim::Time rejected_at = -1;
  c1->query("SELECT 1;", [](sqldb::QueryOutcome) {});
  c2->query("SELECT 1;", [&](sqldb::QueryOutcome o) {
    if (o.failed()) rejected_at = rig.sim_.now();
  });
  rig.sim_.run_until(sim::kSecond);
  ASSERT_GE(rejected_at, 0);
  EXPECT_GE(rejected_at, 3 * sim::kMillisecond);
  EXPECT_LT(rejected_at, 5 * sim::kMillisecond);
}

TEST(FrontierShed, HttpClientSees503WithRetryAfter) {
  sim::Simulator sim;
  sim::Network net(sim, 50 * sim::kMicrosecond);
  sim::Host host(sim, "node", 8, 8LL << 30);
  std::vector<std::unique_ptr<services::HttpServer>> instances;
  std::vector<std::string> pool;
  for (int i = 0; i < 2; ++i) {
    services::HttpServer::Options o;
    o.address = "svc-" + std::to_string(i) + ":80";
    auto s = std::make_unique<services::HttpServer>(net, host, o);
    s->set_handler([](const http::Request&, services::Responder r) {
      r(http::make_response(200, "ok"));
    });
    instances.push_back(std::move(s));
    pool.push_back(o.address);
  }
  AdmissionOptions adm;
  adm.rate_per_s = 1;
  adm.burst = 1;
  adm.queue_limit = 1;
  adm.shed_deadline = 2 * sim::kMillisecond;
  auto front = NVersionDeployment::Builder()
                   .name("front")
                   .listen("front:80")
                   .versions(pool)
                   .plugin(std::make_shared<HttpPlugin>())
                   .admission(adm)
                   .build_frontier(net, host);

  struct Probe {
    sim::ConnPtr conn;
    Bytes got;
    bool closed = false;
  };
  std::vector<std::unique_ptr<Probe>> probes;
  for (int c = 0; c < 3; ++c) {
    auto p = std::make_unique<Probe>();
    p->conn = net.connect("front:80",
                          {.source = "h" + std::to_string(c)});
    ASSERT_NE(p->conn, nullptr);
    Probe* raw = p.get();
    p->conn->set_on_data([raw](ByteView d) { raw->got += Bytes(d); });
    p->conn->set_on_close([raw] { raw->closed = true; });
    p->conn->send("GET / HTTP/1.1\r\nHost: front\r\n\r\n");
    probes.push_back(std::move(p));
  }
  sim.run_until(sim::kSecond);

  int ok = 0, shed = 0;
  for (const auto& p : probes) {
    if (p->got.find("HTTP/1.1 200") != Bytes::npos) {
      ++ok;
    } else {
      ASSERT_NE(p->got.find("HTTP/1.1 503"), Bytes::npos) << p->got;
      EXPECT_NE(p->got.find("Retry-After: 1"), Bytes::npos);
      EXPECT_TRUE(p->closed);
      ++shed;
    }
  }
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(shed, 2);
}

// Backpressure: with max_sessions bounding each shard, a burst larger
// than the bound is not shed but admitted in waves as sessions finish.
TEST(FrontierBackpressure, SessionCloseWakesTheAdmissionQueue) {
  AdmissionOptions adm;
  adm.max_sessions = 2;
  adm.queue_limit = 16;
  adm.shed_deadline = 2 * sim::kSecond;  // far beyond the test window
  PgShedRig rig(adm);

  int completed = 0;
  std::vector<std::unique_ptr<sqldb::PgClient>> clients;
  for (int c = 0; c < 6; ++c) {
    clients.push_back(std::make_unique<sqldb::PgClient>(
        rig.net_, "bp" + std::to_string(c), "front:5432", "postgres"));
    sqldb::PgClient* raw = clients.back().get();
    raw->query("SELECT abalance FROM pgbench_accounts WHERE aid = 2;",
               [&completed, raw](sqldb::QueryOutcome o) {
                 EXPECT_FALSE(o.failed());
                 if (!o.failed()) ++completed;
                 raw->close();  // frees the session -> next admission
               });
  }
  rig.sim_.run_until(5 * sim::kSecond);

  EXPECT_EQ(completed, 6);
  ProxyStats s = rig.front_->stats();
  EXPECT_EQ(s.admitted, 6u);
  EXPECT_EQ(s.shed, 0u);
  // The gauge's high-water mark proves the bound actually held.
  EXPECT_LE(rig.front_->metrics()
                .gauge("front.s0.active_sessions")
                ->max_value(),
            2.0);
}

// Draining a shard administratively moves new sessions to the remaining
// shards without shedding.
TEST(Frontier, DrainedShardReceivesNoNewSessions) {
  sim::Simulator sim;
  sim::Network net(sim, 50 * sim::kMicrosecond);
  sim::Host host(sim, "node", 32, 32LL << 30);
  std::vector<workloads::Replicas> shard_replicas;
  std::vector<std::vector<std::string>> pools;
  for (int k = 0; k < 2; ++k) {
    sqldb::SqlServer::Options so;
    so.rng_seed = 20 + static_cast<uint64_t>(k * 10);
    shard_replicas.push_back(workloads::start_replicas(
        net, 3, workloads::Pgbench{100}, so, {&host},
        "pg-s" + std::to_string(k)));
    pools.push_back(shard_replicas.back().addresses);
  }
  auto front = NVersionDeployment::Builder()
                   .name("front")
                   .listen("front:5432")
                   .plugin(std::make_shared<PgPlugin>())
                   .filter_pair(true)
                   .shard_versions(pools)
                   .build_frontier(net, host);

  front->set_shard_enabled(0, false);
  EXPECT_FALSE(front->shard_available(0));
  EXPECT_TRUE(front->shard_available(1));
  for (int c = 0; c < 50; ++c)
    EXPECT_EQ(front->route_of("key-" + std::to_string(c)), 1u);

  int completed = 0;
  std::vector<std::unique_ptr<sqldb::PgClient>> clients;
  for (int c = 0; c < 10; ++c) {
    clients.push_back(std::make_unique<sqldb::PgClient>(
        net, "drain" + std::to_string(c), "front:5432", "postgres"));
    clients.back()->query("SELECT 1;", [&completed](sqldb::QueryOutcome o) {
      EXPECT_FALSE(o.failed());
      if (!o.failed()) ++completed;
    });
  }
  sim.run_until(sim::kSecond);
  EXPECT_EQ(completed, 10);
  EXPECT_EQ(front->shard(0).incoming().active_sessions(), 0u);
  EXPECT_EQ(front->stats().shed, 0u);

  // Re-enabling restores two-shard routing.
  front->set_shard_enabled(0, true);
  bool saw0 = false, saw1 = false;
  for (int c = 0; c < 200 && !(saw0 && saw1); ++c) {
    size_t k = front->route_of("key2-" + std::to_string(c));
    saw0 |= k == 0;
    saw1 |= k == 1;
  }
  EXPECT_TRUE(saw0);
  EXPECT_TRUE(saw1);
}

}  // namespace
}  // namespace rddr::core
