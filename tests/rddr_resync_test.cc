// End-to-end self-healing: crash a replica mid-workload, let the
// orchestrator replace it and the incoming proxy resync the replacement
// from a trusted peer, and require the deployment back at full N with
// zero interventions — the acceptance scenario for instance replacement
// with state resync.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/strutil.h"
#include "netsim/network.h"
#include "rddr/deployment.h"
#include "rddr/plugins.h"
#include "services/orchestrator.h"
#include "sqldb/client.h"
#include "sqldb/server.h"
#include "workloads/pgbench.h"

namespace rddr::core {
namespace {

constexpr int kAccounts = 50;

class ResyncTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  sim::Network net{sim, 10 * sim::kMicrosecond};
  services::Orchestrator orch{sim, net, /*seed=*/7};
  std::unique_ptr<NVersionDeployment> dep;
  std::vector<std::string> names;  // slot -> current container name

  void SetUp() override {
    orch.add_host("db-host", 8, 8LL << 30);
    orch.add_host("proxy-host", 4, 4LL << 30);
    orch.register_image("minipg", [&](const services::ContainerSpec& spec) {
      auto db =
          std::make_shared<sqldb::Database>(sqldb::minipg_info(spec.tag));
      workloads::load_pgbench(*db, kAccounts, /*seed=*/9);
      sqldb::SqlServer::Options so;
      so.address = spec.address;
      so.rng_seed = spec.rng_seed;
      return std::make_shared<sqldb::SqlServer>(net, *spec.host, db, so);
    });
  }

  /// Deploys pg-0..pg-2 behind a kQuorum incoming proxy with resync on.
  void build_deployment(ResyncOptions resync,
                        uint32_t reconnect_max_attempts = 0,
                        obs::Tracer* tracer = nullptr) {
    std::vector<std::string> addresses = orch.deploy_replicas(
        "pg", "minipg", {"13.0", "13.0", "13.0"}, "db-host", 5432);
    names.clear();
    for (const auto& a : addresses) names.push_back(sim::Network::node_of(a));

    resync.warm = [this](size_t i) -> ResyncOptions::WarmResult {
      auto target = orch.get<sqldb::SqlServer>(names[i]);
      if (!target || !dep) return {};
      const HealthTracker& health = dep->incoming().health();
      for (size_t j = 0; j < names.size(); ++j) {
        if (j == i || !health.is_healthy(j)) continue;
        auto source = orch.get<sqldb::SqlServer>(names[j]);
        if (!source) continue;
        std::string snap = source->dump_snapshot();
        if (!target->load_snapshot(snap)) return {};
        return {.bytes = static_cast<int64_t>(snap.size())};
      }
      return {};
    };

    HealthTracker::Options health;
    health.failure_threshold = 1;
    health.reconnect_base_delay = 50 * sim::kMillisecond;
    health.reconnect_max_delay = 1 * sim::kSecond;
    health.reconnect_max_attempts = reconnect_max_attempts;
    health.reconnect_jitter = 0;  // deterministic probe times
    dep = NVersionDeployment::Builder()
              .name("selfheal")
              .listen("front:5432")
              .versions(addresses)
              .plugin(std::make_shared<PgPlugin>())
              .filter_pair(true)
              .degradation(DegradationPolicy::kQuorum)
              .health(health)
              .unit_timeout(250 * sim::kMillisecond)
              .resync(resync)
              .on_instance_dead(
                  [this](size_t slot, const std::string&) { replace(slot); })
              .trace(tracer)
              .build(net, orch.host("proxy-host"));
  }

  void replace(size_t slot) {
    std::string new_address = orch.replace(names[slot]);
    names[slot] = sim::Network::node_of(new_address);
    dep->replace_instance(slot, new_address);
  }

  /// One read/write client: UPDATE every third query, fresh connection
  /// every five, 100ms apart. Returns counters via out-params.
  struct Workload {
    std::unique_ptr<sqldb::PgClient> pg;
    size_t issued = 0;
    uint64_t ok = 0, failed = 0;
    Rng rng{17};
  };

  void run_workload(Workload& w, size_t total_queries) {
    auto step = std::make_shared<std::function<void()>>();
    *step = [this, &w, total_queries, step] {
      if (w.issued >= total_queries) {
        if (w.pg) w.pg->close();
        return;
      }
      if (!w.pg || w.pg->broken() || w.issued % 5 == 0) {
        if (w.pg) w.pg->close();
        w.pg = std::make_unique<sqldb::PgClient>(net, "client", "front:5432",
                                                 "postgres");
      }
      size_t qi = w.issued++;
      std::string sql;
      if (qi % 3 == 0) {
        int aid = 1 + static_cast<int>(w.rng.next() % kAccounts);
        sql = strformat(
            "UPDATE pgbench_accounts SET abalance = abalance + 7 "
            "WHERE aid = %d",
            aid);
      } else {
        sql = workloads::pgbench_select_tx(w.rng, kAccounts);
      }
      w.pg->query(sql, [&w](sqldb::QueryOutcome o) {
        (o.failed() ? w.failed : w.ok)++;
      });
      sim.schedule(100 * sim::kMillisecond, [step] { (*step)(); });
    };
    sim.schedule(10 * sim::kMillisecond, [step] { (*step)(); });
  }
};

TEST_F(ResyncTest, CrashedReplicaIsReplacedResyncedAndReadmitted) {
  ResyncOptions resync;
  resync.enabled = true;
  build_deployment(resync);

  // Orchestrator-driven self-healing: crashed containers are replaced
  // (fresh name + seed) and the deployment is re-pointed at the newcomer.
  services::Orchestrator::ReplacementPolicy policy;
  policy.auto_replace = true;
  policy.replace_delay = 500 * sim::kMillisecond;
  policy.on_replaced = [this](const std::string& old_name, const std::string&,
                              const std::string& new_address) {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] != old_name) continue;
      names[i] = sim::Network::node_of(new_address);
      dep->replace_instance(i, new_address);
    }
  };
  orch.set_replacement_policy(policy);

  Workload w;
  run_workload(w, 60);  // ~6s of traffic
  sim.schedule_at(1 * sim::kSecond, [this] { orch.crash("pg-2"); });
  sim.run_until(30 * sim::kSecond);

  // Full N again: the replacement was admitted after resync.
  EXPECT_EQ(dep->incoming().health().healthy_count(), 3u);
  EXPECT_EQ(names[2], "pg-2-r1");
  auto stats = dep->incoming().stats();
  EXPECT_GE(stats.replacements, 1u);
  EXPECT_GE(stats.resyncs, 1u);
  // Benign recovery: never an intervention, never an outvote.
  EXPECT_EQ(dep->divergences(), 0u);
  EXPECT_EQ(stats.quorum_outvotes, 0u);
  // Every query accounted for; the crash window may refuse some.
  EXPECT_EQ(w.ok + w.failed, 60u);
  EXPECT_GE(w.ok, 50u);
  // The replacement really serves compared traffic post-readmission.
  auto replacement = orch.get<sqldb::SqlServer>("pg-2-r1");
  ASSERT_NE(replacement, nullptr);
  EXPECT_GT(replacement->queries_served(), 0u);
}

TEST_F(ResyncTest, DeadInstanceTriggersOnInstanceDeadReplacement) {
  ResyncOptions resync;
  resync.enabled = true;
  // Small probe budget: the crashed (never restarted) container exhausts
  // it, is declared dead, and on_instance_dead swaps in a replacement.
  build_deployment(resync, /*reconnect_max_attempts=*/3);

  Workload w;
  run_workload(w, 40);
  sim.schedule_at(500 * sim::kMillisecond, [this] { orch.crash("pg-1"); });
  sim.run_until(30 * sim::kSecond);

  EXPECT_EQ(names[1], "pg-1-r1");
  EXPECT_EQ(dep->incoming().health().healthy_count(), 3u);
  auto stats = dep->incoming().stats();
  EXPECT_GE(stats.replacements, 1u);
  EXPECT_GE(stats.resyncs, 1u);
  EXPECT_EQ(dep->divergences(), 0u);
  EXPECT_EQ(stats.quorum_outvotes, 0u);
  EXPECT_EQ(w.ok + w.failed, 40u);
}

TEST_F(ResyncTest, WritesDuringTransferWindowAreJournaled) {
  ResyncOptions resync;
  resync.enabled = true;
  // Stretch the modelled transfer so live traffic overlaps it: those
  // units must be journaled and replayed, not lost.
  resync.min_transfer_time = 600 * sim::kMillisecond;
  build_deployment(resync);

  Workload w;
  run_workload(w, 60);
  sim.schedule_at(1 * sim::kSecond, [this] { orch.crash("pg-0"); });
  sim.schedule_at(2 * sim::kSecond, [this] { orch.restart("pg-0"); });
  sim.run_until(30 * sim::kSecond);

  EXPECT_EQ(dep->incoming().health().healthy_count(), 3u);
  auto stats = dep->incoming().stats();
  EXPECT_GE(stats.resyncs, 1u);
  EXPECT_GT(stats.journal_replayed_requests, 0u);
  EXPECT_EQ(dep->divergences(), 0u);
  EXPECT_EQ(stats.quorum_outvotes, 0u);
  EXPECT_EQ(w.ok + w.failed, 60u);
  // The restarted replica converged: its state matches a peer's dump.
  auto a = orch.get<sqldb::SqlServer>("pg-0");
  auto b = orch.get<sqldb::SqlServer>("pg-1");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->dump_snapshot(), b->dump_snapshot());
}

TEST_F(ResyncTest, JournalOverflowFailsResyncThenRetries) {
  ResyncOptions resync;
  resync.enabled = true;
  // A wide transfer window under a back-to-back writer: far more than the
  // journal's 256 units land inside it.
  resync.min_transfer_time = 1 * sim::kSecond;
  obs::Tracer tracer([this] { return sim.now(); }, /*seed=*/3);
  build_deployment(resync, /*reconnect_max_attempts=*/0, &tracer);
  const HealthTracker& health = dep->incoming().health();

  // pg-0 crashes before the writer connects (so the writer's session
  // quarantines it) and is back before the first probe succeeds.
  sim.schedule_at(100 * sim::kMillisecond, [this] { orch.crash("pg-0"); });
  sim.schedule_at(300 * sim::kMillisecond, [this] { orch.restart("pg-0"); });

  // The writer runs until the overflowed resync has put pg-0 back into
  // quarantine, then stops, so the retry transfers with an idle journal.
  std::unique_ptr<sqldb::PgClient> writer;
  uint64_t writes_ok = 0;
  bool overflow_seen = false;
  ProxyStats at_overflow;
  Rng rng(23);
  auto step = std::make_shared<std::function<void()>>();
  *step = [&, step] {
    if (dep->incoming().stats().resyncs >= 1 &&
        health.state(0) == HealthTracker::State::kQuarantined) {
      overflow_seen = true;
      at_overflow = dep->incoming().stats();
      writer->close();
      return;
    }
    int aid = 1 + static_cast<int>(rng.next() % kAccounts);
    writer->query(strformat("UPDATE pgbench_accounts SET abalance = "
                            "abalance + 1 WHERE aid = %d",
                            aid),
                  [&, step](sqldb::QueryOutcome o) {
                    if (!o.failed()) ++writes_ok;
                    sim.schedule(sim::kMillisecond, [step] { (*step)(); });
                  });
  };
  sim.schedule_at(200 * sim::kMillisecond, [&, step] {
    writer = std::make_unique<sqldb::PgClient>(net, "writer", "front:5432",
                                               "postgres");
    (*step)();
  });

  // Readmission must never happen with partial state: the first time
  // pg-0 is seen healthy again, its database already equals a peer's.
  int readmitted_after_resyncs = -1;
  bool equal_at_readmission = false;
  bool was_out = false;
  auto watch = std::make_shared<std::function<void()>>();
  *watch = [&, watch] {
    was_out = was_out || !health.is_healthy(0);
    if (was_out && health.is_healthy(0)) {
      readmitted_after_resyncs =
          static_cast<int>(dep->incoming().stats().resyncs);
      equal_at_readmission = orch.get<sqldb::SqlServer>("pg-0")
                                 ->dump_snapshot() ==
                             orch.get<sqldb::SqlServer>("pg-1")
                                 ->dump_snapshot();
      return;
    }
    sim.schedule(sim::kMillisecond, [watch] { (*watch)(); });
  };
  sim.schedule_at(0, [watch] { (*watch)(); });
  sim.run_until(20 * sim::kSecond);

  // The first resync overflowed its journal: back to quarantine, nothing
  // replayed, never readmitted.
  ASSERT_TRUE(overflow_seen);
  EXPECT_GT(writes_ok, 256u);
  EXPECT_EQ(at_overflow.resyncs, 1u);
  EXPECT_EQ(at_overflow.reconnects, 0u);
  EXPECT_EQ(at_overflow.journal_replayed_requests, 0u);
  size_t overflowed = 0;
  for (const obs::Span& sp : tracer.spans()) {
    if (sp.name != "resync") continue;
    for (const auto& [k, v] : sp.tags)
      if (k == "failed" && v == "journal overflow (> 256 units)") ++overflowed;
  }
  EXPECT_EQ(overflowed, 1u);

  // A later probe completed the resync: full N, one readmission, and the
  // replicas agree.
  EXPECT_EQ(readmitted_after_resyncs, 2);
  EXPECT_TRUE(equal_at_readmission);
  EXPECT_EQ(health.healthy_count(), 3u);
  auto stats = dep->incoming().stats();
  EXPECT_EQ(stats.resyncs, 2u);
  EXPECT_EQ(stats.reconnects, 1u);
  EXPECT_EQ(dep->divergences(), 0u);
  EXPECT_EQ(stats.quorum_outvotes, 0u);
  const std::string snap = orch.get<sqldb::SqlServer>("pg-0")->dump_snapshot();
  EXPECT_EQ(snap, orch.get<sqldb::SqlServer>("pg-1")->dump_snapshot());
  EXPECT_EQ(snap, orch.get<sqldb::SqlServer>("pg-2")->dump_snapshot());
}

TEST_F(ResyncTest, ResyncDisabledReadmitsWithoutTransfer) {
  ResyncOptions resync;
  resync.enabled = false;
  build_deployment(resync);

  // No traffic at all: with nothing written while the instance was away,
  // plain probe-readmit (the pre-resync behaviour) is still sound.
  sim.schedule_at(100 * sim::kMillisecond, [this] { orch.crash("pg-2"); });
  sim.schedule_at(600 * sim::kMillisecond, [this] { orch.restart("pg-2"); });
  sim.run_until(10 * sim::kSecond);

  EXPECT_EQ(dep->incoming().health().healthy_count(), 3u);
  auto stats = dep->incoming().stats();
  EXPECT_EQ(stats.resyncs, 0u);
  EXPECT_EQ(stats.journal_replayed_requests, 0u);
}

}  // namespace
}  // namespace rddr::core
