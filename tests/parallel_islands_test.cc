// Deterministic parallel simulation: multi-island event loop under
// conservative time-window barriers (netsim/parallel.h).
//
// The load-bearing property is the oracle contract: islands(1) — the
// same network semantics, zero worker threads — must produce results
// byte-identical to islands(2/4/8) with real threads, for the raw
// simulator, the frontier scale-out deployment, the shard-kill chaos
// scenario, and the adversarial fuzzer. Wall-clock speed is a bench
// concern (bench/fig5_scaleout --islands); tests pin semantics only.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "common/strutil.h"
#include "netsim/fault.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "netsim/parallel.h"
#include "netsim/simulator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rddr/rddr.h"
#include "scenario/fuzzer.h"
#include "sqldb/server.h"
#include "workloads/driver.h"
#include "workloads/pgbench.h"

namespace rddr {
namespace {

// ---- raw simulator ----

// A little multi-island program whose output order proves the window
// merge: four streams tick independently, each tick sends a report event
// to island 0 (which owns the log), and a global mutation runs midway.
// Stream i runs on island i; with fewer islands schedule_on clamps the
// extra streams onto island 0, so the log is the same at every island
// count. `threads` receives the executor's worker count (0 without one).
std::vector<std::string> run_island_program(size_t islands,
                                            size_t* threads = nullptr) {
  sim::Simulator sim;
  sim.configure_islands(islands, /*lookahead=*/500);
  if (threads)
    *threads = sim.executor() ? sim.executor()->thread_count() : 0;
  std::vector<std::string> log;  // only touched from island 0 events

  for (size_t i = 0; i < 4; ++i) {
    auto tick = std::make_shared<std::function<void(int)>>();
    sim::Simulator* sp = &sim;
    *tick = [sp, i, tick, &log](int n) {
      if (n >= 8) return;
      sim::Time now = sp->now();
      sp->schedule_on(0, now + 1000,
                      [&log, i, n, now] {
                        log.push_back(strformat("i%zu n%d t%lld", i, n,
                                                static_cast<long long>(now)));
                      });
      sp->schedule(700 + static_cast<sim::Time>(i) * 13,
                   [tick, n] { (*tick)(n + 1); });
    };
    sim.schedule_on(static_cast<IslandId>(i), 100 + static_cast<sim::Time>(i),
                    [tick] { (*tick)(0); });
  }
  bool global_saw_aligned_clocks = false;
  sim.schedule_global_at(3000, [&] {
    // At a global event every island's clock sits at the same barrier.
    sim::Time t0 = sim.now();
    global_saw_aligned_clocks = true;
    for (size_t i = 0; i < sim.island_count(); ++i)
      global_saw_aligned_clocks &= (t0 == 3000);
    log.push_back("global");
  });
  sim.run_until_idle();
  EXPECT_TRUE(global_saw_aligned_clocks);
  log.push_back(strformat("events %llu", static_cast<unsigned long long>(
                                             sim.events_executed())));
  return log;
}

// Runs the 4-island program with RDDR_PARALLEL_THREADS=threads, restoring
// the caller's value afterwards.
std::vector<std::string> run_island_program_on_threads(size_t threads) {
  const char* prev = std::getenv("RDDR_PARALLEL_THREADS");
  const std::string saved = prev ? prev : "";
  setenv("RDDR_PARALLEL_THREADS", std::to_string(threads).c_str(), 1);
  size_t used = 0;
  auto log = run_island_program(4, &used);
  if (prev) setenv("RDDR_PARALLEL_THREADS", saved.c_str(), 1);
  else unsetenv("RDDR_PARALLEL_THREADS");
  EXPECT_EQ(used, threads);
  return log;
}

TEST(ParallelSimulator, CrossIslandMergeIsDeterministic) {
  auto base = run_island_program_on_threads(1);
  ASSERT_FALSE(base.empty());
  EXPECT_EQ(base, run_island_program_on_threads(1));
  // Threads never change results.
  EXPECT_EQ(base, run_island_program_on_threads(2));
  EXPECT_EQ(base, run_island_program_on_threads(4));
}

TEST(ParallelSimulator, OneIslandOracleMatchesMany) {
  // Same streams, same log — global event and event count included — on
  // the sequential loop and under the executor.
  auto one = run_island_program(1);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, run_island_program(2));
  EXPECT_EQ(one, run_island_program(4));
}

TEST(ParallelSimulator, CancelAcrossIslandIds) {
  sim::Simulator sim;
  sim.configure_islands(3, /*lookahead=*/100);
  int fired = 0;
  uint64_t id = sim.schedule_on(2, 5000, [&] { ++fired; });
  ASSERT_NE(id, 0u);
  sim.cancel(id);
  sim.schedule_on(2, 6000, [&] { ++fired; });
  sim.run_until_idle();
  EXPECT_EQ(fired, 1);
}

// ---- lookahead under latency faults ----

// A latency-spike fault on a cross-island link only adds latency, so the
// network's base latency stays a safe lookahead: no delivery lands inside
// a window, and results match the 1-island oracle.
struct EchoRun {
  std::string transcript;
  uint64_t clamps = 0;
};

EchoRun run_echo_with_latency_fault(size_t islands) {
  sim::Simulator sim;
  sim::Network net(sim, 200 * sim::kMicrosecond);
  sim.configure_islands(islands, net.default_latency());
  const IslandId isl = islands == 1 ? 0 : 1;
  net.set_node_island("svc", isl);

  net.listen("svc:80", [](sim::ConnPtr c) {
    c->set_on_data([c](ByteView d) { c->send(Bytes("echo:") + Bytes(d)); });
  });
  sim::FaultPlan plan(net);
  // Mid-run the link to svc gets +5ms for 50ms; deliveries stay causal.
  plan.latency_spike(20 * sim::kMillisecond, 50 * sim::kMillisecond, "svc",
                     5 * sim::kMillisecond);

  EchoRun r;
  auto transcript = std::make_shared<std::string>();
  auto client = net.connect("svc:80", {.source = "cli"});
  EXPECT_NE(client, nullptr);
  client->set_on_data([transcript, &sim](ByteView d) {
    *transcript += strformat("[%lld]", static_cast<long long>(sim.now()));
    transcript->append(reinterpret_cast<const char*>(d.data()), d.size());
  });
  for (int n = 0; n < 20; ++n) {
    sim.schedule_at(n * 5 * sim::kMillisecond + 1,
                    [client, n] { client->send(strformat("m%d", n)); });
  }
  sim.run_until(200 * sim::kMillisecond);
  r.transcript = *transcript;
  if (auto* ex = sim.executor()) r.clamps = ex->stats().causality_clamps;
  return r;
}

TEST(ParallelIslands, LatencyFaultNeverZeroesLookahead) {
  EchoRun one = run_echo_with_latency_fault(1);
  EchoRun two = run_echo_with_latency_fault(2);
  EXPECT_FALSE(one.transcript.empty());
  EXPECT_EQ(one.transcript, two.transcript);
  EXPECT_EQ(two.clamps, 0u);
  EXPECT_EQ(one.transcript, run_echo_with_latency_fault(2).transcript);
}

// ---- severing a node whose server halves live on another island ----

// A node is stopped (or crashed) while a request is on the wire toward
// its server half on island 1. The break must reach both halves at once:
// the bytes are dropped instead of being delivered into handlers whose
// owner is gone, and the client on island 0 sees the close.
TEST(ParallelIslands, SeverDropsBytesInFlightToAnotherIsland) {
  for (bool crash : {false, true}) {
    SCOPED_TRACE(crash ? "crash" : "stop");
    sim::Simulator sim;
    sim::Network net(sim, 50 * sim::kMicrosecond);
    sim.configure_islands(2, net.default_latency());
    net.set_node_island("svc", 1);

    auto service_alive = std::make_shared<bool>(true);
    auto delivered = std::make_shared<int>(0);
    net.listen("svc:80", [service_alive, delivered](sim::ConnPtr c) {
      // The handler owns its connection, as services' handlers do.
      c->set_on_data([c, service_alive, delivered](ByteView) {
        EXPECT_TRUE(*service_alive) << "delivered into a severed service";
        ++*delivered;
      });
    });
    auto conn = net.connect("svc:80", {.source = "cli"});
    ASSERT_NE(conn, nullptr);
    sim.run_until_idle();
    ASSERT_TRUE(conn->is_open());

    bool closed = false;
    conn->set_on_close([&closed] { closed = true; });
    conn->send("GET / HTTP/1.1\r\nHost: svc\r\n\r\n");  // lands in 50us
    // The node goes away mid-flight, from a global event as fault plans
    // and orchestrators do; its service object dies with it.
    sim.schedule_global_at(sim.now() + 10 * sim::kMicrosecond, [&] {
      if (crash) net.crash_node("svc");
      else net.sever_node("svc");
      *service_alive = false;
    });
    sim.run_until_idle();
    EXPECT_EQ(*delivered, 0);
    EXPECT_TRUE(closed);
    EXPECT_FALSE(conn->is_open());
  }
}

// ---- frontier scale-out byte-identity ----

// A compact fig5_scaleout point: 4 shards, each with its own host and
// 3-instance minipg pool, driven by a closed client pool through the
// sharded frontier. Returns the full determinism surface: pool metrics,
// frontier counters, divergences, and the canonical Chrome trace export.
std::string run_scaleout_fingerprint(size_t islands) {
  sim::Simulator sim;
  sim::Network net(sim, 50 * sim::kMicrosecond);
  obs::Tracer tracer([&sim] { return sim.now(); }, /*seed=*/42);

  const size_t kShards = 4;
  std::vector<std::unique_ptr<sim::Host>> hosts;
  std::vector<sim::Host*> host_ptrs;
  std::vector<std::shared_ptr<sqldb::Database>> dbs;
  std::vector<std::unique_ptr<sqldb::SqlServer>> servers;
  std::vector<std::vector<std::string>> pools;
  for (size_t k = 0; k < kShards; ++k) {
    hosts.push_back(std::make_unique<sim::Host>(
        sim, "node-" + std::to_string(k), 32, 128LL << 30));
    host_ptrs.push_back(hosts.back().get());
    pools.emplace_back();
    for (int i = 0; i < 3; ++i) {
      std::string addr = strformat("pg-s%zu-%d:5432", k, i);
      auto db = std::make_shared<sqldb::Database>(sqldb::minipg_info("13.0"));
      workloads::load_pgbench(*db, 200, 9);
      sqldb::SqlServer::Options so;
      so.address = addr;
      so.cpu_per_query = 2e-3;
      so.rng_seed = 20 + k * 10 + static_cast<uint64_t>(i);
      so.tracer = &tracer;
      dbs.push_back(db);
      servers.push_back(
          std::make_unique<sqldb::SqlServer>(net, *hosts.back(), db, so));
      pools.back().push_back(addr);
    }
  }
  auto front = core::NVersionDeployment::Builder()
                   .name("front")
                   .listen("front:5432")
                   .plugin(std::make_shared<core::PgPlugin>())
                   .filter_pair(true)
                   .cpu_model(50e-6, 5e-9)
                   .shard_versions(pools)
                   .trace(&tracer)
                   .islands(islands)
                   .build_frontier(net, host_ptrs);

  obs::MetricsRegistry registry;
  workloads::ClientPoolOptions opts;
  opts.address = "front:5432";
  opts.clients = 8;
  opts.transactions_per_client = 12;
  opts.seed = 5;
  opts.metrics = &registry;
  opts.tracer = &tracer;
  opts.next_query = [](Rng& rng, int, int) {
    return workloads::pgbench_select_tx(rng, 200);
  };
  workloads::run_client_pool(sim, net, opts);

  core::ProxyStats agg = front->aggregate_stats();
  std::string fp = strformat(
      "tps=%.17g mean=%.17g p50=%.17g elapsed=%.17g failed=%llu "
      "sessions=%llu units=%llu divergences=%llu shed=%llu bus=%llu\n",
      registry.gauge("pool.tps")->value(),
      registry.gauge("pool.latency_mean_ms")->value(),
      registry.gauge("pool.latency_p50_ms")->value(),
      registry.gauge("pool.elapsed_s")->value(),
      static_cast<unsigned long long>(
          registry.counter("pool.tx_failed")->value()),
      static_cast<unsigned long long>(agg.sessions),
      static_cast<unsigned long long>(agg.units_compared),
      static_cast<unsigned long long>(agg.divergences),
      static_cast<unsigned long long>(front->stats().shed),
      static_cast<unsigned long long>(front->divergences()));
  fp += tracer.export_chrome();
  return fp;
}

TEST(ParallelIslands, ScaleoutFingerprintIdenticalAcrossIslandCounts) {
  std::string oracle = run_scaleout_fingerprint(1);
  ASSERT_FALSE(oracle.empty());
  EXPECT_EQ(oracle, run_scaleout_fingerprint(1)) << "oracle not stable";
  for (size_t islands : {2u, 4u, 8u}) {
    SCOPED_TRACE(strformat("islands=%zu", islands));
    EXPECT_EQ(oracle, run_scaleout_fingerprint(islands));
    EXPECT_EQ(oracle, run_scaleout_fingerprint(islands)) << "repeat run";
  }
}

// ---- chaos + fuzz report identity ----

TEST(ParallelIslands, ShardKillReportIdenticalAcrossIslandCounts) {
  chaos::ShardKillOptions opts;
  opts.sessions = 60;
  opts.settle = 8 * sim::kSecond;
  auto run = [&](size_t islands) {
    chaos::ShardKillOptions o = opts;
    o.islands = islands;
    return chaos::run_shard_kill(o, /*seed=*/7).summary();
  };
  std::string oracle = run(1);
  ASSERT_FALSE(oracle.empty());
  EXPECT_EQ(oracle, run(1)) << "oracle not stable";
  for (size_t islands : {2u, 4u}) {
    SCOPED_TRACE(strformat("islands=%zu", islands));
    EXPECT_EQ(oracle, run(islands));
    EXPECT_EQ(oracle, run(islands)) << "repeat run";
  }
}

TEST(ParallelIslands, FuzzReportIdenticalAcrossIslandCounts) {
  for (int topo = 0; topo < 2; ++topo) {
    SCOPED_TRACE(strformat("topology=%d", topo));
    scenario::FuzzOptions fopts;
    fopts.topology = topo;
    fopts.benign_sessions = 6;
    fopts.ops_per_family = 1;
    auto run = [&](size_t islands) {
      scenario::FuzzOptions o = fopts;
      o.islands = islands;
      return scenario::run_fuzz_seed(/*seed=*/11, o).summary();
    };
    std::string oracle = run(1);
    ASSERT_FALSE(oracle.empty());
    for (size_t islands : {2u, 4u}) {
      SCOPED_TRACE(strformat("islands=%zu", islands));
      EXPECT_EQ(oracle, run(islands));
    }
  }
}

}  // namespace
}  // namespace rddr
