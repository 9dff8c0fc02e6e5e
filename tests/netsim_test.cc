// Unit tests for the simulator, network, and processor-sharing host.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "netsim/simulator.h"
#include "proto/pgwire/pgwire.h"
#include "sqldb/server.h"

namespace rddr::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(300, [&] { order.push_back(3); });
  sim.schedule(100, [&] { order.push_back(1); });
  sim.schedule(200, [&] { order.push_back(2); });
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300);
}

TEST(Simulator, FifoTieBreakAtSameTime) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(100, [&] { order.push_back(1); });
  sim.schedule(100, [&] { order.push_back(2); });
  sim.schedule(100, [&] { order.push_back(3); });
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  uint64_t id = sim.schedule(100, [&] { ran = true; });
  sim.cancel(id);
  sim.run_until_idle();
  EXPECT_FALSE(ran);
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int hits = 0;
  sim.schedule(10, [&] {
    ++hits;
    sim.schedule(10, [&] { ++hits; });
  });
  sim.run_until_idle();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(sim.now(), 20);
}

TEST(Simulator, RunUntilAdvancesClock) {
  Simulator sim;
  int hits = 0;
  sim.schedule(50, [&] { ++hits; });
  sim.schedule(500, [&] { ++hits; });
  sim.run_until(100);
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(sim.now(), 100);
  sim.run_until_idle();
  EXPECT_EQ(hits, 2);
}

class NetworkTest : public ::testing::Test {
 protected:
  Simulator sim;
  Network net{sim, 10 * kMicrosecond};
};

TEST_F(NetworkTest, ConnectRefusedWithoutListener) {
  EXPECT_EQ(net.connect("nobody:1"), nullptr);
}

TEST_F(NetworkTest, EchoRoundTrip) {
  ConnPtr server_side;
  net.listen("svc:80", [&](ConnPtr c) {
    server_side = c;
    c->set_on_data([c](ByteView data) { c->send(Bytes("echo:") + Bytes(data)); });
  });
  auto client = net.connect("svc:80", {.source = "client"});
  ASSERT_NE(client, nullptr);
  Bytes got;
  client->set_on_data([&](ByteView d) { got += Bytes(d); });
  client->send("hi");
  sim.run_until_idle();
  EXPECT_EQ(got, "echo:hi");
  ASSERT_NE(server_side, nullptr);
  EXPECT_EQ(server_side->meta().source, "client");
}

TEST_F(NetworkTest, AcceptQueueUnboundedByDefault) {
  int accepted = 0;
  net.listen("svc:80", [&](ConnPtr) { ++accepted; });
  std::vector<ConnPtr> conns;
  for (int i = 0; i < 100; ++i) conns.push_back(net.connect("svc:80"));
  for (const auto& c : conns) EXPECT_NE(c, nullptr);
  sim.run_until_idle();
  EXPECT_EQ(accepted, 100);
}

TEST_F(NetworkTest, FifoOrderingPreserved) {
  Bytes got;
  net.listen("svc:80", [&](ConnPtr c) {
    c->set_on_data([&got](ByteView d) { got += Bytes(d); });
  });
  auto client = net.connect("svc:80");
  client->send("a");
  client->send("b");
  client->send("c");
  sim.run_until_idle();
  EXPECT_EQ(got, "abc");
}

TEST_F(NetworkTest, DataBeforeHandlerIsBuffered) {
  ConnPtr server_side;
  net.listen("svc:80", [&](ConnPtr c) { server_side = c; });
  auto client = net.connect("svc:80");
  client->send("early");
  sim.run_until_idle();
  ASSERT_NE(server_side, nullptr);
  Bytes got;
  server_side->set_on_data([&](ByteView d) { got += Bytes(d); });
  sim.run_until_idle();
  EXPECT_EQ(got, "early");
}

TEST_F(NetworkTest, CloseDeliversAfterData) {
  std::vector<std::string> events;
  net.listen("svc:80", [&](ConnPtr c) {
    c->set_on_data([&](ByteView d) { events.push_back("data:" + std::string(d)); });
    c->set_on_close([&] { events.push_back("close"); });
  });
  auto client = net.connect("svc:80");
  client->send("bye");
  client->close();
  sim.run_until_idle();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], "data:bye");
  EXPECT_EQ(events[1], "close");
}

TEST_F(NetworkTest, LatencyIsApplied) {
  net.listen("svc:80", [&](ConnPtr c) { c->set_on_data([](ByteView) {}); });
  Time t_connected = -1;
  auto client = net.connect("svc:80");
  (void)client;
  // Accept fires after exactly one link latency.
  sim.schedule(0, [] {});
  sim.run_until_idle();
  t_connected = sim.now();
  EXPECT_EQ(t_connected, 10 * kMicrosecond);
}

TEST_F(NetworkTest, PeerSendAfterCloseIsDropped) {
  ConnPtr server_side;
  net.listen("svc:80", [&](ConnPtr c) { server_side = c; });
  auto client = net.connect("svc:80");
  sim.run_until_idle();
  client->close();
  sim.run_until_idle();
  EXPECT_FALSE(server_side->is_open());
  server_side->send("too late");  // must not crash or deliver
  Bytes got;
  client->set_on_data([&](ByteView d) { got += Bytes(d); });
  sim.run_until_idle();
  EXPECT_EQ(got, "");
}

class HostTest : public ::testing::Test {
 protected:
  Simulator sim;
};

TEST_F(HostTest, SingleTaskTakesItsCost) {
  Host host(sim, "h", 4, 1LL << 30);
  bool done = false;
  host.run_task(0.5, [&] { done = true; });
  sim.run_until_idle();
  EXPECT_TRUE(done);
  EXPECT_NEAR(to_seconds(sim.now()), 0.5, 1e-6);
}

TEST_F(HostTest, TasksWithinCoreCountRunInParallel) {
  Host host(sim, "h", 4, 1LL << 30);
  int done = 0;
  for (int i = 0; i < 4; ++i) host.run_task(1.0, [&] { ++done; });
  sim.run_until_idle();
  EXPECT_EQ(done, 4);
  EXPECT_NEAR(to_seconds(sim.now()), 1.0, 1e-6);  // no contention
}

TEST_F(HostTest, ProcessorSharingSlowsOverload) {
  Host host(sim, "h", 2, 1LL << 30);
  int done = 0;
  for (int i = 0; i < 4; ++i) host.run_task(1.0, [&] { ++done; });
  sim.run_until_idle();
  EXPECT_EQ(done, 4);
  // 4 core-seconds of work on 2 cores => 2 seconds wall.
  EXPECT_NEAR(to_seconds(sim.now()), 2.0, 1e-6);
}

TEST_F(HostTest, WorkConservation) {
  // Regardless of arrival pattern, total busy-core-seconds equals the work
  // submitted.
  Host host(sim, "h", 3, 1LL << 30);
  double total_work = 0;
  Rng rng(11);
  for (int i = 0; i < 20; ++i) {
    double work = 0.01 + rng.uniform01() * 0.2;
    total_work += work;
    sim.schedule(from_seconds(rng.uniform01() * 0.5),
                 [&host, work] { host.run_task(work, nullptr); });
  }
  sim.run_until_idle();
  EXPECT_NEAR(host.busy_core_seconds(), total_work, 1e-6);
}

TEST_F(HostTest, StaggeredArrivalCompletes) {
  Host host(sim, "h", 1, 1LL << 30);
  std::vector<double> completion;
  host.run_task(1.0, [&] { completion.push_back(to_seconds(sim.now())); });
  sim.schedule(from_seconds(0.5), [&] {
    host.run_task(1.0, [&] { completion.push_back(to_seconds(sim.now())); });
  });
  sim.run_until_idle();
  ASSERT_EQ(completion.size(), 2u);
  // First task: 0.5s alone + shares [0.5, 1.5] => finishes at 1.5.
  EXPECT_NEAR(completion[0], 1.5, 1e-6);
  // Second: got 0.5 core-seconds by 1.5, runs alone after => 2.0.
  EXPECT_NEAR(completion[1], 2.0, 1e-6);
}

TEST_F(HostTest, MemoryLedgerAndPeak) {
  Host host(sim, "h", 1, 1LL << 30);
  host.charge_memory(100);
  sim.run_until(1000);
  host.charge_memory(50);
  host.release_memory(120);
  EXPECT_EQ(host.memory_bytes(), 30);
  EXPECT_DOUBLE_EQ(host.max_memory_bytes(), 150.0);
}

TEST_F(HostTest, ZeroCostTaskCompletes) {
  Host host(sim, "h", 1, 1LL << 30);
  bool done = false;
  host.run_task(0.0, [&] { done = true; });
  sim.run_until_idle();
  EXPECT_TRUE(done);
}

TEST_F(HostTest, SamplingRecordsSeries) {
  Host host(sim, "h", 2, 1LL << 30);
  host.start_sampling(from_seconds(0.1));
  host.run_task(0.5, nullptr);
  host.run_task(0.5, nullptr);
  sim.run_until(from_seconds(1.0));
  host.stop_sampling();
  ASSERT_GE(host.samples().size(), 10u);
  // While both tasks run, both cores are busy.
  EXPECT_DOUBLE_EQ(host.samples()[1].cpu_pct, 100.0);
  // After completion, idle.
  EXPECT_DOUBLE_EQ(host.samples().back().cpu_pct, 0.0);
}

TEST_F(HostTest, MeanUtilization) {
  Host host(sim, "h", 2, 1LL << 30);
  host.run_task(1.0, nullptr);  // one core busy for 1s
  sim.run_until(from_seconds(2.0));
  // 1 core-second over 2s on 2 cores = 25%.
  EXPECT_NEAR(host.mean_utilization(), 0.25, 1e-6);
}

TEST_F(HostTest, FailedHostDropsWork) {
  Host host(sim, "h", 1, 1LL << 30);
  bool done = false;
  host.run_task(1.0, [&] { done = true; });
  sim.schedule(from_seconds(0.5), [&] { host.fail(); });
  sim.run_until_idle();
  EXPECT_FALSE(done);  // the in-flight task died with the host
  EXPECT_TRUE(host.failed());
  host.restore();
  host.run_task(0.1, [&] { done = true; });
  sim.run_until_idle();
  EXPECT_TRUE(done);
}

// ---------- fault injection ----------

class FaultNetTest : public ::testing::Test {
 protected:
  Simulator sim;
  Network net{sim, 10 * kMicrosecond};

  /// Echo listener at `address`; returns a counter of accepted conns.
  std::shared_ptr<int> listen_echo(const std::string& address) {
    auto accepted = std::make_shared<int>(0);
    net.listen(address, [accepted](ConnPtr c) {
      ++*accepted;
      c->set_on_data([c](ByteView d) { c->send(Bytes(d)); });
    });
    return accepted;
  }
};

TEST_F(FaultNetTest, CrashSeversConnectionsAndRefusesNewOnes) {
  listen_echo("srv:1");
  auto conn = net.connect("srv:1", {.source = "cli"});
  ASSERT_NE(conn, nullptr);
  bool closed = false;
  conn->set_on_close([&] { closed = true; });
  sim.run_until_idle();

  net.crash_node("srv");
  sim.run_until_idle();
  EXPECT_TRUE(closed);
  EXPECT_TRUE(net.node_down("srv"));
  EXPECT_EQ(net.connect("srv:1", {.source = "cli"}),
            nullptr);
  EXPECT_EQ(net.live_connections("srv"), 0u);

  net.restart_node("srv");
  EXPECT_NE(net.connect("srv:1", {.source = "cli"}),
            nullptr);
}

TEST_F(FaultNetTest, CrashLosesInFlightBytes) {
  // Bytes sent but not yet delivered when either endpoint's node crashes
  // are lost (abort, not graceful close): nothing reaches the server's
  // handlers — which a crashed server no longer has — and the client sees
  // the close.
  struct Case {
    const char* client;
    const char* server;
    const char* crashed;
  };
  for (const Case& tc : {Case{"cli-a", "srv-a", "cli-a"},
                         Case{"cli-b", "srv-b", "srv-b"}}) {
    SCOPED_TRACE(tc.crashed);
    auto got = std::make_shared<Bytes>();
    const std::string address = std::string(tc.server) + ":1";
    net.listen(address, [got](ConnPtr c) {
      c->set_on_data([c, got](ByteView d) { *got += Bytes(d); });
    });
    auto conn = net.connect(address, {.source = tc.client});
    ASSERT_NE(conn, nullptr);
    sim.run_until_idle();
    bool closed = false;
    conn->set_on_close([&] { closed = true; });
    conn->send("lost");
    net.crash_node(tc.crashed);
    sim.run_until_idle();
    EXPECT_EQ(*got, "");
    EXPECT_TRUE(closed);
  }
}

TEST_F(FaultNetTest, RefusedAddressBlocksOnlyThatAddress) {
  listen_echo("srv:1");
  listen_echo("srv:2");
  net.refuse_address("srv:1", true);
  EXPECT_EQ(net.connect("srv:1", {.source = "cli"}),
            nullptr);
  EXPECT_NE(net.connect("srv:2", {.source = "cli"}),
            nullptr);
  net.refuse_address("srv:1", false);
  EXPECT_NE(net.connect("srv:1", {.source = "cli"}),
            nullptr);
}

TEST_F(FaultNetTest, ExtraLatencyDelaysDelivery) {
  listen_echo("srv:1");
  auto conn = net.connect("srv:1", {.source = "cli"});
  sim.run_until_idle();
  net.set_node_extra_latency("srv", kMillisecond);
  Time sent_at = sim.now();
  Time got_at = 0;
  conn->set_on_data([&](ByteView) { got_at = sim.now(); });
  conn->send("ping");
  sim.run_until_idle();
  // Round trip: 2 hops of base latency, each inflated by the spike.
  EXPECT_EQ(got_at - sent_at, 2 * (10 * kMicrosecond + kMillisecond));
}

TEST_F(FaultNetTest, EgressStallHoldsBytesUntilDeadline) {
  Bytes got;
  ConnPtr server_side;
  net.listen("srv:1", [&](ConnPtr c) {
    server_side = c;
    c->set_on_data([&got](ByteView d) { got += Bytes(d); });
  });
  auto conn = net.connect("srv:1", {.source = "cli"});
  sim.run_until_idle();
  net.stall_node_egress_until("cli", 5 * kMillisecond);
  conn->send("late");
  sim.run_until(4 * kMillisecond);
  EXPECT_EQ(got, "");  // still stalled
  sim.run_until_idle();
  EXPECT_EQ(got, "late");
  EXPECT_GE(sim.now(), 5 * kMillisecond);
}

TEST_F(FaultNetTest, PartitionBlocksCrossGroupAndHeals) {
  listen_echo("a:1");
  listen_echo("b:1");
  auto cross = net.connect("b:1", {.source = "a"});
  ASSERT_NE(cross, nullptr);
  bool cross_closed = false;
  cross->set_on_close([&] { cross_closed = true; });
  sim.run_until_idle();

  net.partition({"a", "c"});
  sim.run_until_idle();
  EXPECT_TRUE(cross_closed);  // severed: a and b are now on opposite sides
  EXPECT_EQ(net.connect("b:1", {.source = "a"}), nullptr);
  EXPECT_NE(net.connect("a:1", {.source = "c"}), nullptr);

  net.heal_partition();
  EXPECT_NE(net.connect("b:1", {.source = "a"}), nullptr);
}

// ---- cancel regression: O(1), no retained state, stale ids harmless ----

TEST(SimulatorCancel, CancelAfterFireIsANoop) {
  Simulator sim;
  int ran = 0;
  uint64_t id = sim.schedule(100, [&] { ++ran; });
  sim.run_until_idle();
  EXPECT_EQ(ran, 1);
  sim.cancel(id);  // must not blow up, miscount, or retain anything
  sim.cancel(id);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run_until_idle();
  EXPECT_EQ(ran, 1);
}

TEST(SimulatorCancel, DoubleCancelCountsOnce) {
  Simulator sim;
  uint64_t id = sim.schedule(100, [] {});
  sim.schedule(200, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(id);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.cancel(id);  // regression: used to be able to skew the pending count
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.run_until_idle(), 1u);
}

TEST(SimulatorCancel, StaleIdDoesNotCancelSlotReusingEvent) {
  Simulator sim;
  // Fire-and-release an event so its storage slot goes back on the free
  // list, then schedule a fresh event that reuses the slot. The stale id
  // (same slot, older generation) must not touch the new event.
  uint64_t stale = sim.schedule(10, [] {});
  sim.run_until_idle();
  bool ran = false;
  sim.schedule(10, [&] { ran = true; });
  sim.cancel(stale);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until_idle();
  EXPECT_TRUE(ran);
}

TEST(SimulatorCancel, PendingCountExactThroughChurn) {
  Simulator sim;
  // Heavy schedule/cancel/fire churn: pending_events must track exactly
  // (the old implementation's cancelled-set bookkeeping could drift, and
  // grew without bound under cancel-heavy workloads).
  Rng rng(7);
  size_t expected = 0;
  std::vector<uint64_t> live;
  for (int round = 0; round < 200; ++round) {
    uint64_t id = sim.schedule(static_cast<Time>(rng.uniform(1, 50)), [] {});
    live.push_back(id);
    ++expected;
    if (rng.uniform(0, 2) == 0 && !live.empty()) {
      size_t k = static_cast<size_t>(
          rng.uniform(0, static_cast<int>(live.size()) - 1));
      sim.cancel(live[k]);
      sim.cancel(live[k]);  // double-cancel must not double-count
      live.erase(live.begin() + static_cast<long>(k));
      --expected;
    }
    ASSERT_EQ(sim.pending_events(), expected);
    if (round % 17 == 0) {
      while (sim.step()) --expected;
      live.clear();
      ASSERT_EQ(sim.pending_events(), 0u);
      expected = 0;
    }
  }
  sim.run_until_idle();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorCancel, CancelFromInsideEventCancelsLaterSameTickEvent) {
  Simulator sim;
  bool second_ran = false;
  uint64_t second = 0;
  sim.schedule(100, [&] { sim.cancel(second); });
  second = sim.schedule(100, [&] { second_ran = true; });
  sim.run_until_idle();
  EXPECT_FALSE(second_ran);
}

TEST(Simulator, MoveOnlyCapture) {
  Simulator sim;
  auto payload = std::make_unique<int>(41);
  int got = 0;
  // std::function could not hold this capture; EventFn must.
  sim.schedule(5, [p = std::move(payload), &got] { got = *p + 1; });
  sim.run_until_idle();
  EXPECT_EQ(got, 42);
}

// ---- zero-copy data plane ----

TEST(NetworkSharedBytes, SharedSendFansOutWithoutCopying) {
  Simulator sim;
  Network net(sim, 100);
  std::vector<Bytes> got(3);
  std::vector<ConnPtr> accepted;
  for (int i = 0; i < 3; ++i)
    net.listen("up-" + std::to_string(i) + ":1",
               [&got, &accepted, i](ConnPtr c) {
                 c->set_on_data([&got, i](ByteView d) {
                   got[static_cast<size_t>(i)] += Bytes(d);
                 });
                 accepted.push_back(std::move(c));
               });
  std::vector<ConnPtr> conns;
  for (int i = 0; i < 3; ++i)
    conns.push_back(net.connect("up-" + std::to_string(i) + ":1",
                                {.source = "proxy"}));
  sim.run_until_idle();

  SharedBytes payload{Bytes("select 1;")};
  for (auto& c : conns) c->send(payload);
  sim.run_until_idle();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], "select 1;");
  // Three sends of nine bytes, none copied by the transport.
  EXPECT_EQ(net.payload_bytes_sent(), 27u);
  EXPECT_EQ(net.payload_bytes_copied(), 0u);
}

TEST(NetworkSharedBytes, ByteViewSendCountsCopies) {
  Simulator sim;
  Network net(sim, 100);
  Bytes got;
  ConnPtr server_side;
  net.listen("srv:1", [&](ConnPtr c) {
    server_side = c;
    c->set_on_data([&](ByteView d) { got += Bytes(d); });
  });
  auto conn = net.connect("srv:1", {.source = "cli"});
  sim.run_until_idle();
  conn->send("hello");
  sim.run_until_idle();
  EXPECT_EQ(got, "hello");
  EXPECT_EQ(net.payload_bytes_sent(), 5u);
  EXPECT_EQ(net.payload_bytes_copied(), 5u);
}

TEST(NetworkSharedBytes, SameTickSendsDeliverSeparatelyInOrder) {
  Simulator sim;
  Network net(sim, 100);
  std::vector<Bytes> chunks;
  ConnPtr server_side;
  net.listen("srv:1", [&](ConnPtr c) {
    server_side = c;
    c->set_on_data([&](ByteView d) { chunks.push_back(Bytes(d)); });
  });
  auto conn = net.connect("srv:1", {.source = "cli"});
  sim.run_until_idle();
  // Every send is its own delivery event, whether or not anything else
  // was scheduled between the sends: delivery granularity must not
  // depend on which island the receiving half lives on.
  conn->send("aa");
  conn->send("bb");
  sim.schedule(100, [] {});
  conn->send("cc");
  sim.run_until_idle();
  EXPECT_EQ(chunks, (std::vector<Bytes>{"aa", "bb", "cc"}));
}

TEST(NetworkSharedBytes, CloseStillDeliversSentBytesFirst) {
  Simulator sim;
  Network net(sim, 100);
  Bytes got;
  bool closed = false;
  ConnPtr server_side;
  net.listen("srv:1", [&](ConnPtr c) {
    server_side = c;
    c->set_on_data([&](ByteView d) { got += Bytes(d); });
    c->set_on_close([&] { closed = true; });
  });
  auto conn = net.connect("srv:1", {.source = "cli"});
  sim.run_until_idle();
  conn->send("one");
  conn->send("two");
  conn->close();
  sim.run_until_idle();
  EXPECT_EQ(got, "onetwo");
  EXPECT_TRUE(closed);
}

// ---- connection lifetime: handlers release their halves ----

bool all_expired(const std::vector<std::weak_ptr<Connection>>& halves) {
  return std::all_of(halves.begin(), halves.end(),
                     [](const auto& w) { return w.expired(); });
}

// Records the connection half each SELECT runs under: the SqlServer
// executes queries inside its data handler, where that half is the
// ambient flow.
class ServerHalfTap : public sqldb::MutationListener {
 public:
  explicit ServerHalfTap(std::vector<std::weak_ptr<Connection>>& halves)
      : halves_(halves) {}
  void on_scan(const sqldb::TableData&, const sqldb::IntIndex*,
               int64_t) override {
    if (Connection* c = current_flow()) halves_.push_back(c->weak_from_this());
  }

 private:
  std::vector<std::weak_ptr<Connection>>& halves_;
};

TEST(ConnectionLifetime, QueryCyclesAgainstSqlServerFreeBothHalves) {
  Simulator sim;
  Network net(sim, 10 * kMicrosecond);
  Host host(sim, "db", 8, 8LL << 30);
  auto db = std::make_shared<sqldb::Database>(sqldb::minipg_info("10.7"));
  sqldb::Session(*db, "postgres")
      .execute("CREATE TABLE t (a int); INSERT INTO t VALUES (1), (2);");
  std::vector<std::weak_ptr<Connection>> client_halves, server_halves;
  ServerHalfTap tap(server_halves);
  db->set_mutation_listener(&tap);
  sqldb::SqlServer::Options so;
  so.address = "db:5432";
  sqldb::SqlServer server(net, host, db, so);

  // Each client's handler holds its own half (the usual cycle) and ends
  // the session after the query's ReadyForQuery: Terminate, then close.
  constexpr int kCycles = 1000;
  int rows = 0;
  for (int i = 0; i < kCycles; ++i) {
    ConnPtr conn = net.connect("db:5432", {.source = "app"});
    ASSERT_NE(conn, nullptr);
    client_halves.push_back(conn);
    auto reader = std::make_shared<pg::MessageReader>(false);
    auto ready = std::make_shared<int>(0);
    conn->set_on_data([conn, reader, ready, &rows](ByteView d) {
      reader->feed(d);
      reader->take([&](const pg::Message& m) {
        if (m.type == 'D') ++rows;
        if (m.type == 'Z' && ++*ready == 2) {
          conn->send(pg::build_terminate());
          conn->close();
        }
        return true;
      });
    });
    conn->send(pg::build_startup({{"user", "postgres"}, {"database", "app"}}));
    conn->send(pg::build_query("SELECT a FROM t;"));
  }
  sim.run_until_idle();
  db->set_mutation_listener(nullptr);
  EXPECT_EQ(rows, 2 * kCycles);
  EXPECT_EQ(server_halves.size(), static_cast<size_t>(kCycles));
  EXPECT_TRUE(all_expired(client_halves));
  EXPECT_TRUE(all_expired(server_halves));
}

TEST(ConnectionLifetime, HandlersThatCloseAbortOrReinstallOnTheirOwnHalf) {
  Simulator sim;
  auto net = std::make_unique<Network>(sim, 100);
  std::vector<std::weak_ptr<Connection>> clients, servers;
  int closes = 0;
  // Every close handler installs a data handler holding its own half;
  // it must be dropped, since no data reaches that half again.
  auto reinstall = [&closes](const ConnPtr& c) {
    c->set_on_close([c, &closes] {
      ++closes;
      c->set_on_data([c](ByteView) { c->send("late"); });
    });
  };
  // The server's data handler closes or aborts its own half.
  net->listen("svc:80", [&](ConnPtr c) {
    servers.push_back(c);
    c->set_on_data([c](ByteView d) {
      if (d == "abort") c->abort();
      else c->close();
    });
    reinstall(c);
  });
  for (const char* cmd : {"close", "abort"}) {
    ConnPtr client = net->connect("svc:80", {.source = "cli"});
    clients.push_back(client);
    reinstall(client);
    client->send(cmd);
  }
  sim.run_until_idle();
  ASSERT_EQ(servers.size(), 2u);
  // Both clients hear the close; of the servers only the one that aborted
  // does (its own RST). A graceful close is delivered to the peer alone,
  // so the half that closed keeps its handlers until the Network goes.
  EXPECT_EQ(closes, 3);
  EXPECT_TRUE(all_expired(clients));
  EXPECT_TRUE(servers[1].expired());
  EXPECT_FALSE(servers[0].expired());
  net.reset();
  EXPECT_TRUE(servers[0].expired());
}

TEST(ConnectionLifetime, CloseDeliveredInsideTheRunningDataHandlerWaitsForIt) {
  // A data handler that drives the simulator re-enters its own half: the
  // RST it queued by abort() is delivered while it is still running. The
  // closure it runs in (and what it captured) must outlive the call.
  Simulator sim;
  Network net(sim, 100);
  std::weak_ptr<int> state_alive;
  std::weak_ptr<Connection> server_half;
  bool closed = false, alive_after_nested_close = false;
  net.listen("svc:80", [&](ConnPtr c) {
    server_half = c;
    auto state = std::make_shared<int>(0);  // owned by the data handler
    state_alive = state;
    c->set_on_data([c, state, &sim, &closed, &alive_after_nested_close,
                    &state_alive](ByteView) {
      c->abort();
      sim.run_until_idle();
      alive_after_nested_close = closed && !state_alive.expired();
      ++*state;
    });
    c->set_on_close([&closed] { closed = true; });
  });
  ConnPtr client = net.connect("svc:80", {.source = "cli"});
  client->send("x");
  client.reset();
  sim.run_until_idle();
  EXPECT_TRUE(alive_after_nested_close);
  EXPECT_TRUE(state_alive.expired());  // released once the frame unwound
  EXPECT_TRUE(server_half.expired());
}

TEST(ConnectionLifetime, OpenKeepAliveHalfExpiresWithTheNetwork) {
  Simulator sim;
  auto net = std::make_unique<Network>(sim, 100);
  std::vector<std::weak_ptr<Connection>> halves;
  net->listen("svc:80", [&](ConnPtr c) {
    halves.push_back(c);
    c->set_on_data([c](ByteView d) { c->send(d); });  // never closes
  });
  ConnPtr client = net->connect("svc:80", {.source = "cli"});
  halves.push_back(client);
  Bytes echoed;
  client->set_on_data([client, &echoed](ByteView d) { echoed += Bytes(d); });
  client->send("ping");
  client.reset();
  sim.run_until_idle();
  EXPECT_EQ(echoed, "ping");
  EXPECT_FALSE(all_expired(halves));
  net.reset();
  EXPECT_TRUE(all_expired(halves));
}

}  // namespace
}  // namespace rddr::sim
