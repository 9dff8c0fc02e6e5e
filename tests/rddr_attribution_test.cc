// Execution indexing & divergence attribution (common/exec_index.h,
// rddr/divergence.h): index semantics, ambient derivation at dial time,
// nested propagation through a protected edge (including resync shadow
// replay), the DivergenceBus reporting surface (per-callsite dedup,
// re-entrant listener subscription), targeted path quarantine, and
// same-seed determinism of attributed records.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "common/exec_index.h"
#include "common/strutil.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "netsim/simulator.h"
#include "proto/http/message.h"
#include "rddr/deployment.h"
#include "rddr/plugins.h"
#include "scenario/topology.h"
#include "services/http_service.h"
#include "sqldb/client.h"
#include "sqldb/server.h"
#include "workloads/pgbench.h"

namespace rddr::core {
namespace {

using rddr::ExecutionIndex;

// The FlowContext port is total: ConnectMeta carries exactly (source,
// flow); trace identity and the execution index live on the flow.
static_assert(std::is_same_v<decltype(sim::ConnectMeta::flow),
                             sim::FlowContext>,
              "ConnectMeta must carry a FlowContext");
static_assert(std::is_same_v<decltype(sim::FlowContext::index),
                             ExecutionIndex>,
              "FlowContext must carry the execution index");

// ---------------------------------------------------------------------------
// ExecutionIndex unit semantics.

TEST(ExecutionIndex, SiteIdIsDeterministicAndKeyed) {
  const uint64_t a = ExecutionIndex::site_id("mid-0", "inner:5432");
  EXPECT_EQ(a, ExecutionIndex::site_id("mid-0", "inner:5432"));
  EXPECT_NE(a, ExecutionIndex::site_id("mid-1", "inner:5432"));
  EXPECT_NE(a, ExecutionIndex::site_id("mid-0", "inner:5433"));
  // The ':' separator is mixed in: ("ab","c") must not collide with
  // ("a","bc") by concatenation.
  EXPECT_NE(ExecutionIndex::site_id("ab", "c"),
            ExecutionIndex::site_id("a", "bc"));
}

TEST(ExecutionIndex, FramesHashAndDescribe) {
  ExecutionIndex idx;
  EXPECT_TRUE(idx.empty());
  EXPECT_EQ(idx.hash(), 0u);
  EXPECT_EQ(idx.leaf_site(), 0u);
  EXPECT_EQ(idx.describe(), "-");

  idx.push("edge", "front:80", 7);
  ExecutionIndex child = idx.child("app-0", "mid-0:80", 0);
  EXPECT_EQ(idx.depth(), 1u);
  EXPECT_EQ(child.depth(), 2u);
  EXPECT_EQ(child.root().site, ExecutionIndex::site_id("edge", "front:80"));
  EXPECT_EQ(child.leaf().site, ExecutionIndex::site_id("app-0", "mid-0:80"));
  EXPECT_EQ(child.leaf_site(), child.leaf().site);

  // Equal stacks hash equal; any frame difference changes the hash.
  ExecutionIndex same;
  same.push("edge", "front:80", 7);
  same.push("app-0", "mid-0:80", 0);
  EXPECT_EQ(child, same);
  EXPECT_EQ(child.hash(), same.hash());
  ExecutionIndex other = idx.child("app-0", "mid-0:80", 1);
  EXPECT_NE(child, other);
  EXPECT_NE(child.hash(), other.hash());

  EXPECT_EQ(child.describe(),
            strformat("%llx#7/%llx#0",
                      static_cast<unsigned long long>(child.root().site),
                      static_cast<unsigned long long>(child.leaf().site)));
}

TEST(ExecutionIndex, SerializeRoundTrip) {
  ExecutionIndex idx;
  idx.push("a", "b:1", 0);
  idx.push("c", "d:2", 3);
  std::vector<uint64_t> ints = idx.serialize();
  ASSERT_EQ(ints.size(), 4u);
  ExecutionIndex back = ExecutionIndex::deserialize(ints);
  EXPECT_EQ(back, idx);
  EXPECT_EQ(back.hash(), idx.hash());
  EXPECT_EQ(ExecutionIndex::deserialize({}).depth(), 0u);
}

// ---------------------------------------------------------------------------
// Ambient derivation at dial time (netsim).

TEST(FlowDerivation, DialInsideHandlerExtendsInboundIndex) {
  sim::Simulator simu;
  sim::Network net(simu, 10 * sim::kMicrosecond);

  std::vector<sim::FlowContext> seen_at_b;
  std::vector<sim::ConnPtr> held;
  net.listen("b:1", [&](sim::ConnPtr c) {
    seen_at_b.push_back(c->flow());
    held.push_back(std::move(c));
  });
  net.listen("a:1", [&](sim::ConnPtr c) {
    c->set_on_data([&net, &held](ByteView) {
      // Two dials of the same site from inside the handler: seq 0, 1.
      held.push_back(net.connect("b:1", {.source = "a"}));
      held.push_back(net.connect("b:1", {.source = "a"}));
    });
    held.push_back(std::move(c));
  });

  sim::ConnectMeta meta;
  meta.source = "client";
  meta.flow.trace_id = 77;
  auto conn = net.connect("a:1", meta);
  ASSERT_NE(conn, nullptr);
  conn->send(Bytes("x"));
  simu.run_until_idle();

  ASSERT_EQ(seen_at_b.size(), 2u);
  const uint64_t site = ExecutionIndex::site_id("a", "b:1");
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(seen_at_b[i].trace_id, 77u) << i;  // trace rides the flow
    ASSERT_EQ(seen_at_b[i].index.depth(), 1u) << i;
    EXPECT_EQ(seen_at_b[i].index.leaf().site, site) << i;
    EXPECT_EQ(seen_at_b[i].index.leaf().seq, i) << i;  // per-site ordinal
  }
}

TEST(FlowDerivation, ExplicitFieldsWinAndTopLevelDialsStayEmpty) {
  sim::Simulator simu;
  sim::Network net(simu, 10 * sim::kMicrosecond);

  std::vector<sim::FlowContext> seen;
  std::vector<sim::ConnPtr> held;
  net.listen("b:1", [&](sim::ConnPtr c) {
    seen.push_back(c->flow());
    held.push_back(std::move(c));
  });
  net.listen("a:1", [&](sim::ConnPtr c) {
    c->set_on_data([&net, &held](ByteView) {
      sim::ConnectMeta m;
      m.source = "a";
      m.flow.trace_id = 5;
      m.flow.index.push("explicit", "site", 9);
      held.push_back(net.connect("b:1", m));
    });
    held.push_back(std::move(c));
  });

  // Top-level dial: no ambient flow, index stays empty.
  auto top = net.connect("b:1", {.source = "client"});
  ASSERT_NE(top, nullptr);

  sim::ConnectMeta meta;
  meta.source = "client";
  meta.flow.trace_id = 1;
  auto conn = net.connect("a:1", meta);
  ASSERT_NE(conn, nullptr);
  conn->send(Bytes("x"));
  simu.run_until_idle();

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_TRUE(seen[0].index.empty());
  EXPECT_EQ(seen[0].trace_id, 0u);
  ASSERT_EQ(seen[1].index.depth(), 1u);  // explicit index untouched
  EXPECT_EQ(seen[1].index.leaf().site,
            ExecutionIndex::site_id("explicit", "site"));
  EXPECT_EQ(seen[1].index.leaf().seq, 9u);
  EXPECT_EQ(seen[1].trace_id, 5u);
}

// ---------------------------------------------------------------------------
// DivergenceBus: the one reporting surface.

DivergenceRecord make_record(const std::string& proxy,
                             const std::string& verdict, uint64_t leaf_site) {
  DivergenceRecord rec;
  rec.proxy = proxy;
  rec.protocol = "http";
  rec.verdict = verdict;
  rec.unit_kind = "http-resp";
  rec.reason = "test";
  if (leaf_site) rec.index.push(leaf_site, 0);
  return rec;
}

TEST(DivergenceBus, RecordsDedupPerCallsiteAndCountIsInterventions) {
  DivergenceBus bus;

  bus.report(make_record("edge", "intervention", 0xaaa));
  bus.report(make_record("edge", "intervention", 0xaaa));
  bus.report(make_record("edge", "outvote", 0xaaa));
  bus.report(make_record("edge", "intervention", 0xbbb));

  ASSERT_EQ(bus.records().size(), 4u);
  EXPECT_EQ(bus.count(), 3u);  // interventions only
  size_t interventions = 0;
  for (const auto& r : bus.records())
    if (r.is_intervention()) ++interventions;
  EXPECT_EQ(interventions, 3u);
  EXPECT_FALSE(bus.records()[2].is_intervention());
  // Same (protocol, kind, callsite) collapses however often it fires.
  EXPECT_EQ(bus.unique_callsites(), 2u);
  EXPECT_EQ(bus.callsites().at("http|http-resp|cs=aaa"), 3u);
  EXPECT_EQ(bus.callsites().at("http|http-resp|cs=bbb"), 1u);

  EXPECT_EQ(attribution_key(make_record("e", "intervention", 0)),
            "http|http-resp|cs=0");  // indexless records share cs=0

  bus.clear();
  EXPECT_EQ(bus.records().size(), 0u);
  EXPECT_EQ(bus.unique_callsites(), 0u);
  EXPECT_EQ(bus.count(), 0u);
  // The intervention count restarts from zero after clear().
  bus.report(make_record("edge", "intervention", 0xaaa));
  EXPECT_EQ(bus.count(), 1u);
}

TEST(DivergenceBus, ReentrantSubscribeDuringDispatchIsSafe) {
  DivergenceBus bus;
  int first_calls = 0, late_calls = 0, record_calls = 0;
  // The first listener subscribes another listener while the bus is
  // dispatching — this used to require a defensive copy of the listener
  // vector on every record; index-based iteration must survive the
  // reallocation, and the listener appended mid-dispatch sees the current
  // record too.
  bus.subscribe_records([&](const DivergenceRecord&) {
    ++first_calls;
    if (first_calls == 1)
      bus.subscribe_records([&](const DivergenceRecord&) { ++late_calls; });
  });
  bus.subscribe_records([&](const DivergenceRecord&) { ++record_calls; });

  bus.report(make_record("edge", "intervention", 1));
  EXPECT_EQ(first_calls, 1);
  EXPECT_EQ(record_calls, 1);
  EXPECT_EQ(late_calls, 1);  // appended mid-dispatch: sees this record too

  bus.report(make_record("edge", "outvote", 1));
  EXPECT_EQ(first_calls, 2);
  EXPECT_EQ(late_calls, 2);
  EXPECT_EQ(record_calls, 2);
}

// ---------------------------------------------------------------------------
// Nested propagation through a protected edge, and path quarantine.

class EdgeFixture : public ::testing::Test {
 protected:
  sim::Simulator simu;
  sim::Network net{simu, 10 * sim::kMicrosecond};
  sim::Host host{simu, "host", 8, 8LL << 30};
  std::vector<std::unique_ptr<services::HttpServer>> servers;
  std::vector<std::unique_ptr<services::HttpClient>> clients;
  std::unique_ptr<NVersionDeployment> dep;
  std::vector<DivergenceRecord> records;

  /// Three app instances behind "svc:80": /ok agrees, /diverge leaks a
  /// version-keyed value from instance 2.
  void build_edge(uint32_t path_quarantine_threshold = 0) {
    for (size_t i = 0; i < 3; ++i) {
      services::HttpServer::Options o;
      o.address = strformat("i%zu:80", i);
      auto s = std::make_unique<services::HttpServer>(net, host, o);
      s->set_handler([i](const http::Request& req,
                         services::Responder respond) {
        const char* body = req.target == "/diverge" && i == 2
                               ? "LEAK-v2"
                               : "same";
        respond(http::make_response(200, body, "text/plain"));
      });
      servers.push_back(std::move(s));
    }
    dep = NVersionDeployment::Builder()
              .name("edge")
              .listen("svc:80")
              .versions({"i0:80", "i1:80", "i2:80"})
              .plugin(std::make_shared<HttpPlugin>())
              .filter_pair(true)
              .degradation(DegradationPolicy::kStrict)
              .path_quarantine(path_quarantine_threshold)
              .on_divergence(
                  [this](const DivergenceRecord& r) { records.push_back(r); })
              .build(net, host);
  }

  /// A mid-tier forwarder at `node`:80 that relays its requests to the
  /// protected edge — the nested call site the index must capture.
  void build_caller(const std::string& node) {
    services::HttpServer::Options o;
    o.address = node + ":80";
    auto s = std::make_unique<services::HttpServer>(net, host, o);
    auto c = std::make_unique<services::HttpClient>(net, node);
    services::HttpClient* cp = c.get();
    s->set_handler([cp](const http::Request& req,
                        services::Responder respond) {
      cp->get("svc:80", req.target,
              [respond](int status, const http::Response* r) {
                respond(http::make_response(status > 0 ? status : 502,
                                            r ? std::string(r->body) : "err",
                                            "text/plain"));
              });
    });
    servers.push_back(std::move(s));
    clients.push_back(std::move(c));
  }

  /// GET `target` at `address` with an explicit trace; returns status.
  int get(const std::string& address, const std::string& target,
          uint64_t trace) {
    int status = -1;
    sim::ConnectMeta meta;
    meta.source = "user";
    meta.flow.trace_id = trace;
    auto conn = net.connect(address, meta);
    if (!conn) return status;
    auto parser = std::make_shared<http::ResponseParser>();
    conn->set_on_data([parser, &status](ByteView d) {
      parser->feed(d);
      auto msgs = parser->take();
      if (!msgs.empty() && status < 0) status = msgs[0].status;
    });
    http::Request req;
    req.method = "GET";
    req.target = target;
    req.headers.set("Host", address);
    conn->send(req.to_bytes());
    simu.run_until_idle();
    if (conn->is_open()) conn->close();
    simu.run_until_idle();
    return status;
  }
};

TEST_F(EdgeFixture, NestedDivergenceAttributesToCallersDialSite) {
  build_edge();
  build_caller("caller");

  // Direct edge request: the record's index is the minted root frame.
  EXPECT_EQ(get("svc:80", "/diverge", 0x100), 403);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].proxy, "edge");
  EXPECT_EQ(records[0].trace_id, 0x100u);
  ASSERT_EQ(records[0].index.depth(), 1u);
  EXPECT_EQ(records[0].index.leaf_site(),
            ExecutionIndex::site_id("edge", "svc:80"));

  // Nested request through the caller tier: attribution pins the exact
  // call site that dialed the protected edge, plus the caller's trace.
  EXPECT_EQ(get("caller:80", "/diverge", 0x200), 403);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].proxy, "edge");
  EXPECT_EQ(records[1].trace_id, 0x200u);
  ASSERT_EQ(records[1].index.depth(), 1u);
  EXPECT_EQ(records[1].index.leaf_site(),
            ExecutionIndex::site_id("caller", "svc:80"));

  // Same callsite key space as the bus: both records share protocol/kind
  // but differ in cs=, so they do NOT collapse together.
  EXPECT_NE(attribution_key(records[0]), attribution_key(records[1]));
}

TEST_F(EdgeFixture, PathQuarantineBlocksOneCallPathOnly) {
  build_edge(/*path_quarantine_threshold=*/1);
  build_caller("caller-1");
  build_caller("caller-2");

  // First nested divergence: intervention, one strike on caller-1's site.
  EXPECT_EQ(get("caller-1:80", "/diverge", 1), 403);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(dep->incoming().stats().path_blocks, 0u);

  // caller-1's path is now quarantined: even a benign request through it
  // is refused at accept, without touching the instances.
  const uint64_t sessions_before = dep->incoming().stats().sessions;
  EXPECT_EQ(get("caller-1:80", "/ok", 2), 403);
  EXPECT_EQ(dep->incoming().stats().path_blocks, 1u);
  EXPECT_EQ(dep->incoming().stats().sessions, sessions_before);
  EXPECT_EQ(records.size(), 1u);  // a path block is not a new divergence

  // Every other path through the graph keeps working: a different caller
  // and the direct (root) edge are unaffected.
  EXPECT_EQ(get("caller-2:80", "/ok", 3), 200);
  EXPECT_EQ(get("svc:80", "/ok", 4), 200);
}

// ---------------------------------------------------------------------------
// Resync paths: journal replay is infra traffic with its own root frame;
// catch-up shadow replay nests under the originating session's index.

struct RelayRecord {
  std::string label;
  uint64_t trace = 0;
  ExecutionIndex index;
};

/// A byte relay that records each accepted connection's FlowContext and
/// forwards the context verbatim to the wrapped backend — a transparent
/// observation point between the proxy and an instance.
class RecordingRelay {
 public:
  RecordingRelay(sim::Network& net, std::string addr, std::string backend)
      : net_(net), addr_(std::move(addr)), backend_(std::move(backend)) {
    open();
  }
  ~RecordingRelay() { if (up_) net_.unlisten(addr_); }

  void open() {
    net_.listen(addr_, [this](sim::ConnPtr c) { accept(std::move(c)); });
    up_ = true;
  }
  void crash() {
    net_.unlisten(addr_);
    up_ = false;
    for (auto& c : conns_)
      if (c && c->is_open()) c->close();
    conns_.clear();
  }

  const std::vector<RelayRecord>& records() const { return records_; }

 private:
  void accept(sim::ConnPtr c) {
    records_.push_back({c->flow().label, c->flow().trace_id, c->flow().index});
    sim::ConnectMeta meta;
    meta.source = sim::Network::node_of(addr_);
    meta.flow = c->flow();  // explicit fields win: forwarded verbatim
    auto b = net_.connect(backend_, meta);
    if (!b) {
      c->close();
      return;
    }
    c->set_on_data([b](ByteView d) { b->send(d); });
    b->set_on_data([c](ByteView d) { c->send(d); });
    c->set_on_close([b] { b->close(); });
    b->set_on_close([c] { c->close(); });
    conns_.push_back(std::move(c));
  }

  sim::Network& net_;
  std::string addr_, backend_;
  bool up_ = false;
  std::vector<RelayRecord> records_;
  std::vector<sim::ConnPtr> conns_;
};

TEST(ResyncAttribution, ReplayAndShadowIndicesNestCorrectly) {
  sim::Simulator simu;
  sim::Network net(simu, 10 * sim::kMicrosecond);
  sim::Host db_host(simu, "db-host", 8, 8LL << 30);
  sim::Host proxy_host(simu, "proxy-host", 4, 4LL << 30);

  constexpr int kAccounts = 20;
  std::vector<std::shared_ptr<sqldb::SqlServer>> raws;
  std::vector<std::unique_ptr<RecordingRelay>> relays;
  for (size_t i = 0; i < 3; ++i) {
    auto db = std::make_shared<sqldb::Database>(sqldb::minipg_info("13.0"));
    workloads::load_pgbench(*db, kAccounts, /*seed=*/9);
    sqldb::SqlServer::Options so;
    so.address = strformat("raw-%zu:5432", i);
    raws.push_back(std::make_shared<sqldb::SqlServer>(net, db_host, db, so));
    relays.push_back(std::make_unique<RecordingRelay>(
        net, strformat("pg-%zu:5432", i), so.address));
  }

  ResyncOptions resync;
  resync.min_transfer_time = 600 * sim::kMillisecond;
  resync.warm = [&raws](size_t i) -> ResyncOptions::WarmResult {
    std::string snap = raws[(i + 1) % 3]->dump_snapshot();
    if (!raws[i]->load_snapshot(snap)) return {};
    return {.bytes = static_cast<int64_t>(snap.size())};
  };
  HealthTracker::Options health;
  health.failure_threshold = 1;
  health.reconnect_base_delay = 50 * sim::kMillisecond;
  health.reconnect_max_delay = 1 * sim::kSecond;
  health.reconnect_jitter = 0;

  auto dep = NVersionDeployment::Builder()
                 .name("selfheal")
                 .listen("front:5432")
                 .versions({"pg-0:5432", "pg-1:5432", "pg-2:5432"})
                 .plugin(std::make_shared<PgPlugin>())
                 .filter_pair(true)
                 .degradation(DegradationPolicy::kQuorum)
                 .health(health)
                 .unit_timeout(250 * sim::kMillisecond)
                 .resync(resync)
                 .build(net, proxy_host);

  // One long-lived write session with an explicit trace, spanning the
  // crash, the transfer window, and readmission.
  sim::ConnectMeta meta;
  meta.source = "client";
  meta.flow.trace_id = 0xABC;
  auto pg = std::make_unique<sqldb::PgClient>(net, "front:5432", "postgres",
                                              meta);
  // A local the pending event refers to, so no closure owns itself.
  size_t issued = 0;
  std::function<void()> step = [&] {
    if (issued >= 60 || pg->broken()) return;
    size_t qi = issued++;
    pg->query(strformat("UPDATE pgbench_accounts SET abalance = abalance "
                        "+ 1 WHERE aid = %zu",
                        qi % kAccounts + 1),
              [](sqldb::QueryOutcome) {});
    simu.schedule(100 * sim::kMillisecond, [&step] { step(); });
  };
  simu.schedule(10 * sim::kMillisecond, [&step] { step(); });

  simu.schedule_at(1 * sim::kSecond, [&relays] { relays[0]->crash(); });
  simu.schedule_at(2 * sim::kSecond, [&relays] { relays[0]->open(); });
  simu.run_until(15 * sim::kSecond);
  pg->close();
  simu.run_until_idle();

  auto stats = dep->incoming().stats();
  ASSERT_GE(stats.resyncs, 1u);
  ASSERT_GT(stats.journal_replayed_requests, 0u);
  EXPECT_EQ(dep->divergences(), 0u);

  const uint64_t root_site =
      ExecutionIndex::site_id("selfheal", "front:5432");
  const uint64_t replay_site =
      ExecutionIndex::site_id("selfheal", "resync-replay");
  const uint64_t shadow_site =
      ExecutionIndex::site_id("selfheal", "catchup-shadow");
  size_t upstream = 0, replay = 0, shadow = 0;
  for (const RelayRecord& r : relays[0]->records()) {
    if (r.label.rfind("in-", 0) == 0) {
      // Ordinary replicated leg: the session's root frame, verbatim.
      ASSERT_EQ(r.index.depth(), 1u);
      EXPECT_EQ(r.index.root().site, root_site);
      ++upstream;
    } else if (r.label == "resync-replay") {
      // Journal replay is infrastructure traffic: its own root frame,
      // seq = the instance slot, no client request in the path.
      ASSERT_EQ(r.index.depth(), 1u);
      EXPECT_EQ(r.index.root().site, replay_site);
      EXPECT_EQ(r.index.root().seq, 0u);
      ++replay;
    } else if (r.label.rfind("catchup-", 0) == 0) {
      // Shadow replay nests under the originating session: root frame =
      // the session's own index, child frame = the shadow call site —
      // and the session's trace rides along.
      ASSERT_EQ(r.index.depth(), 2u);
      EXPECT_EQ(r.index.root().site, root_site);
      EXPECT_EQ(r.index.leaf().site, shadow_site);
      EXPECT_EQ(r.index.leaf().seq, 0u);  // shadowing slot 0
      EXPECT_EQ(r.trace, 0xABCu);
      ++shadow;
    }
  }
  EXPECT_GE(upstream, 1u);
  EXPECT_GE(replay, 1u);
  EXPECT_GE(shadow, 1u);

  // The replayed + shadowed writes converged the wrapped replica.
  EXPECT_EQ(raws[0]->dump_snapshot(), raws[1]->dump_snapshot());
}

// ---------------------------------------------------------------------------
// Same-seed determinism of attributed records.

TEST(AttributionDeterminism, IndicesIdenticalAcrossRuns) {
  auto run = [] {
    sim::Simulator simu;
    sim::Network net(simu, 10 * sim::kMicrosecond);
    scenario::TopologyOptions topts;
    topts.kind = 2;  // three-tier http-diamond-pg
    topts.seed = 11;
    topts.variance.pg_ignore_params.push_back("build_sha");
    topts.variance.http_ignore_headers.push_back("X-Backend-Build");
    std::string report;
    topts.on_divergence = [&report](const DivergenceRecord& r) {
      report += strformat("%s|%s|%s|%llx|%s\n", r.proxy.c_str(),
                          r.verdict.c_str(), attribution_key(r).c_str(),
                          static_cast<unsigned long long>(r.trace_id),
                          r.index.describe().c_str());
    };
    scenario::Topology topo(simu, net, topts);
    sim::ConnPtr probe;
    simu.schedule_at(100 * sim::kMillisecond, [&] {
      sim::ConnectMeta meta;
      meta.source = "probe";
      meta.flow.trace_id = 0xD1CE;
      probe = net.connect(topo.entry(), meta);
      if (!probe) return;
      http::Request req;
      req.method = "GET";
      req.target = "/dbsecret";
      req.headers.set("Host", "front");
      probe->send(req.to_bytes());
    });
    simu.run_until(2 * sim::kSecond);
    return report;
  };

  const std::string one = run();
  EXPECT_FALSE(one.empty());
  // The divergence fires two tiers deep; its attribution must replay
  // exactly.
  EXPECT_NE(one.find(strformat(
                "cs=%llx", static_cast<unsigned long long>(
                               ExecutionIndex::site_id("mid-0", "inner:5432")))),
            std::string::npos);
  EXPECT_EQ(one, run());
}

}  // namespace
}  // namespace rddr::core
