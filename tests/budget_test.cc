// Deterministic cost budgets. Wall time on a shared host is too noisy to
// gate anything finer than ~25%, but allocation counts are exact for a
// given toolchain, so their ceilings can gate tier-1. A counting global
// operator new sees every allocation this binary makes.
//
// Each ceiling only ratchets down: a change that lowers a count lowers
// its ceiling in the same change, and raising one needs a reason in
// CHANGES.md.
//
// ASan brings its own operator new, which this one would replace, so
// under it nothing is counted and the tests skip.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/strutil.h"
#include "rddr/rddr.h"
#include "sqldb/engine.h"
#include "sqldb/parser.h"
#include "workloads/harness.h"
#include "workloads/pgbench.h"
#include "workloads/tpch.h"

#if defined(__SANITIZE_ADDRESS__)
#define RDDR_COUNTING_NEW 0
#else
#define RDDR_COUNTING_NEW 1
#endif

namespace {
size_t g_allocations = 0;
size_t g_bytes = 0;
}  // namespace

#if RDDR_COUNTING_NEW
void* operator new(std::size_t n) {
  ++g_allocations;
  g_bytes += n;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
// Out of line: GCC 12 inlines the free() into callers in this file and
// then flags it as mismatched with the operator new it cannot see into.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
#endif

namespace rddr {
namespace {

/// Allocations and requested bytes between construction and now.
struct AllocationCount {
  size_t allocations0 = g_allocations, bytes0 = g_bytes;
  size_t allocations() const { return g_allocations - allocations0; }
  size_t bytes() const { return g_bytes - bytes0; }
};

TEST(Budget, PgbenchLoadPerAccountRow) {
  if (!RDDR_COUNTING_NEW) GTEST_SKIP() << "the sanitizer owns operator new";
  constexpr int kAccounts = 20000;
  sqldb::Database db(sqldb::minipg_info("13.0"));
  AllocationCount count;
  workloads::load_pgbench(db, kAccounts, 9);
  const double allocations = static_cast<double>(count.allocations()) / kAccounts;
  const double bytes = static_cast<double>(count.bytes()) / kAccounts;
  // One allocation per row, for its four cells: a Datum is 24 bytes and
  // holds the 20-byte filler inline. The bytes are those requested while
  // loading (freed ones included): 96 for the cells, 24 for the row's
  // vector in the table, ~26 for the index's slots and ~4 for its chain
  // links. The std::variant Datum and node-based index took 4.0 and 266.
  EXPECT_LE(allocations, 1.01);
  EXPECT_LE(bytes, 150.4);
}

// The pgbench -S point SELECT, once parsed and once executed on a warm
// session: the statement text, its lists and nodes go in one block each.
constexpr const char* kPointSelect =
    "SELECT abalance FROM pgbench_accounts WHERE aid = 1234;";

TEST(Budget, PointSelectParse) {
  if (!RDDR_COUNTING_NEW) GTEST_SKIP() << "the sanitizer owns operator new";
  AllocationCount count;
  auto parsed = sqldb::parse_sql(kPointSelect);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  // The lexer's block (text and tokens) and the statement's arena. The
  // Expr tree with its strings and child vectors took 13.
  EXPECT_LE(count.allocations(), 2u);
}

TEST(Budget, PointSelectExecute) {
  if (!RDDR_COUNTING_NEW) GTEST_SKIP() << "the sanitizer owns operator new";
  sqldb::Database db(sqldb::minipg_info("13.0"));
  workloads::load_pgbench(db, 2000, 9);
  sqldb::Session session(db, "postgres");
  ASSERT_EQ(session.execute(kPointSelect).statements[0].row_count, 1u);
  AllocationCount count;
  sqldb::ExecResult r = session.execute(kPointSelect);
  ASSERT_EQ(r.statements[0].row_count, 1u);
  // Parsing's 2; the result's statement array, column names and cells,
  // and its text rows (the array and the one row). Binding and the scan
  // keep their working arrays in the statement's arena. It took 25 with a
  // second, bound copy of each expression.
  EXPECT_LE(count.allocations(), 7u);
}

TEST(Budget, PgbenchReadOnlyPerTransaction) {
  if (!RDDR_COUNTING_NEW) GTEST_SKIP() << "the sanitizer owns operator new";
  constexpr int kAccounts = 2000;
  constexpr int kClients = 5;
  constexpr int kTxPerClient = 100;
  sim::Simulator simulator;
  sim::Network net(simulator, 50 * sim::kMicrosecond);
  sim::Host host(simulator, "server", 32, 128LL << 30);
  sqldb::SqlServer::Options so;
  so.rng_seed = 3;
  workloads::Replicas replicas = workloads::start_replicas(
      net, 3, workloads::Pgbench{kAccounts}, so, {&host});
  auto deployment = core::NVersionDeployment::Builder()
                        .listen("front:5432")
                        .versions(replicas.addresses)
                        .plugin(std::make_shared<core::PgPlugin>())
                        .filter_pair(true)
                        .build(net, host);
  workloads::ClientPoolOptions opts;
  opts.address = "front:5432";
  opts.clients = kClients;
  opts.transactions_per_client = kTxPerClient;
  opts.next_query = [](Rng& rng, int, int) {
    return workloads::pgbench_select_tx(rng, kAccounts);
  };
  AllocationCount count;
  workloads::PoolResult pool =
      workloads::run_client_pool(simulator, net, opts);
  const double tx = kClients * kTxPerClient;
  ASSERT_EQ(pool.completed, static_cast<uint64_t>(tx));
  // Everything one point query costs on the host: the client, the
  // proxy's framing, diff and forward, the network, three replicas'
  // parse, execute and response, and the connections' setup spread over
  // the run. It was 209.7 while every pgwire message was copied out of
  // the reader, re-framed and copied again per hop; 96.0 once the bytes
  // travelled as slices and the executor projected by reference; 42.04
  // since each replica parses into one statement block and binds in place.
  EXPECT_LE(static_cast<double>(count.allocations()) / tx, 42.04);
}

// The 4-shard point of bench/fig5_scaleout --smoke: 2100 Poisson
// arrivals at 14000/s (1.7x the 4 x 4200/s admission cap) into four
// shards, each a proxy pair and 3 minipg on its own host.
TEST(Budget, ScaleoutSmokePerTransaction) {
  if (!RDDR_COUNTING_NEW) GTEST_SKIP() << "the sanitizer owns operator new";
  constexpr size_t kShards = 4;
  constexpr int kAccounts = 2000;
  sim::Simulator simulator;
  sim::Network net(simulator, 50 * sim::kMicrosecond);
  std::vector<std::string> nodes{"front"};
  workloads::OpenLoopResult r;
  size_t allocations = 0;
  uint64_t events = 0;
  {
    std::vector<std::unique_ptr<sim::Host>> hosts;
    std::vector<sim::Host*> host_ptrs;
    std::vector<workloads::Replicas> shard_replicas;
    std::vector<std::vector<std::string>> pools;
    for (size_t k = 0; k < kShards; ++k) {
      hosts.push_back(std::make_unique<sim::Host>(
          simulator, "node-" + std::to_string(k), 32, 128LL << 30));
      host_ptrs.push_back(hosts.back().get());
      sqldb::SqlServer::Options so;
      so.cpu_per_query = 2e-3;
      so.cpu_per_row = 0;
      so.rng_seed = 20 + k * 10;
      shard_replicas.push_back(workloads::start_replicas(
          net, 3, workloads::Pgbench{kAccounts}, so, {hosts.back().get()},
          strformat("pg-s%zu", k)));
      pools.push_back(shard_replicas.back().addresses);
      for (const std::string& a : pools.back())
        nodes.push_back(sim::Network::node_of(a));
    }
    core::AdmissionOptions adm;
    adm.rate_per_s = 4200;
    adm.burst = 32;
    adm.queue_limit = 64;
    adm.shed_deadline = 5 * sim::kMillisecond;
    auto front = core::NVersionDeployment::Builder()
                     .name("front")
                     .listen("front:5432")
                     .plugin(std::make_shared<core::PgPlugin>())
                     .filter_pair(true)
                     .cpu_model(workloads::kPaperProxyCpu.per_unit_s,
                                workloads::kPaperProxyCpu.per_byte_s)
                     .admission(adm)
                     .shard_versions(pools)
                     .build_frontier(net, host_ptrs);
    workloads::OpenLoopOptions opts;
    opts.address = "front:5432";
    opts.rate_per_s = 14000;
    opts.requests = 2100;
    opts.seed = 5;
    opts.next_query = [](Rng& rng, int) {
      return workloads::pgbench_select_tx(rng, kAccounts);
    };
    const uint64_t events0 = simulator.events_executed();
    AllocationCount count;
    r = workloads::run_open_loop(simulator, net, opts);
    allocations = count.allocations();
    events = simulator.events_executed() - events0;
    // The last sessions' closes are still on the wire when the driver
    // returns; let them land before the deployment goes away.
    simulator.run_until(simulator.now() + sim::kSecond);
  }
  ASSERT_EQ(r.offered, 2100u);
  ASSERT_EQ(r.completed + r.rejected, r.offered);
  const double tx = static_cast<double>(r.offered);
  // The driver's session, the frontier's admission and handoff, the
  // shard's proxy pair and its three replicas, per arrival, on the one
  // event loop: 379653 allocations and 109182 events for 2100 arrivals.
  EXPECT_LE(static_cast<double>(allocations) / tx, 180.79);
  EXPECT_LE(static_cast<double>(events) / tx, 51.992);
  // The frontier, its shards and the replicas are gone: no connection
  // they opened or accepted is left open.
  for (const std::string& node : nodes)
    EXPECT_EQ(net.live_connections(node), 0u) << node;
}

TEST(Budget, TpchQueriesPerQuery) {
  if (!RDDR_COUNTING_NEW) GTEST_SKIP() << "the sanitizer owns operator new";
  sqldb::Database db(sqldb::minipg_info("13.0"));
  workloads::load_tpch(db, workloads::TpchScale{0.25}, 1);
  sqldb::Session session(db, "postgres");
  const auto& queries = workloads::tpch_queries();
  AllocationCount count;
  for (const std::string& sql : queries) {
    sqldb::ExecResult r = session.execute(sql);
    ASSERT_EQ(r.statements.size(), 1u) << sql;
    ASSERT_FALSE(r.statements[0].failed())
        << sql << ": " << r.statements[0].error_message;
  }
  const double per_query = static_cast<double>(count.allocations()) /
                           static_cast<double>(queries.size());
  // Parse, plan, join key tables, groups and result cells: 630
  // allocations for the 15 queries. It was 1457 while the parser built an
  // Expr tree and binding copied it into a second program.
  EXPECT_LE(per_query, 630.0 / 15);
}

}  // namespace
}  // namespace rddr
