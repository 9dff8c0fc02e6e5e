#include "workloads/driver.h"

#include <map>
#include <memory>
#include <vector>

#include "common/strutil.h"
#include "sqldb/client.h"

namespace rddr::workloads {

namespace {

/// The role every client connects as (minipg grants it table access).
const char* const kUser = "postgres";

struct PoolState {
  sim::Simulator& sim;
  const ClientPoolOptions& options;
  PoolResult result;
  sim::Time first_send = -1;
  sim::Time last_done = 0;
  int clients_remaining = 0;
};

struct ClientState {
  std::unique_ptr<sqldb::PgClient> client;
  Rng rng{0};
  int done = 0;
};

void issue_next(const std::shared_ptr<PoolState>& pool,
                const std::shared_ptr<ClientState>& c, int client_id) {
  if (c->done >= pool->options.transactions_per_client) {
    c->client->close();
    --pool->clients_remaining;
    return;
  }
  std::string sql = pool->options.next_query(c->rng, client_id, c->done);
  sim::Time t0 = pool->sim.now();
  if (pool->first_send < 0) pool->first_send = t0;
  c->client->query(sql, [pool, c, client_id, t0](sqldb::QueryOutcome out) {
    sim::Time t1 = pool->sim.now();
    if (out.failed()) {
      ++pool->result.failed;
    } else {
      ++pool->result.completed;
      double ms = static_cast<double>(t1 - t0) / 1e6;
      pool->result.latency_ms.add(ms);
      if (pool->options.on_tx_complete)
        pool->options.on_tx_complete(client_id, c->done, ms);
    }
    pool->last_done = std::max(pool->last_done, t1);
    ++c->done;
    if (out.connection_lost) {
      // Connection gone (e.g. RDDR intervened): count the rest as failed.
      pool->result.failed += static_cast<uint64_t>(
          pool->options.transactions_per_client - c->done);
      --pool->clients_remaining;
      return;
    }
    issue_next(pool, c, client_id);
  });
}

}  // namespace

PoolResult run_client_pool(sim::Simulator& sim, sim::Network& net,
                           const ClientPoolOptions& options) {
  auto pool = std::make_shared<PoolState>(PoolState{sim, options, {}, -1, 0});
  std::vector<std::shared_ptr<ClientState>> clients;
  Rng seeder(options.seed);
  for (int i = 0; i < options.clients; ++i) {
    auto c = std::make_shared<ClientState>();
    c->rng = seeder.fork(static_cast<uint64_t>(i) + 1);
    sim::ConnectMeta meta;
    meta.source = strformat("bench-client-%d", i);
    if (options.tracer) {
      // One trace per client connection; everything the servers/proxies
      // record for this client's requests hangs off this id.
      meta.flow.trace_id = options.tracer->new_trace();
    }
    c->client =
        std::make_unique<sqldb::PgClient>(net, options.address, kUser, meta);
    clients.push_back(c);
  }
  pool->clients_remaining = options.clients;
  for (int i = 0; i < options.clients; ++i)
    issue_next(pool, clients[static_cast<size_t>(i)], i);
  // Run until every client finished — NOT until idle: recurring events
  // (host samplers, background jobs) may keep the queue non-empty forever.
  while (pool->clients_remaining > 0 && sim.step()) {
  }
  pool->result.elapsed =
      pool->first_send >= 0 ? pool->last_done - pool->first_send : 0;
  return pool->result;
}

// ---- open loop ----

namespace {

struct OpenLoopState {
  OpenLoopState(sim::Simulator& s, sim::Network& n, const OpenLoopOptions& o)
      : sim(s), net(n), options(o) {}

  sim::Simulator& sim;
  sim::Network& net;
  const OpenLoopOptions& options;
  OpenLoopResult result;
  sim::Time first_send = -1;
  sim::Time last_done = 0;
  int scheduled = 0;    // arrivals generated so far
  int outstanding = 0;  // requests in flight
  Rng rng{0};
  /// Keeps each arrival's client alive until its outcome lands.
  std::map<int, std::unique_ptr<sqldb::PgClient>> clients;
};

void open_loop_arrival(const std::shared_ptr<OpenLoopState>& st) {
  int idx = st->scheduled++;
  ++st->result.offered;
  ++st->outstanding;
  sim::ConnectMeta meta;
  meta.source = strformat("open-client-%d", idx);
  if (st->options.tracer) meta.flow.trace_id = st->options.tracer->new_trace();
  auto client = std::make_unique<sqldb::PgClient>(
      st->net, st->options.address, kUser, meta);
  auto* raw = client.get();
  st->clients.emplace(idx, std::move(client));
  std::string sql = st->options.next_query
                        ? st->options.next_query(st->rng, idx)
                        : "SELECT 1;";
  sim::Time t0 = st->sim.now();
  if (st->first_send < 0) st->first_send = t0;
  raw->query(sql, [st, idx, t0](sqldb::QueryOutcome out) {
    sim::Time t1 = st->sim.now();
    double ms = static_cast<double>(t1 - t0) / 1e6;
    if (out.failed()) {
      ++st->result.rejected;
      st->result.rejection_ms.add(ms);
    } else {
      ++st->result.completed;
      st->result.latency_ms.add(ms);
    }
    st->last_done = std::max(st->last_done, t1);
    --st->outstanding;
    // Close + free the client on a fresh event: the outcome callback runs
    // inside the client's own data/close handler.
    st->sim.schedule(0, [st, idx] {
      auto it = st->clients.find(idx);
      if (it == st->clients.end()) return;
      it->second->close();
      st->clients.erase(it);
    });
  });
}

/// The self-scheduling arrival chain: each arrival schedules the next after
/// a seeded exponential gap, independent of service completions (open
/// loop). Each pending event holds the state; the state holds no event, so
/// nothing outlives the chain.
void open_loop_chain(const std::shared_ptr<OpenLoopState>& st) {
  open_loop_arrival(st);
  if (st->scheduled >= st->options.requests) return;
  double gap_s = st->rng.exponential(1.0 / st->options.rate_per_s);
  auto gap = static_cast<sim::Time>(gap_s * 1e9);
  st->sim.schedule(gap > 0 ? gap : 1, [st] { open_loop_chain(st); });
}

}  // namespace

OpenLoopResult run_open_loop(sim::Simulator& sim, sim::Network& net,
                             const OpenLoopOptions& options) {
  auto st = std::make_shared<OpenLoopState>(sim, net, options);
  st->rng = Rng(options.seed);
  if (options.requests > 0) open_loop_chain(st);
  while ((st->outstanding > 0 || st->scheduled < options.requests) &&
         sim.step()) {
  }
  st->result.elapsed =
      st->first_send >= 0 ? st->last_done - st->first_send : 0;
  return st->result;
}

}  // namespace rddr::workloads
