#include "workloads.h"

#include <atomic>

#include "common/stats.h"
#include "common/strutil.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "netsim/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rddr/rddr.h"
#include "sqldb/server.h"
#include "sqldb/snapshot.h"
#include "sqldb/storage/storage_engine.h"
#include "workloads/driver.h"
#include "workloads/pgbench.h"
#include "workloads/tpch.h"

namespace perfbench {

using namespace rddr;

namespace {

constexpr int kReplicas = 3;

Spec pgbench_ro(bool tiny) {
  Spec s;
  s.name = "pgbench-ro";
  s.kind = Kind::kPgbenchRo;
  s.clients = tiny ? 4 : 32;
  s.tx_per_client = tiny ? 10 : 250;
  s.accounts = tiny ? 500 : 20000;
  s.cpu_per_query = 2e-3;  // fig5's per-SELECT model
  return s;
}

Spec pgbench_rw_durable(bool tiny) {
  Spec s;
  s.name = "pgbench-rw-durable";
  s.kind = Kind::kPgbenchRwDurable;
  s.clients = tiny ? 4 : 32;
  s.tx_per_client = tiny ? 10 : 30;
  s.accounts = tiny ? 320 : 2000;       // 32 pages of 64 rows
  s.frame_budget = tiny ? 2 : 16;        // below the table's page count
  s.cpu_per_query = 2e-3;
  return s;
}

Spec tpch_analytic(bool tiny) {
  Spec s;
  s.name = "tpch-analytic";
  s.kind = Kind::kTpchAnalytic;
  s.clients = 4;
  s.tx_per_client = tiny ? 15 : 30;  // cycles of the 15 queries
  s.tpch_scale = tiny ? 0.05 : 0.25;
  s.cpu_per_query = 500e-6;  // fig4's model
  s.cpu_per_row = 1e-6;
  return s;
}

Spec scaleout_islands(bool tiny) {
  Spec s;
  s.name = "scaleout-islands";
  s.kind = Kind::kScaleout;
  s.shards = 4;
  s.islands = 2;
  s.admission_rate = 4200;  // fig5_scaleout's per-shard cap
  s.rate_per_s = 2.0 * s.shards * s.admission_rate;
  s.requests = tiny ? 400 : 16000;
  s.accounts = tiny ? 500 : 20000;
  s.cpu_per_query = 2e-3;
  return s;
}

std::string rw_tx(Rng& rng, int accounts) {
  long long delta = static_cast<long long>(rng.uniform(-5000, 5000));
  long long aid = static_cast<long long>(rng.uniform(1, accounts));
  return strformat(
      "UPDATE pgbench_accounts SET abalance = abalance + %lld WHERE aid = "
      "%lld; SELECT abalance FROM pgbench_accounts WHERE aid = %lld;",
      delta, aid, aid);
}

uint64_t counter_value(const obs::MetricsRegistry& reg,
                       const std::string& name) {
  const obs::Counter* c = reg.find_counter(name);
  return c ? c->value() : 0;
}

}  // namespace

void load_data(const Spec& spec, uint64_t data_seed, sqldb::Database& db) {
  if (spec.kind == Kind::kTpchAnalytic)
    workloads::load_tpch(db, workloads::TpchScale{spec.tpch_scale}, data_seed);
  else
    workloads::load_pgbench(db, spec.accounts, data_seed);
}

std::vector<std::string> workload_names() {
  return {"pgbench-ro", "pgbench-rw-durable", "tpch-analytic",
          "scaleout-islands"};
}

bool find_spec(const std::string& name, bool tiny, Spec* out) {
  for (const Spec& s : {pgbench_ro(tiny), pgbench_rw_durable(tiny),
                        tpch_analytic(tiny), scaleout_islands(tiny)}) {
    if (s.name == name) {
      *out = s;
      return true;
    }
  }
  return false;
}

Inputs make_inputs(const Spec& spec, uint64_t seed, bool wrong_reference) {
  Inputs in;
  in.seed = seed;
  Rng master(seed);
  in.data_seed = master.fork(1).next();
  if (spec.kind == Kind::kScaleout) {
    Rng rng = master.fork(2);
    for (int i = 0; i < spec.requests; ++i)
      in.arrival_sql.push_back(
          workloads::pgbench_select_tx(rng, spec.accounts));
    return in;
  }
  const auto& tpch = workloads::tpch_queries();
  in.client_sql.resize(static_cast<size_t>(spec.clients));
  for (int c = 0; c < spec.clients; ++c) {
    Rng rng = master.fork(100 + static_cast<uint64_t>(c));
    // TPC-H clients cycle the query set from a seeded starting point.
    size_t offset = static_cast<size_t>(
        rng.uniform(0, static_cast<int64_t>(tpch.size()) - 1));
    auto& out = in.client_sql[static_cast<size_t>(c)];
    for (int t = 0; t < spec.tx_per_client; ++t) {
      switch (spec.kind) {
        case Kind::kPgbenchRo:
          out.push_back(workloads::pgbench_select_tx(rng, spec.accounts));
          break;
        case Kind::kPgbenchRwDurable:
          out.push_back(rw_tx(rng, spec.accounts));
          break;
        case Kind::kTpchAnalytic:
          out.push_back(tpch[(offset + static_cast<size_t>(t)) % tpch.size()]);
          break;
        case Kind::kScaleout:
          break;
      }
    }
  }
  if (spec.kind == Kind::kPgbenchRwDurable) {
    // The increments commute, so applying every transaction in any order
    // gives the state the replicas must converge to.
    sqldb::Database ref(sqldb::minipg_info("13.0"));
    load_data(spec, in.data_seed, ref);
    sqldb::Session session(ref, "postgres");
    for (const auto& client : in.client_sql)
      for (const auto& sql : client) session.execute(sql);
    if (wrong_reference)
      session.execute(
          "UPDATE pgbench_accounts SET abalance = abalance + 1 WHERE aid = 1;");
    in.reference_snapshot = sqldb::snapshot_database(ref);
  }
  return in;
}

RoundResult run_round(const Spec& spec, const Inputs& inputs,
                      const RoundConfig& cfg) {
  RoundResult r;
  const size_t islands = cfg.islands ? cfg.islands : spec.islands;
  const bool durable = spec.frame_budget > 0;
  const uint64_t t0 = now_ns();

  // ---- set-up: datasets, servers (durable bootstrap included), proxies.
  sim::Simulator simulator;
  sim::Network net(simulator, 50 * sim::kMicrosecond);
  std::unique_ptr<obs::Tracer> tracer;
  if (cfg.tracer)
    tracer = std::make_unique<obs::Tracer>(
        [&simulator] { return simulator.now(); }, inputs.seed);
  obs::MetricsRegistry registry;

  std::vector<std::unique_ptr<sim::Host>> hosts;
  std::vector<sim::Host*> host_ptrs;
  std::vector<std::shared_ptr<sqldb::Database>> dbs;
  std::vector<std::shared_ptr<sqldb::storage::StorageEngine>> engines;
  std::vector<std::unique_ptr<sqldb::SqlServer>> servers;
  std::vector<std::vector<std::string>> pools;
  Rng seeds(inputs.seed ^ 0x5eed);
  for (int k = 0; k < spec.shards; ++k) {
    hosts.push_back(std::make_unique<sim::Host>(
        simulator, spec.shards > 1 ? strformat("node-%d", k) : "server", 32,
        128LL << 30));
    host_ptrs.push_back(hosts.back().get());
    pools.emplace_back();
    for (int i = 0; i < kReplicas; ++i) {
      auto db = std::make_shared<sqldb::Database>(sqldb::minipg_info("13.0"));
      load_data(spec, inputs.data_seed, *db);
      sqldb::SqlServer::Options so;
      so.address = spec.shards > 1 ? strformat("pg-s%d-%d:5432", k, i)
                                   : strformat("pg-%d:5432", i);
      so.cpu_per_query = spec.cpu_per_query;
      so.cpu_per_row = spec.cpu_per_row;
      so.rng_seed = seeds.next();
      so.tracer = tracer.get();
      if (durable) {
        sim::BlockDevice::Options dev;
        dev.rng_seed = seeds.next();
        auto data = std::make_shared<sim::BlockDevice>(dev);
        dev.rng_seed = seeds.next();
        auto wal = std::make_shared<sim::BlockDevice>(dev);
        sqldb::storage::StorageOptions sto;
        sto.frame_budget = spec.frame_budget;
        so.storage = std::make_shared<sqldb::storage::StorageEngine>(
            simulator, data, wal, sto);
        so.lineage_seed = inputs.data_seed;
        engines.push_back(so.storage);
      }
      pools.back().push_back(so.address);
      dbs.push_back(db);
      servers.push_back(std::make_unique<sqldb::SqlServer>(
          net, *hosts.back(), db, so));
    }
  }
  // Durable servers open their ports after the bootstrap checkpoint.
  if (durable) simulator.run_until_idle();

  PluginProbes probes;
  std::shared_ptr<core::PgPlugin> plugin;
  if (cfg.shims) {
    r.plugin = std::make_shared<TimedPgPlugin>(probes, kReplicas);
    plugin = r.plugin;
  } else {
    plugin = std::make_shared<core::PgPlugin>();
  }
  std::atomic<uint64_t> records{0};
  core::NVersionDeployment::Builder builder;
  builder.name("front")
      .listen("front:5432")
      .plugin(plugin)
      .filter_pair(true)
      .cpu_model(50e-6, 5e-9)
      .metrics(&registry)
      .trace(tracer.get())
      .on_divergence([&records](const core::DivergenceRecord&) {
        records.fetch_add(1, std::memory_order_relaxed);
      });
  std::unique_ptr<core::NVersionDeployment> deployment;
  std::unique_ptr<core::Frontier> frontier;
  const bool open_loop = spec.kind == Kind::kScaleout;
  if (open_loop) {
    core::AdmissionOptions adm;
    adm.rate_per_s = spec.admission_rate;
    adm.burst = 32;
    adm.queue_limit = 64;
    adm.shed_deadline = 5 * sim::kMillisecond;
    frontier = builder.admission(adm)
                   .shard_versions(pools)
                   .islands(islands)
                   .build_frontier(net, host_ptrs);
  } else {
    deployment = builder.versions(pools[0]).build(net, *hosts[0]);
  }
  const uint64_t t1 = now_ns();
  r.setup_s = static_cast<double>(t1 - t0) / 1e9;

  // ---- run: every generated transaction to completion.
  const uint64_t total_tx = open_loop
      ? static_cast<uint64_t>(spec.requests)
      : static_cast<uint64_t>(spec.clients) *
            static_cast<uint64_t>(spec.tx_per_client);
  const uint64_t slice_tx = std::max<uint64_t>(1, total_tx / kSlices);
  r.slice_ns.reserve(total_tx / slice_tx + 1);  // no allocation while timed
  uint64_t issued = 0;
  uint64_t slice_start = t1;
  auto tick = [&] {
    if (++issued % slice_tx != 0) return;
    const uint64_t t = now_ns();
    r.slice_ns.push_back(t - slice_start);
    slice_start = t;
  };
  const uint64_t allocs0 = alloc::total_count();
  const uint64_t alloc_bytes0 = alloc::total_bytes();
  if (cfg.shims) alloc::set_counting(true);
  sim::Time elapsed = 0;
  SampleStats latency_ms;
  if (open_loop) {
    workloads::OpenLoopOptions opts;
    opts.address = "front:5432";
    opts.rate_per_s = spec.rate_per_s;
    opts.requests = spec.requests;
    opts.seed = inputs.seed;
    opts.tracer = tracer.get();
    opts.next_query = [&](Rng&, int idx) {
      const std::string& sql = inputs.arrival_sql[static_cast<size_t>(idx)];
      tick();
      if (cfg.shims) {
        alloc::Pause pause;
        r.captured_sql.push_back(sql);
      }
      return sql;
    };
    workloads::OpenLoopResult res =
        workloads::run_open_loop(simulator, net, opts);
    r.attempted = res.offered;
    r.ok = res.completed;
    r.shed = res.rejected;
    latency_ms = std::move(res.latency_ms);
    elapsed = res.elapsed;
  } else {
    workloads::ClientPoolOptions opts;
    opts.address = "front:5432";
    opts.clients = spec.clients;
    opts.transactions_per_client = spec.tx_per_client;
    opts.seed = inputs.seed;
    opts.tracer = tracer.get();
    opts.next_query = [&](Rng&, int client, int tx) {
      const std::string& sql = inputs.client_sql[static_cast<size_t>(client)]
                                                [static_cast<size_t>(tx)];
      tick();
      if (cfg.shims) {
        alloc::Pause pause;
        r.captured_sql.push_back(sql);
      }
      return sql;
    };
    workloads::PoolResult res =
        workloads::run_client_pool(simulator, net, opts);
    r.attempted = res.completed + res.failed;
    r.ok = res.completed;
    r.failed = res.failed;
    latency_ms = std::move(res.latency_ms);
    elapsed = res.elapsed;
  }
  alloc::set_counting(false);
  const uint64_t t2 = now_ns();
  r.run_s = static_cast<double>(t2 - t1) / 1e9;
  r.slice_ns.push_back(t2 - slice_start);
  r.virt_elapsed_s = sim::to_seconds(elapsed);
  r.samples = latency_ms.count();
  r.lat_p50_ms = latency_ms.percentile(50);
  for (uint64_t pct : {99, 90}) {
    // Nearest rank: ceil(n * pct / 100); the rest rank beyond it.
    uint64_t rank = (r.samples * pct + 99) / 100;
    r.tail_pct = pct;
    r.tail_beyond = r.samples - rank;
    r.lat_tail_ms = latency_ms.percentile(static_cast<double>(pct));
    if (r.tail_beyond >= 10) break;
  }
  r.interventions = records.load();

  // ---- per-layer counts.
  LayerCounts& L = r.layers;
  L.events = simulator.events_executed();
  L.bytes_sent = net.payload_bytes_sent();
  L.bytes_copied = net.payload_bytes_copied();
  L.connections = net.connections_opened();
  if (const sim::ParallelExecutor* ex = simulator.executor()) {
    const sim::ParallelStats& ps = ex->stats();
    L.model_speedup = ps.model_speedup();
    L.windows = ps.windows;
    L.barrier_stalls = ps.barrier_stalls;
    L.merged_messages = ps.merged_messages;
  }
  if (frontier) {
    L.offered = counter_value(registry, "front.offered");
    L.admitted = counter_value(registry, "front.admitted");
    L.shed = counter_value(registry, "front.shed");
    if (const obs::Histogram* h = registry.find_histogram("front.queued_ms"))
      L.queued_ms_p50 = h->percentile(50);
  }
  for (const auto& e : engines) {
    const auto& c = e->counters();
    ++L.replicas;
    L.wal_records += c.wal_records_appended;
    L.wal_bytes += c.wal_bytes_appended;
    L.pages_written += c.pages_written;
    L.checkpoints += c.checkpoints_completed;
    L.pool_hit_rate_sum += e->pool().hit_rate();
  }
  if (tracer) L.spans = tracer->span_count();
  if (cfg.shims) {
    L.allocs = alloc::total_count() - allocs0;
    L.alloc_bytes = alloc::total_bytes() - alloc_bytes0;
    L.frame_ns = probes.frame_ns.load();
    L.frame_allocs = probes.frame_allocs.load();
    L.units = probes.units.load();
    L.canon_ns = probes.canon_ns.load();
    L.canon_calls = probes.canon_calls.load();
  }

  // ---- correctness checks.
  auto fail = [&r](std::string what) {
    r.check_failures.push_back(std::move(what));
  };
  const std::string first = sqldb::snapshot_database(*dbs[0]);
  for (size_t i = 1; i < dbs.size(); ++i)
    if (sqldb::snapshot_database(*dbs[i]) != first)
      fail(strformat("replica %zu's snapshot differs from replica 0's", i));
  if (!inputs.reference_snapshot.empty() && first != inputs.reference_snapshot)
    fail("replicas differ from the reference database built by "
         "Session::execute");
  if (r.interventions != 0)
    fail(strformat("on_divergence saw %llu records on benign traffic",
                   static_cast<unsigned long long>(r.interventions)));
  if (open_loop) {
    // Every rejection must be a designed overload shed (SQLSTATE 53300
    // from the frontier), never a lost or failed request.
    uint64_t sheds = std::min<uint64_t>(r.shed, L.shed);
    r.failed = r.shed - sheds;
    r.shed = sheds;
    if (r.failed != 0)
      fail(strformat("%llu open-loop requests failed without a shed",
                     static_cast<unsigned long long>(r.failed)));
  } else if (r.failed != 0) {
    fail(strformat("%llu of %llu closed-loop transactions failed",
                   static_cast<unsigned long long>(r.failed),
                   static_cast<unsigned long long>(r.attempted)));
  }

  r.virt_signature = strformat(
      "attempted=%llu ok=%llu failed=%llu shed=%llu elapsed_ns=%lld "
      "p50=%.17g p90=%.17g p99=%.17g max=%.17g",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.ok),
      static_cast<unsigned long long>(r.failed),
      static_cast<unsigned long long>(r.shed), static_cast<long long>(elapsed),
      latency_ms.percentile(50), latency_ms.percentile(90),
      latency_ms.percentile(99), latency_ms.max());
  return r;
}

}  // namespace perfbench
