#include "chaos/chaos.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "chaos/shrink.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/strutil.h"
#include "netsim/host.h"
#include "netsim/network.h"
#include "rddr/frontier.h"
#include "rddr/plugins.h"
#include "services/orchestrator.h"
#include "sqldb/client.h"
#include "sqldb/server.h"
#include "sqldb/storage/storage_engine.h"
#include "workloads/pgbench.h"

namespace rddr::chaos {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrashRestart: return "crash-restart";
    case FaultKind::kCrashReplace: return "crash-replace";
    case FaultKind::kStall: return "stall";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kLatencySpike: return "latency-spike";
    case FaultKind::kTornWrite: return "torn-write";
    case FaultKind::kPartialWal: return "partial-wal";
    case FaultKind::kCrashCheckpoint: return "crash-checkpoint";
    case FaultKind::kCrashResync: return "crash-resync";
  }
  return "?";
}

std::string describe(const FaultSpec& fault) {
  std::string s = strformat(
      "%s @%.2fs +%.2fs on instance %zu", fault_kind_name(fault.kind),
      static_cast<double>(fault.at) / sim::kSecond,
      static_cast<double>(fault.duration) / sim::kSecond, fault.instance);
  if (fault.kind == FaultKind::kLatencySpike)
    s += strformat(" (+%.1fms)", static_cast<double>(fault.extra) / sim::kMillisecond);
  return s;
}

std::string describe(const std::vector<FaultSpec>& plan) {
  std::string s;
  for (const FaultSpec& f : plan) {
    s += describe(f);
    s += '\n';
  }
  return s;
}

std::string ChaosReport::summary() const {
  std::string s = strformat(
      "%s: %llu issued = %llu served + %llu refused + %llu lost; "
      "%llu interventions, %llu outvotes, %zu/%zu healthy at end",
      ok ? "OK" : "VIOLATION",
      static_cast<unsigned long long>(issued),
      static_cast<unsigned long long>(served),
      static_cast<unsigned long long>(refused),
      static_cast<unsigned long long>(lost),
      static_cast<unsigned long long>(interventions),
      static_cast<unsigned long long>(quorum_outvotes), healthy_at_end,
      n_instances);
  if (recovery_time >= 0)
    s += strformat("; recovered %.0fms after last fault",
                   static_cast<double>(recovery_time) / sim::kMillisecond);
  for (const std::string& v : violations) s += "\n  violation: " + v;
  return s;
}

std::vector<FaultSpec> generate_fault_plan(uint64_t seed,
                                           const ChaosOptions& opts) {
  Rng root(seed);
  Rng r = root.fork(0xC4A05);
  std::vector<FaultSpec> plan;
  size_t n_faults = 1 + r.next() % kMaxFaults;
  const sim::Time window =
      std::max<sim::Time>(opts.fault_window_end - kFaultWindowStart, 1);
  for (size_t k = 0; k < n_faults; ++k) {
    FaultSpec f;
    // Disk kinds join the draw only under the durable profile, so plans
    // for the in-memory deployment are unchanged seed-for-seed.
    switch (r.next() % (opts.durable_storage ? 9 : 5)) {
      case 0: f.kind = FaultKind::kCrashRestart; break;
      case 1: f.kind = FaultKind::kCrashReplace; break;
      case 2: f.kind = FaultKind::kStall; break;
      case 3: f.kind = FaultKind::kPartition; break;
      case 4: f.kind = FaultKind::kLatencySpike; break;
      case 5: f.kind = FaultKind::kTornWrite; break;
      case 6: f.kind = FaultKind::kPartialWal; break;
      case 7: f.kind = FaultKind::kCrashCheckpoint; break;
      default: f.kind = FaultKind::kCrashResync; break;
    }
    f.at = kFaultWindowStart +
           static_cast<sim::Time>(r.next() % static_cast<uint64_t>(window));
    f.duration = 200 * sim::kMillisecond +
                 static_cast<sim::Time>(r.next() % (1300ULL * sim::kMillisecond));
    f.extra = 5 * sim::kMillisecond +
              static_cast<sim::Time>(r.next() % (45ULL * sim::kMillisecond));
    f.instance = r.next() % std::max<size_t>(opts.n_instances, 1);
    plan.push_back(f);
  }
  std::stable_sort(plan.begin(), plan.end(),
                   [](const FaultSpec& a, const FaultSpec& b) {
                     return a.at < b.at;
                   });
  return plan;
}

ChaosReport run_chaos(const std::vector<FaultSpec>& plan,
                      const ChaosOptions& opts, uint64_t seed) {
  ChaosReport rep;
  rep.plan = plan;
  rep.n_instances = opts.n_instances;

  sim::Simulator sim;
  sim::Network net{sim, 10 * sim::kMicrosecond};
  services::Orchestrator orch(sim, net, seed);
  orch.add_host("db-host", 8, 8LL << 30);
  orch.add_host("proxy-host", 4, 4LL << 30);

  if (opts.durable_storage) {
    sim::BlockDevice::Options vol;
    vol.faults = opts.disk_faults;
    orch.set_volume_options(vol);
  }

  // Every replica loads identical pgbench data (same data seed) but gets
  // its own rng_seed from the orchestrator (per-instance nondeterminism).
  // Under the durable profile the container also mounts its volume: a
  // restarted incarnation ignores the freshly loaded image data and
  // recovers from disk (WAL redo) instead.
  orch.register_image("minipg", [&](const services::ContainerSpec& spec) {
    auto db = std::make_shared<sqldb::Database>(sqldb::minipg_info(spec.tag));
    workloads::load_pgbench(*db, opts.accounts, /*seed=*/9);
    sqldb::SqlServer::Options so;
    so.address = spec.address;
    so.rng_seed = spec.rng_seed;
    if (opts.durable_storage) {
      auto& vol = orch.volume(spec.container_name);
      sqldb::storage::StorageOptions sto;
      sto.wal_flush_interval = opts.wal_flush_interval;
      sto.frame_budget = opts.frame_budget;
      so.storage = std::make_shared<sqldb::storage::StorageEngine>(
          sim, vol.data, vol.wal, sto);
      // Shared across replicas: identical bootstrap data + identical
      // lineage seed is what licenses page/WAL-level resync between them.
      so.lineage_seed = seed;
    }
    return std::make_shared<sqldb::SqlServer>(net, *spec.host, db, so);
  });

  std::vector<std::string> tags(opts.n_instances, "13.0");
  std::vector<std::string> addresses =
      orch.deploy_replicas("pg", "minipg", tags, "db-host", 5432);
  // Slot -> current container/node name (updated on replacement).
  std::vector<std::string> names;
  for (const std::string& a : addresses)
    names.push_back(sim::Network::node_of(a));

  std::unique_ptr<core::NVersionDeployment> dep;

  // Peer-kill bookkeeping: which slot last served as a warm source, so
  // the kill_peer_mid_resync watcher knows whom to crash.
  size_t last_warm_source = SIZE_MAX;

  core::ResyncOptions resync;
  resync.min_transfer_time = opts.resync_min_transfer;
  using WarmResult = core::ResyncOptions::WarmResult;
  auto warm = [&](size_t i) -> WarmResult {
    auto target = orch.get<sqldb::SqlServer>(names[i]);
    if (!target || !dep) return {};
    const core::HealthTracker& health = dep->incoming().health();
    for (size_t j = 0; j < names.size(); ++j) {
      if (j == i || !health.is_healthy(j)) continue;
      auto source = orch.get<sqldb::SqlServer>(names[j]);
      if (!source) continue;
      last_warm_source = j;
      // Incremental first: a delta of the WAL tail or the dirty pages,
      // when the source can build one for this target's exact LSN and
      // lineage (durable profile only).
      if (target->storage() && source->storage()) {
        sqldb::storage::StorageEngine::DeltaStats ds;
        auto delta = source->storage()->build_delta(
            target->storage()->committed_lsn(),
            target->storage()->lineage_id(), &ds);
        if (delta) {
          sqldb::storage::StorageEngine::DeltaStats applied;
          if (target->storage()->apply_delta(*delta, &applied)) {
            target->refresh_memory_charge();
            WarmResult wr;
            wr.bytes = static_cast<int64_t>(delta->size());
            wr.pages_shipped = applied.pages_shipped;
            wr.wal_records = applied.wal_records;
            wr.wal_bytes = applied.wal_bytes;
            wr.mode = applied.mode;
            return wr;
          }
          // A failed apply cleared the target; fall through to the full
          // snapshot, which rebases it onto the source's state.
        }
      }
      std::string snap = source->dump_snapshot();
      uint64_t src_lsn = 0, src_lineage = 0;
      if (source->storage()) {
        src_lsn = source->storage()->committed_lsn();
        src_lineage = source->storage()->lineage_id();
      }
      if (!target->load_snapshot(snap, nullptr, src_lsn, src_lineage))
        return {};
      WarmResult wr;
      wr.bytes = static_cast<int64_t>(snap.size());
      return wr;
    }
    return {};  // no trusted peer right now; quarantine retries later
  };
  if (opts.resync_enabled) resync.warm = warm;

  auto do_replace = [&](size_t slot) {
    if (!dep) return;
    std::string new_address;
    try {
      new_address = orch.replace(names[slot]);
    } catch (const std::exception&) {
      return;  // container already gone
    }
    names[slot] = sim::Network::node_of(new_address);
    dep->replace_instance(slot, new_address);
  };

  core::HealthTracker::Options health;
  health.failure_threshold = 1;
  health.reconnect_base_delay = 50 * sim::kMillisecond;
  health.reconnect_max_delay = 1 * sim::kSecond;
  health.reconnect_max_attempts = 0;  // probe forever; faults always heal
  health.reconnect_jitter = 0.2;
  health.seed = seed ^ 0x9e170000ULL;

  dep = core::NVersionDeployment::Builder()
            .name("chaos")
            .listen("front:5432")
            .versions(addresses)
            .plugin(std::make_shared<core::PgPlugin>())
            .filter_pair(true)
            .degradation(core::DegradationPolicy::kQuorum)
            .health(health)
            .unit_timeout(250 * sim::kMillisecond)
            .resync(resync)
            .on_instance_dead(
                [&](size_t slot, const std::string&) { do_replace(slot); })
            .build(net, orch.host("proxy-host"));

  // ---- fault schedule ----
  sim::Time last_fault_end = 0;

  // Peer-kill-mid-resync watcher: the first time any instance is observed
  // in kResyncing, crash the peer that just served as its warm source
  // (restarted 300ms later). The transfer window is still modeled, the
  // journal replay targets the resyncing instance, and quarantine retries
  // cover a warm that never happened — the invariants below then prove
  // the deployment never readmits partial state.
  //
  // This and every self-rescheduling loop below is a local std::function
  // that its pending event refers to: nothing holds the event, and the
  // loop dies with this frame, after the last sim.run_until.
  bool peer_killed = false;
  std::function<void()> pk_watch = [&] {
    if (peer_killed) return;
    const core::HealthTracker& h = dep->incoming().health();
    for (size_t i = 0; i < names.size(); ++i) {
      if (h.state(i) != core::HealthTracker::State::kResyncing) continue;
      size_t victim = last_warm_source;
      if (victim == SIZE_MAX || victim == i) continue;
      peer_killed = true;
      std::string victim_name = names[victim];
      try { orch.crash(victim_name); } catch (const std::exception&) {}
      last_fault_end =
          std::max(last_fault_end, sim.now() + 300 * sim::kMillisecond);
      sim.schedule(300 * sim::kMillisecond, [&, victim_name] {
        try { orch.restart(victim_name); } catch (const std::exception&) {}
      });
      return;
    }
    sim.schedule(10 * sim::kMillisecond, [&pk_watch] { pk_watch(); });
  };
  if (opts.kill_peer_mid_resync)
    sim.schedule_at(sim::kMillisecond, [&pk_watch] { pk_watch(); });

  for (const FaultSpec& f : plan) {
    const size_t slot = f.instance % opts.n_instances;
    last_fault_end = std::max(last_fault_end, f.at + f.duration);
    switch (f.kind) {
      case FaultKind::kCrashRestart:
        sim.schedule_at(f.at, [&, slot] {
          try { orch.crash(names[slot]); } catch (const std::exception&) {}
        });
        sim.schedule_at(f.at + f.duration, [&, slot] {
          try { orch.restart(names[slot]); } catch (const std::exception&) {}
        });
        break;
      case FaultKind::kCrashReplace:
        sim.schedule_at(f.at, [&, slot] {
          try { orch.crash(names[slot]); } catch (const std::exception&) {}
        });
        sim.schedule_at(f.at + f.duration, [&, slot] {
          try {
            if (orch.crashed(names[slot])) do_replace(slot);
          } catch (const std::exception&) {}
        });
        break;
      case FaultKind::kStall:
        sim.schedule_at(f.at, [&, slot, end = f.at + f.duration] {
          net.stall_node_egress_until(names[slot], end);
        });
        break;
      case FaultKind::kPartition:
        sim.schedule_at(f.at, [&, slot] { net.partition({names[slot]}); });
        sim.schedule_at(f.at + f.duration, [&] { net.heal_partition(); });
        break;
      case FaultKind::kLatencySpike:
        sim.schedule_at(f.at, [&, slot, extra = f.extra] {
          net.set_node_extra_latency(names[slot], extra);
        });
        sim.schedule_at(f.at + f.duration, [&, slot] {
          net.set_node_extra_latency(names[slot], 0);
        });
        break;
      case FaultKind::kTornWrite:
        // Force the device to tear the newest staged WAL block on crash:
        // recovery must stop redo at the torn record (valid prefix only)
        // and resync must make up the difference.
        sim.schedule_at(f.at, [&, slot] {
          try {
            auto s = orch.get<sqldb::SqlServer>(names[slot]);
            if (s && s->storage())
              s->storage()->wal_device().force_torn_on_next_crash();
            orch.crash(names[slot]);
          } catch (const std::exception&) {}
        });
        sim.schedule_at(f.at + f.duration, [&, slot] {
          try { orch.restart(names[slot]); } catch (const std::exception&) {}
        });
        break;
      case FaultKind::kPartialWal:
        // Under group commit (wal_flush_interval > 0) a write-heavy
        // instant always has staged, unsynced WAL records — the crash
        // subjects them to the device fault model (lost/torn tail).
        sim.schedule_at(f.at, [&, slot] {
          try { orch.crash(names[slot]); } catch (const std::exception&) {}
        });
        sim.schedule_at(f.at + f.duration, [&, slot] {
          try { orch.restart(names[slot]); } catch (const std::exception&) {}
        });
        break;
      case FaultKind::kCrashCheckpoint:
        // Kick a checkpoint, then crash 3ms later — inside the paced
        // write-out (steps are kCheckpointStepInterval apart), so the
        // staged pages and the not-yet-written root race the crash.
        sim.schedule_at(f.at, [&, slot] {
          try {
            auto s = orch.get<sqldb::SqlServer>(names[slot]);
            if (s && s->storage()) s->storage()->force_checkpoint();
          } catch (const std::exception&) {}
        });
        sim.schedule_at(f.at + 3 * sim::kMillisecond, [&, slot] {
          try { orch.crash(names[slot]); } catch (const std::exception&) {}
        });
        sim.schedule_at(f.at + f.duration, [&, slot] {
          try { orch.restart(names[slot]); } catch (const std::exception&) {}
        });
        break;
      case FaultKind::kCrashResync: {
        // Staggered double crash: the restarted instance resyncs while
        // its likeliest warm source goes down too.
        const size_t slot2 = (slot + 1) % opts.n_instances;
        const sim::Time second_at =
            f.at + f.duration + 80 * sim::kMillisecond;
        const sim::Time second_dur =
            std::max<sim::Time>(f.duration / 2, 200 * sim::kMillisecond);
        last_fault_end = std::max(last_fault_end, second_at + second_dur);
        sim.schedule_at(f.at, [&, slot] {
          try { orch.crash(names[slot]); } catch (const std::exception&) {}
        });
        sim.schedule_at(f.at + f.duration, [&, slot] {
          try { orch.restart(names[slot]); } catch (const std::exception&) {}
        });
        sim.schedule_at(second_at, [&, slot2] {
          try { orch.crash(names[slot2]); } catch (const std::exception&) {}
        });
        sim.schedule_at(second_at + second_dur, [&, slot2] {
          try { orch.restart(names[slot2]); } catch (const std::exception&) {}
        });
        break;
      }
    }
  }

  // ---- workload: per-client query loops with periodic reconnects ----
  // Queries with index % kUpdateEvery == 0 are UPDATEs (state the replicas
  // must not lose across resync), the rest pgbench SELECTs.
  constexpr size_t kUpdateEvery = 3;
  // A client opens a fresh connection every this many queries, so
  // readmitted instances actually join compared sessions.
  constexpr size_t kQueriesPerSession = 5;
  constexpr sim::Time kClientSpacing = 100 * sim::kMillisecond;
  struct Client {
    std::unique_ptr<sqldb::PgClient> pg;
    size_t issued = 0;
    Rng rng{0};
  };
  std::vector<Client> clients(opts.clients);
  {
    Rng root(seed);
    for (size_t c = 0; c < opts.clients; ++c)
      clients[c].rng = root.fork(100 + c);
  }
  std::function<void(size_t)> step = [&](size_t c) {
    Client& cl = clients[c];
    if (cl.issued >= opts.queries_per_client) {
      if (cl.pg) cl.pg->close();
      return;
    }
    const bool fresh_session = !cl.pg || cl.pg->broken() ||
                               cl.issued % kQueriesPerSession == 0;
    if (fresh_session) {
      if (cl.pg) cl.pg->close();
      cl.pg = std::make_unique<sqldb::PgClient>(
          net, strformat("client-%zu", c), "front:5432", "postgres");
    }
    const size_t qi = cl.issued++;
    std::string sql;
    if (qi % kUpdateEvery == 0) {
      int aid = 1 + static_cast<int>(cl.rng.next() %
                                     static_cast<uint64_t>(opts.accounts));
      int delta = 1 + static_cast<int>(cl.rng.next() % 100);
      sql = strformat(
          "UPDATE pgbench_accounts SET abalance = abalance + %d WHERE aid = %d",
          delta, aid);
    } else {
      sql = workloads::pgbench_select_tx(cl.rng, opts.accounts);
    }
    ++rep.issued;
    cl.pg->query(sql, [&rep](sqldb::QueryOutcome o) {
      if (o.failed()) ++rep.refused;
      else ++rep.served;
    });
    sim.schedule(kClientSpacing, [&step, c] { step(c); });
  };
  for (size_t c = 0; c < opts.clients; ++c) {
    sim.schedule_at(10 * sim::kMillisecond +
                        static_cast<sim::Time>(c) * sim::kMillisecond,
                    [&step, c] { step(c); });
  }

  // ---- recovery watcher: first moment back at full N after last fault ----
  std::function<void()> watch = [&] {
    if (dep->incoming().health().healthy_count() == opts.n_instances) {
      if (rep.recovery_time < 0) rep.recovery_time = sim.now() - last_fault_end;
      return;
    }
    sim.schedule(50 * sim::kMillisecond, [&watch] { watch(); });
  };
  sim.schedule_at(last_fault_end, [&watch] { watch(); });

  const sim::Time workload_span =
      static_cast<sim::Time>(opts.queries_per_client) * kClientSpacing +
      sim::kSecond;
  sim.run_until(std::max(last_fault_end, workload_span) + opts.settle);

  // ---- invariants ----
  rep.stats = dep->incoming().stats();
  rep.interventions = rep.stats.divergences;
  rep.quorum_outvotes = rep.stats.quorum_outvotes;
  rep.healthy_at_end = dep->incoming().health().healthy_count();
  rep.lost = rep.issued - rep.served - rep.refused;
  if (rep.interventions > 0)
    rep.violations.push_back(strformat(
        "benign schedule triggered %llu intervention(s)",
        static_cast<unsigned long long>(rep.interventions)));
  if (rep.quorum_outvotes > 0)
    rep.violations.push_back(strformat(
        "%llu quorum outvote(s): a replica served stale or divergent state",
        static_cast<unsigned long long>(rep.quorum_outvotes)));
  if (rep.lost > 0)
    rep.violations.push_back(strformat(
        "%llu client quer%s vanished without an answer or a refusal",
        static_cast<unsigned long long>(rep.lost), rep.lost == 1 ? "y" : "ies"));
  if (rep.healthy_at_end < opts.n_instances)
    rep.violations.push_back(strformat(
        "deployment ended at %zu/%zu healthy instances", rep.healthy_at_end,
        opts.n_instances));
  rep.ok = rep.violations.empty();
  return rep;
}

ChaosReport run_chaos_seed(uint64_t seed, const ChaosOptions& opts) {
  return run_chaos(generate_fault_plan(seed, opts), opts, seed);
}

ChaosReport run_peer_kill_resync(uint64_t seed, ChaosOptions opts) {
  opts.durable_storage = true;
  opts.kill_peer_mid_resync = true;
  // A wide transfer window so the watcher reliably catches the resync
  // in flight, and enough settle for the double recovery.
  opts.resync_min_transfer = 150 * sim::kMillisecond;
  opts.settle = std::max<sim::Time>(opts.settle, 25 * sim::kSecond);
  FaultSpec f;
  f.kind = FaultKind::kCrashRestart;
  f.at = 1 * sim::kSecond;
  f.duration = 400 * sim::kMillisecond;
  f.instance = 0;
  return run_chaos({f}, opts, seed);
}

ShrinkResult shrink_fault_plan(const std::vector<FaultSpec>& failing_plan,
                               const ChaosOptions& opts, uint64_t seed) {
  ShrinkResult res;
  auto still_fails = [&](const std::vector<FaultSpec>& candidate) {
    ++res.runs;
    return !run_chaos(candidate, opts, seed).ok;
  };
  // Pass 1: drop whole faults while the plan still fails (shared greedy
  // delta-debugging core, chaos/shrink.h).
  std::vector<FaultSpec> cur = shrink_drop_pass(failing_plan, still_fails);
  // Pass 2: halve surviving durations while failure persists.
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = 0; i < cur.size(); ++i) {
      if (cur[i].duration < 100 * sim::kMillisecond) continue;
      std::vector<FaultSpec> candidate = cur;
      candidate[i].duration /= 2;
      if (still_fails(candidate)) {
        cur = std::move(candidate);
        progress = true;
      }
    }
  }
  res.report = run_chaos(cur, opts, seed);
  ++res.runs;
  res.plan = std::move(cur);
  return res;
}

// ---- shard kill ----

std::string ShardKillReport::summary() const {
  std::string s = strformat(
      "%s: %llu issued = %llu served + %llu refused + %llu lost; "
      "%llu refused during outage, %llu sessions after readmit, "
      "killed shard %zu healthy at end",
      ok ? "OK" : "VIOLATION", static_cast<unsigned long long>(issued),
      static_cast<unsigned long long>(served),
      static_cast<unsigned long long>(refused),
      static_cast<unsigned long long>(lost),
      static_cast<unsigned long long>(refused_during_outage),
      static_cast<unsigned long long>(sessions_after_readmit),
      killed_shard_healthy_at_end);
  if (readmit_time >= 0)
    s += strformat("; readmitted %.0fms after restart",
                   static_cast<double>(readmit_time) / sim::kMillisecond);
  for (const std::string& v : violations) s += "\n  violation: " + v;
  return s;
}

ShardKillReport run_shard_kill(const ShardKillOptions& opts, uint64_t seed) {
  // Sessions open one every kSessionSpacing, each issuing
  // kQueriesPerSession queries.
  constexpr size_t kQueriesPerSession = 2;
  constexpr sim::Time kSessionSpacing = 20 * sim::kMillisecond;
  // Which shard's whole pool is crashed, and when / for how long.
  constexpr size_t kKillShard = 1;
  constexpr sim::Time kKillAt = 600 * sim::kMillisecond;
  constexpr sim::Time kRestartAt = 1500 * sim::kMillisecond;

  ShardKillReport rep;
  sim::Simulator sim;
  sim::Network net{sim, 10 * sim::kMicrosecond};
  sim::Host db_host(sim, "db-host", 16, 32LL << 30);
  sim::Host proxy_host(sim, "proxy-host", 8, 8LL << 30);

  // Per-shard pools: shard k fronts instances "pg-s<k>-<i>:5432", all
  // loaded with identical pgbench data but per-instance rng seeds.
  std::vector<std::vector<std::string>> pools(opts.shards);
  std::vector<std::shared_ptr<sqldb::SqlServer>> servers;
  for (size_t k = 0; k < opts.shards; ++k) {
    for (size_t i = 0; i < kInstancesPerShard; ++i) {
      std::string address = strformat("pg-s%zu-%zu:5432", k, i);
      auto db = std::make_shared<sqldb::Database>(sqldb::minipg_info("13.0"));
      workloads::load_pgbench(*db, opts.accounts, /*seed=*/9);
      sqldb::SqlServer::Options so;
      so.address = address;
      so.rng_seed = seed ^ (k * 100 + i + 1);
      servers.push_back(
          std::make_shared<sqldb::SqlServer>(net, db_host, db, so));
      pools[k].push_back(std::move(address));
    }
  }

  core::HealthTracker::Options health;
  health.failure_threshold = 1;
  health.reconnect_base_delay = 50 * sim::kMillisecond;
  health.reconnect_max_delay = 1 * sim::kSecond;
  health.reconnect_max_attempts = 0;  // probe forever; the pool comes back
  health.reconnect_jitter = 0.2;
  health.seed = seed ^ 0x9e170000ULL;

  auto front = core::NVersionDeployment::Builder()
                   .name("skill")
                   .listen("front:5432")
                   .plugin(std::make_shared<core::PgPlugin>())
                   .filter_pair(true)
                   .degradation(core::DegradationPolicy::kQuorum)
                   .health(health)
                   .unit_timeout(250 * sim::kMillisecond)
                   .shard_versions(pools)
                   .build_frontier(net, proxy_host);

  const size_t kill = kKillShard % opts.shards;
  sim.schedule_at(kKillAt, [&] {
    for (const std::string& a : pools[kill])
      net.crash_node(sim::Network::node_of(a));
  });
  sim.schedule_at(kRestartAt, [&] {
    for (const std::string& a : pools[kill])
      net.restart_node(sim::Network::node_of(a));
  });

  // Readmit watcher: first moment the killed shard's pool is back at full
  // health after the restart.
  // Like run_chaos's loops, a local the pending event refers to.
  std::function<void()> watch = [&] {
    if (front->shard(kill).incoming().health().healthy_count() ==
        kInstancesPerShard) {
      if (rep.readmit_time < 0) rep.readmit_time = sim.now() - kRestartAt;
      return;
    }
    sim.schedule(25 * sim::kMillisecond, [&watch] { watch(); });
  };
  sim.schedule_at(kRestartAt, [&watch] { watch(); });
  uint64_t killed_sessions_at_restart = 0;
  sim.schedule_at(kRestartAt, [&] {
    killed_sessions_at_restart = front->shard(kill).incoming().stats().sessions;
  });

  // Detection grace: refusals of sessions opened this soon after the kill
  // are the expected sacrificial probe that flips the pool unhealthy.
  const sim::Time detect_grace = 100 * sim::kMillisecond;
  uint64_t refused_after_detection = 0;

  struct Client {
    std::unique_ptr<sqldb::PgClient> pg;
  };
  auto clients = std::make_shared<std::vector<Client>>(opts.sessions);
  Rng root(seed);
  for (size_t s = 0; s < opts.sessions; ++s) {
    sim::Time open_at = 10 * sim::kMillisecond +
                        static_cast<sim::Time>(s) * kSessionSpacing;
    sim.schedule_at(open_at, [&, s, open_at] {
      Client& cl = (*clients)[s];
      cl.pg = std::make_unique<sqldb::PgClient>(
          net, strformat("skc-%zu", s), "front:5432", "postgres");
      Rng rng = root.fork(1000 + s);
      for (size_t q = 0; q < kQueriesPerSession; ++q) {
        std::string sql = workloads::pgbench_select_tx(rng, opts.accounts);
        ++rep.issued;
        cl.pg->query(sql, [&, s, open_at, q](sqldb::QueryOutcome o) {
          if (o.failed()) {
            ++rep.refused;
            if (open_at >= kKillAt && open_at < kRestartAt) {
              ++rep.refused_during_outage;
              if (open_at >= kKillAt + detect_grace)
                ++refused_after_detection;
            }
          } else {
            ++rep.served;
          }
          if (q + 1 == kQueriesPerSession && cl.pg) cl.pg->close();
        });
      }
    });
  }

  const sim::Time workload_end =
      10 * sim::kMillisecond +
      static_cast<sim::Time>(opts.sessions) * kSessionSpacing;
  sim.run_until(std::max(workload_end, kRestartAt) + opts.settle);

  rep.lost = rep.issued - rep.served - rep.refused;
  rep.killed_shard_healthy_at_end =
      front->shard(kill).incoming().health().healthy_count();
  rep.sessions_after_readmit =
      front->shard(kill).incoming().stats().sessions -
      killed_sessions_at_restart;

  if (rep.lost > 0)
    rep.violations.push_back(strformat(
        "%llu quer%s vanished without an answer or a refusal",
        static_cast<unsigned long long>(rep.lost), rep.lost == 1 ? "y" : "ies"));
  if (refused_after_detection > 0)
    rep.violations.push_back(strformat(
        "%llu refusal(s) of sessions opened after the detection window: "
        "the router kept sending sessions to the dead shard",
        static_cast<unsigned long long>(refused_after_detection)));
  if (rep.readmit_time < 0)
    rep.violations.push_back("killed shard never returned to full health");
  if (rep.killed_shard_healthy_at_end < kInstancesPerShard)
    rep.violations.push_back(strformat(
        "killed shard ended at %zu/%zu healthy instances",
        rep.killed_shard_healthy_at_end, kInstancesPerShard));
  if (rep.sessions_after_readmit == 0)
    rep.violations.push_back(
        "killed shard served no sessions after readmission");
  rep.ok = rep.violations.empty();
  return rep;
}

}  // namespace rddr::chaos
