#include "rddr/incoming_proxy.h"

#include <algorithm>

#include "common/log.h"
#include "common/strutil.h"

namespace rddr::core {

struct IncomingProxy::Session : NWayFlow {
  sim::ConnPtr client;
  std::unique_ptr<StreamFramer> client_framer;
  bool client_passthrough = false;

  // Catch-up connections to readmitted instances that are not part of this
  // session (lazily dialled; responses are discarded, never compared).
  std::vector<sim::ConnPtr> shadows;

  uint64_t idle_event = 0;    // pending idle-shed event id
  // Last protocol progress: a completed client unit or a forwarded
  // response. Deliberately NOT raw byte activity — a slowloris sender
  // trickling bytes never completes a unit and must still be shed.
  sim::Time last_progress = 0;
  // Fingerprint of the most recent client unit (divergence attribution
  // for the signature store). Pipelined requests make this approximate,
  // which mirrors real signature generators.
  uint64_t last_unit_fingerprint = 0;
  bool has_fingerprint = false;
};

namespace {
// Resync transfer model (ResyncOptions): ~1 GB/s, and a journal bound
// that keeps a long transfer window from buffering writes without limit.
constexpr double kTransferSecondsPerByte = 1e-9;
constexpr size_t kJournalMaxUnits = 256;

const NWayProxy::Traits kResponseTraits = {
    "response", "closed while peers responded", "closed while peers responded",
    "instance response timeout", "response timeout", "quarantining it",
    /*arm_timer_in_pump=*/false, /*base_memory_bytes=*/24LL << 20};
}  // namespace

IncomingProxy::IncomingProxy(sim::Network& net, sim::Host& host,
                             Config config, DivergenceBus* bus)
    : NWayProxy(net, host, config, config.instance_addresses.size(), bus,
                kResponseTraits),
      config_(std::move(config)) {
  token_state_.n_instances = config_.instance_addresses.size();
  probe_events_.assign(config_.instance_addresses.size(), 0);
  dead_events_.assign(config_.instance_addresses.size(), 0);
  resync_.resize(config_.instance_addresses.size());
  if (!config_.listen_address.empty())
    net_.listen(config_.listen_address,
                [this](sim::ConnPtr c) { on_accept(std::move(c)); });
}

IncomingProxy::~IncomingProxy() {
  if (!config_.listen_address.empty()) net_.unlisten(config_.listen_address);
  for (auto& [id, f] : flows_)
    cancel_event(static_cast<Session&>(*f).idle_event);
  for (uint64_t& ev : probe_events_) cancel_event(ev);
  for (uint64_t& ev : dead_events_) cancel_event(ev);
  for (auto& rs : resync_) cancel_event(rs.complete_event);
}

void IncomingProxy::units_consumed(uint64_t n) {
  if (n > 0 && config_.on_load_change) config_.on_load_change();
}

void IncomingProxy::lane_lost(NWayFlow&, size_t i) {
  if (config_.degradation == DegradationPolicy::kStrict) return;
  if (health_.record_failure(i)) {
    counters_.quarantines->inc();
    RDDR_LOG_WARN("%s: instance %zu (%s) quarantined", config_.name.c_str(),
                  i, config_.instance_addresses[i].c_str());
    // A quarantined instance no longer receives client units, so a live
    // session still comparing it would read ever-staler state and outvote
    // it over what is really transient unavailability. Withdraw it from
    // every session (deferred — the caller may be mid-pump on one of
    // them); the resync snapshot covers everything it misses.
    net_.simulator().schedule(0, [this, i] {
      if (health_.state(i) != HealthTracker::State::kQuarantined) return;
      std::vector<FlowPtr> live;
      for (auto& [id, f] : flows_) live.push_back(f);
      for (auto& f : live) {
        if (f->ended || !f->lanes[i].participating) continue;
        if (drop_lane(f, i, "quarantined")) pump(f);
      }
    });
    schedule_reconnect(i);
  }
}

void IncomingProxy::schedule_reconnect(size_t i) {
  if (probe_events_[i]) return;
  if (health_.state(i) != HealthTracker::State::kQuarantined) return;
  if (health_.attempts_exhausted(i)) {
    RDDR_LOG_WARN("%s: instance %zu (%s) declared dead after %u failed "
                  "reconnect attempts",
                  config_.name.c_str(), i,
                  config_.instance_addresses[i].c_str(), health_.attempts(i));
    notify_dead(i, "reconnect attempts exhausted");
    return;
  }
  sim::Time delay = health_.next_backoff(i);
  probe_events_[i] = net_.simulator().schedule(delay, [this, i] {
    probe_events_[i] = 0;
    if (health_.state(i) != HealthTracker::State::kQuarantined) return;
    auto probe = net_.connect(
        config_.instance_addresses[i],
        {.source = config_.name, .flow = {.label = "health-probe"}});
    if (!probe) {
      schedule_reconnect(i);
      return;
    }
    probe->close();
    if (config_.resync.warm) {
      begin_resync(i);
      return;
    }
    health_.readmit(i);
    counters_.reconnects->inc();
    RDDR_LOG_INFO("%s: instance %zu (%s) re-admitted after reconnect",
                  config_.name.c_str(), i,
                  config_.instance_addresses[i].c_str());
  });
}

void IncomingProxy::notify_dead(size_t i, const std::string& reason) {
  health_.mark_dead(i);
  if (!config_.on_instance_dead || dead_events_[i]) return;
  // Deferred to a fresh event: the hook typically replaces the instance,
  // which rewrites proxy state — never reenter mid-pump.
  dead_events_[i] = net_.simulator().schedule(0, [this, i, reason] {
    dead_events_[i] = 0;
    if (health_.state(i) == HealthTracker::State::kDead)
      config_.on_instance_dead(i, reason);
  });
}

void IncomingProxy::begin_resync(size_t i) {
  if (!health_.begin_resync(i)) return;
  counters_.resyncs->inc();
  ResyncState& rs = resync_[i];
  rs = ResyncState{};
  if (config_.tracer) {
    rs.trace = config_.tracer->id_stream(config_.name)->next_trace();
    rs.span = config_.tracer->begin(rs.trace, 0, "resync", config_.name);
    config_.tracer->tag(rs.span, "instance", strformat("%zu", i));
    config_.tracer->tag(rs.span, "address", config_.instance_addresses[i]);
  }
  ResyncOptions::WarmResult warmed = config_.resync.warm(i);
  int64_t bytes = warmed.bytes;
  if (bytes < 0) {
    fail_resync(i, "state transfer failed");
    return;
  }
  counters_.pages_shipped->inc(warmed.pages_shipped);
  counters_.wal_bytes_replayed->inc(warmed.wal_bytes);
  rs.active = true;
  rs.bytes = bytes;
  if (config_.tracer) {
    config_.tracer->tag(rs.span, "bytes",
                        strformat("%lld", static_cast<long long>(bytes)));
    config_.tracer->tag(rs.span, "mode", warmed.mode);
    if (warmed.pages_shipped)
      config_.tracer->tag(rs.span, "pages_shipped",
                          strformat("%llu", static_cast<unsigned long long>(
                                                warmed.pages_shipped)));
    if (warmed.wal_records)
      config_.tracer->tag(rs.span, "wal_records",
                          strformat("%llu", static_cast<unsigned long long>(
                                                warmed.wal_records)));
  }
  sim::Time window = std::max(
      config_.resync.min_transfer_time,
      static_cast<sim::Time>(static_cast<double>(bytes) *
                             kTransferSecondsPerByte *
                             static_cast<double>(sim::kSecond)));
  RDDR_LOG_INFO("%s: instance %zu (%s) resyncing: %lld bytes warmed, "
                "journaling writes for %lld ns",
                config_.name.c_str(), i, config_.instance_addresses[i].c_str(),
                static_cast<long long>(bytes),
                static_cast<long long>(window));
  rs.complete_event = net_.simulator().schedule(window, [this, i] {
    resync_[i].complete_event = 0;
    finish_resync(i);
  });
}

void IncomingProxy::fail_resync(size_t i, const std::string& why) {
  ResyncState& rs = resync_[i];
  cancel_event(rs.complete_event);
  rs.active = false;
  rs.journal.clear();
  if (config_.tracer && rs.span) {
    config_.tracer->tag(rs.span, "failed", why);
    config_.tracer->end(rs.span);
    rs.span = 0;
  }
  RDDR_LOG_WARN("%s: instance %zu (%s) resync failed (%s); back to "
                "quarantine",
                config_.name.c_str(), i, config_.instance_addresses[i].c_str(),
                why.c_str());
  health_.resync_failed(i);
  schedule_reconnect(i);
}

void IncomingProxy::finish_resync(size_t i) {
  ResyncState& rs = resync_[i];
  if (!rs.active) return;
  if (rs.overflow) {
    fail_resync(i, strformat("journal overflow (> %zu units)",
                             kJournalMaxUnits));
    return;
  }
  size_t replayed = 0;
  if (!rs.journal.empty()) {
    sim::ConnectMeta meta;
    meta.source = config_.name;
    meta.flow.label = "resync-replay";
    meta.flow.trace_id = rs.trace;
    meta.flow.parent_span = rs.span;
    // Infrastructure traffic gets its own root frame — it belongs to no
    // client request's call path.
    meta.flow.index.push(ExecutionIndex::site_id(config_.name, "resync-replay"),
                         static_cast<uint32_t>(i));
    auto conn = net_.connect(config_.instance_addresses[i], meta);
    if (!conn) {
      fail_resync(i, "instance unreachable at journal replay");
      return;
    }
    Bytes preamble = config_.plugin->resync_preamble();
    if (!preamble.empty()) conn->send(preamble);
    CompareContext ctx;
    ctx.filter_pair = config_.filter_pair;
    ctx.variance = &config_.variance;
    ctx.session = &token_state_;
    for (const Unit& u : rs.journal) {
      conn->send(config_.plugin->rewrite_for_instance(u, i, ctx));
      counters_.journal_replayed_requests->inc();
      ++replayed;
    }
    conn->close();  // graceful: queued bytes are delivered first
  }
  rs.journal.clear();
  rs.active = false;
  if (config_.tracer && rs.span) {
    config_.tracer->tag(rs.span, "journal_replayed", strformat("%zu", replayed));
    config_.tracer->end(rs.span);
    rs.span = 0;
  }
  health_.readmit(i);
  counters_.reconnects->inc();
  RDDR_LOG_INFO("%s: instance %zu (%s) resynced and re-admitted (%zu "
                "journaled units replayed)",
                config_.name.c_str(), i, config_.instance_addresses[i].c_str(),
                replayed);
}

void IncomingProxy::journal_unit(size_t i, const Unit& u) {
  ResyncState& rs = resync_[i];
  if (rs.overflow) return;
  if (rs.journal.size() >= kJournalMaxUnits) {
    rs.overflow = true;  // finish_resync aborts; a later probe starts over
    return;
  }
  rs.journal.push_back(u);
}

void IncomingProxy::shadow_unit(const std::shared_ptr<Session>& s, size_t i,
                                const Unit& u, const CompareContext& ctx) {
  auto& sh = s->shadows[i];
  if (sh && !sh->is_open()) sh = nullptr;  // stale (crash or replacement)
  if (!sh) {
    sim::ConnectMeta meta;
    meta.source = config_.name;
    meta.flow.label =
        strformat("catchup-%llu", static_cast<unsigned long long>(s->id));
    meta.flow.trace_id = s->trace;
    meta.flow.parent_span = s->root_span;
    // Shadow replay nests under the session's path: one child frame per
    // shadowed instance, so corpus records during catch-up still attribute
    // to the originating request.
    meta.flow.index = s->index.child(
        ExecutionIndex::site_id(config_.name, "catchup-shadow"),
        static_cast<uint32_t>(i));
    sh = net_.connect(config_.instance_addresses[i], meta);
    if (!sh) return;  // flapped again; the health machinery will notice
    Bytes preamble = config_.plugin->resync_preamble();
    if (!preamble.empty()) sh->send(preamble);
  }
  sh->send(config_.plugin->rewrite_for_instance(u, i, ctx));
  counters_.journal_replayed_requests->inc();
}

void IncomingProxy::replace_instance(size_t i,
                                     const std::string& new_address) {
  cancel_event(probe_events_[i]);
  cancel_event(dead_events_[i]);
  ResyncState& rs = resync_[i];
  cancel_event(rs.complete_event);
  if (config_.tracer && rs.span) {
    config_.tracer->tag(rs.span, "aborted", "instance replaced");
    config_.tracer->end(rs.span);
  }
  rs = ResyncState{};
  // Catch-up connections of live sessions still point at the old replica;
  // drop them so the next shadowed unit dials the new address.
  for (auto& [id, f] : flows_) {
    auto& shadows = static_cast<Session&>(*f).shadows;
    if (i < shadows.size() && shadows[i]) {
      if (shadows[i]->is_open()) shadows[i]->close();
      shadows[i] = nullptr;
    }
  }
  config_.instance_addresses[i] = new_address;
  health_.reset_replaced(i);
  counters_.replacements->inc();
  RDDR_LOG_INFO("%s: instance %zu replaced; now %s (quarantined until "
                "probe + resync)",
                config_.name.c_str(), i, new_address.c_str());
  schedule_reconnect(i);
}

void IncomingProxy::on_accept(sim::ConnPtr conn) {
  // Targeted path quarantine: a call site whose interventions crossed the
  // threshold is refused outright — one poisoned path through the graph is
  // blocked while every other caller of this edge keeps being served. Only
  // indexed (nested) flows qualify; root edge sessions all share the
  // proxy's own listen site and are never path-blocked.
  if (config_.path_quarantine_threshold > 0 && !conn->flow().index.empty()) {
    auto it = path_strikes_.find(conn->flow().index.leaf_site());
    if (it != path_strikes_.end() &&
        it->second >= config_.path_quarantine_threshold) {
      counters_.path_blocks->inc();
      RDDR_LOG_INFO("%s: refusing session from quarantined call path %s",
                    config_.name.c_str(),
                    conn->flow().index.describe().c_str());
      send_and_close(conn, config_.plugin->intervention_response());
      return;
    }
  }
  auto s = std::make_shared<Session>();
  s->id = next_session_id_++;
  s->label = strformat("session %llu", static_cast<unsigned long long>(s->id));
  s->client = std::move(conn);
  s->client_framer = config_.plugin->make_framer(Direction::kClientToServer);
  counters_.sessions->inc();

  // Execution index: nested hops keep the caller's index (its leaf frame
  // is the call site that dialed this edge); an originating edge request
  // mints the root frame (listen site, session id). Replicated upstream
  // dials carry it unchanged.
  if (s->client->flow().index.empty()) {
    s->index.push(
        ExecutionIndex::site_id(config_.name, config_.listen_address),
        static_cast<uint32_t>(s->id));
  } else {
    s->index = s->client->flow().index;
  }

  // Reuse the caller's trace when the connection carries one (the workload
  // driver and nested hops tag their connects) — divergence records carry
  // it even when no tracer is configured.
  s->trace = s->client->flow().trace_id;
  obs::Tracer* tracer = config_.tracer;
  if (tracer) {
    // Untraced edge request: this session starts a fresh trace.
    if (!s->trace) s->trace = tracer->id_stream(config_.name)->next_trace();
    s->root_span = tracer->begin(s->trace, s->client->flow().parent_span,
                                 "session", config_.name);
    if (!s->client->meta().source.empty())
      tracer->tag(s->root_span, "client", s->client->meta().source);
  }

  // Unavailability is not an attack: refuse the client without a
  // divergence count or bus report, closing the upstream connections
  // already opened.
  auto refuse_unserved = [&](const char* why) {
    s->close_lanes();
    refuse(*s);
    if (tracer) tracer->tag(s->root_span, "refused", why);
    end_spans(*s);
  };
  const size_t n = config_.instance_addresses.size();
  const bool strict = config_.degradation == DegradationPolicy::kStrict;
  s->lanes.resize(n);
  s->shadows.resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (!strict && !health_.is_healthy(i)) continue;  // quarantined: skip
    sim::ConnectMeta meta;
    meta.source = config_.name;
    meta.flow.label =
        strformat("in-%llu", static_cast<unsigned long long>(s->id));
    meta.flow.trace_id = s->trace;
    meta.flow.parent_span = s->root_span;
    // Replication is transparent to the call path: all N upstream dials
    // carry the session's index unchanged, so the instances' own onward
    // dials nest under the same logical hop.
    meta.flow.index = s->index;
    auto up = net_.connect(config_.instance_addresses[i], meta);
    if (!up) {
      RDDR_LOG_WARN("%s: instance %zu (%s) refused connection",
                    config_.name.c_str(), i,
                    config_.instance_addresses[i].c_str());
      counters_.instance_unreachable->inc();
      if (strict) {
        refuse_unserved("instance unreachable");
        return;
      }
      lane_lost(*s, i);
      continue;
    }
    Lane& lane = s->lanes[i];
    lane.conn = up;
    lane.framer = config_.plugin->make_framer(Direction::kServerToClient);
    lane.participating = true;
    if (tracer) {
      lane.span =
          tracer->begin(s->trace, s->root_span, "upstream", config_.name);
      tracer->tag(lane.span, "instance", strformat("%zu", i));
      tracer->tag(lane.span, "address", config_.instance_addresses[i]);
    }
  }

  const size_t live = s->live();
  if (live < n) {
    s->degraded = true;
    counters_.degraded_sessions->inc();
  }
  const bool failopen_ok = config_.degradation == DegradationPolicy::kFailOpen;
  if (live == 0 || (live == 1 && !failopen_ok)) {
    // Nothing to serve (or a single instance we are not allowed to trust
    // unverified): refuse the client.
    refuse_unserved("too few healthy instances");
    return;
  }

  flows_[s->id] = s;
  for (size_t i = 0; i < n; ++i)
    if (s->lanes[i].participating) attach_lane(s, i);
  s->last_progress = net_.simulator().now();
  arm_idle(s);

  if (live == 1) enter_failopen(*s, s->sole());

  s->client->set_on_data([this, s](ByteView data) {
    if (s->ended) return;
    auto replicate_raw = [&s](ByteView bytes) {
      SharedBytes shared{bytes};  // wrap once; all N upstreams share it
      for (Lane& l : s->lanes)
        if (l.conn && l.conn->is_open()) l.conn->send(shared);
    };
    if (s->client_passthrough) return replicate_raw(data);
    s->client_framer->feed(data);
    CompareContext ctx;
    ctx.filter_pair = config_.filter_pair;
    ctx.variance = &config_.variance;
    ctx.session = &token_state_;
    for (auto& u : s->client_framer->take()) {
      s->last_progress = net_.simulator().now();
      if (config_.signature_blocking) {
        uint64_t fp = std::hash<ByteView>()(u.data.view());
        auto hit = signatures_.find(fp);
        if (hit != signatures_.end() &&
            hit->second >= config_.signature_threshold) {
          // Known-bad input: refuse at the proxy; the instances never see
          // the request (the §IV-D repeated-divergence DoS mitigation).
          counters_.signature_blocks->inc();
          RDDR_LOG_INFO("%s: refused request matching divergence signature",
                        config_.name.c_str());
          if (config_.tracer) {
            obs::SpanId ev = config_.tracer->event(s->trace, s->root_span,
                                                   "replicate", config_.name);
            config_.tracer->tag(ev, "blocked", "divergence signature");
          }
          refuse(*s);
          teardown(s);
          return;
        }
        s->last_unit_fingerprint = fp;
        s->has_fingerprint = true;
      }
      counters_.units_replicated->inc();
      if (config_.tracer) {
        obs::SpanId ev = config_.tracer->event(s->trace, s->root_span,
                                               "replicate", config_.name);
        config_.tracer->tag(ev, "fanout", strformat("%zu", s->live()));
        config_.tracer->tag(ev, "bytes", strformat("%zu", u.data.size()));
      }
      // Each instance gets its rewrite of the unit: the unit's own shared
      // bytes unless the plugin restores that instance's tokens (HTTP).
      for (size_t i = 0; i < s->lanes.size(); ++i) {
        if (s->lanes[i].participating) {
          s->lanes[i].conn->send(
              config_.plugin->rewrite_for_instance(u, i, ctx));
          continue;
        }
        // Instance absent from this session. Mid-resync its copy of this
        // unit is journaled; once readmitted, catch-up shadowing keeps it
        // from drifting while this (pre-readmission) session lives on.
        // Quarantined instances get neither: the resync snapshot covers
        // everything they miss. Session-lifecycle units never replay.
        if (!config_.plugin->replayable(u)) continue;
        if (resync_[i].active) {
          journal_unit(i, u);
        } else if (config_.resync.warm && health_.is_healthy(i)) {
          shadow_unit(s, i, u, ctx);
        }
      }
    }
    if (s->client_framer->failed()) {
      // The client speaks something our framer does not understand. The
      // units it completed before the failure went out above; from here
      // on, replicate raw bytes and let the instances decide (their
      // responses are still diffed).
      s->client_passthrough = true;
      counters_.passthrough_sessions->inc();
      replicate_raw(s->client_framer->unconsumed());
    }
  });
  s->client->set_on_close([this, s] {
    if (s->ended) return;
    teardown(s);
  });
}

void IncomingProxy::pass_through(NWayFlow& f, ByteView data) {
  auto& s = static_cast<Session&>(f);
  s.last_progress = net_.simulator().now();
  if (s.client->is_open()) s.client->send(data);
}

void IncomingProxy::enter_failopen(Session& s, size_t sole) {
  s.failopen = true;
  s.client_passthrough = true;
  counters_.passthrough_sessions->inc();
  if (config_.tracer) config_.tracer->tag(s.root_span, "failopen",
                                          strformat("instance %zu", sole));
  RDDR_LOG_WARN("%s: session %llu FAIL-OPEN: forwarding instance %zu "
                "uncompared (fewer than 2 healthy instances)",
                config_.name.c_str(), static_cast<unsigned long long>(s.id),
                sole);
  // Everything already framed or buffered for the survivor flows straight
  // to the client from here on.
  flush_failopen(s, sole, s.client);
}

void IncomingProxy::lost_quorum(const FlowPtr& f) {
  if (f->live() == 1 && config_.degradation == DegradationPolicy::kFailOpen) {
    enter_failopen(static_cast<Session&>(*f), f->sole());
  } else {
    // kQuorum with < 2 healthy: nothing left to verify against — refuse
    // the rest of the session (fail closed, but not a divergence).
    refuse(*f);
    teardown(f);
  }
}

bool IncomingProxy::outvoted(const FlowPtr& f, size_t slot) {
  if (health_.quarantine(slot)) counters_.quarantines->inc();
  // A divergent answer is evidence of compromise, not transient
  // unavailability: no automatic re-admission (probes only test
  // reachability, which an outvoted instance still has). With an
  // orchestrator attached, on_instance_dead replaces the replica.
  notify_dead(slot, "outvoted by quorum");
  return drop_lane(f, slot, "outvoted by quorum");
}

SessionState* IncomingProxy::token_state(NWayFlow&, size_t n) {
  // Token harvesting assumes per-instance vectors of length N; skip it
  // for degraded batches (pre-harvested tokens still rewrite fine).
  return n == config_.instance_addresses.size() ? &token_state_ : nullptr;
}

void IncomingProxy::forward(const FlowPtr& f, const std::vector<Unit>& units,
                            const CompareContext& ctx) {
  auto& s = static_cast<Session&>(*f);
  SharedBytes fwd = engine_.forward_downstream(*config_.plugin, units, ctx);
  s.last_progress = net_.simulator().now();
  if (s.client->is_open()) s.client->send(std::move(fwd));
}

void IncomingProxy::arm_idle(const std::shared_ptr<Session>& s) {
  if (config_.idle_timeout <= 0 || s->ended) return;
  const sim::Time now = net_.simulator().now();
  const sim::Time due = s->last_progress + config_.idle_timeout;
  s->idle_event = net_.simulator().schedule(due > now ? due - now : 1,
                                            [this, s] {
    s->idle_event = 0;
    if (s->ended) return;
    if (net_.simulator().now() - s->last_progress < config_.idle_timeout) {
      arm_idle(s);  // progress since the last arm; re-check at the new due
      return;
    }
    counters_.idle_sheds->inc();
    RDDR_LOG_INFO("%s: session %llu shed: no protocol progress for %lld ns",
                  config_.name.c_str(),
                  static_cast<unsigned long long>(s->id),
                  static_cast<long long>(config_.idle_timeout));
    if (config_.tracer)
      config_.tracer->tag(s->root_span, "shed", "idle timeout");
    send_and_close(s->client, config_.plugin->overload_response());
    teardown(s);
  });
}

void IncomingProxy::note_intervention(NWayFlow& f) {
  auto& s = static_cast<Session&>(f);
  if (config_.signature_blocking && s.has_fingerprint)
    ++signatures_[s.last_unit_fingerprint];
  // Path quarantine strikes accrue against the call site that dialed this
  // edge (nested flows only; root sessions carry the proxy's own site).
  if (config_.path_quarantine_threshold > 0 && s.client &&
      !s.client->flow().index.empty())
    ++path_strikes_[s.index.leaf_site()];
}

void IncomingProxy::refuse(NWayFlow& f) {
  send_and_close(static_cast<Session&>(f).client,
                 config_.plugin->intervention_response());
}

void IncomingProxy::release(NWayFlow& f) {
  auto& s = static_cast<Session&>(f);
  cancel_event(s.idle_event);
  if (s.client && s.client->is_open()) s.client->close();
  s.close_lanes();
  for (auto& sh : s.shadows)
    if (sh && sh->is_open()) sh->close();
  // Session count dropped: wake a backpressured front tier.
  if (config_.on_load_change) config_.on_load_change();
}

}  // namespace rddr::core
