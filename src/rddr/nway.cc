#include "rddr/nway.h"

#include "common/log.h"
#include "common/strutil.h"

namespace rddr::core {

size_t NWayFlow::live() const {
  size_t n = 0;
  for (const Lane& l : lanes)
    if (l.participating) ++n;
  return n;
}

size_t NWayFlow::sole() const {
  size_t sole = SIZE_MAX;
  for (size_t i = 0; i < lanes.size(); ++i)
    if (lanes[i].participating) sole = i;
  return sole;
}

bool NWayFlow::any_queued() const {
  for (const Lane& l : lanes)
    if (l.participating && !l.queue.empty()) return true;
  return false;
}

bool NWayFlow::any_silent() const {
  for (const Lane& l : lanes)
    if (l.participating && l.queue.empty()) return true;
  return false;
}

void NWayFlow::close_lanes() {
  for (Lane& l : lanes)
    if (l.conn && l.conn->is_open()) l.conn->close();
}

NWayProxy::NWayProxy(sim::Network& net, sim::Host& host,
                     const ProxyOptions& opts, size_t n_instances,
                     DivergenceBus* bus, Traits traits)
    : net_(net),
      host_(host),
      bus_(bus ? bus : &own_bus_),
      metrics_(opts.metrics ? opts.metrics : &owned_metrics_),
      health_([&] {
        HealthTracker::Options h = opts.health;
        h.n_instances = n_instances;
        return h;
      }()),
      traits_(traits) {
  counters_.bind(*metrics_, opts.name);
  host_.charge_memory(traits_.base_memory_bytes);
  // A sibling proxy saw divergence: whatever the instances produce next
  // must not go through.
  bus_->subscribe_records([this, name = opts.name](const DivergenceRecord& r) {
    if (r.is_intervention() && r.proxy != name)
      abort_all_sessions("sibling proxy reported: " + r.reason);
  });
}

NWayProxy::~NWayProxy() {
  host_.release_memory(traits_.base_memory_bytes);
  for (auto& [id, f] : flows_) cancel_event(f->timeout_event);
}

void NWayProxy::pump(const FlowPtr& f) {
  if (!f->complete || f->busy || f->ended || f->failopen) return;
  const bool strict = options().degradation == DegradationPolicy::kStrict;
  auto& lanes = f->lanes;

  for (size_t i = 0; i < lanes.size(); ++i) {
    if (!lanes[i].participating || !lanes[i].queue.empty()) continue;
    if (!lanes[i].closed) continue;
    // This instance is gone. If nobody has anything pending, the close is
    // a normal end of the flow — propagate it once everyone closed. If a
    // peer has produced output, the deployment has diverged (strict) or
    // the instance crashed mid-unit (degraded). Dropping it leaves every
    // other lane as it was, so the scan simply goes on.
    if (!f->any_queued()) {
      bool all_closed = true;
      for (const Lane& l : lanes)
        if (l.participating && !l.closed) all_closed = false;
      if (all_closed) teardown(f);
      return;
    }
    if (strict) {
      intervene(f, strformat("instance %zu %s", i, traits_.closed_reason));
      return;
    }
    counters_.instance_unreachable->inc();
    lane_lost(*f, i);
    if (!drop_lane(f, i, traits_.closed_drop)) return;
  }

  if (f->any_silent()) {
    if (traits_.arm_timer_in_pump) arm_unit_timeout(f);
    return;
  }
  compare_next(f);
}

void NWayProxy::arm_unit_timeout(const FlowPtr& f) {
  if (options().unit_timeout <= 0 || f->ended || f->failopen) return;
  if (f->any_queued() && f->any_silent() && !f->timeout_event)
    f->timeout_event = net_.simulator().schedule(
        options().unit_timeout, [this, f] { on_unit_timeout(f); });
}

void NWayProxy::on_unit_timeout(const FlowPtr& f) {
  f->timeout_event = 0;
  if (f->ended || f->failopen || !f->any_queued() || !f->any_silent()) return;
  counters_.timeouts->inc();
  if (options().degradation == DegradationPolicy::kStrict) {
    intervene(f, traits_.timeout_reason);
    return;
  }
  // Non-strict: the silent instances are lost, not the flow. A drop
  // changes no other lane, so the scan sees the same silent set.
  for (size_t i = 0; i < f->lanes.size(); ++i) {
    if (!f->lanes[i].participating || !f->lanes[i].queue.empty()) continue;
    counters_.instance_unreachable->inc();
    lane_lost(*f, i);
    if (!drop_lane(f, i, traits_.timeout_drop)) return;
  }
  pump(f);
}

void NWayProxy::attach_lane(const FlowPtr& f, size_t slot) {
  auto& conn = f->lanes[slot].conn;
  conn->set_on_data([this, f, slot](ByteView d) { on_lane_data(f, slot, d); });
  conn->set_on_close([this, f, slot] {
    if (f->ended || !f->lanes[slot].participating) return;
    f->lanes[slot].closed = true;
    // A fail-open survivor is gone: nothing left to serve. Otherwise this
    // is divergence-by-silence or a crash: pump decides with queue context.
    if (f->failopen) teardown(f);
    else pump(f);
  });
}

void NWayProxy::on_lane_data(const FlowPtr& f, size_t slot, ByteView data) {
  if (f->ended || !f->lanes[slot].participating) return;
  if (f->failopen) {
    pass_through(*f, data);
    return;
  }
  StreamFramer& framer = *f->lanes[slot].framer;
  framer.feed(data);
  if (framer.failed()) {
    if (options().degradation == DegradationPolicy::kStrict) {
      intervene(f, strformat("instance %zu %s framing error", slot,
                             traits_.unit));
    } else if (drop_lane(f, slot,
                         strformat("%s framing error", traits_.unit))) {
      pump(f);
    }
    return;
  }
  for (auto& u : framer.take()) f->lanes[slot].queue.push_back(std::move(u));
  if (!traits_.arm_timer_in_pump) arm_unit_timeout(f);
  pump(f);
}

void NWayProxy::compare_next(const FlowPtr& f) {
  const ProxyOptions& opts = options();
  cancel_event(f->timeout_event);
  auto units = std::make_shared<std::vector<Unit>>();
  std::vector<size_t> idxmap;  // unit position -> slot
  size_t bytes = 0;
  for (size_t i = 0; i < f->lanes.size(); ++i) {
    Lane& l = f->lanes[i];
    if (!l.participating) continue;
    bytes += l.queue.front().data.size();
    units->push_back(std::move(l.queue.front()));
    l.queue.pop_front();
    idxmap.push_back(i);
  }
  units_consumed(idxmap.size());
  f->busy = true;
  obs::SpanId diff_span = 0;
  const sim::Time diff_start = net_.simulator().now();
  if (opts.tracer) {
    diff_span = opts.tracer->begin(f->trace, f->root_span, "diff", opts.name);
    opts.tracer->tag(diff_span, "instances", strformat("%zu", idxmap.size()));
  }
  double cost =
      opts.cpu_per_unit + static_cast<double>(bytes) * opts.cpu_per_byte;
  host_.run_task(cost, [this, f, units, idxmap = std::move(idxmap), diff_span,
                        diff_start] {
    const ProxyOptions& opts = options();
    f->busy = false;
    counters_.compare_ms->observe(
        static_cast<double>(net_.simulator().now() - diff_start) / 1e6);
    obs::Tracer* tracer = opts.tracer;
    if (tracer) {
      // The de-noise pass runs inside the engine's compare; a marker span
      // keeps it visible in the taxonomy.
      obs::SpanId dn = tracer->event(f->trace, diff_span, "denoise", opts.name);
      tracer->tag(dn, "filter_pair", opts.filter_pair ? "true" : "false");
    }
    if (f->ended) {
      if (tracer) tracer->end(diff_span);
      return;
    }
    counters_.units_compared->inc();
    CompareContext ctx;
    // The de-noise mask needs the filter pair in slots 0/1; a degraded
    // batch may have lost one of them.
    ctx.filter_pair = opts.filter_pair && f->pair_ok && idxmap.size() >= 2 &&
                      idxmap[0] == 0 && idxmap[1] == 1;
    ctx.variance = &opts.variance;
    ctx.session = token_state(*f, idxmap.size());
    auto verdict = [&](const char* v) -> obs::SpanId {
      if (!tracer) return 0;
      obs::SpanId sp = tracer->event(f->trace, diff_span, "verdict", opts.name);
      tracer->tag(sp, "verdict", v);
      return sp;
    };

    // A strict verdict never names an outlier, and under kStrict no health
    // failure is ever recorded, so one vote serves every policy.
    BatchVerdict vote = engine_.compare(
        *opts.plugin, *units, ctx,
        opts.degradation == DegradationPolicy::kStrict ? VoteMode::kStrict
                                                       : VoteMode::kQuorum);
    if (!vote.agreed) {
      obs::SpanId sp = verdict("divergent");
      if (tracer) {
        tracer->tag(sp, "reason", vote.reason);
        tracer->end(diff_span);
      }
      intervene(f, vote.reason, &vote, units.get());
      return;
    }
    if (vote.outlier != SIZE_MAX) {
      size_t slot = idxmap[vote.outlier];
      counters_.quorum_outvotes->inc();
      record_divergence("outvote", vote.reason, &vote, units.get(), *f);
      obs::SpanId sp = verdict("outvoted");
      if (tracer) tracer->tag(sp, "outvoted_instance", strformat("%zu", slot));
      RDDR_LOG_WARN("%s: %s: instance %zu outvoted by quorum (%zu-of-%zu "
                    "agree); %s",
                    opts.name.c_str(), f->label.c_str(), slot,
                    units->size() - 1, units->size(), traits_.outvote_action);
      units->erase(units->begin() + static_cast<std::ptrdiff_t>(vote.outlier));
      // The batch lost a member: the filter pair survives only if both its
      // slots did, and token harvesting needs the full group.
      ctx.filter_pair = ctx.filter_pair && vote.outlier > 1;
      ctx.session = nullptr;
      if (!outvoted(f, slot)) {
        if (tracer) tracer->end(diff_span);
        return;
      }
    } else {
      for (size_t i : idxmap) {
        size_t h = health_index(*f, i);
        if (h != SIZE_MAX) health_.record_success(h);
      }
      verdict("agree");
    }
    if (tracer) tracer->end(diff_span);
    forward(f, *units, ctx);
  });
}

bool NWayProxy::drop_lane(const FlowPtr& f, size_t slot,
                          const std::string& why) {
  if (f->ended) return false;
  Lane& l = f->lanes[slot];
  if (!l.participating) return true;
  const ProxyOptions& opts = options();
  RDDR_LOG_WARN("%s: %s: dropping instance %zu (%s)", opts.name.c_str(),
                f->label.c_str(), slot, why.c_str());
  l.participating = false;
  if (l.conn && l.conn->is_open()) l.conn->close();
  units_consumed(l.queue.size());
  l.queue.clear();
  if (opts.tracer && l.span) {
    opts.tracer->tag(l.span, "dropped", why);
    opts.tracer->end(l.span);
  }
  if (!f->degraded) {
    f->degraded = true;
    counters_.degraded_sessions->inc();
  }
  lane_dropped(*f, slot);
  if (f->live() >= 2) return true;
  lost_quorum(f);
  return false;  // pump must not compare what is left
}

void NWayProxy::flush_failopen(NWayFlow& f, size_t sole,
                               const sim::ConnPtr& to) {
  cancel_event(f.timeout_event);
  Lane& l = f.lanes[sole];
  for (auto& u : l.queue)
    if (to && to->is_open()) to->send(u.data);
  units_consumed(l.queue.size());
  l.queue.clear();
  if (l.framer) {
    Bytes rest = l.framer->unconsumed();
    if (!rest.empty() && to && to->is_open()) to->send(rest);
  }
}

void NWayProxy::record_divergence(const char* verdict_class,
                                  const std::string& reason,
                                  const BatchVerdict* verdict,
                                  const std::vector<Unit>* units,
                                  const NWayFlow& f) {
  const ProxyOptions& opts = options();
  DivergenceRecord rec;
  rec.time = net_.simulator().now();
  rec.proxy = opts.name;
  rec.protocol = opts.plugin->name();
  rec.verdict = verdict_class;
  rec.reason = reason;
  if (units && !units->empty()) {
    rec.unit_kind = (*units)[0].kind;
    rec.unit_data = (*units)[0].data;
  }
  if (verdict) {
    rec.region_line = verdict->region.line;
    rec.region_offset = verdict->region.offset;
    rec.region_instance = verdict->region.instance;
  }
  rec.trace_id = attribution_trace(f);
  rec.index = f.index;
  bus_->report(rec);
}

void NWayProxy::intervene(const FlowPtr& f, const std::string& reason,
                          const BatchVerdict* verdict,
                          const std::vector<Unit>* units) {
  if (f->ended) return;
  const ProxyOptions& opts = options();
  counters_.divergences->inc();
  RDDR_LOG_INFO("%s: intervention on %s: %s", opts.name.c_str(),
                f->label.c_str(), reason.c_str());
  if (opts.tracer) opts.tracer->tag(f->root_span, "intervention", reason);
  record_divergence("intervention", reason, verdict, units, *f);
  note_intervention(*f);
  refuse(*f);
  teardown(f);
}

void NWayProxy::teardown(const FlowPtr& f) {
  if (f->ended) return;
  f->ended = true;
  cancel_event(f->timeout_event);
  end_spans(*f);
  flows_.erase(f->id);
  release(*f);
}

void NWayProxy::end_spans(const NWayFlow& f) {
  obs::Tracer* tracer = options().tracer;
  if (!tracer) return;
  for (const Lane& l : f.lanes) tracer->end(l.span);
  tracer->end(f.root_span);
}

void NWayProxy::abort_all_sessions(const std::string& reason) {
  const ProxyOptions& opts = options();
  // Copy out: teardown mutates the map.
  std::vector<FlowPtr> active;
  for (auto& [id, f] : flows_) active.push_back(f);
  for (auto& f : active) {
    counters_.divergences->inc();
    refuse(*f);
    RDDR_LOG_INFO("%s: aborting %s: %s", opts.name.c_str(), f->label.c_str(),
                  reason.c_str());
    if (opts.tracer) opts.tracer->tag(f->root_span, "intervention", reason);
    teardown(f);
  }
}

void NWayProxy::cancel_event(uint64_t& event) {
  if (event) net_.simulator().cancel(event);
  event = 0;
}

void NWayProxy::send_and_close(const sim::ConnPtr& conn, const Bytes& page) {
  if (!conn || !conn->is_open()) return;
  if (!page.empty()) conn->send(page);
  conn->close();
}

}  // namespace rddr::core
