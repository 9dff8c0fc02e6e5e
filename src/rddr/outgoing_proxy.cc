#include "rddr/outgoing_proxy.h"

#include <algorithm>

#include "common/log.h"
#include "common/strutil.h"

namespace rddr::core {

struct OutgoingProxy::Group : NWayFlow {
  std::string flow_label;
  sim::ConnPtr backend;
  uint64_t window_event = 0;
  SessionState state;  // unused by current plugins upstream, kept uniform
  // The tracer roots one trace per group; attribution (`index`) follows the
  // canonical member's call path instead: member 0 once order is pinned.
};

namespace {
const NWayProxy::Traits kRequestTraits = {
    "request", "closed while peers kept sending to the backend",
    "closed while peers kept sending",
    "instance request timeout at the backend merge", "request timeout",
    "dropping it", /*arm_timer_in_pump=*/true,
    /*base_memory_bytes=*/16LL << 20};
}  // namespace

OutgoingProxy::OutgoingProxy(sim::Network& net, sim::Host& host,
                             Config config, DivergenceBus* bus)
    : NWayProxy(net, host, config, config.instance_sources.size(), bus,
                kRequestTraits),
      config_(std::move(config)) {
  net_.listen(config_.listen_address,
              [this](sim::ConnPtr c) { on_accept(std::move(c)); });
}

OutgoingProxy::~OutgoingProxy() {
  net_.unlisten(config_.listen_address);
  for (auto& [id, f] : flows_)
    cancel_event(static_cast<Group&>(*f).window_event);
}

size_t OutgoingProxy::source_index(const std::string& source) const {
  for (size_t i = 0; i < config_.instance_sources.size(); ++i)
    if (config_.instance_sources[i] == source) return i;
  return SIZE_MAX;
}

size_t OutgoingProxy::min_members() const {
  return config_.degradation == DegradationPolicy::kFailOpen ? 1 : 2;
}

size_t OutgoingProxy::expected_members() const {
  if (config_.degradation == DegradationPolicy::kStrict ||
      health_.n_instances() == 0)
    return config_.group_size;
  return std::min(health_.healthy_count(), config_.group_size);
}

void OutgoingProxy::on_accept(sim::ConnPtr conn) {
  // A quarantined instance dialing in again is back on its feet; instances
  // connect outward, so this is the outgoing side's "reconnect".
  if (config_.degradation != DegradationPolicy::kStrict &&
      health_.n_instances() > 0) {
    size_t si = source_index(conn->meta().source);
    // kDead (outvoted, or written off) stays out; only instances that went
    // quiet from unreachability earn their slot back by dialing in.
    if (si != SIZE_MAX &&
        health_.state(si) == HealthTracker::State::kQuarantined) {
      health_.readmit(si);
      counters_.reconnects->inc();
      RDDR_LOG_INFO("%s: instance source '%s' re-admitted (dialed in)",
                    config_.name.c_str(), conn->meta().source.c_str());
    }
  }

  const std::string& label = conn->flow().label;
  // Join the first incomplete group with this label, else start one.
  std::shared_ptr<Group> g;
  for (auto& [id, f] : flows_) {
    auto grp = std::static_pointer_cast<Group>(f);
    if (grp->flow_label == label && !grp->complete && !grp->ended) {
      g = std::move(grp);
      break;
    }
  }
  if (!g) {
    g = std::make_shared<Group>();
    g->id = next_group_id_++;
    g->complete = false;  // fills up as instances dial in
    g->label = "flow '" + label + "'";
    g->flow_label = label;
    g->index = conn->flow().index;  // refined to member 0's at completion
    flows_[g->id] = g;
    counters_.sessions->inc();
    if (config_.tracer) {
      g->trace = config_.tracer->id_stream(config_.name)->next_trace();
      g->root_span =
          config_.tracer->begin(g->trace, 0, "flow", config_.name);
      config_.tracer->tag(g->root_span, "flow_label", label);
    }
    g->window_event = net_.simulator().schedule(
        config_.group_window, [this, g] {
          g->window_event = 0;
          on_window_expired(g);
        });
  }

  size_t idx = g->lanes.size();
  Lane& lane = g->lanes.emplace_back();
  lane.conn = conn;
  lane.framer = config_.plugin->make_framer(Direction::kClientToServer);
  lane.participating = true;
  if (config_.tracer) {
    lane.span =
        config_.tracer->begin(g->trace, g->root_span, "upstream", config_.name);
    config_.tracer->tag(lane.span, "source", conn->meta().source);
  }
  attach_lane(g, idx);

  if (g->lanes.size() >= config_.group_size) {
    complete_group(g);
    return;
  }
  // With health tracking a group does not wait the full window for
  // instances known to be down: all currently-healthy instances present is
  // as complete as this group will get.
  size_t expected = expected_members();
  if (config_.degradation != DegradationPolicy::kStrict &&
      expected < config_.group_size && g->lanes.size() >= expected &&
      g->lanes.size() >= min_members())
    complete_degraded(g);
}

void OutgoingProxy::pass_through(NWayFlow& f, ByteView data) {
  auto& backend = static_cast<Group&>(f).backend;
  if (backend && backend->is_open()) backend->send(data);
}

void OutgoingProxy::on_window_expired(const std::shared_ptr<Group>& g) {
  if (g->complete || g->ended) return;
  counters_.timeouts->inc();
  if (config_.degradation == DegradationPolicy::kStrict) {
    intervene(g, strformat("flow '%s': only %zu of %zu instances contacted "
                           "the backend",
                           g->flow_label.c_str(), g->lanes.size(),
                           config_.group_size));
    return;
  }
  size_t joined = g->lanes.size();
  if (joined < min_members()) {
    intervene(g, strformat("flow '%s': %zu of %zu instances is below the "
                           "degradation floor",
                           g->flow_label.c_str(), joined, config_.group_size));
    return;
  }
  // Absence is unavailability, not divergence: quarantine the no-shows and
  // serve the flow with whoever came.
  RDDR_LOG_WARN("%s: flow '%s': completing degraded group with %zu of %zu "
                "instances",
                config_.name.c_str(), g->flow_label.c_str(), joined,
                config_.group_size);
  if (health_.n_instances() > 0) {
    for (size_t si = 0; si < health_.n_instances(); ++si) {
      if (!health_.is_healthy(si)) continue;
      bool present = false;
      for (const Lane& l : g->lanes)
        if (l.conn->meta().source == config_.instance_sources[si])
          present = true;
      if (!present) {
        counters_.instance_unreachable->inc();
        if (health_.record_failure(si)) {
          counters_.quarantines->inc();
          RDDR_LOG_WARN("%s: instance source '%s' quarantined (absent)",
                        config_.name.c_str(),
                        config_.instance_sources[si].c_str());
        }
      }
    }
  } else {
    counters_.instance_unreachable->inc(config_.group_size - joined);
  }
  complete_degraded(g);
}

void OutgoingProxy::complete_degraded(const std::shared_ptr<Group>& g) {
  g->degraded = true;
  counters_.degraded_sessions->inc();
  if (g->lanes.size() == 1) {
    g->failopen = true;
    counters_.passthrough_sessions->inc();
  }
  complete_group(g);
}

void OutgoingProxy::complete_group(const std::shared_ptr<Group>& g) {
  g->complete = true;
  cancel_event(g->window_event);
  // Pin instance order when sources are configured (filter pair slots).
  // Works for reduced groups too: present members keep their source order.
  if (!config_.instance_sources.empty()) {
    std::vector<size_t> order;
    for (const auto& want : config_.instance_sources) {
      for (size_t i = 0; i < g->lanes.size(); ++i) {
        if (g->lanes[i].conn->meta().source == want) {
          order.push_back(i);
          break;
        }
      }
    }
    if (order.size() == g->lanes.size()) {
      std::vector<Lane> lanes;
      for (size_t i : order) lanes.push_back(std::move(g->lanes[i]));
      // Re-register handlers with the new slot indices.
      g->lanes = std::move(lanes);
      for (size_t i = 0; i < g->lanes.size(); ++i) attach_lane(g, i);
    }
    g->pair_ok =
        g->lanes.size() >= 2 &&
        g->lanes[0].conn->meta().source == config_.instance_sources[0] &&
        g->lanes[1].conn->meta().source == config_.instance_sources[1];
  } else {
    g->pair_ok = g->lanes.size() == config_.group_size;
  }
  // Canonical call path: member 0's (the N replicated dials share the hop
  // chain; only the leaf's dialing node differs, and member 0 is the
  // config-order canonical choice).
  if (!g->lanes.empty() && g->lanes[0].conn)
    g->index = g->lanes[0].conn->flow().index;

  sim::ConnectMeta backend_meta;
  backend_meta.source = config_.name;
  backend_meta.flow.label = g->flow_label;
  backend_meta.flow.trace_id = g->trace;
  backend_meta.flow.parent_span = g->root_span;
  // The merged forward is the same logical call: the backend sees the
  // group's index unchanged.
  backend_meta.flow.index = g->index;
  g->backend = net_.connect(config_.backend_address, backend_meta);
  if (!g->backend) {
    intervene(g, "backend unreachable: " + config_.backend_address);
    return;
  }
  // Backend responses are replicated verbatim to every instance: wrap the
  // chunk once and let all N member connections share the buffer.
  g->backend->set_on_data([g](ByteView data) {
    SharedBytes shared{data};
    for (Lane& l : g->lanes)
      if (l.participating && l.conn->is_open()) l.conn->send(shared);
  });
  g->backend->set_on_close([this, g] {
    if (!g->ended) teardown(g);
  });
  if (g->failopen) {
    enter_failopen(g);
    return;
  }
  pump(g);
}

void OutgoingProxy::enter_failopen(const std::shared_ptr<Group>& g) {
  g->failopen = true;
  size_t sole = g->sole();
  if (config_.tracer)
    config_.tracer->tag(g->root_span, "failopen", strformat("slot %zu", sole));
  RDDR_LOG_WARN("%s: flow '%s' FAIL-OPEN: forwarding sole instance "
                "uncompared",
                config_.name.c_str(), g->flow_label.c_str());
  if (sole == SIZE_MAX) {
    teardown(g);
    return;
  }
  // Everything already framed or buffered for the survivor goes to the
  // backend raw from here on.
  flush_failopen(*g, sole, g->backend);
  if (g->lanes[sole].closed) teardown(g);
}

void OutgoingProxy::lane_dropped(NWayFlow& f, size_t slot) {
  size_t si = health_index(f, slot);
  if (si != SIZE_MAX && health_.record_failure(si)) {
    counters_.quarantines->inc();
    RDDR_LOG_WARN("%s: instance source '%s' quarantined", config_.name.c_str(),
                  config_.instance_sources[si].c_str());
  }
}

void OutgoingProxy::lost_quorum(const FlowPtr& f) {
  auto g = std::static_pointer_cast<Group>(f);
  const size_t live = g->live();
  if (live == 1 && config_.degradation == DegradationPolicy::kFailOpen) {
    counters_.passthrough_sessions->inc();
    enter_failopen(g);
  } else if (live == 0) {
    teardown(g);
  } else {
    // kQuorum with a single member left: nothing to verify against — fail
    // closed (this also tells the incoming proxy via the bus).
    intervene(g, strformat("flow '%s': quorum lost, one instance left",
                           g->flow_label.c_str()));
  }
}

bool OutgoingProxy::outvoted(const FlowPtr& f, size_t slot) {
  size_t si = health_index(*f, slot);
  bool ok = drop_lane(f, slot, "outvoted by quorum");
  // Divergence is evidence, not unavailability: no re-admission.
  if (si != SIZE_MAX) health_.mark_dead(si);
  return ok;
}

void OutgoingProxy::forward(const FlowPtr& f, const std::vector<Unit>& units,
                            const CompareContext&) {
  // Requests go to the backend raw: slot 0's bytes, no token rewriting.
  auto& g = static_cast<Group&>(*f);
  counters_.units_replicated->inc();
  if (g.backend && g.backend->is_open()) g.backend->send(units[0].data);
  pump(f);
}

SessionState* OutgoingProxy::token_state(NWayFlow& f, size_t) {
  return &static_cast<Group&>(f).state;
}

size_t OutgoingProxy::health_index(const NWayFlow& f, size_t slot) const {
  return source_index(f.lanes[slot].conn->meta().source);
}

obs::TraceId OutgoingProxy::attribution_trace(const NWayFlow& f) const {
  for (const Lane& l : f.lanes)
    if (l.conn && l.conn->flow().trace_id) return l.conn->flow().trace_id;
  return f.trace;
}

void OutgoingProxy::release(NWayFlow& f) {
  auto& g = static_cast<Group&>(f);
  cancel_event(g.window_event);
  g.close_lanes();
  if (g.backend && g.backend->is_open()) g.backend->close();
}

void OutgoingProxy::replace_instance(size_t i, const std::string& source_node) {
  if (i < config_.instance_sources.size())
    config_.instance_sources[i] = source_node;
  health_.reset_replaced(i);
  counters_.replacements->inc();
  RDDR_LOG_INFO("%s: instance %zu replaced; now dialling in from %s",
                config_.name.c_str(), i, source_node.c_str());
}

}  // namespace rddr::core
