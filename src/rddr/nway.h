// The N-way merge core shared by both RDDR proxies (paper §IV-B).
//
// RDDR is one loop run in two directions: the incoming proxy merges the N
// instances' responses to a client, the outgoing proxy merges the requests
// the N instances send to a backend. Either way a flow holds one lane per
// instance (connection, framer, queue of framed units); once every live
// lane has a unit, the batch is de-noised and diffed on the proxy host, and
// the agreed bytes are forwarded — or the proxy intervenes. NWayProxy owns
// that loop: the lanes, the pump (closed-lane rescan, silent-lane timeout,
// batch pop), the compare task, lane drop, fail-open flush, teardown and
// the sibling abort. A proxy supplies where units come from, where the
// agreed bytes go, and one hook per behaviour that differs by direction.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "netsim/host.h"
#include "netsim/network.h"
#include "rddr/diff_engine.h"
#include "rddr/options.h"

namespace rddr::core {

/// One instance's side of a flow.
struct Lane {
  sim::ConnPtr conn;
  std::unique_ptr<StreamFramer> framer;
  std::deque<Unit> queue;  // framed units not yet compared
  bool closed = false;     // the instance closed its connection
  bool participating = false;  // false once dropped (or never joined)
  obs::SpanId span = 0;    // "upstream" span (0 when untraced)
};

/// One N-way flow: an incoming client session or an outgoing flow group.
/// Proxies extend it and own each flow through a shared_ptr to their own
/// type, so it is never deleted through this base.
struct NWayFlow {
  uint64_t id = 0;
  std::string label;        // names the flow in logs: "session 7"
  std::vector<Lane> lanes;  // indexed by slot
  bool complete = true;     // every lane has joined (outgoing groups fill up)
  bool pair_ok = true;      // slots 0/1 hold the filter pair
  bool busy = false;        // a compare task is on the host
  bool ended = false;
  bool degraded = false;    // counted into degraded_sessions once
  bool failopen = false;    // uncompared passthrough of the sole survivor
  uint64_t timeout_event = 0;  // pending silent-lane timer (0 = none)

  // Trace context (zero when no tracer is configured) and the execution
  // index divergence records are attributed to.
  obs::TraceId trace = 0;
  obs::SpanId root_span = 0;
  ExecutionIndex index;

  size_t live() const;
  /// Whether some live lane has a unit queued / has none.
  bool any_queued() const;
  bool any_silent() const;
  void close_lanes();
  /// The highest participating slot (the survivor when live() == 1), or
  /// SIZE_MAX when none is left.
  size_t sole() const;
};

class NWayProxy {
 public:
  /// What differs by direction as plain data: reason and log texts, and
  /// where the silent-lane timer is armed.
  struct Traits {
    const char* unit;            // what the lanes carry: "response"
    const char* closed_reason;   // strict: "instance <slot> <closed_reason>"
    const char* closed_drop;     // non-strict drop reason
    const char* timeout_reason;  // strict intervention on a silent lane
    const char* timeout_drop;    // non-strict drop reason
    const char* outvote_action;  // tail of the outvote log line
    /// true: pump() arms the silent-lane timer on a short batch; false: it
    /// is armed on every framed unit and the proxy re-arms it per forward.
    bool arm_timer_in_pump;
    /// Proxy footprint charged to the host while it runs.
    int64_t base_memory_bytes;
  };

  virtual ~NWayProxy();
  NWayProxy(const NWayProxy&) = delete;
  NWayProxy& operator=(const NWayProxy&) = delete;

  /// Counter snapshot out of the metrics registry.
  ProxyStats stats() const { return counters_.snapshot(); }

  /// Registry the proxy publishes into (the configured one, else the
  /// proxy-private fallback).
  obs::MetricsRegistry& metrics() { return *metrics_; }

  /// Per-instance health view (quarantine state, for tests/operators).
  const HealthTracker& health() const { return health_; }

  /// Intervenes on every active flow (invoked from the bus's record stream
  /// on a sibling proxy's intervention).
  void abort_all_sessions(const std::string& reason);

 protected:
  using FlowPtr = std::shared_ptr<NWayFlow>;

  /// Wires counters, health, engine, memory and the sibling abort from
  /// `opts`; `n_instances` sizes the health tracker.
  NWayProxy(sim::Network& net, sim::Host& host, const ProxyOptions& opts,
            size_t n_instances, DivergenceBus* bus, Traits traits);

  /// Compares the next batch when every live lane has a unit; handles
  /// closed lanes first.
  void pump(const FlowPtr& f);
  /// Arms the §IV-D silent-lane timer when some live lanes have a unit and
  /// others do not.
  void arm_unit_timeout(const FlowPtr& f);
  /// Installs the data and close handlers of a lane's connection (again
  /// after its slot changed).
  void attach_lane(const FlowPtr& f, size_t slot);
  /// Removes a lane (non-strict policies); returns false when the flow
  /// could not continue with the lanes left.
  bool drop_lane(const FlowPtr& f, size_t slot, const std::string& why);
  /// Fail-open: stops the silent-lane timer and sends the survivor's queued
  /// units and unframed bytes to `to`.
  void flush_failopen(NWayFlow& f, size_t sole, const sim::ConnPtr& to);
  /// On divergence: count, report the attributed record, refuse, end.
  void intervene(const FlowPtr& f, const std::string& reason,
                 const BatchVerdict* verdict = nullptr,
                 const std::vector<Unit>* units = nullptr);
  /// Reports a DivergenceRecord with the diff region, the slot-0 unit and
  /// the flow's trace and execution index into the bus.
  void record_divergence(const char* verdict_class, const std::string& reason,
                         const BatchVerdict* verdict,
                         const std::vector<Unit>* units, const NWayFlow& f);
  void teardown(const FlowPtr& f);
  /// Ends the flow's root and lane spans.
  void end_spans(const NWayFlow& f);
  /// Cancels a pending simulator event and zeroes its id (0 = none).
  void cancel_event(uint64_t& event);
  /// Sends `page` (when non-empty) on `conn`, then closes it.
  static void send_and_close(const sim::ConnPtr& conn, const Bytes& page);

  // -- per-direction hooks --

  /// The proxy's configuration (its Config extends ProxyOptions).
  virtual const ProxyOptions& options() const = 0;
  /// A lane was lost to unavailability (closed mid-unit or silent), before
  /// it is dropped.
  virtual void lane_lost(NWayFlow&, size_t /*slot*/) {}
  /// Inside drop_lane, once the lane is closed and the flow degraded.
  virtual void lane_dropped(NWayFlow&, size_t /*slot*/) {}
  /// Fewer than two lanes are left after a drop.
  virtual void lost_quorum(const FlowPtr& f) = 0;
  /// The quorum outvoted `slot`; false when the flow ended.
  virtual bool outvoted(const FlowPtr& f, size_t slot) = 0;
  /// Fail-open: forwards the survivor's raw bytes downstream.
  virtual void pass_through(NWayFlow& f, ByteView data) = 0;
  /// Forwards the agreed batch and keeps the flow going.
  virtual void forward(const FlowPtr& f, const std::vector<Unit>& units,
                       const CompareContext& ctx) = 0;
  /// Token table a batch of `n` instances harvests into (null: none).
  virtual SessionState* token_state(NWayFlow& f, size_t n) = 0;
  /// HealthTracker index of `slot`, or SIZE_MAX when it is not tracked.
  virtual size_t health_index(const NWayFlow&, size_t slot) const {
    return slot;
  }
  /// Trace id divergence records carry.
  virtual obs::TraceId attribution_trace(const NWayFlow& f) const {
    return f.trace;
  }
  /// Queued units were compared or discarded.
  virtual void units_consumed(uint64_t /*n*/) {}
  /// An intervention on `f` was reported (before refuse and teardown).
  virtual void note_intervention(NWayFlow&) {}
  /// Tells the flow's downstream peer it is refused (intervention, abort).
  virtual void refuse(NWayFlow&) {}
  /// Closes the proxy's own connections and timers of an ended flow.
  virtual void release(NWayFlow& f) = 0;

  sim::Network& net_;
  sim::Host& host_;
  /// Fallback bus when constructed without a shared one: every record
  /// still flows through one DivergenceBus.
  DivergenceBus own_bus_;
  DivergenceBus* bus_;  // the shared bus, else &own_bus_
  obs::MetricsRegistry owned_metrics_;  // fallback registry
  obs::MetricsRegistry* metrics_;  // configured, else &owned_metrics_
  ProxyCounters counters_;
  HealthTracker health_;
  /// Batched N-way diff-and-denoise data plane: one engine, one arena,
  /// reused across every compare this proxy runs.
  DiffEngine engine_;
  std::map<uint64_t, FlowPtr> flows_;  // active flows by id

 private:
  /// Bytes arrived on a lane: frame them into its queue and pump.
  void on_lane_data(const FlowPtr& f, size_t slot, ByteView data);
  /// The silent-lane timer fired.
  void on_unit_timeout(const FlowPtr& f);
  /// Pops one unit per live lane and runs the compare task on the host.
  void compare_next(const FlowPtr& f);

  const Traits traits_;
};

}  // namespace rddr::core
