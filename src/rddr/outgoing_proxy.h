// RDDR Outgoing Request Proxy (paper §IV-B).
//
// The dual of the incoming proxy: the N instances of the protected
// microservice each open what they believe is a connection to a backend
// microservice; this proxy groups those N connections (by flow label),
// diffs each request unit across the group, forwards ONE copy to the real
// backend, and fans the backend's response bytes back to every instance.
// Divergence (including an instance that never dials in before the group
// window expires) is reported as an intervention record on the
// DivergenceBus; the incoming proxy sees it there and aborts the client
// session.
//
// Under a non-strict DegradationPolicy an absent or crashed instance is a
// fault, not an attack: groups complete with the instances that did show
// up (down to two members, or a single uncompared member under
// kFailOpen), mid-stream losses drop the member instead of the flow, and
// a kQuorum majority outvotes a single divergent minority.
//
// The lanes, pump, compare task, drop, fail-open and teardown are the
// shared N-way core (rddr/nway.h); this file adds group formation by flow
// label, the group window, source-order pinning and the backend leg.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rddr/nway.h"

namespace rddr::core {

class OutgoingProxy : public NWayProxy {
 public:
  struct Config : ProxyOptions {
    Config() { name = "rddr-out"; }

    /// Address the instances dial (their configured "backend").
    std::string listen_address;
    /// The real backend microservice.
    std::string backend_address;
    /// Number of instances expected per flow group (N).
    size_t group_size = 3;
    /// If the group is still incomplete this long after its first member
    /// connected, that is divergence-by-absence (e.g. one proxy variant
    /// refused the request the others forwarded).
    sim::Time group_window = 100 * sim::kMillisecond;
    /// A non-strict policy still verifies a group of two (kFailOpen
    /// additionally passes a single surviving member through uncompared).
    /// `health` reconnect fields are unused here: instances dial in, so a
    /// quarantined source is re-admitted the moment it shows up in a new
    /// group; health is indexed like `instance_sources` (which must be set
    /// for per-instance tracking to engage).
    /// Optional: pin instance order by ConnectMeta::source so the filter
    /// pair occupies slots 0 and 1 regardless of arrival order.
    std::vector<std::string> instance_sources;
  };

  OutgoingProxy(sim::Network& net, sim::Host& host, Config config,
                DivergenceBus* bus = nullptr);
  ~OutgoingProxy() override;

  const Config& config() const { return config_; }

  /// Swaps instance slot `i` to a replacement replica dialling in from
  /// `source_node` (requires `instance_sources`). The slot starts
  /// quarantined with clean health state and is re-admitted the moment the
  /// new replica shows up in a group — the dial-in IS the liveness probe.
  void replace_instance(size_t i, const std::string& source_node);

 private:
  struct Group;
  void on_accept(sim::ConnPtr conn);
  void on_window_expired(const std::shared_ptr<Group>& g);
  void complete_group(const std::shared_ptr<Group>& g);
  /// Completes a group that is short of instances: degraded, and fail-open
  /// when one member came.
  void complete_degraded(const std::shared_ptr<Group>& g);
  void enter_failopen(const std::shared_ptr<Group>& g);
  size_t source_index(const std::string& source) const;
  /// Smallest group the degradation policy serves.
  size_t min_members() const;
  /// How many members a new group should wait for: N, minus instances
  /// currently quarantined/dead (non-strict with health tracking only).
  size_t expected_members() const;

  // N-way core hooks (rddr/nway.h). Health is indexed by instance source,
  // so a lost member's failure is recorded inside drop (lane_dropped).
  const ProxyOptions& options() const override { return config_; }
  void lane_dropped(NWayFlow& f, size_t slot) override;
  void lost_quorum(const FlowPtr& f) override;
  bool outvoted(const FlowPtr& f, size_t slot) override;
  void pass_through(NWayFlow& f, ByteView data) override;
  void forward(const FlowPtr& f, const std::vector<Unit>& units,
               const CompareContext& ctx) override;
  SessionState* token_state(NWayFlow& f, size_t n) override;
  size_t health_index(const NWayFlow& f, size_t slot) const override;
  /// The originating edge request's trace when the members inherited one;
  /// the group's locally rooted trace otherwise.
  obs::TraceId attribution_trace(const NWayFlow& f) const override;
  void release(NWayFlow& f) override;

  Config config_;
  uint64_t next_group_id_ = 1;
};

}  // namespace rddr::core
