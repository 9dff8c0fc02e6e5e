// NVersionDeployment: wires the RDDR proxies around a protected
// microservice's instances — the "add RDDR to a deployment" step the
// paper reports taking about an hour of configuration (§V-C1).
//
// Two ways to configure one:
//  * fill an Options struct by hand (full control, both proxies), or
//  * use NVersionDeployment::Builder, a fluent one-liner for the common
//    shapes:
//
//      auto rddr = core::NVersionDeployment::Builder()
//                      .listen("render:80")
//                      .versions({"render-0:80", "render-1:80"})
//                      .plugin(std::make_shared<core::HttpPlugin>())
//                      .trace(&tracer)
//                      .build(net, host);
//
// Builder-set shared knobs (plugin, variance, degradation, health,
// unit_timeout, observability sinks) apply to the incoming proxy AND to
// every backend() added, so the two sides never disagree on policy.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "netsim/fault.h"
#include "rddr/divergence.h"
#include "rddr/incoming_proxy.h"
#include "rddr/outgoing_proxy.h"

namespace rddr::core {

class Frontier;

class NVersionDeployment {
 public:
  struct Options {
    IncomingProxy::Config incoming;
    /// Zero or more, one per distinct backend microservice the protected
    /// service talks to (paper: "one proxy assigned for each distinct
    /// microservice").
    std::vector<OutgoingProxy::Config> outgoing;
    /// Deployment-wide record subscriber: subscribed to the shared bus's
    /// record stream at construction, so it fires once per divergence
    /// record (intervention or outvote) from ANY proxy of the deployment.
    std::function<void(const DivergenceRecord&)> on_record;
  };

  class Builder {
   public:
    /// Name of the incoming proxy (metric prefix / bus identity).
    Builder& name(std::string n);
    /// Address clients dial.
    Builder& listen(std::string address);
    /// The N diverse instances, replacing any added so far.
    Builder& versions(std::vector<std::string> addresses);
    /// Appends one instance address.
    Builder& add_version(std::string address);
    Builder& plugin(std::shared_ptr<ProtocolPlugin> p);
    Builder& filter_pair(bool on = true);
    Builder& variance(KnownVariance v);
    Builder& degradation(DegradationPolicy p);
    Builder& health(HealthTracker::Options h);
    Builder& unit_timeout(sim::Time t);
    /// Idle-session read timeout for the incoming proxy (see
    /// ProxyOptions::idle_timeout; progress-based slowloris shedding).
    Builder& idle_timeout(sim::Time t);
    /// Targeted path quarantine on the incoming proxy: sessions arriving
    /// from a call site with this many attributed interventions are
    /// refused (ProxyOptions::path_quarantine_threshold; 0 = off).
    Builder& path_quarantine(uint32_t threshold);
    /// Deployment-wide divergence hook: subscribed to the shared bus's
    /// record stream (DivergenceBus::subscribe_records), firing once per
    /// record from any proxy of the deployment.
    Builder& on_divergence(std::function<void(const DivergenceRecord&)> cb);
    /// Batched DiffEngine knobs (SIMD kernel selection, arena sizing),
    /// applied to every proxy and frontier shard in the deployment.
    Builder& diff(DiffEngineOptions d);
    /// CPU model for the de-noise+diff work (per compared unit / byte).
    Builder& cpu_model(double cpu_per_unit, double cpu_per_byte);
    /// Whether ephemeral tokens are deleted after first use (default on).
    Builder& delete_tokens(bool on = true);
    Builder& signature_blocking(bool on, uint32_t threshold = 1);
    /// Recovery: resync quarantined instances from a trusted peer before
    /// readmission (incoming proxy only; see ResyncOptions).
    Builder& resync(ResyncOptions r);
    /// Hook fired when an instance is declared dead (for auto-replacement
    /// via an orchestrator; see IncomingProxy::Config::on_instance_dead).
    Builder& on_instance_dead(
        std::function<void(size_t, const std::string&)> fn);
    /// Adds an outgoing proxy between the instances and one real backend.
    /// `listen_address` is what the instances believe the backend to be.
    /// Shared knobs plus group_size/instance_sources (derived from the
    /// version list) are filled in at build time; use the Config overload
    /// to override them.
    Builder& backend(std::string listen_address, std::string backend_address);
    Builder& backend(OutgoingProxy::Config cfg);
    /// Observability sinks, applied to every proxy (not owned).
    Builder& metrics(obs::MetricsRegistry* reg);
    Builder& trace(obs::Tracer* tracer);
    /// Schedules deterministic faults against the deployment's network.
    /// The callback runs once inside build(); the FaultPlan it receives is
    /// owned by the deployment (see fault_plan()).
    Builder& faults(std::function<void(sim::FaultPlan&)> fn);

    // -- scale-out (consumed by build_frontier; build() ignores them) --

    /// Number of front-tier shards (see rddr/frontier.h).
    Builder& shards(size_t s);
    /// Admission control / load shedding for the front tier.
    Builder& admission(AdmissionOptions a);
    /// Per-shard instance pools: pools[k] is shard k's version list. When
    /// set it overrides versions() and implies shards(pools.size());
    /// without it every shard fronts the shared versions() pool.
    Builder& shard_versions(std::vector<std::vector<std::string>> pools);
    /// Partitions the simulation into `n` islands (netsim/parallel.h) and
    /// pins each shard's column — host, proxies, instance nodes, suffixed
    /// backend listeners — to one island (island 0 keeps the public
    /// listener, the workload driver and anything unpinned; shards spread
    /// over islands 1..n-1). n <= 1 (the default) is one island: the
    /// sequential run, with no worker threads, whose outputs are the
    /// byte-identical oracle for any n > 1. Determinism across island
    /// counts requires the shard columns to be disjoint: per-shard pools
    /// (shard_versions) qualify; a pool or backend shared by two shards
    /// may see same-tick deliveries from different islands whose merge
    /// order is island-dependent.
    Builder& islands(size_t n);

    /// The fully resolved Options this builder would deploy (shared knobs
    /// propagated into each outgoing config).
    Options options() const;

    std::unique_ptr<NVersionDeployment> build(sim::Network& net,
                                              sim::Host& proxy_host) const;

    /// Deploys the scale-out front tier: S independent proxy shards behind
    /// one public listener with consistent-hash routing, admission control
    /// and load shedding. All shards run on `proxy_host`; the vector
    /// overload pins shard k's proxies to shard_hosts[k % size].
    std::unique_ptr<Frontier> build_frontier(sim::Network& net,
                                             sim::Host& proxy_host) const;
    std::unique_ptr<Frontier> build_frontier(
        sim::Network& net, const std::vector<sim::Host*>& shard_hosts) const;

   private:
    IncomingProxy::Config incoming_;
    struct PendingBackend {
      OutgoingProxy::Config cfg;
      bool inherit = false;  // fill shared knobs from the builder
    };
    std::vector<PendingBackend> backends_;
    std::function<void(const DivergenceRecord&)> on_record_;
    std::vector<std::vector<std::string>> shard_versions_;
    std::function<void(sim::FaultPlan&)> faults_;
    size_t islands_ = 1;
  };

  /// All proxies run on `proxy_host` and share one DivergenceBus.
  NVersionDeployment(sim::Network& net, sim::Host& proxy_host,
                     Options options);

  DivergenceBus& bus() { return bus_; }
  IncomingProxy& incoming() { return *incoming_; }
  OutgoingProxy& outgoing(size_t i = 0) { return *outgoing_.at(i); }
  size_t outgoing_count() const { return outgoing_.size(); }

  /// The fault plan scheduled via Builder::faults (null when none).
  sim::FaultPlan* fault_plan() { return fault_plan_.get(); }

  /// Swaps instance slot `i` to a replacement replica at `new_address`
  /// across every proxy: the incoming proxy re-probes (and resyncs) the
  /// new address; each outgoing proxy re-pins the slot to the new
  /// replica's node name.
  void replace_instance(size_t i, const std::string& new_address);

  /// Total interventions across all proxies.
  uint64_t divergences() const { return bus_.count(); }

  /// Element-wise sum of every proxy's counters (availability counters
  /// included: instance_unreachable, quarantines, reconnects,
  /// degraded_sessions, quorum_outvotes).
  ProxyStats aggregate_stats() const;

 private:
  friend class Builder;

  DivergenceBus bus_;
  std::unique_ptr<IncomingProxy> incoming_;
  std::vector<std::unique_ptr<OutgoingProxy>> outgoing_;
  std::unique_ptr<sim::FaultPlan> fault_plan_;
};

}  // namespace rddr::core
