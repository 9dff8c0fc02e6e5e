// RDDR Incoming Request Proxy (paper §IV-B).
//
// Listens on the protected service's public address. Per client
// connection it: Replicates each request unit to the N instances (after
// per-instance ephemeral-token rewriting), collects the k-th response
// unit from every instance, De-noises via the filter pair, Diffs via the
// protocol plugin, and Responds — forwarding instance 0's bytes on
// agreement, or emitting the intervention response and closing everything
// on divergence.
//
// Observability: counters live in a metrics registry (ProxyCounters;
// `stats()` is the compatibility snapshot) and, when a Tracer is
// configured, every client session becomes a trace — root "session" span,
// one "upstream" span per instance, "replicate" markers per request unit
// and "diff"/"denoise"/"verdict" spans per comparison. Upstream connects
// carry the trace context onward via ConnectMeta.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "netsim/host.h"
#include "netsim/network.h"
#include "rddr/divergence.h"
#include "rddr/health.h"
#include "rddr/options.h"
#include "rddr/plugin.h"

namespace rddr::core {

/// Recovery knobs for the incoming proxy (DESIGN.md "Recovery & resync").
/// With `enabled` and a `warm` hook set, a quarantined instance that
/// answers a reconnect probe is not readmitted directly: it enters
/// HealthTracker::State::kResyncing, `warm` copies state from a trusted
/// peer (for sqldb: snapshot_database of the lowest healthy replica),
/// request units arriving during the modelled transfer window are
/// journaled (bounded) and replayed to the instance afterwards, and only
/// then is the instance admitted to new sessions. Sessions that started
/// while it was away keep it state-consistent via catch-up shadowing (see
/// ResyncOptions::catch_up_sessions).
struct ResyncOptions {
  bool enabled = false;
  /// What one warm-up transfer did. `bytes` sizes the modeled transfer
  /// window; the rest describes the mechanism for counters/spans —
  /// "snapshot" ships the whole database, "pages" only the pages dirtied
  /// since the target's LSN, "wal" just the statement tail.
  struct WarmResult {
    int64_t bytes = -1;  ///< transferred bytes; < 0 = transfer failed
    uint64_t pages_shipped = 0;
    uint64_t wal_records = 0;
    uint64_t wal_bytes = 0;
    const char* mode = "snapshot";
  };
  /// Performs the state transfer into instance `i`. Returns
  /// `bytes >= 0` on success; a negative `bytes` means no trusted source
  /// was available or the load failed (the instance goes back to
  /// quarantine and a later probe retries).
  std::function<WarmResult(size_t instance)> warm;
  /// Virtual-time model of the copy; admission is delayed by
  /// max(min_transfer_time, bytes * transfer_seconds_per_byte) and the
  /// journal covers writes landing inside that window.
  double transfer_seconds_per_byte = 1e-9;  // ~1 GB/s
  sim::Time min_transfer_time = sim::kMillisecond;
  /// Journal capacity in units; overflow aborts the resync (back to
  /// quarantine; the next probe starts over with a fresher snapshot).
  size_t journal_max_units = 256;
  /// After readmission, client units of sessions that opened while the
  /// instance was away are shadow-forwarded to it (responses discarded),
  /// so long-lived write sessions cannot silently diverge its state.
  /// Leave off for deployments with outgoing proxies: shadow traffic
  /// would show up as extra backend flows.
  bool catch_up_sessions = true;
};

class IncomingProxy {
 public:
  struct Config : ProxyOptions {
    Config() { name = "rddr-in"; }

    /// Public address the proxy listens on. Empty => the proxy registers
    /// no listener and is fed connections via accept() (a Frontier shard).
    std::string listen_address;
    /// Addresses of the N protected-microservice instances. With
    /// `filter_pair`, instances 0 and 1 must be the identical-image pair.
    std::vector<std::string> instance_addresses;
    bool delete_tokens_after_use = true;
    /// §IV-D's suggested mitigation ("automated signature generation to
    /// defeat an attacker who repetitively triggers divergence"): when
    /// enabled, the client request that preceded a divergence is
    /// fingerprinted, and once a fingerprint has triggered
    /// `signature_threshold` divergences, matching requests are refused at
    /// the proxy without ever reaching the instances.
    bool signature_blocking = false;
    uint32_t signature_threshold = 1;
    /// Recovery behaviour for quarantined instances (see ResyncOptions).
    ResyncOptions resync;
    /// Invoked (on a fresh simulator event, never reentrantly) when an
    /// instance transitions to kDead — reconnect attempts exhausted or
    /// outvoted by the quorum. An orchestrator hooks this to replace the
    /// instance (Orchestrator::replace + replace_instance below), closing
    /// the self-healing loop.
    std::function<void(size_t instance, const std::string& reason)>
        on_instance_dead;
    /// Queue-limit hook for a front tier: fired whenever this proxy's load
    /// drops (a compare batch was dispatched, a session ended, queued
    /// units were discarded), so backpressured admission can resume. May
    /// fire mid-pump — defer real work to a fresh simulator event.
    std::function<void()> on_load_change;
  };

  IncomingProxy(sim::Network& net, sim::Host& host, Config config,
                DivergenceBus* bus = nullptr);
  ~IncomingProxy();
  IncomingProxy(const IncomingProxy&) = delete;
  IncomingProxy& operator=(const IncomingProxy&) = delete;

  /// Counter snapshot out of the metrics registry (compatibility view).
  ProxyStats stats() const { return counters_.snapshot(); }
  const Config& config() const { return config_; }

  /// Registry the proxy publishes into (the configured one, else the
  /// proxy-private fallback).
  obs::MetricsRegistry& metrics() { return *metrics_; }

  /// Per-instance health view (quarantine state, for tests/operators).
  const HealthTracker& health() const { return health_; }

  /// Hands the proxy one server-half connection, exactly as if it had
  /// arrived on the listener — the direct-handoff path a Frontier uses to
  /// route an admitted connection to this shard without an extra hop.
  void accept(sim::ConnPtr conn) { on_accept(std::move(conn)); }

  /// Live client sessions (backpressure signal).
  size_t active_sessions() const { return sessions_.size(); }

  /// Response units received from instances but not yet consumed by a
  /// compare batch, summed over all sessions — the queue a saturated pool
  /// grows. The other backpressure signal.
  uint64_t pending_units() const { return queued_units_; }

  /// Aborts every active session with the intervention response (invoked
  /// from the bus's record stream on a sibling proxy's intervention).
  void abort_all_sessions(const std::string& reason);

  /// Swaps instance slot `i` to a freshly deployed replica at
  /// `new_address`. The slot starts quarantined with clean backoff state;
  /// the normal probe → resync → readmit path brings it into service.
  /// Any in-flight resync or probe for the old instance is abandoned.
  void replace_instance(size_t i, const std::string& new_address);

 private:
  struct Session;
  /// Per-instance resync progress (only instances in kResyncing are
  /// `active`).
  struct ResyncState {
    bool active = false;
    bool overflow = false;
    std::vector<Unit> journal;
    uint64_t complete_event = 0;  // pending transfer-done event (0 = none)
    int64_t bytes = 0;
    obs::TraceId trace = 0;
    obs::SpanId span = 0;
  };
  void on_accept(sim::ConnPtr conn);
  /// Drops `n` units from the pending count and fires on_load_change.
  void note_units_consumed(uint64_t n);
  void attach_upstream(const std::shared_ptr<Session>& s, size_t i);
  void pump(const std::shared_ptr<Session>& s);
  /// On divergence: count, report the attributed record to the bus,
  /// respond, tear down. `verdict`/`units` carry the diff region
  /// and instance-0 unit into the record when the divergence came from a
  /// compare.
  void intervene(const std::shared_ptr<Session>& s, const std::string& reason,
                 const BatchVerdict* verdict = nullptr,
                 const std::vector<Unit>* units = nullptr);
  /// Builds the enriched DivergenceRecord — diff region, instance-0 unit,
  /// trace id and execution index of `s` — and reports it into the
  /// AttributionSink (the shared bus, or the proxy-private one).
  void record_divergence(const char* verdict_class, const std::string& reason,
                         const BatchVerdict* verdict,
                         const std::vector<Unit>* units, const Session& s);
  void teardown(const std::shared_ptr<Session>& s);
  void arm_timeout(const std::shared_ptr<Session>& s);
  /// Idle-session read timeout (Config::idle_timeout): re-arming timer
  /// that sheds sessions making no protocol progress with the plugin's
  /// overload response.
  void arm_idle(const std::shared_ptr<Session>& s);
  /// Removes instance i from the session (non-strict policies); returns
  /// false when the session could not continue and was ended.
  bool drop_instance(const std::shared_ptr<Session>& s, size_t i,
                     const std::string& why);
  void note_instance_failure(size_t i);
  void schedule_reconnect(size_t i);
  void enter_failopen(const std::shared_ptr<Session>& s, size_t live_idx);
  void end_session_spans(const std::shared_ptr<Session>& s);
  /// Marks instance i dead and (deferred, on a fresh event) fires the
  /// on_instance_dead hook.
  void notify_dead(size_t i, const std::string& reason);
  /// kQuarantined -> kResyncing: warm from a trusted peer, start the
  /// journal window and the transfer timer.
  void begin_resync(size_t i);
  /// Transfer window elapsed: replay the journal and readmit (or fail on
  /// overflow / unreachability).
  void finish_resync(size_t i);
  /// Abandons an in-progress resync: back to quarantine, backoff retry.
  void fail_resync(size_t i, const std::string& why);
  /// Buffers one client unit for an instance mid-resync (bounded).
  void journal_unit(size_t i, const Unit& u);
  /// Catch-up shadowing: forwards a unit of an established session to a
  /// readmitted instance that is not part of the session.
  void shadow_unit(const std::shared_ptr<Session>& s, size_t i, const Unit& u,
                   const CompareContext& ctx);

  sim::Network& net_;
  sim::Host& host_;
  Config config_;
  /// Fallback sink when constructed without a shared bus: every record
  /// still flows through one AttributionSink.
  DivergenceBus own_bus_;
  DivergenceBus* bus_;  // the shared bus, else &own_bus_
  obs::MetricsRegistry owned_metrics_;  // fallback registry
  obs::MetricsRegistry* metrics_;  // configured, else &owned_metrics_
  ProxyCounters counters_;
  HealthTracker health_;
  /// Batched N-way diff-and-denoise data plane (configured from
  /// Config::diff): one engine, one arena, reused across every compare
  /// this proxy runs.
  DiffEngine engine_;
  /// Pending reconnect-probe event per instance (0 = none).
  std::vector<uint64_t> probe_events_;
  /// Pending deferred on_instance_dead event per instance (0 = none).
  std::vector<uint64_t> dead_events_;
  std::vector<ResyncState> resync_;
  /// Ephemeral-token table. Proxy-global (not per client connection):
  /// tokens are issued on one connection and presented on another (a
  /// browser does not pin CSRF round-trips to a socket), and values are
  /// globally unique, so a flat map is safe.
  SessionState token_state_;
  /// Divergence signatures: request fingerprint -> times it preceded a
  /// divergence (the §IV-D DoS mitigation).
  std::map<uint64_t, uint32_t> signatures_;
  /// Path quarantine: leaf call site -> interventions attributed to it
  /// (Config::path_quarantine_threshold).
  std::map<uint64_t, uint32_t> path_strikes_;
  uint64_t next_session_id_ = 1;
  uint64_t queued_units_ = 0;  // see pending_units()
  std::map<uint64_t, std::shared_ptr<Session>> sessions_;
};

}  // namespace rddr::core
