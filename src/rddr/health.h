// Per-instance health tracking and degradation policy (paper §IV-D).
//
// The paper's RDDR assumes all N instances stay healthy: a crashed
// instance is indistinguishable from an attack and unanimity turns one
// failure into a total outage. This module adds the missing availability
// half: instances accumulate consecutive failures (refused connects,
// timeouts, framing errors, unexpected closes) and move to `quarantined`
// once a threshold is crossed; a bounded exponential-backoff reconnect
// schedule (jittered via common/rng so probes stay deterministic per seed)
// re-admits an instance that comes back.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "netsim/simulator.h"

namespace rddr::core {

/// What the proxies do when instances fail or disagree.
enum class DegradationPolicy {
  /// The paper's behaviour: unanimity or intervention. One crashed
  /// instance kills every session (§IV-D limitation).
  kStrict,
  /// Majority-of-healthy vote: a single divergent instance is outvoted
  /// and quarantined, the agreed bytes are forwarded; sessions continue
  /// as long as >= 2 healthy instances remain (fail closed below that).
  kQuorum,
  /// Like kQuorum, but when fewer than 2 healthy instances remain the
  /// session degrades to uncompared passthrough-with-alert instead of
  /// failing: availability over integrity, loudly counted.
  kFailOpen,
};

const char* to_string(DegradationPolicy policy);

/// Tracks health state for the N instances behind one proxy.
class HealthTracker {
 public:
  enum class State {
    kHealthy,      // participating in sessions
    kQuarantined,  // excluded; reconnect probes pending
    kResyncing,    // reachable again; state transfer in progress, still
                   // excluded from new sessions until readmit()
    kDead,         // reconnect attempts exhausted; permanently excluded
  };

  struct Options {
    size_t n_instances = 0;
    /// Consecutive failures before an instance is quarantined.
    uint32_t failure_threshold = 1;
    /// Reconnect backoff: base * 2^attempt, capped, +/- jitter.
    sim::Time reconnect_base_delay = 100 * sim::kMillisecond;
    sim::Time reconnect_max_delay = 10 * sim::kSecond;
    /// Probe attempts before giving an instance up for dead (0 = never).
    uint32_t reconnect_max_attempts = 10;
    /// Fractional jitter on each backoff delay (0.2 = +/-20%).
    double reconnect_jitter = 0.2;
    uint64_t seed = 0x5eedULL;
  };

  explicit HealthTracker(Options options);

  State state(size_t i) const { return inst_.at(i).state; }
  bool is_healthy(size_t i) const { return state(i) == State::kHealthy; }
  /// O(1): a cached count maintained on every transition.
  size_t healthy_count() const { return healthy_; }
  size_t n_instances() const { return inst_.size(); }

  /// Records one failure. Returns true when this crossed the threshold
  /// and the instance just moved kHealthy -> kQuarantined.
  bool record_failure(size_t i);

  /// Resets the consecutive-failure counter (a healthy interaction).
  void record_success(size_t i);

  /// Forces immediate quarantine (e.g. the instance was outvoted by the
  /// quorum — decisive evidence, no threshold). Returns true if the
  /// instance was healthy before.
  bool quarantine(size_t i);

  /// Successful reconnect: quarantined/resyncing -> healthy, counters
  /// reset.
  void readmit(size_t i);

  /// Reachable but not yet trusted: quarantined -> resyncing (state
  /// transfer runs before admission). Returns false unless quarantined.
  bool begin_resync(size_t i);

  /// The transfer failed or the journal overflowed: resyncing ->
  /// quarantined, so the backoff probe schedule takes over again.
  void resync_failed(size_t i);

  /// Instance i was replaced by a fresh replica: any state (dead
  /// included) -> quarantined with all counters reset, ready for the
  /// probe -> resync -> readmit pipeline.
  void reset_replaced(size_t i);

  /// Next backoff delay for instance i; increments its attempt counter.
  sim::Time next_backoff(size_t i);

  /// True when the attempt budget is spent; mark_dead retires the
  /// instance so probing stops.
  bool attempts_exhausted(size_t i) const;
  void mark_dead(size_t i);
  uint32_t attempts(size_t i) const { return inst_.at(i).attempts; }

 private:
  struct Instance {
    State state = State::kHealthy;
    uint32_t consecutive_failures = 0;
    uint32_t attempts = 0;  // reconnect probes issued this quarantine
  };

  void set_state(size_t i, State next);

  Options options_;
  Rng rng_;
  std::vector<Instance> inst_;
  size_t healthy_ = 0;  // cached kHealthy count (see healthy_count())
};

}  // namespace rddr::core
