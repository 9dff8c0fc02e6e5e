#include "rddr/health.h"

#include <algorithm>

namespace rddr::core {

const char* to_string(DegradationPolicy policy) {
  switch (policy) {
    case DegradationPolicy::kStrict: return "strict";
    case DegradationPolicy::kQuorum: return "quorum";
    case DegradationPolicy::kFailOpen: return "fail-open";
  }
  return "?";
}

HealthTracker::HealthTracker(Options options)
    : options_(options), rng_(options.seed) {
  inst_.resize(options_.n_instances);
  healthy_ = inst_.size();
}

void HealthTracker::set_state(size_t i, State next) {
  auto& in = inst_.at(i);
  if (in.state == next) return;
  if (in.state == State::kHealthy) --healthy_;
  if (next == State::kHealthy) ++healthy_;
  in.state = next;
}

bool HealthTracker::record_failure(size_t i) {
  auto& in = inst_.at(i);
  if (in.state != State::kHealthy) return false;
  ++in.consecutive_failures;
  if (in.consecutive_failures >= options_.failure_threshold) {
    set_state(i, State::kQuarantined);
    in.attempts = 0;
    return true;
  }
  return false;
}

void HealthTracker::record_success(size_t i) {
  inst_.at(i).consecutive_failures = 0;
}

bool HealthTracker::quarantine(size_t i) {
  auto& in = inst_.at(i);
  if (in.state != State::kHealthy) return false;
  set_state(i, State::kQuarantined);
  in.attempts = 0;
  return true;
}

void HealthTracker::readmit(size_t i) {
  auto& in = inst_.at(i);
  set_state(i, State::kHealthy);
  in.consecutive_failures = 0;
  in.attempts = 0;
}

bool HealthTracker::begin_resync(size_t i) {
  auto& in = inst_.at(i);
  if (in.state != State::kQuarantined) return false;
  set_state(i, State::kResyncing);
  return true;
}

void HealthTracker::resync_failed(size_t i) {
  auto& in = inst_.at(i);
  if (in.state == State::kResyncing) set_state(i, State::kQuarantined);
}

void HealthTracker::reset_replaced(size_t i) {
  auto& in = inst_.at(i);
  set_state(i, State::kQuarantined);
  in.consecutive_failures = 0;
  in.attempts = 0;
}

sim::Time HealthTracker::next_backoff(size_t i) {
  auto& in = inst_.at(i);
  uint32_t attempt = in.attempts++;
  // base * 2^attempt, capped; shift guarded so Time never overflows.
  sim::Time delay = options_.reconnect_base_delay;
  for (uint32_t k = 0; k < attempt && delay < options_.reconnect_max_delay;
       ++k)
    delay *= 2;
  delay = std::min(delay, options_.reconnect_max_delay);
  if (options_.reconnect_jitter > 0) {
    double f = 1.0 + options_.reconnect_jitter * (2 * rng_.uniform01() - 1);
    delay = std::max<sim::Time>(1, static_cast<sim::Time>(
                                       static_cast<double>(delay) * f));
  }
  return delay;
}

bool HealthTracker::attempts_exhausted(size_t i) const {
  return options_.reconnect_max_attempts > 0 &&
         inst_.at(i).attempts >= options_.reconnect_max_attempts;
}

void HealthTracker::mark_dead(size_t i) {
  set_state(i, State::kDead);
}

}  // namespace rddr::core
