#include "netsim/host.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rddr::sim {

namespace {
// Completion events are scheduled on an integer-nanosecond clock, so a task
// can be up to ~1ns of core-work short when its event fires. The epsilon
// absorbs that truncation error (2ns of core-seconds is far below any real
// task cost in this repo).
constexpr double kWorkEpsilon = 2e-9;
}

Host::Host(Simulator& sim, std::string name, int cores,
           int64_t memory_capacity_bytes)
    : sim_(sim),
      name_(std::move(name)),
      cores_(cores),
      memory_capacity_(memory_capacity_bytes) {
  assert(cores_ > 0);
  last_settle_ = sim_.now();
  metrics_epoch_ = sim_.now();
  busy_track_.update(sim_.now(), 0);
  mem_track_.update(sim_.now(), 0);
}

Host::~Host() {
  if (completion_event_) sim_.cancel(completion_event_);
  if (sample_event_) sim_.cancel(sample_event_);
}

namespace {
// Min-heap order on (finish_v, seq) for std::push_heap/pop_heap.
struct LaterFinish {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    if (a.finish_v != b.finish_v) return a.finish_v > b.finish_v;
    return a.seq > b.seq;
  }
};
}  // namespace

double Host::per_task_rate() const {
  if (heap_.empty()) return 0.0;
  const double n = static_cast<double>(heap_.size());
  return std::min(1.0, static_cast<double>(cores_) / n);
}

void Host::settle() {
  const Time now = sim_.now();
  if (now > last_settle_ && !heap_.empty())
    vwork_ += to_seconds(now - last_settle_) * per_task_rate();
  last_settle_ = now;
}

void Host::reschedule() {
  if (completion_event_) {
    sim_.cancel(completion_event_);
    completion_event_ = 0;
  }
  busy_track_.update(sim_.now(),
                     std::min<double>(static_cast<double>(heap_.size()),
                                      static_cast<double>(cores_)));
  if (heap_.empty()) return;
  const double min_remaining = std::max(heap_.front().finish_v - vwork_, 0.0);
  const double rate = per_task_rate();
  // +1ns guarantees the event lands at-or-after the true completion instant
  // despite integer truncation, so every event makes progress.
  const Time dt = from_seconds(min_remaining / rate) + 1;
  completion_event_ =
      sim_.schedule(std::max<Time>(dt, 1), [this] { on_completion_event(); });
}

void Host::on_completion_event() {
  completion_event_ = 0;
  settle();
  finished_.clear();
  while (!heap_.empty() && heap_.front().finish_v - vwork_ <= kWorkEpsilon) {
    std::pop_heap(heap_.begin(), heap_.end(), LaterFinish{});
    finished_.push_back(std::move(heap_.back()));
    heap_.pop_back();
  }
  reschedule();
  // Callbacks run last (they may re-enter run_task and reschedule again),
  // in admission order — the order the old task-list walk produced for
  // tasks finishing in the same event.
  std::sort(finished_.begin(), finished_.end(),
            [](const Task& a, const Task& b) { return a.seq < b.seq; });
  for (auto& t : finished_)
    if (t.done) t.done();
  finished_.clear();
}

void Host::run_task(double cpu_seconds, EventFn done) {
  if (failed_) return;  // crashed machine: the work is lost
  settle();
  heap_.push_back(
      Task{vwork_ + std::max(cpu_seconds, 0.0), task_seq_++, std::move(done)});
  std::push_heap(heap_.begin(), heap_.end(), LaterFinish{});
  reschedule();
}

void Host::fail() {
  if (failed_) return;
  settle();
  failed_ = true;
  heap_.clear();
  reschedule();
}

void Host::restore() {
  if (!failed_) return;
  failed_ = false;
  last_settle_ = sim_.now();
}

void Host::charge_memory(int64_t bytes) {
  memory_bytes_ += bytes;
  mem_track_.update(sim_.now(), static_cast<double>(memory_bytes_));
}

void Host::release_memory(int64_t bytes) {
  memory_bytes_ -= bytes;
  assert(memory_bytes_ >= 0);
  mem_track_.update(sim_.now(), static_cast<double>(memory_bytes_));
}

double Host::busy_core_seconds() const {
  return busy_track_.integral(sim_.now()) / 1e9;
}

double Host::mean_utilization() const {
  return busy_track_.mean(sim_.now()) / static_cast<double>(cores_);
}

void Host::reset_metrics() {
  settle();
  metrics_epoch_ = sim_.now();
  busy_track_ = TimeWeightedValue();
  busy_track_.update(sim_.now(),
                     std::min<double>(static_cast<double>(heap_.size()),
                                      static_cast<double>(cores_)));
  mem_track_ = TimeWeightedValue();
  mem_track_.update(sim_.now(), static_cast<double>(memory_bytes_));
  samples_.clear();
}

double Host::cpu_pct_now() const {
  return 100.0 *
         std::min<double>(static_cast<double>(heap_.size()),
                          static_cast<double>(cores_)) /
         static_cast<double>(cores_);
}

void Host::start_sampling(Time interval) {
  assert(interval > 0);
  stop_sampling();
  sample_interval_ = interval;
  // Sample at t0 too (instantaneous), then interval means.
  samples_.push_back(ResourceSample{sim_.now(), cpu_pct_now(),
                                    static_cast<double>(memory_bytes_)});
  last_sample_busy_integral_ = busy_track_.integral(sim_.now());
  schedule_sample();
}

void Host::schedule_sample() {
  sample_event_ = sim_.schedule(sample_interval_, [this] {
    sample_event_ = 0;
    settle();
    double integral = busy_track_.integral(sim_.now());
    double mean_busy_cores = (integral - last_sample_busy_integral_) /
                             static_cast<double>(sample_interval_);
    last_sample_busy_integral_ = integral;
    samples_.push_back(ResourceSample{
        sim_.now(), 100.0 * mean_busy_cores / static_cast<double>(cores_),
        static_cast<double>(memory_bytes_)});
    schedule_sample();
  });
}

void Host::stop_sampling() {
  if (sample_event_) {
    sim_.cancel(sample_event_);
    sample_event_ = 0;
  }
}

}  // namespace rddr::sim
