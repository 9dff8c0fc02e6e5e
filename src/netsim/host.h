// Virtual machine model: processor-sharing CPU plus a memory ledger.
//
// Substitutes for the paper's AWS hosts (m5a.8xlarge, 32 vCPU / 128 GB).
// Services charge each request's CPU cost to the host via `run_task`; when
// more tasks are active than cores, every task slows down proportionally
// (egalitarian processor sharing). This is the mechanism behind the paper's
// Figures 4-6 — three replicas exhaust the box ~3x sooner than one — so the
// reproduced curves keep their shape without real hardware.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "netsim/simulator.h"

namespace rddr::sim {

/// A resource reading (Fig 6 time series). `cpu_pct` is the MEAN
/// utilisation over the interval ending at `time` (computed from the
/// busy-core integral, so lockstep bursts don't alias), except for the
/// first sample of a series, which is instantaneous.
struct ResourceSample {
  Time time;
  double cpu_pct;     // mean busy cores / total cores * 100 over interval
  double mem_bytes;   // resident memory at sample time
};

/// Host with `cores` CPUs under egalitarian processor sharing and a simple
/// resident-memory ledger. All bookkeeping is driven by the simulator clock.
class Host {
 public:
  Host(Simulator& sim, std::string name, int cores,
       int64_t memory_capacity_bytes);
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;
  ~Host();

  const std::string& name() const { return name_; }
  int cores() const { return cores_; }

  /// Runs a CPU task needing `cpu_seconds` of one core; `done` fires when
  /// the task completes under processor sharing (nullptr: fire-and-forget).
  /// Zero-cost tasks complete on the next event. On a failed host the task
  /// is silently dropped — its completion never fires (crash semantics).
  void run_task(double cpu_seconds, EventFn done);

  /// Machine crash: every in-flight CPU task is lost (completions never
  /// fire) and new tasks are dropped until restore(). Memory levels are
  /// preserved — the ledger tracks *charged* allocations, whose owners
  /// release them when torn down.
  void fail();
  void restore();
  bool failed() const { return failed_; }

  /// Resident memory accounting (per-container charges flow through here).
  void charge_memory(int64_t bytes);
  void release_memory(int64_t bytes);
  int64_t memory_bytes() const { return memory_bytes_; }
  int64_t memory_capacity() const { return memory_capacity_; }
  double max_memory_bytes() const { return mem_track_.max_value(); }

  /// Core-seconds of CPU consumed since construction (or last reset).
  double busy_core_seconds() const;

  /// Mean utilisation (busy cores / cores) over the tracked interval.
  double mean_utilization() const;

  /// Resets the CPU/memory integrals and the sample series (memory level is
  /// preserved). Used to scope measurements to a benchmark phase.
  void reset_metrics();

  /// Starts periodic sampling of CPU% and memory into `samples()`.
  void start_sampling(Time interval);
  void stop_sampling();
  const std::vector<ResourceSample>& samples() const { return samples_; }

  /// Instantaneous CPU utilisation in percent.
  double cpu_pct_now() const;

 private:
  // Egalitarian processor sharing in virtual work time: every active task
  // progresses at the SAME instantaneous rate, so instead of decrementing
  // each task's remaining work on every settle (O(active) per event, which
  // made dense phases quadratic), a single virtual-work clock `vwork_`
  // accrues that shared progress and each task stores the clock value at
  // which it completes. Relative completion order never changes once a
  // task is admitted, so a min-heap on the finish value yields the next
  // completion in O(log active).
  struct Task {
    double finish_v;  // vwork_ value at which the task completes
    uint64_t seq;     // admission order; callback order for joint finishes
    EventFn done;
  };

  void settle();       // accrue progress at the current rate up to now
  void reschedule();   // plan the next completion event
  void on_completion_event();
  void schedule_sample();
  double per_task_rate() const;

  Simulator& sim_;
  std::string name_;
  int cores_;
  int64_t memory_capacity_;
  int64_t memory_bytes_ = 0;
  bool failed_ = false;

  std::vector<Task> heap_;         // min-heap on (finish_v, seq)
  std::vector<Task> finished_;     // per-event scratch (capacity reused)
  double vwork_ = 0;               // virtual work completed per task so far
  uint64_t task_seq_ = 0;
  Time last_settle_ = 0;
  uint64_t completion_event_ = 0;  // 0 = none pending

  TimeWeightedValue busy_track_;   // busy cores over time
  TimeWeightedValue mem_track_;    // memory bytes over time
  Time metrics_epoch_ = 0;

  Time sample_interval_ = 0;
  uint64_t sample_event_ = 0;
  double last_sample_busy_integral_ = 0;
  std::vector<ResourceSample> samples_;
};

}  // namespace rddr::sim
