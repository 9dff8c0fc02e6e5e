// Conservative parallel executor for the multi-island simulator.
//
// DESIGN.md "Parallel simulation" has the full story; the short version:
//
//   * The simulation is partitioned into islands (Simulator::configure_
//     islands). Each island is a fully single-threaded event loop.
//   * Execution proceeds in windows. A window starts at the earliest
//     pending event time `t` across islands and extends to
//     `t + lookahead`, where lookahead is the minimum cross-island link
//     latency (sampled from the options' provider at every barrier, so
//     latency faults are picked up, and clamped to a positive floor so
//     fault injection can never drive it to zero).
//   * Within a window every island runs independently on a worker
//     thread. Cross-island schedules are buffered in per-island outboxes
//     (owner-thread only — no locks on the hot path).
//   * At the barrier the coordinator merges all outboxes into the
//     destination heaps in (time, source island, source order) order —
//     a total order independent of thread interleaving, which is what
//     makes same-seed runs byte-identical at any island/thread count.
//   * Global events (fault injection mutating shared network state) are
//     executed between windows with every worker parked and every island
//     clock advanced to the event time; windows never span a pending
//     global event.
//
// Causality: an event sent during window [t, t+L) across islands carries
// at least the minimum cross-island latency L, so its delivery time is
// >= t+L — at or after the window edge, never inside a window another
// island is concurrently executing. The merge asserts this; in release
// builds violations are clamped to the window edge and counted
// (`causality_clamps`, exposed so tests can require it to be zero).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "netsim/simulator.h"

namespace rddr::obs {
class MetricsRegistry;
class Counter;
class Gauge;
}  // namespace rddr::obs

namespace rddr::sim {

struct ParallelOptions {
  /// Worker threads (including the coordinating caller). 0 = one per
  /// island, capped at std::thread::hardware_concurrency(). Thread count
  /// never affects results — only wall-clock.
  size_t threads = 0;

  /// Conservative lookahead floor in virtual nanoseconds. The effective
  /// lookahead each window is max(floor, lookahead_provider()); the floor
  /// guarantees forward progress even if a provider misbehaves.
  Time min_lookahead = 100;

  /// Samples the current safe lookahead (min cross-island link latency)
  /// at every barrier. Latency *faults* only ever add latency on top of
  /// the per-link base in this simulator, so the network's minimum base
  /// latency is a valid conservative bound; re-sampling every window
  /// still lets a provider tighten or relax it dynamically.
  std::function<Time()> lookahead_provider;
};

struct ParallelStats {
  uint64_t windows = 0;
  uint64_t merged_messages = 0;   // cross-island events exchanged
  uint64_t causality_clamps = 0;  // lookahead violations (should be 0)
  uint64_t global_events = 0;
  uint64_t barrier_stalls = 0;  // island-windows that had no work
  uint64_t total_events = 0;    // events executed inside windows
  uint64_t critical_path_events = 0;  // sum over windows of max per island
  Time current_lookahead = 0;

  /// Model speedup: how much faster than one core this run could go with
  /// unlimited cores — total events over the window critical path. This
  /// is a deterministic property of the partitioning (independent of the
  /// machine), which is what the bench scaling floors gate on.
  double model_speedup() const {
    return critical_path_events
               ? static_cast<double>(total_events) /
                     static_cast<double>(critical_path_events)
               : 1.0;
  }
};

/// Runs a multi-island Simulator under conservative time-window barriers.
/// Created by Simulator::configure_islands(count >= 2); not used directly.
class ParallelExecutor {
 public:
  ParallelExecutor(Simulator& sim, const ParallelOptions& opts);
  ~ParallelExecutor();
  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  /// Executes the next window (or pending global-event batch). Returns
  /// false when nothing is pending (or everything pending is beyond the
  /// current run_until limit).
  bool run_window();

  size_t run_until_idle(size_t max_events);
  void run_until(Time t);

  const ParallelStats& stats() const { return stats_; }
  size_t thread_count() const { return nthreads_; }

  /// Publishes per-island observability into `reg` (updated at every
  /// barrier, from the coordinator — never from workers):
  ///   islands.events.<i>   counter  events executed by island i
  ///   islands.stalls       counter  empty island-windows
  ///   islands.windows      counter  barriers crossed
  ///   islands.merged       counter  cross-island events exchanged
  ///   islands.clamps       counter  causality clamps (should stay 0)
  ///   islands.lookahead_ns gauge    lookahead of the latest window
  void bind_metrics(obs::MetricsRegistry& reg);

 private:
  void worker_loop(size_t w);
  void drain_share(size_t w);
  void execute_window(Time end);
  void merge_outboxes(Time end);
  void run_global_batch();
  Time sample_lookahead();
  void publish_metrics();

  Simulator& sim_;
  ParallelOptions opts_;
  size_t nthreads_;
  Time limit_ = INT64_MAX;  // exclusive bound while inside run_until
  ParallelStats stats_;

  // Metrics handles (bound lazily; coordinator-only).
  std::vector<obs::Counter*> island_event_counters_;
  std::vector<uint64_t> published_events_;
  obs::Counter* stall_counter_ = nullptr;
  obs::Counter* window_counter_ = nullptr;
  obs::Counter* merged_counter_ = nullptr;
  obs::Counter* clamp_counter_ = nullptr;
  obs::Gauge* lookahead_gauge_ = nullptr;
  uint64_t published_stalls_ = 0;
  uint64_t published_windows_ = 0;
  uint64_t published_merged_ = 0;
  uint64_t published_clamps_ = 0;

  // Barrier state. The coordinator writes window_end_, then bumps epoch_
  // (release); workers observe the bump (acquire), drain their islands,
  // and count down pending_ (release); the coordinator waits for zero
  // (acquire). All shared mutable simulator state is only touched on one
  // side of those edges, which is what keeps the executor TSan-clean.
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint32_t> pending_{0};
  std::atomic<bool> stop_{false};
  Time window_end_ = 0;
  std::vector<std::thread> workers_;
};

}  // namespace rddr::sim
