// Conservative parallel executor for the multi-island simulator.
//
// DESIGN.md "Parallel simulation" has the full story; the short version:
//
//   * The simulation is partitioned into islands (Simulator::configure_
//     islands). Each island is a fully single-threaded event loop.
//   * Execution proceeds in windows. A window starts at the earliest
//     pending event time `t` across islands and extends to
//     `t + lookahead`, where lookahead is the network's link latency,
//     passed once to configure_islands (latency faults only add to it,
//     so it stays a lower bound on every cross-island transfer).
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
//     global event. They count as island-0 events, as they do on a
//     1-island loop.
//
// Causality: an event sent during window [t, t+L) across islands carries
// at least the link latency L, so its delivery time is >= t+L — at or
// after the window edge, never inside a window another island is
// concurrently executing. The merge asserts this; in release builds
// violations are clamped to the window edge and counted
// (`causality_clamps`, exposed so tests can require it to be zero).
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "netsim/simulator.h"

namespace rddr::sim {

struct ParallelStats {
  uint64_t windows = 0;
  uint64_t merged_messages = 0;   // cross-island events exchanged
  uint64_t causality_clamps = 0;  // lookahead violations (should be 0)
  uint64_t barrier_stalls = 0;  // island-windows that had no work
  uint64_t total_events = 0;    // events executed inside windows
  uint64_t critical_path_events = 0;  // sum over windows of max per island

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
/// Runs one worker thread per island, capped at the hardware concurrency;
/// RDDR_PARALLEL_THREADS overrides the count. Thread count never affects
/// results — only wall-clock.
class ParallelExecutor {
 public:
  ParallelExecutor(Simulator& sim, Time lookahead);
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

 private:
  void worker_loop(size_t w);
  void drain_share(size_t w);
  void execute_window(Time end);
  void merge_outboxes(Time end);
  void run_global_batch();

  Simulator& sim_;
  const Time lookahead_;  // >= 1, so every window makes progress
  size_t nthreads_;
  Time limit_ = INT64_MAX;  // exclusive bound while inside run_until
  ParallelStats stats_;

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
