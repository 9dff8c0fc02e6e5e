// Deterministic discrete-event simulator with a virtual nanosecond clock.
//
// This is the substrate substituting for real machines and networks (see
// DESIGN.md): every test and benchmark in the repo runs on one `Simulator`
// instance, so runs replay byte-identically from a seed. Events scheduled
// for the same instant fire in scheduling order (FIFO tie-break), which is
// what makes the network FIFO guarantees below easy to uphold.
//
// The event loop is allocation-lean: callbacks live inline in a reusable
// slot table (InlineFunction small-buffer storage — no per-event heap
// allocation for typical captures), the ready queue is a plain binary heap
// of 24-byte entries, and cancellation is a generation check — O(1), no
// hash tables, no state retained for cancelled or fired ids.
//
// Islands (DESIGN.md "Parallel simulation"): the event loop can be
// partitioned into up to kMaxIslands independent sub-loops, each with its
// own heap, clock, slot table and sequence counter. Configure them with
// `configure_islands`; a ParallelExecutor (netsim/parallel.h) then runs
// the islands on worker threads under conservative time-window barriers,
// exchanging cross-island events through per-island outboxes that are
// merged in deterministic (time, source island, source order) order at
// each barrier. A simulator that never configures more than one island
// runs the plain single-threaded loop on island 0; the network semantics
// above it are the same at every island count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/exec_context.h"
#include "common/inline_function.h"

namespace rddr::sim {

/// Virtual time in nanoseconds since simulation start.
using Time = int64_t;

constexpr Time kMicrosecond = 1000;
constexpr Time kMillisecond = 1000 * kMicrosecond;
constexpr Time kSecond = 1000 * kMillisecond;

/// Converts virtual time to seconds as a double (for reporting).
inline double to_seconds(Time t) { return static_cast<double>(t) / 1e9; }

/// Converts (fractional) seconds to virtual time.
inline Time from_seconds(double s) { return static_cast<Time>(s * 1e9); }

/// Event callback. Captures up to 48 bytes are stored inline (no heap
/// allocation on the schedule path); move-only captures are fine.
using EventFn = InlineFunction<48>;

class ParallelExecutor;
struct ParallelOptions;

/// Event loop over virtual time; single-threaded per island.
class Simulator {
 public:
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  /// Current virtual time of the calling context's island.
  Time now() const { return cur().now; }

  /// Schedules `fn` to run at absolute virtual time `t` (clamped to now())
  /// on the current island. Returns a nonzero id usable with `cancel`.
  uint64_t schedule_at(Time t, EventFn fn);

  /// Schedules `fn` to run `delay` nanoseconds from now.
  uint64_t schedule(Time delay, EventFn fn);

  /// Schedules `fn` at absolute time `t` on island `island`. On the
  /// current island this is exactly schedule_at. Cross-island schedules
  /// issued while a parallel window is executing are routed through the
  /// island's outbox and merged at the next barrier; those return 0 (they
  /// cannot be cancelled). `t` must respect the conservative lookahead —
  /// the executor clamps (and counts) violations.
  uint64_t schedule_on(IslandId island, Time t, EventFn fn);

  /// Schedules `fn` at absolute time `t` as a GLOBAL event: one that may
  /// mutate state shared by all islands (fault injection, partition
  /// state). Under a ParallelExecutor, global events run at a barrier
  /// with every worker parked and every island clock advanced to `t`;
  /// without one they are ordinary island-0 events. Must be called from
  /// setup or from another global event, never from inside a parallel
  /// window.
  void schedule_global_at(Time t, EventFn fn);

  /// Cancels a pending event: O(1), idempotent, and a no-op if the event
  /// already ran or was cancelled. Retains no per-id state either way.
  /// Ids encode their island, so cancelling another island's event is
  /// safe from sequential contexts (setup/teardown); never cancel a
  /// foreign island's event from inside a parallel window.
  void cancel(uint64_t id);

  /// Runs the next pending event. Returns false when the queue is empty.
  /// Under a ParallelExecutor this processes one conservative window
  /// (possibly many events) and returns whether anything ran.
  bool step();

  /// Runs events until none remain or `max_events` were processed.
  /// Returns the number of events processed.
  size_t run_until_idle(size_t max_events = SIZE_MAX);

  /// Runs all events with time <= t, then advances the clock(s) to t.
  void run_until(Time t);

  /// Number of events executed so far across all islands (diagnostic).
  uint64_t events_executed() const;

  /// Number of events currently pending (exact: cancelled and fired events
  /// never count). Includes global events; excludes in-window outboxes.
  size_t pending_events() const;

  // ---- islands ----

  /// Partitions the loop into `count` islands (1..kMaxIslands). Island 0
  /// keeps everything scheduled so far; new islands start empty at the
  /// current time. With count >= 2 a ParallelExecutor is created and
  /// step()/run_until_idle()/run_until() drive conservative windows
  /// instead of the single-island loop. Call once, before running; `opts`
  /// carries lookahead and worker-thread knobs (see netsim/parallel.h).
  /// With count == 1 nothing changes: no executor is created and the loop
  /// stays single-threaded.
  void configure_islands(size_t count, const ParallelOptions& opts);
  void configure_islands(size_t count);

  /// Number of islands (1 when never configured).
  size_t island_count() const { return islands_.size(); }

  /// Executor driving multi-island runs; nullptr when island_count()<=1.
  ParallelExecutor* executor() { return exec_.get(); }

  /// Events executed by one island (diagnostic / per-island gauges).
  uint64_t island_events_executed(IslandId i) const {
    return islands_[i]->executed;
  }

 private:
  friend class ParallelExecutor;

  // Ready queue entry: 24 bytes, POD, ordered by (time, seq). The callback
  // stays in its slot so heap sift operations move only these.
  struct HeapEntry {
    Time time;
    uint64_t seq;   // FIFO tie-break for identical times
    uint32_t slot;  // index into slots
    uint32_t gen;   // must match the slot's generation to be live
  };

  // Callback storage, reused via a free list. `gen` increments whenever
  // the slot is released (fire or cancel), invalidating stale heap entries
  // and stale ids in O(1).
  struct Slot {
    EventFn fn;
    uint32_t gen = 0;
    uint32_t next_free = kNilSlot;
    bool armed = false;
  };

  // A cross-island event captured during a parallel window, merged into
  // its destination heap at the next barrier.
  struct OutMsg {
    Time time;
    IslandId dest;
    EventFn fn;
  };

  struct Island {
    Time now = 0;
    uint64_t next_seq = 0;
    uint64_t executed = 0;
    uint64_t window_events = 0;  // events run in the current window
    size_t live = 0;
    std::vector<HeapEntry> heap;  // binary min-heap by (time, seq)
    std::vector<Slot> slots;
    uint32_t free_head = kNilSlot;
    IslandId id = 0;
    std::vector<OutMsg> outbox;  // appended during windows, owner thread only
  };

  struct GlobalEvent {
    Time time;
    uint64_t seq;
    EventFn fn;
  };

  static constexpr uint32_t kNilSlot = UINT32_MAX;
  // Event-id layout: [63:58] island, [57:30] generation, [29:0] slot+1.
  static constexpr int kIdSlotBits = 30;
  static constexpr int kIdGenBits = 28;
  static constexpr uint64_t kIdSlotMask = (1ull << kIdSlotBits) - 1;
  static constexpr uint64_t kIdGenMask = (1ull << kIdGenBits) - 1;

  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// Island bound to the calling context: current_island() clamped to the
  /// configured range, so stray thread-local state can never escape
  /// island 0 on an unconfigured simulator.
  Island& cur() const {
    IslandId i = current_island();
    return *islands_[i < islands_.size() ? i : 0];
  }

  uint32_t alloc_slot(Island& isl);
  void release_slot(Island& isl, uint32_t slot);
  void heap_push(Island& isl, const HeapEntry& e);
  HeapEntry heap_pop(Island& isl);
  uint64_t push_event(Island& isl, Time t, EventFn fn);
  /// Next live (non-cancelled) event time on `isl`, popping stale
  /// entries; kNoEvent when empty.
  Time next_live_time(Island& isl);
  bool step_island(Island& isl);
  /// Runs `isl`'s events with time < end (worker-thread entry point).
  size_t drain_island(Island& isl, Time end, size_t max_events);

  static constexpr Time kNoEvent = INT64_MAX;

  std::vector<std::unique_ptr<Island>> islands_;
  std::vector<GlobalEvent> global_;  // min-heap by (time, seq)
  uint64_t global_seq_ = 0;
  bool in_parallel_phase_ = false;  // set by the executor around windows
  std::unique_ptr<ParallelExecutor> exec_;
};

}  // namespace rddr::sim
