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
// allocation for typical captures), the ready queue is a plain 4-ary heap
// of 24-byte entries, and cancellation is a generation check — O(1), no
// hash tables, no state retained for cancelled or fired ids.
//
// There is one event loop and it runs on the calling thread (DESIGN.md
// "One event loop").
#pragma once

#include <cstdint>
#include <vector>

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

/// Event loop over virtual time.
class Simulator {
 public:
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  /// Current virtual time.
  Time now() const { return now_; }

  /// Schedules `fn` to run at absolute virtual time `t` (clamped to now()).
  /// Returns a nonzero id usable with `cancel`.
  uint64_t schedule_at(Time t, EventFn fn);

  /// Schedules `fn` to run `delay` nanoseconds from now.
  uint64_t schedule(Time delay, EventFn fn);

  /// Cancels a pending event: O(1), idempotent, and a no-op if the event
  /// already ran or was cancelled. Retains no per-id state either way.
  void cancel(uint64_t id);

  /// Runs the next pending event. Returns false when the queue is empty.
  bool step();

  /// Runs events until none remain or `max_events` were processed.
  /// Returns the number of events processed.
  size_t run_until_idle(size_t max_events = SIZE_MAX);

  /// Runs all events with time <= t, then advances the clock to t.
  void run_until(Time t);

  /// Number of events executed so far (diagnostic).
  uint64_t events_executed() const { return executed_; }

  /// Number of events currently pending (exact: cancelled and fired events
  /// never count).
  size_t pending_events() const { return live_; }

  /// Always nullptr. Exists only because perfbench/src/workloads.cc reads
  /// executor stats through it (netsim/parallel.h).
  ParallelExecutor* executor() const { return nullptr; }

 private:
  // Ready queue entry: 24 bytes, POD, ordered by (time, seq). The callback
  // stays in its slot so heap sift operations move only these.
  struct HeapEntry {
    Time time;
    uint64_t seq;   // FIFO tie-break for identical times
    uint32_t slot;  // index into slots_
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

  static constexpr uint32_t kNilSlot = UINT32_MAX;
  static constexpr Time kNoEvent = INT64_MAX;

  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  uint32_t alloc_slot();
  void release_slot(uint32_t slot);
  void heap_push(const HeapEntry& e);
  HeapEntry heap_pop();
  /// Next live (non-cancelled) event time, popping stale entries;
  /// kNoEvent when empty.
  Time next_live_time();

  Time now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  size_t live_ = 0;
  std::vector<HeapEntry> heap_;  // 4-ary min-heap by (time, seq)
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNilSlot;
};

}  // namespace rddr::sim
