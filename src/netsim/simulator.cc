#include "netsim/simulator.h"

#include <cassert>
#include <utility>

#include "common/log.h"

namespace rddr::sim {

Simulator::Simulator() {
  set_log_clock([this] { return now_; });
}

Simulator::~Simulator() = default;

uint32_t Simulator::alloc_slot() {
  if (free_head_ != kNilSlot) {
    uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void Simulator::release_slot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  s.armed = false;
  ++s.gen;  // invalidates every outstanding id / heap entry for this slot
  s.next_free = free_head_;
  free_head_ = slot;
}

// 4-ary heap with hole percolation: half the depth of a binary heap (the
// sift path is what the event loop spends its time on) and one entry move
// per level instead of a three-move swap.

void Simulator::heap_push(const HeapEntry& e) {
  size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    size_t parent = (i - 1) / 4;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

Simulator::HeapEntry Simulator::heap_pop() {
  HeapEntry top = heap_.front();
  HeapEntry last = heap_.back();
  heap_.pop_back();
  size_t n = heap_.size();
  if (n == 0) return top;
  size_t i = 0;
  while (true) {
    size_t c = 4 * i + 1;
    if (c >= n) break;
    size_t best = c;
    size_t end = c + 4 < n ? c + 4 : n;
    for (size_t k = c + 1; k < end; ++k)
      if (before(heap_[k], heap_[best])) best = k;
    if (!before(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
  return top;
}

uint64_t Simulator::schedule_at(Time t, EventFn fn) {
  if (t < now_) t = now_;
  uint32_t slot = alloc_slot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.armed = true;
  heap_push(HeapEntry{t, next_seq_++, slot, s.gen});
  ++live_;
  // Id layout: [63:32] generation, [31:0] slot+1 (nonzero, so callers
  // can use 0 as "no event").
  return (static_cast<uint64_t>(s.gen) << 32) | (slot + 1ull);
}

uint64_t Simulator::schedule(Time delay, EventFn fn) {
  assert(delay >= 0);
  return schedule_at(now_ + delay, std::move(fn));
}

void Simulator::cancel(uint64_t id) {
  if (id == 0) return;
  uint32_t slot = static_cast<uint32_t>(id) - 1;
  uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  // Generations are compared modulo 2^32: ~4G reuses of one slot before
  // a stale id could alias, far beyond any run in this repo.
  if (!s.armed || s.gen != gen) return;
  release_slot(slot);
  --live_;
  // The heap entry stays behind; step() skips it when the generation no
  // longer matches. Cancel itself is O(1) and retains nothing.
}

bool Simulator::step() {
  while (!heap_.empty()) {
    HeapEntry ev = heap_pop();
    Slot& s = slots_[ev.slot];
    if (!s.armed || s.gen != ev.gen) continue;  // cancelled: skip stale entry
    EventFn fn = std::move(s.fn);
    release_slot(ev.slot);
    --live_;
    assert(ev.time >= now_);
    now_ = ev.time;
    ++executed_;
    fn();
    return true;
  }
  return false;
}

Time Simulator::next_live_time() {
  while (!heap_.empty()) {
    const HeapEntry& ev = heap_.front();
    const Slot& s = slots_[ev.slot];
    if (!s.armed || s.gen != ev.gen) {
      heap_pop();  // drop stale entry without executing
      continue;
    }
    return ev.time;
  }
  return kNoEvent;
}

size_t Simulator::run_until_idle(size_t max_events) {
  size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

void Simulator::run_until(Time t) {
  while (next_live_time() <= t && step()) {
  }
  if (now_ < t) now_ = t;
}

}  // namespace rddr::sim
