#include "netsim/parallel.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "obs/metrics.h"

namespace rddr::sim {

namespace {

inline void spin_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Spin briefly, then yield: windows are short (microseconds of real time),
// so a sleeping barrier would dominate; on undersized machines (including
// single-core CI) the yield keeps the coordinator schedulable.
template <typename Pred>
void spin_until(Pred&& done) {
  int spins = 0;
  while (!done()) {
    if (++spins < 64) {
      spin_pause();
    } else {
      std::this_thread::yield();
      spins = 0;
    }
  }
}

}  // namespace

ParallelExecutor::ParallelExecutor(Simulator& sim, const ParallelOptions& opts)
    : sim_(sim), opts_(opts) {
  size_t islands = sim_.island_count();
  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  nthreads_ = opts_.threads ? opts_.threads : hw;
  // RDDR_PARALLEL_THREADS overrides everything: the sanitizer suite uses
  // it to force real worker threads on single-core CI boxes, where the
  // hardware default would collapse to 1 and TSan would see no
  // concurrency at all. Results never depend on the value.
  if (const char* env = std::getenv("RDDR_PARALLEL_THREADS")) {
    int v = std::atoi(env);
    if (v > 0) nthreads_ = static_cast<size_t>(v);
  }
  nthreads_ = std::min(nthreads_, islands);
  nthreads_ = std::max<size_t>(nthreads_, 1);
  if (opts_.min_lookahead < 1) opts_.min_lookahead = 1;
  workers_.reserve(nthreads_ - 1);
  for (size_t w = 1; w < nthreads_; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

ParallelExecutor::~ParallelExecutor() {
  stop_.store(true, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  for (auto& t : workers_) t.join();
}

void ParallelExecutor::worker_loop(size_t w) {
  uint64_t seen = 0;
  for (;;) {
    spin_until([&] {
      return epoch_.load(std::memory_order_acquire) != seen;
    });
    if (stop_.load(std::memory_order_acquire)) return;
    seen = epoch_.load(std::memory_order_acquire);
    drain_share(w);
    pending_.fetch_sub(1, std::memory_order_release);
  }
}

void ParallelExecutor::drain_share(size_t w) {
  // Static round-robin island ownership: deterministic and stateless.
  // Within a window island order does not matter — islands are
  // independent until the barrier.
  size_t islands = sim_.islands_.size();
  for (size_t i = w; i < islands; i += nthreads_)
    sim_.drain_island(*sim_.islands_[i], window_end_, SIZE_MAX);
}

Time ParallelExecutor::sample_lookahead() {
  Time la = opts_.lookahead_provider ? opts_.lookahead_provider() : 0;
  if (la < opts_.min_lookahead) la = opts_.min_lookahead;
  stats_.current_lookahead = la;
  return la;
}

bool ParallelExecutor::run_window() {
  Time next = Simulator::kNoEvent;
  for (auto& isl : sim_.islands_)
    next = std::min(next, sim_.next_live_time(*isl));
  Time g = sim_.global_.empty() ? Simulator::kNoEvent
                                : sim_.global_.front().time;
  if (next == Simulator::kNoEvent && g == Simulator::kNoEvent) return false;
  if (g <= next) {
    if (g >= limit_) return false;
    run_global_batch();
    return true;
  }
  if (next >= limit_) return false;
  Time la = sample_lookahead();
  Time end = next > Simulator::kNoEvent - la ? Simulator::kNoEvent : next + la;
  end = std::min(end, std::min(g, limit_));  // never span a global event
  execute_window(end);
  return true;
}

void ParallelExecutor::execute_window(Time end) {
  window_end_ = end;
  for (auto& isl : sim_.islands_) isl->window_events = 0;
  sim_.in_parallel_phase_ = true;
  uint32_t helpers = static_cast<uint32_t>(nthreads_ - 1);
  pending_.store(helpers, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  drain_share(0);
  spin_until([&] { return pending_.load(std::memory_order_acquire) == 0; });
  sim_.in_parallel_phase_ = false;

  merge_outboxes(end);

  uint64_t max_ev = 0;
  uint64_t sum_ev = 0;
  for (auto& isl : sim_.islands_) {
    sum_ev += isl->window_events;
    max_ev = std::max(max_ev, isl->window_events);
    if (isl->window_events == 0) ++stats_.barrier_stalls;
  }
  ++stats_.windows;
  stats_.total_events += sum_ev;
  stats_.critical_path_events += max_ev;
  if (window_counter_) publish_metrics();
}

void ParallelExecutor::merge_outboxes(Time end) {
  // Deterministic total order over everything buffered this window:
  // (time, source island, append order). Source order within one island
  // is deterministic (single-threaded drain); island ids order the rest.
  struct Ref {
    Time time;
    IslandId src;
    uint32_t idx;
    Simulator::OutMsg* msg;
  };
  static thread_local std::vector<Ref> refs;
  refs.clear();
  for (auto& isl : sim_.islands_) {
    for (size_t i = 0; i < isl->outbox.size(); ++i)
      refs.push_back(Ref{isl->outbox[i].time, isl->id,
                         static_cast<uint32_t>(i), &isl->outbox[i]});
  }
  if (refs.empty()) return;
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.src != b.src) return a.src < b.src;
    return a.idx < b.idx;
  });
  for (Ref& r : refs) {
    Time t = r.time;
    // Conservative causality: a cross-island send from window [W, end)
    // must land at or after `end`. The network's latency floor makes
    // this hold by construction; clamp (and count) in case a future
    // caller breaks the contract rather than corrupting heap order.
    assert(t >= end && "cross-island event inside the conservative window");
    if (t < end) {
      t = end;
      ++stats_.causality_clamps;
    }
    sim_.push_event(*sim_.islands_[r.msg->dest], t, std::move(r.msg->fn));
    ++stats_.merged_messages;
  }
  for (auto& isl : sim_.islands_) isl->outbox.clear();
}

void ParallelExecutor::run_global_batch() {
  Time tg = sim_.global_.front().time;
  // Global events observe one consistent instant: every island clock is
  // advanced to tg before the first handler runs (workers are parked, so
  // this is plain sequential code).
  for (auto& isl : sim_.islands_)
    if (isl->now < tg) isl->now = tg;
  IslandScope scope(0);
  auto later = [](const Simulator::GlobalEvent& a,
                  const Simulator::GlobalEvent& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  };
  while (!sim_.global_.empty() && sim_.global_.front().time <= tg) {
    std::pop_heap(sim_.global_.begin(), sim_.global_.end(), later);
    EventFn fn = std::move(sim_.global_.back().fn);
    sim_.global_.pop_back();
    fn();  // may push further globals; the heap stays valid
    ++stats_.global_events;
  }
}

size_t ParallelExecutor::run_until_idle(size_t max_events) {
  size_t n = 0;
  while (n < max_events) {
    uint64_t before = sim_.events_executed() + stats_.global_events;
    if (!run_window()) break;
    n += static_cast<size_t>(sim_.events_executed() + stats_.global_events -
                             before);
  }
  return n;
}

void ParallelExecutor::run_until(Time t) {
  Time saved = limit_;
  // run_until is inclusive of events at exactly t; windows use exclusive
  // upper bounds, so the limit is t+1 (saturating).
  limit_ = t == INT64_MAX ? t : t + 1;
  while (run_window()) {
  }
  limit_ = saved;
  for (auto& isl : sim_.islands_)
    if (isl->now < t) isl->now = t;
}

void ParallelExecutor::bind_metrics(obs::MetricsRegistry& reg) {
  size_t islands = sim_.island_count();
  island_event_counters_.resize(islands);
  published_events_.assign(islands, 0);
  for (size_t i = 0; i < islands; ++i)
    island_event_counters_[i] =
        reg.counter("islands.events." + std::to_string(i));
  stall_counter_ = reg.counter("islands.stalls");
  window_counter_ = reg.counter("islands.windows");
  merged_counter_ = reg.counter("islands.merged");
  clamp_counter_ = reg.counter("islands.clamps");
  lookahead_gauge_ = reg.gauge("islands.lookahead_ns");
  publish_metrics();
}

void ParallelExecutor::publish_metrics() {
  for (size_t i = 0; i < island_event_counters_.size(); ++i) {
    uint64_t total = sim_.island_events_executed(static_cast<IslandId>(i));
    island_event_counters_[i]->inc(total - published_events_[i]);
    published_events_[i] = total;
  }
  stall_counter_->inc(stats_.barrier_stalls - published_stalls_);
  published_stalls_ = stats_.barrier_stalls;
  window_counter_->inc(stats_.windows - published_windows_);
  published_windows_ = stats_.windows;
  merged_counter_->inc(stats_.merged_messages - published_merged_);
  published_merged_ = stats_.merged_messages;
  clamp_counter_->inc(stats_.causality_clamps - published_clamps_);
  published_clamps_ = stats_.causality_clamps;
  lookahead_gauge_->set(static_cast<double>(stats_.current_lookahead));
}

}  // namespace rddr::sim
