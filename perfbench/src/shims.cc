#include "shims.h"

#include <cstdlib>
#include <new>

namespace perfbench {

namespace alloc {
namespace {
std::atomic<bool> g_on{false};
std::atomic<uint64_t> g_count{0};
std::atomic<uint64_t> g_bytes{0};
thread_local uint64_t t_count = 0;
thread_local int t_paused = 0;
}  // namespace

void set_counting(bool on) { g_on.store(on, std::memory_order_relaxed); }
uint64_t total_count() { return g_count.load(std::memory_order_relaxed); }
uint64_t total_bytes() { return g_bytes.load(std::memory_order_relaxed); }
uint64_t thread_count() { return t_count; }

Pause::Pause() { ++t_paused; }
Pause::~Pause() { --t_paused; }

void note(std::size_t n) {
  if (!g_on.load(std::memory_order_relaxed) || t_paused) return;
  g_count.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  ++t_count;
}
}  // namespace alloc

namespace {

using rddr::ByteView;
using rddr::Bytes;
using rddr::core::StreamFramer;
using rddr::core::Unit;

class TimedFramer : public StreamFramer {
 public:
  TimedFramer(std::unique_ptr<StreamFramer> inner, PluginProbes& probes,
              std::vector<Unit>* log)
      : inner_(std::move(inner)), probes_(probes), log_(log) {}

  void feed(ByteView data) override {
    uint64_t a0 = alloc::thread_count();
    uint64_t t0 = now_ns();
    inner_->feed(data);
    charge(t0, a0);
  }

  std::vector<Unit> take() override {
    uint64_t a0 = alloc::thread_count();
    uint64_t t0 = now_ns();
    std::vector<Unit> out = inner_->take();
    charge(t0, a0);
    probes_.units.fetch_add(out.size(), std::memory_order_relaxed);
    if (log_) {
      alloc::Pause pause;  // the recording is not the framer's work
      log_->insert(log_->end(), out.begin(), out.end());
    }
    return out;
  }

  bool failed() const override { return inner_->failed(); }
  Bytes unconsumed() const override { return inner_->unconsumed(); }

 private:
  void charge(uint64_t t0, uint64_t a0) {
    probes_.frame_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
    probes_.frame_allocs.fetch_add(alloc::thread_count() - a0,
                                   std::memory_order_relaxed);
  }

  std::unique_ptr<StreamFramer> inner_;
  PluginProbes& probes_;
  std::vector<Unit>* log_;
};

// Session grouping state of the calling thread: which plugin it belongs
// to, the session being filled, and how many of its N framers exist.
std::atomic<uint64_t> g_plugin_ids{0};
thread_local uint64_t t_owner = 0;
thread_local std::shared_ptr<SessionUnits> t_session;
thread_local size_t t_filled = 0;

}  // namespace

TimedPgPlugin::TimedPgPlugin(PluginProbes& probes, size_t instances)
    : probes_(probes),
      instances_(instances),
      id_(g_plugin_ids.fetch_add(1) + 1) {}

std::unique_ptr<StreamFramer> TimedPgPlugin::make_framer(
    rddr::core::Direction dir) const {
  auto inner = PgPlugin::make_framer(dir);
  alloc::Pause pause;  // the wrapper and the log are the shim's, not PgPlugin's
  std::vector<Unit>* log = nullptr;
  if (dir == rddr::core::Direction::kServerToClient) {
    if (t_owner != id_ || t_filled == instances_) {
      t_owner = id_;
      t_filled = 0;
      t_session = std::make_shared<SessionUnits>();
      t_session->logs.resize(instances_);
      std::lock_guard<std::mutex> lock(mu_);
      sessions_.push_back(t_session);
    }
    log = &t_session->logs[t_filled++];
  }
  return std::make_unique<TimedFramer>(std::move(inner), probes_, log);
}

void TimedPgPlugin::canonicalize(const Unit& unit,
                                 const rddr::core::CompareContext& ctx,
                                 rddr::core::Arena& arena,
                                 rddr::core::CanonicalUnit& out) const {
  uint64_t t0 = now_ns();
  PgPlugin::canonicalize(unit, ctx, arena, out);
  probes_.canon_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  probes_.canon_calls.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace perfbench

// The counting allocator: replaces the global scalar operator new of this
// binary. Array and nothrow forms forward here in libstdc++; both delete
// forms pair with malloc.
void* operator new(std::size_t n) {
  perfbench::alloc::note(n);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
