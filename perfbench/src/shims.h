// Measuring shims that live in the benchmark binary, outside the program:
// a counting global allocator and a timing PgPlugin subclass. Both are
// inert until a traced run switches them on, so untraced runs measure the
// program as shipped (the allocator hook then costs one relaxed load).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "rddr/plugins.h"

namespace perfbench {

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Counting global operator new (shims.cc). Totals are process-wide; the
/// per-thread count lets a caller attribute the allocations of one call.
namespace alloc {
void set_counting(bool on);
uint64_t total_count();
uint64_t total_bytes();
uint64_t thread_count();
/// Counts one allocation of `n` bytes (called by operator new).
void note(std::size_t n);

/// Excludes the calling thread's allocations from the counts while alive
/// (the shims' own bookkeeping is not the program's work).
class Pause {
 public:
  Pause();
  ~Pause();
  Pause(const Pause&) = delete;
  Pause& operator=(const Pause&) = delete;
};
}  // namespace alloc

/// Counters filled by TimedPgPlugin. Atomic because frontier shards call
/// the plugin from several island threads at once.
struct PluginProbes {
  std::atomic<uint64_t> frame_ns{0};
  std::atomic<uint64_t> frame_allocs{0};
  std::atomic<uint64_t> units{0};
  std::atomic<uint64_t> canon_ns{0};
  std::atomic<uint64_t> canon_calls{0};
};

/// Response units of one proxy session: one log per instance, in framer
/// order, so batch k is {logs[i][k]}. Replayed through a fresh DiffEngine.
struct SessionUnits {
  std::vector<std::vector<rddr::core::Unit>> logs;
};

/// PgPlugin whose framers and canonicalize() are timed and counted from
/// outside. Every server-to-client framer also keeps the units it cut,
/// grouped per session (the incoming proxy creates a session's N response
/// framers back to back in one event, on one thread).
class TimedPgPlugin : public rddr::core::PgPlugin {
 public:
  TimedPgPlugin(PluginProbes& probes, size_t instances);

  std::unique_ptr<rddr::core::StreamFramer> make_framer(
      rddr::core::Direction dir) const override;
  void canonicalize(const rddr::core::Unit& unit,
                    const rddr::core::CompareContext& ctx,
                    rddr::core::Arena& arena,
                    rddr::core::CanonicalUnit& out) const override;

  /// Sessions recorded so far (read after the run has finished).
  const std::deque<std::shared_ptr<SessionUnits>>& sessions() const {
    return sessions_;
  }

 private:
  PluginProbes& probes_;
  size_t instances_;
  uint64_t id_;  // tells this plugin's sessions from an earlier round's
  mutable std::mutex mu_;  // guards sessions_
  mutable std::deque<std::shared_ptr<SessionUnits>> sessions_;
};

}  // namespace perfbench
