// Compatibility stub for perfbench/src/workloads.cc, which includes this
// header and reads `Simulator::executor()->stats()` when executor() is
// non-null. Every run uses the one event loop of netsim/simulator.h
// (DESIGN.md "One event loop"), so executor() is always nullptr and these
// types only keep that code compiling.
#pragma once

#include <cstdint>

namespace rddr::sim {

struct ParallelStats {
  uint64_t windows = 0;
  uint64_t merged_messages = 0;
  uint64_t barrier_stalls = 0;
  double model_speedup() const { return 1.0; }
};

/// Never instantiated: Simulator::executor() always returns nullptr.
class ParallelExecutor {
 public:
  const ParallelStats& stats() const { return stats_; }

 private:
  ParallelStats stats_;
};

}  // namespace rddr::sim
