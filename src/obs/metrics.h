// Metrics registry: named counters, gauges, and fixed-bucket histograms.
//
// The measurement substrate behind the paper's evaluation (Figs 4-6):
// every proxy and database server publishes into a shared
// `MetricsRegistry` instead of hand-rolled counter structs. Handles
// (`Counter*`, `Gauge*`, `Histogram*`) are resolved once by name at setup
// time and are then a single add/store on the hot path; the registry is
// only walked again at export time. Because everything runs on the
// deterministic simulator, a metrics dump is exactly reproducible from a
// seed — `dump_json()` is byte-identical across runs.
//
// This layer knows nothing about the simulator, and netsim knows nothing
// about it: time enters only as values (virtual nanoseconds as int64_t).
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "proto/json/json.h"

namespace rddr::obs {

/// Monotonic event count. Hot-path cost: one 64-bit add.
class Counter {
 public:
  void inc(uint64_t n = 1) { v_ += n; }
  uint64_t value() const { return v_; }

 private:
  uint64_t v_ = 0;
};

/// Last-write-wins level (CPU%, resident bytes, a final summary figure).
/// Tracks the maximum ever set, which is what the Fig 4/6 "max" columns
/// consume.
class Gauge {
 public:
  void set(double v) {
    v_ = v;
    if (!seen_ || v > max_) max_ = v;
    seen_ = true;
  }
  double value() const { return v_; }
  /// 0 until the first set().
  double max_value() const { return max_; }

 private:
  double v_ = 0;
  double max_ = 0;
  bool seen_ = false;
};

/// Fixed-bucket histogram. `bounds` are inclusive upper bounds of each
/// bucket; one implicit overflow bucket catches everything above the last
/// bound. Cheap enough for hot paths: observe() is a linear scan over a
/// handful of doubles (buckets are few by design) plus two adds.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<uint64_t>& counts() const { return counts_; }
  uint64_t count() const { return count_; }
  /// The sum accumulates in 44.20 fixed point (~1e-6 absolute
  /// resolution): every printed mean and dumped sum is read from it, so
  /// it is part of the pinned outputs.
  double sum() const {
    return static_cast<double>(sum_fp_) / kFixedPointScale;
  }
  double mean() const {
    uint64_t n = count();
    return n ? sum() / static_cast<double>(n) : 0.0;
  }

  /// Bucket-interpolated percentile estimate (`p` in [0,100]). An
  /// estimate, not the exact order statistic — use SampleStats where the
  /// exact value matters (the Fig 4/5 tables do).
  double percentile(double p) const;

  /// Default latency buckets in milliseconds: 0.1 .. ~13s, x2 per bucket.
  static std::vector<double> default_latency_ms_bounds();

 private:
  static constexpr double kFixedPointScale = 1048576.0;  // 2^20

  std::vector<double> bounds_;   // sorted ascending
  std::vector<uint64_t> counts_; // bounds_.size() + 1 (overflow last)
  uint64_t count_ = 0;
  int64_t sum_fp_ = 0;  // 44.20 fixed point (see sum())
};

/// Name -> metric registry. Names are dotted paths ("rddr-in.sessions",
/// "pg-0.query_ms"). Handles stay valid for the registry's lifetime
/// (std::map nodes are stable). Export order is name order, so dumps are
/// deterministic.
class MetricsRegistry {
 public:
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  /// Creates the histogram with `bounds` on first use (default latency
  /// buckets when empty); later calls return the existing one.
  Histogram* histogram(const std::string& name,
                       std::vector<double> bounds = {});

  /// Lookup without creation; nullptr when absent.
  const Counter* find_counter(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  /// Flat JSON dump:
  ///   {"counters":{name:n,...},
  ///    "gauges":{name:{"value":v,"max":m},...},
  ///    "histograms":{name:{"bounds":[...],"counts":[...],
  ///                        "count":n,"sum":s},...}}
  json::Value to_json() const;
  std::string dump_json() const { return to_json().dump(); }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace rddr::obs
