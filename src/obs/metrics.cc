#include "obs/metrics.h"

#include <algorithm>

namespace rddr::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) {
  size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  ++counts_[i];
  ++count_;
  sum_fp_ += static_cast<int64_t>(std::llround(v * kFixedPointScale));
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double target = std::max(0.0, std::min(p, 100.0)) / 100.0 *
                        static_cast<double>(count_);
  uint64_t seen = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (static_cast<double>(seen) >= target && counts_[i] > 0) {
      // Linear interpolation inside the bucket [lo, hi].
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi = i < bounds_.size() ? bounds_[i] : lo;
      const uint64_t before = seen - counts_[i];
      const double frac =
          (target - static_cast<double>(before)) /
          static_cast<double>(counts_[i]);
      return lo + (hi - lo) * std::max(0.0, std::min(frac, 1.0));
    }
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

std::vector<double> Histogram::default_latency_ms_bounds() {
  std::vector<double> b;
  for (double v = 0.1; v < 14000.0; v *= 2) b.push_back(v);  // 0.1 .. ~13.1s
  return b;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  return &counters_[name];
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  return &gauges_[name];
}

Histogram* MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (bounds.empty()) bounds = Histogram::default_latency_ms_bounds();
    it = histograms_.emplace(name, Histogram(std::move(bounds))).first;
  }
  return &it->second;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

json::Value MetricsRegistry::to_json() const {
  json::Object counters;
  for (const auto& [name, c] : counters_)
    counters[name] = static_cast<int64_t>(c.value());
  json::Object gauges;
  for (const auto& [name, g] : gauges_)
    gauges[name] = json::Object{{"value", g.value()}, {"max", g.max_value()}};
  json::Object histograms;
  for (const auto& [name, h] : histograms_) {
    json::Array bounds, counts;
    for (double b : h.bounds()) bounds.push_back(b);
    for (uint64_t c : h.counts()) counts.push_back(static_cast<int64_t>(c));
    histograms[name] = json::Object{{"bounds", std::move(bounds)},
                                    {"counts", std::move(counts)},
                                    {"count", static_cast<int64_t>(h.count())},
                                    {"sum", h.sum()}};
  }
  return json::Object{{"counters", std::move(counters)},
                      {"gauges", std::move(gauges)},
                      {"histograms", std::move(histograms)}};
}

}  // namespace rddr::obs
