#include "obs/trace.h"

#include <algorithm>

#include "common/strutil.h"
#include "proto/json/json.h"

namespace rddr::obs {

Tracer::Tracer(std::function<TimeNs()> clock, uint64_t seed)
    : clock_(std::move(clock)),
      seed_(seed),
      rng_(Rng(seed).fork(/*label=*/0x7ace)) {}

TraceId Tracer::new_trace() {
  uint64_t id = rng_.next();
  while (id == 0) id = rng_.next();
  return id;
}

Tracer::IdStream* Tracer::id_stream(const std::string& owner) {
  auto it = id_streams_.find(owner);
  if (it == id_streams_.end())
    it = id_streams_
             .emplace(owner, IdStream(Rng(seed_).fork(fnv1a64(owner))))
             .first;
  return &it->second;
}

SpanId Tracer::begin(TraceId trace, SpanId parent, std::string name,
                     std::string category) {
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.trace = trace;
  s.name = std::move(name);
  s.category = std::move(category);
  s.start = clock_();
  spans_.push_back(std::move(s));
  ++open_;
  return spans_.back().id;
}

Span* Tracer::find_mutable(SpanId span) {
  if (span == 0 || span > spans_.size()) return nullptr;
  return &spans_[span - 1];
}

void Tracer::tag(SpanId span, std::string key, std::string value) {
  if (Span* s = find_mutable(span))
    s->tags.emplace_back(std::move(key), std::move(value));
}

void Tracer::end(SpanId span) {
  Span* s = find_mutable(span);
  if (!s || !s->open()) return;
  s->end = clock_();
  --open_;
}

SpanId Tracer::event(TraceId trace, SpanId parent, std::string name,
                     std::string category) {
  SpanId id = begin(trace, parent, std::move(name), std::move(category));
  end(id);
  return id;
}

const Span* Tracer::find(SpanId span) const {
  return const_cast<Tracer*>(this)->find_mutable(span);
}

std::string Tracer::export_chrome() const {
  std::vector<const Span*> order;
  order.reserve(spans_.size());
  for (const Span& s : spans_) order.push_back(&s);
  // Canonical order: (trace, start) with recording order as the stable
  // tiebreak, then dense renumbering in that order.
  std::stable_sort(order.begin(), order.end(),
                   [](const Span* a, const Span* b) {
                     if (a->trace != b->trace) return a->trace < b->trace;
                     return a->start < b->start;
                   });
  std::map<SpanId, SpanId> renumber;
  for (size_t i = 0; i < order.size(); ++i) renumber[order[i]->id] = i + 1;
  auto renumbered = [&renumber](SpanId id) {
    auto it = renumber.find(id);
    return it != renumber.end() ? it->second : id;
  };

  // Hand-assembled rather than json::Value so event order is preserved;
  // json::Object would re-sort keys but also cannot hold the heterogeneous
  // event list in a chosen order.
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span* sp : order) {
    const Span& s = *sp;
    if (!first) out += ",";
    first = false;
    const TimeNs end = s.open() ? s.start : s.end;
    out += strformat(
        // tid groups a trace's spans on one row; the low 32 bits keep the
        // number inside JS-safe integer range for chrome://tracing.
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":1,\"tid\":%llu,\"args\":{\"trace\":"
        "\"%016llx\",\"span\":%llu,\"parent\":%llu",
        json::escape(s.name).c_str(), json::escape(s.category).c_str(),
        static_cast<double>(s.start) / 1e3,
        static_cast<double>(end - s.start) / 1e3,
        static_cast<unsigned long long>(s.trace & 0xffffffffULL),
        static_cast<unsigned long long>(s.trace),
        static_cast<unsigned long long>(renumbered(s.id)),
        static_cast<unsigned long long>(renumbered(s.parent)));
    for (const auto& [k, v] : s.tags)
      out += ",\"" + json::escape(k) + "\":\"" + json::escape(v) + "\"";
    if (s.open()) out += ",\"unclosed\":\"true\"";
    out += "}}";
  }
  out += "]}";
  return out;
}

void Tracer::clear() {
  spans_.clear();
  open_ = 0;
}

}  // namespace rddr::obs
