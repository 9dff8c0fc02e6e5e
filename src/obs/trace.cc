#include "obs/trace.h"

#include <algorithm>

#include "common/strutil.h"
#include "proto/json/json.h"

namespace rddr::obs {

namespace {
uint64_t fnv1a64(const std::string& s) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}
}  // namespace

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
  std::lock_guard<std::mutex> lock(stream_mu_);
  auto it = id_streams_.find(owner);
  if (it == id_streams_.end())
    it = id_streams_
             .emplace(owner, IdStream(Rng(seed_).fork(fnv1a64(owner))))
             .first;
  return &it->second;
}

SpanId Tracer::begin(TraceId trace, SpanId parent, std::string name,
                     std::string category) {
  IslandId lane = current_island();
  if (lane >= kMaxIslands) lane = 0;
  Lane& l = lanes_[lane];
  Span s;
  s.id = (static_cast<uint64_t>(lane) << kIdIndexBits) | (l.spans.size() + 1);
  s.parent = parent;
  s.trace = trace;
  s.name = std::move(name);
  s.category = std::move(category);
  s.start = clock_();
  s.island = lane;
  l.spans.push_back(std::move(s));
  ++l.open;
  return l.spans.back().id;
}

Span* Tracer::find_mutable(SpanId span) {
  if (span == 0) return nullptr;
  const uint64_t lane = span >> kIdIndexBits;
  const uint64_t idx = (span & kIdIndexMask);
  if (lane >= kMaxIslands || idx == 0 || idx > lanes_[lane].spans.size())
    return nullptr;
  return &lanes_[lane].spans[idx - 1];
}

void Tracer::tag(SpanId span, std::string key, std::string value) {
  if (Span* s = find_mutable(span))
    s->tags.emplace_back(std::move(key), std::move(value));
}

void Tracer::end(SpanId span) {
  Span* s = find_mutable(span);
  if (!s || !s->open()) return;
  s->end = clock_();
  --lanes_[s->island].open;
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

size_t Tracer::open_spans() const {
  size_t n = 0;
  for (const Lane& l : lanes_) n += l.open;
  return n;
}

size_t Tracer::span_count() const {
  size_t n = 0;
  for (const Lane& l : lanes_) n += l.spans.size();
  return n;
}

std::vector<Span> Tracer::all_spans() const {
  std::vector<Span> out;
  out.reserve(span_count());
  for (const Lane& l : lanes_)
    out.insert(out.end(), l.spans.begin(), l.spans.end());
  return out;
}

std::string Tracer::export_events(const std::vector<const Span*>& order,
                                  const std::map<SpanId, SpanId>* renumber,
                                  bool tid_by_island) const {
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
    uint64_t id = s.id;
    uint64_t parent = s.parent;
    if (renumber) {
      auto it = renumber->find(s.id);
      if (it != renumber->end()) id = it->second;
      auto pit = renumber->find(s.parent);
      if (pit != renumber->end()) parent = pit->second;
    }
    const uint64_t tid =
        tid_by_island ? s.island : (s.trace & 0xffffffffULL);
    out += strformat(
        // tid groups a trace's spans on one row (or one row per island in
        // by-island mode); the low 32 bits keep the number inside JS-safe
        // integer range for chrome://tracing.
        "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
        "\"pid\":1,\"tid\":%llu,\"args\":{\"trace\":\"%016llx\","
        "\"span\":%llu,\"parent\":%llu",
        ("\"" + json::escape(s.name) + "\"").c_str(),
        ("\"" + json::escape(s.category) + "\"").c_str(),
        static_cast<double>(s.start) / 1e3,
        static_cast<double>(end - s.start) / 1e3,
        static_cast<unsigned long long>(tid),
        static_cast<unsigned long long>(s.trace),
        static_cast<unsigned long long>(id),
        static_cast<unsigned long long>(parent));
    for (const auto& [k, v] : s.tags)
      out += ",\"" + json::escape(k) + "\":\"" + json::escape(v) + "\"";
    if (s.open()) out += ",\"unclosed\":\"true\"";
    out += "}}";
  }
  out += "]}";
  return out;
}

std::string Tracer::export_chrome() const {
  std::vector<const Span*> order;
  order.reserve(span_count());
  for (const Lane& l : lanes_)
    for (const Span& s : l.spans) order.push_back(&s);
  // Canonical order: (trace, start) with the lane-concat order as the
  // stable tiebreak. Within one lane the tiebreak is the lane-local
  // creation order (island-count-invariant); across lanes a
  // (trace, start) tie would need two same-trace spans at the same
  // nanosecond on different islands, which nonzero cross-island latency
  // rules out. Dense renumbering then strips the lane bits from the ids.
  std::stable_sort(order.begin(), order.end(),
                   [](const Span* a, const Span* b) {
                     if (a->trace != b->trace) return a->trace < b->trace;
                     return a->start < b->start;
                   });
  std::map<SpanId, SpanId> renumber;
  for (size_t i = 0; i < order.size(); ++i) renumber[order[i]->id] = i + 1;
  return export_events(order, &renumber, /*tid_by_island=*/false);
}

std::string Tracer::export_chrome_by_island() const {
  std::vector<const Span*> order;
  order.reserve(span_count());
  for (const Lane& l : lanes_)
    for (const Span& s : l.spans) order.push_back(&s);
  return export_events(order, nullptr, /*tid_by_island=*/true);
}

void Tracer::clear() {
  for (Lane& l : lanes_) {
    l.spans.clear();
    l.open = 0;
  }
}

}  // namespace rddr::obs
