// Deterministic tracing on the virtual clock.
//
// Distributed-tracing analogue for the simulator: every inbound request
// gets a trace ID derived from a seeded Rng stream, and the stations it
// passes through (incoming proxy -> N instances -> outgoing proxy ->
// sqldb) record spans with parent/child links and per-instance tags.
// Because both the IDs and the clock are deterministic, the same seed
// yields a byte-identical trace export — a property no real tracing stack
// offers, and the foundation for localizing which instance diverged and
// when (cf. Distributed Execution Indexing).
//
// Trace context crosses simulated connections in `sim::FlowContext`
// (trace_id, parent_span), which connect() inherits from the ambient flow;
// this layer itself knows nothing about netsim — it reads time through a
// clock callback.
//
// Two things keep the exported bytes a function of each component's own
// behaviour rather than of how components interleave:
//   * Components draw trace ids from per-owner IdStreams
//     (`id_stream("front-s3")`), whose draw order depends only on that
//     component's own event order.
//   * export_chrome() canonicalises: spans sort by (trace, start,
//     recording order) and are densely renumbered.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace rddr::obs {

/// Virtual nanoseconds (mirrors sim::Time without the dependency).
using TimeNs = int64_t;

using TraceId = uint64_t;  // 0 = no trace
using SpanId = uint64_t;   // 0 = no span / root

struct Span {
  SpanId id = 0;
  SpanId parent = 0;  // 0 = trace root
  TraceId trace = 0;
  std::string name;      // taxonomy: session, flow, replicate, upstream,
                         // denoise, diff, verdict, db.query, client, ...
  std::string category;  // emitting component ("rddr-in", "pg-0:5432", ...)
  TimeNs start = 0;
  TimeNs end = -1;  // -1 while open
  std::vector<std::pair<std::string, std::string>> tags;

  bool open() const { return end < 0; }
};

/// Records spans for any number of traces. Span ids are dense recording
/// indices from 1, so lookup is O(1); trace ids come from Rng streams
/// forked off `seed`, so they look like the random request ids of a real
/// system yet replay exactly.
class Tracer {
 public:
  /// `clock` supplies the current virtual time (e.g. a lambda over
  /// Simulator::now()).
  Tracer(std::function<TimeNs()> clock, uint64_t seed);

  /// Allocates a fresh trace ID (never 0) from the tracer-global stream
  /// (the workload driver, tests). Components use their own id_stream(),
  /// so their draws do not depend on what else runs.
  TraceId new_trace();

  /// Independent deterministic trace-id stream scoped to one owning
  /// component. The handle is stable for the tracer's lifetime.
  class IdStream {
   public:
    TraceId next_trace() {
      uint64_t id = rng_.next();
      while (id == 0) id = rng_.next();
      return id;
    }

   private:
    friend class Tracer;
    explicit IdStream(Rng rng) : rng_(rng) {}
    Rng rng_;
  };
  IdStream* id_stream(const std::string& owner);

  /// Opens a span; `parent` 0 makes it the trace root.
  SpanId begin(TraceId trace, SpanId parent, std::string name,
               std::string category);

  /// Attaches a key/value tag to an open or closed span.
  void tag(SpanId span, std::string key, std::string value);

  /// Closes a span at the current clock. Idempotent.
  void end(SpanId span);

  /// Convenience: zero-duration marker span (begin+end at now).
  SpanId event(TraceId trace, SpanId parent, std::string name,
               std::string category);

  /// Every recorded span, in recording order.
  const std::vector<Span>& spans() const { return spans_; }

  const Span* find(SpanId span) const;
  size_t open_spans() const { return open_; }
  size_t span_count() const { return spans_.size(); }

  /// Chrome trace_event JSON ("X" complete events, ts/dur in
  /// microseconds); load via chrome://tracing or https://ui.perfetto.dev.
  /// Open spans are exported as zero-length with an "unclosed" tag so
  /// they stay visible. Output is byte-identical for identical runs
  /// (canonical ordering + dense renumbering, see file comment).
  std::string export_chrome() const;

  void clear();

 private:
  Span* find_mutable(SpanId span);

  std::function<TimeNs()> clock_;
  uint64_t seed_;
  Rng rng_;
  std::vector<Span> spans_;  // span id k is spans_[k - 1]
  size_t open_ = 0;
  std::map<std::string, IdStream> id_streams_;
};

}  // namespace rddr::obs
