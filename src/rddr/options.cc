#include "rddr/options.h"

namespace rddr::core {

void ProxyCounters::bind(obs::MetricsRegistry& reg,
                         const std::string& prefix) {
#define RDDR_X(field) field = reg.counter(prefix + "." #field);
  RDDR_PROXY_COUNTERS(RDDR_X)
#undef RDDR_X
  compare_ms = reg.histogram(prefix + ".compare_ms");
  queued_ms = reg.histogram(prefix + ".queued_ms");
}

ProxyStats ProxyCounters::snapshot() const {
  ProxyStats s;
  if (!sessions) return s;  // never bound (proxy not constructed)
#define RDDR_X(field) s.field = field->value();
  RDDR_PROXY_COUNTERS(RDDR_X)
#undef RDDR_X
  return s;
}

DivergenceRecord make_divergence_record(sim::Time now,
                                        const ProxyOptions& options,
                                        const char* verdict_class,
                                        const std::string& reason,
                                        const BatchVerdict* verdict,
                                        const std::vector<Unit>* units) {
  DivergenceRecord rec;
  rec.time = now;
  rec.proxy = options.name;
  rec.protocol = options.plugin->name();
  rec.verdict = verdict_class;
  rec.reason = reason;
  if (units && !units->empty()) {
    rec.unit_kind = (*units)[0].kind;
    rec.unit_data = (*units)[0].data;
  }
  if (verdict) {
    rec.region_line = verdict->region.line;
    rec.region_offset = verdict->region.offset;
    rec.region_instance = verdict->region.instance;
  }
  return rec;
}

}  // namespace rddr::core
