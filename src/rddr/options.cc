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

}  // namespace rddr::core
