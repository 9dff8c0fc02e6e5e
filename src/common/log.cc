#include "common/log.h"

#include <cstdarg>
#include <cstdio>

namespace rddr {

namespace {
LogLevel g_level = LogLevel::kWarn;
std::function<int64_t()> g_clock;

const char* level_name(LogLevel l) {
  switch (l) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) { g_level = level; }
void set_log_clock(std::function<int64_t()> clock) { g_clock = std::move(clock); }

void log_message(LogLevel level, const char* fmt, ...) {
  if (level < g_level) return;
  char buf[2048];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (g_clock) {
    std::fprintf(stderr, "[%s t=%.6fs] %s\n", level_name(level),
                 static_cast<double>(g_clock()) / 1e9, buf);
  } else {
    std::fprintf(stderr, "[%s] %s\n", level_name(level), buf);
  }
}

}  // namespace rddr
