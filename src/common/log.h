// Minimal leveled logger.
//
// The simulator is single-threaded, so the logger is deliberately simple:
// a global level, printf-style messages, and an optional virtual-time hook
// installed by `netsim::Simulator` so log lines carry simulation time.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace rddr {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Sets the global log threshold; messages below it are dropped.
void set_log_level(LogLevel level);

/// Installs a clock hook; when set, log lines are prefixed with its value
/// (virtual nanoseconds). Pass nullptr to clear.
void set_log_clock(std::function<int64_t()> clock);

/// Emits a message at `level` (printf-style).
void log_message(LogLevel level, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

#define RDDR_LOG_DEBUG(...) ::rddr::log_message(::rddr::LogLevel::kDebug, __VA_ARGS__)
#define RDDR_LOG_INFO(...) ::rddr::log_message(::rddr::LogLevel::kInfo, __VA_ARGS__)
#define RDDR_LOG_WARN(...) ::rddr::log_message(::rddr::LogLevel::kWarn, __VA_ARGS__)
#define RDDR_LOG_ERROR(...) ::rddr::log_message(::rddr::LogLevel::kError, __VA_ARGS__)

}  // namespace rddr
