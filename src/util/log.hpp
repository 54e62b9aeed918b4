// Minimal leveled logger.  Benchmarks and examples print structured tables;
// the logger is for diagnostics from the simulation substrates.
//
// Emission is serialized behind a mutex (the sweep engine logs from N
// workers), and two environment variables configure it at first use:
//   RR_LOG_LEVEL = debug|info|warn|error|off   threshold (default warn)
//   RR_LOG_JSON  = <path>                      append a JSONL record per
//                                              message, with timestamp /
//                                              level / thread / msg fields
#pragma once

#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace rr {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

const char* to_string(LogLevel level);
std::optional<LogLevel> log_level_from_string(std::string_view s);

/// Global threshold; messages below it are dropped.  Defaults to kWarn so
/// that test and bench output stays clean; RR_LOG_LEVEL overrides the
/// default (set_log_level wins over the environment once called).
void set_log_level(LogLevel level);
LogLevel log_level();

/// Route every emitted message to a JSONL sink at `path` (appended, one
/// object per line) in addition to stderr; empty disables.  Also set by
/// RR_LOG_JSON at first use.
void set_log_json_path(const std::string& path);

namespace detail {
void log_emit(LogLevel level, const std::string& msg);
}

#define RR_LOG(level, ...)                                              \
  do {                                                                  \
    if (static_cast<int>(level) >= static_cast<int>(::rr::log_level())) { \
      std::ostringstream rr_log_os_;                                    \
      rr_log_os_ << __VA_ARGS__;                                        \
      ::rr::detail::log_emit(level, rr_log_os_.str());                  \
    }                                                                   \
  } while (0)

#define RR_DEBUG(...) RR_LOG(::rr::LogLevel::kDebug, __VA_ARGS__)
#define RR_INFO(...) RR_LOG(::rr::LogLevel::kInfo, __VA_ARGS__)
#define RR_WARN(...) RR_LOG(::rr::LogLevel::kWarn, __VA_ARGS__)
#define RR_ERROR(...) RR_LOG(::rr::LogLevel::kError, __VA_ARGS__)

}  // namespace rr
