// Minimal leveled logger with component tags.
//
// The simulator is deterministic and single-threaded per Simulation, but the
// logger itself is thread-safe so that seqlock/shared-memory tests exercising
// real std::thread concurrency may log too.
#pragma once

#include <cstdarg>
#include <string>
#include <string_view>

namespace tsn::util {

enum class LogLevel { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4, kOff = 5 };

/// Global log threshold; messages below it are discarded.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Parse "trace"|"debug"|"info"|"warn"|"error"|"off"; any other name
/// throws std::invalid_argument naming it.
LogLevel parse_log_level(std::string_view name);

/// Core sink: writes "[LVL] [tag] message\n" to stderr under a mutex.
void log_write(LogLevel level, std::string_view tag, std::string_view msg);

[[gnu::format(printf, 3, 4)]] void logf(LogLevel level, const char* tag, const char* fmt, ...);

#define TSN_LOG_TRACE(tag, ...) ::tsn::util::logf(::tsn::util::LogLevel::kTrace, tag, __VA_ARGS__)
#define TSN_LOG_DEBUG(tag, ...) ::tsn::util::logf(::tsn::util::LogLevel::kDebug, tag, __VA_ARGS__)
#define TSN_LOG_INFO(tag, ...) ::tsn::util::logf(::tsn::util::LogLevel::kInfo, tag, __VA_ARGS__)
#define TSN_LOG_WARN(tag, ...) ::tsn::util::logf(::tsn::util::LogLevel::kWarn, tag, __VA_ARGS__)
#define TSN_LOG_ERROR(tag, ...) ::tsn::util::logf(::tsn::util::LogLevel::kError, tag, __VA_ARGS__)

} // namespace tsn::util
