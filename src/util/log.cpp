#include "util/log.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <stdexcept>

#include "util/str.hpp"

namespace tsn::util {
namespace {

std::atomic<LogLevel> g_level{LogLevel::kWarn};
std::mutex g_sink_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRC";
    case LogLevel::kDebug: return "DBG";
    case LogLevel::kInfo: return "INF";
    case LogLevel::kWarn: return "WRN";
    case LogLevel::kError: return "ERR";
    case LogLevel::kOff: return "OFF";
  }
  return "???";
}

} // namespace

void set_log_level(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }
LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

LogLevel parse_log_level(std::string_view name) {
  if (name == "trace") return LogLevel::kTrace;
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  throw std::invalid_argument("unknown log level '" + std::string(name) +
                              "' (trace, debug, info, warn, error or off)");
}

void log_write(LogLevel level, std::string_view tag, std::string_view msg) {
  if (level < log_level()) return;
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  std::fprintf(stderr, "[%s] [%.*s] %.*s\n", level_name(level), static_cast<int>(tag.size()),
               tag.data(), static_cast<int>(msg.size()), msg.data());
}

void logf(LogLevel level, const char* tag, const char* fmt, ...) {
  if (level < log_level()) return;
  std::va_list ap;
  va_start(ap, fmt);
  std::string msg = vformat(fmt, ap);
  va_end(ap);
  log_write(level, tag, msg);
}

} // namespace tsn::util
