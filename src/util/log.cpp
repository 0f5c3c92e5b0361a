#include "qdi/util/log.hpp"

#include <atomic>
#include <cstdio>

namespace qdi::util {

namespace {
// Read by worker threads (tolerant fault runs warn from the pool, and
// pipeline commits run analysis on workers); relaxed is enough — the
// level orders nothing else.
std::atomic<LogLevel> g_level{LogLevel::Warn};

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO ";
    case LogLevel::Warn: return "WARN ";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF  ";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) noexcept {
  g_level.store(level, std::memory_order_relaxed);
}
LogLevel log_level() noexcept { return g_level.load(std::memory_order_relaxed); }

void log_line(LogLevel level, const std::string& msg) {
  if (level < log_level()) return;
  std::fprintf(stderr, "[%s] %s\n", level_name(level), msg.c_str());
}

}  // namespace qdi::util
