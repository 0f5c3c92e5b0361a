// Tiny leveled logger. Benches and examples use Info; the simulator's
// hazard diagnostics use Warn. Off by default in tests to keep output
// clean; controlled globally, not per-translation-unit, so a bench can
// silence a whole flow with one call.
#pragma once

#include <sstream>
#include <string>

namespace qdi::util {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

void set_log_level(LogLevel level) noexcept;
LogLevel log_level() noexcept;

/// Emit one line at the given level. Safe to call from any thread: the
/// level is an atomic, and each line goes out in one stdio call, which
/// locks the stream, so concurrent lines never interleave.
void log_line(LogLevel level, const std::string& msg);

namespace detail {
template <typename... Args>
std::string concat(Args&&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}
}  // namespace detail

template <typename... Args>
void log_debug(Args&&... args) {
  if (log_level() <= LogLevel::Debug)
    log_line(LogLevel::Debug, detail::concat(std::forward<Args>(args)...));
}
template <typename... Args>
void log_info(Args&&... args) {
  if (log_level() <= LogLevel::Info)
    log_line(LogLevel::Info, detail::concat(std::forward<Args>(args)...));
}
template <typename... Args>
void log_warn(Args&&... args) {
  if (log_level() <= LogLevel::Warn)
    log_line(LogLevel::Warn, detail::concat(std::forward<Args>(args)...));
}
template <typename... Args>
void log_error(Args&&... args) {
  if (log_level() <= LogLevel::Error)
    log_line(LogLevel::Error, detail::concat(std::forward<Args>(args)...));
}

}  // namespace qdi::util
