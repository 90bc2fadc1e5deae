// Minimal leveled logger. The pipeline runs tens of thousands of simulated
// apps, so logging defaults to Warn; benches flip to Error.
#pragma once

#include <string_view>

namespace dydroid::support {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

void set_log_level(LogLevel level);

void log(LogLevel level, std::string_view component, std::string_view message);

/// Fork-safety hooks used by support::PoolWorker via pthread_atfork: the
/// sink mutex is acquired before fork and released in both parent and
/// child, so a child forked while another thread is mid-log never inherits
/// a locked sink (a classic post-fork deadlock).
void log_fork_lock();
void log_fork_unlock();

inline void log_debug(std::string_view c, std::string_view m) {
  log(LogLevel::Debug, c, m);
}
inline void log_info(std::string_view c, std::string_view m) {
  log(LogLevel::Info, c, m);
}
inline void log_warn(std::string_view c, std::string_view m) {
  log(LogLevel::Warn, c, m);
}
inline void log_error(std::string_view c, std::string_view m) {
  log(LogLevel::Error, c, m);
}

}  // namespace dydroid::support
