#include "support/log.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>

namespace dydroid::support {
namespace {
// The level gate is read on every log call from every worker thread, so it
// is atomic; the sink itself is serialized by a mutex so that concurrent
// pipeline workers cannot interleave partial lines on stderr.
std::atomic<LogLevel> g_level{LogLevel::Warn};
std::mutex g_sink_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO";
    case LogLevel::Warn: return "WARN";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

void log(LogLevel level, std::string_view component, std::string_view message) {
  if (level < g_level.load(std::memory_order_relaxed)) return;
  const std::lock_guard<std::mutex> lock(g_sink_mutex);
  std::fprintf(stderr, "[%s] %.*s: %.*s\n", level_name(level),
               static_cast<int>(component.size()), component.data(),
               static_cast<int>(message.size()), message.data());
}

void log_fork_lock() { g_sink_mutex.lock(); }
void log_fork_unlock() { g_sink_mutex.unlock(); }

}  // namespace dydroid::support
