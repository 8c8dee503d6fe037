// Minimal leveled logging. Simulations are hot loops, so the macro evaluates
// its stream arguments only when the level is enabled.
#pragma once

#include <atomic>
#include <sstream>
#include <string>

namespace locaware {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kOff = 4 };

/// Global log sink. Any thread may call every member: Write emits one
/// fprintf per line, and the level is an atomic read with relaxed loads, so
/// set_level during a threaded run is not a data race (lines already past
/// their Enabled check still print at the old level).
class Logger {
 public:
  static Logger& Instance();

  void set_level(LogLevel level) { level_.store(level, std::memory_order_relaxed); }
  LogLevel level() const { return level_.load(std::memory_order_relaxed); }
  bool Enabled(LogLevel level) const { return level >= this->level(); }

  /// Writes one formatted line ("[LEVEL] message\n") to stderr.
  void Write(LogLevel level, const std::string& message);

 private:
  Logger() = default;
  std::atomic<LogLevel> level_{LogLevel::kWarning};
};

namespace internal {

/// Accumulates one log line and emits it on destruction.
class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  ~LogMessage() { Logger::Instance().Write(level_, stream_.str()); }

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace locaware

#define LOCAWARE_LOG(level)                                                   \
  if (!::locaware::Logger::Instance().Enabled(::locaware::LogLevel::level)) { \
  } else                                                                      \
    ::locaware::internal::LogMessage(::locaware::LogLevel::level)

#define LOG_DEBUG LOCAWARE_LOG(kDebug)
#define LOG_INFO LOCAWARE_LOG(kInfo)
#define LOG_WARNING LOCAWARE_LOG(kWarning)
#define LOG_ERROR LOCAWARE_LOG(kError)
