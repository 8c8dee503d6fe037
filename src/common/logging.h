// Minimal leveled logging. Simulations are hot loops, so the macro evaluates
// its stream arguments only when the level is enabled.
#pragma once

#include <sstream>
#include <string>

namespace locaware {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kOff = 4 };

/// Global log sink. Write may be called from any thread (one fprintf per
/// line); set_level is unsynchronized, so set the level before a run starts.
class Logger {
 public:
  static Logger& Instance();

  void set_level(LogLevel level) { level_ = level; }
  LogLevel level() const { return level_; }
  bool Enabled(LogLevel level) const { return level >= level_; }

  /// Writes one formatted line ("[LEVEL] message\n") to stderr.
  void Write(LogLevel level, const std::string& message);

 private:
  Logger() = default;
  LogLevel level_ = LogLevel::kWarning;
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
