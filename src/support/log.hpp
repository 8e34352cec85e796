// Structured leveled logging. Every message carries a level, a component
// tag, and a monotonic timestamp; besides the stderr line, the last N
// records are kept in a bounded ring retrievable via recent_logs() — the
// chaos suite dumps them on test failure, and a wedged node can be asked
// what it was doing without grepping stderr.
// Benches and long-running training drivers use this for progress lines;
// tests silence stderr by raising the level (ring capture is unaffected).
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace autophase {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global minimum level; messages below it are dropped from stderr. Ring
/// capture keeps everything at or above kDebug regardless, so post-mortem
/// retrieval works even in quiet test runs.
void set_log_level(LogLevel level) noexcept;
LogLevel log_level() noexcept;

/// One captured log line.
struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  std::string component;  // e.g. "serve", "gossip", "sim"
  std::uint64_t ns = 0;   // monotonic nanos (obs::trace_now_ns clock)
  std::string message;
};

/// The most recent `max` records (all retained records when max == 0),
/// oldest first. The ring holds the last kLogRingCapacity records.
inline constexpr std::size_t kLogRingCapacity = 512;
std::vector<LogRecord> recent_logs(std::size_t max = 0);
/// Human-readable dump of recent_logs() ("t=12.345ms [WARN ] [gossip] ...").
std::string format_recent_logs(std::size_t max = 0);
/// Drops all retained records (test isolation).
void clear_recent_logs();

namespace detail {
void log_line(LogLevel level, const char* component, const std::string& message);
}

/// Stream-style logger: LogMessage(LogLevel::kInfo, "serve") << "x=" << x;
class LogMessage {
 public:
  explicit LogMessage(LogLevel level, const char* component = "app")
      : level_(level), component_(component) {}
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;
  ~LogMessage() { detail::log_line(level_, component_, stream_.str()); }

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  const char* component_;
  std::ostringstream stream_;
};

}  // namespace autophase

#define AP_LOG_DEBUG ::autophase::LogMessage(::autophase::LogLevel::kDebug)
#define AP_LOG_INFO ::autophase::LogMessage(::autophase::LogLevel::kInfo)
#define AP_LOG_WARN ::autophase::LogMessage(::autophase::LogLevel::kWarn)
#define AP_LOG_ERROR ::autophase::LogMessage(::autophase::LogLevel::kError)

/// Component-tagged variants: AP_CLOG(kWarn, "gossip") << "peer down";
#define AP_CLOG(level, component) \
  ::autophase::LogMessage(::autophase::LogLevel::level, component)
