#ifndef CLASSMINER_UTIL_LOGGING_H_
#define CLASSMINER_UTIL_LOGGING_H_

#include <sstream>
#include <string>

namespace classminer::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

// Writes one formatted log line to stderr (thread-safe); messages below
// kInfo are dropped.
void LogMessage(LogLevel level, const char* file, int line,
                const std::string& message);

namespace internal {

// Stream-style log statement collector; emits on destruction.
class LogLine {
 public:
  LogLine(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogLine() { LogMessage(level_, file_, line_, stream_.str()); }

  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

// Aborts the process after logging; used by CM_CHECK.
class FatalLogLine {
 public:
  FatalLogLine(const char* file, int line, const char* condition);
  [[noreturn]] ~FatalLogLine();

  template <typename T>
  FatalLogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace classminer::util

#define CM_LOG(severity)                                                 \
  ::classminer::util::internal::LogLine(                                 \
      ::classminer::util::LogLevel::k##severity, __FILE__, __LINE__)

// Invariant check: logs and aborts when `cond` is false. Used for
// programming errors, never for data-dependent failures (those return
// Status).
#define CM_CHECK(cond)                                                  \
  if (cond) {                                                           \
  } else /* NOLINT */                                                   \
    ::classminer::util::internal::FatalLogLine(__FILE__, __LINE__, #cond)

#endif  // CLASSMINER_UTIL_LOGGING_H_
