#include "util/logging.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace classminer::util {
namespace {

std::mutex g_log_mutex;

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

}  // namespace

void LogMessage(LogLevel level, const char* file, int line,
                const std::string& message) {
  if (level < LogLevel::kInfo) return;
  std::lock_guard<std::mutex> lock(g_log_mutex);
  std::fprintf(stderr, "[%s %s:%d] %s\n", LevelTag(level), Basename(file),
               line, message.c_str());
}

namespace internal {

FatalLogLine::FatalLogLine(const char* file, int line, const char* condition)
    : file_(file), line_(line) {
  stream_ << "Check failed: " << condition << " ";
}

FatalLogLine::~FatalLogLine() {
  {
    std::lock_guard<std::mutex> lock(g_log_mutex);
    std::fprintf(stderr, "[F %s:%d] %s\n", Basename(file_), line_,
                 stream_.str().c_str());
  }
  std::abort();
}

}  // namespace internal
}  // namespace classminer::util
