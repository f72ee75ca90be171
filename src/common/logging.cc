#include "common/logging.h"

#include <cstdio>
#include <mutex>

#include "common/status.h"

namespace bytecard {

namespace {
std::mutex g_log_mutex;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}
}  // namespace

std::string Status::ToString() const {
  if (ok()) return "OK";
  const char* name = "UNKNOWN";
  switch (code_) {
    case StatusCode::kOk:
      name = "OK";
      break;
    case StatusCode::kInvalidArgument:
      name = "INVALID_ARGUMENT";
      break;
    case StatusCode::kNotFound:
      name = "NOT_FOUND";
      break;
    case StatusCode::kAlreadyExists:
      name = "ALREADY_EXISTS";
      break;
    case StatusCode::kOutOfRange:
      name = "OUT_OF_RANGE";
      break;
    case StatusCode::kInvalidModel:
      name = "INVALID_MODEL";
      break;
    case StatusCode::kResourceExhausted:
      name = "RESOURCE_EXHAUSTED";
      break;
    case StatusCode::kInternal:
      name = "INTERNAL";
      break;
    case StatusCode::kUnimplemented:
      name = "UNIMPLEMENTED";
      break;
  }
  return std::string(name) + ": " + message_;
}

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  {
    std::lock_guard<std::mutex> lock(g_log_mutex);
    std::fprintf(stderr, "%s\n", stream_.str().c_str());
    std::fflush(stderr);
  }
  if (level_ == LogLevel::kFatal) std::abort();
}

}  // namespace internal_logging
}  // namespace bytecard
