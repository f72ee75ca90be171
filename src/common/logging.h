#ifndef BYTECARD_COMMON_LOGGING_H_
#define BYTECARD_COMMON_LOGGING_H_

#include <cstdlib>
#include <sstream>
#include <string>

namespace bytecard {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

// Messages below this level are dropped.
inline constexpr LogLevel kMinLogLevel = LogLevel::kInfo;

namespace internal_logging {

// Stream-style log sink. FATAL aborts in the destructor.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

// Swallows the streamed expression when the level is disabled.
struct NullStream {
  template <typename T>
  NullStream& operator<<(const T&) { return *this; }
};

}  // namespace internal_logging

#define BC_LOG(level)                                                         \
  if (::bytecard::LogLevel::k##level < ::bytecard::kMinLogLevel)              \
    ;                                                                         \
  else                                                                        \
    ::bytecard::internal_logging::LogMessage(::bytecard::LogLevel::k##level,  \
                                             __FILE__, __LINE__)              \
        .stream()

// CHECK aborts on violated invariants (programmer errors, not data errors).
#define BC_CHECK(cond)                                                        \
  if (!(cond))                                                                \
  ::bytecard::internal_logging::LogMessage(::bytecard::LogLevel::kFatal,      \
                                           __FILE__, __LINE__)                \
          .stream()                                                           \
      << "Check failed: " #cond " "

#define BC_CHECK_OK(expr)                                                     \
  if (::bytecard::Status _bc_st = (expr); !_bc_st.ok())                       \
  ::bytecard::internal_logging::LogMessage(::bytecard::LogLevel::kFatal,      \
                                           __FILE__, __LINE__)                \
          .stream()                                                           \
      << "Status not OK: " << _bc_st.ToString()

#define BC_DCHECK(cond) BC_CHECK(cond)

}  // namespace bytecard

#endif  // BYTECARD_COMMON_LOGGING_H_
