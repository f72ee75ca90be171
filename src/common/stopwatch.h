#ifndef BYTECARD_COMMON_STOPWATCH_H_
#define BYTECARD_COMMON_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace bytecard {

// Monotonic wall-clock stopwatch used by the latency benches and by the
// training-time reports (Tables 3 and 6).
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace bytecard

#endif  // BYTECARD_COMMON_STOPWATCH_H_
