//===- support/Timer.h - Monotonic wall-clock timing ------------*- C++ -*-===//
///
/// \file
/// A tiny monotonic stopwatch used by the benchmark harnesses and by the
/// JIT engine's compile-time accounting, and the monotonic nanosecond
/// clock the observability layer stamps events and spans with.
///
//===----------------------------------------------------------------------===//

#ifndef JITVS_SUPPORT_TIMER_H
#define JITVS_SUPPORT_TIMER_H

#include <chrono>
#include <cstdint>

namespace jitvs {

/// Monotonic stopwatch measuring elapsed seconds as a double.
class Timer {
public:
  Timer() : Start(Clock::now()) {}

  /// Restarts the stopwatch.
  void reset() { Start = Clock::now(); }

  /// \returns seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start;
};

/// Nanoseconds on the monotonic clock (arbitrary epoch).
inline uint64_t monotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace jitvs

#endif // JITVS_SUPPORT_TIMER_H
