// Monotonic wall-clock stopwatch for benchmarks, tests and tools. Pipeline
// stage time comes from obs/trace.h spans, not from here.

#ifndef IPS_UTIL_TIMER_H_
#define IPS_UTIL_TIMER_H_

#include <chrono>

namespace ips {

/// Monotonic wall-clock stopwatch. Starts running on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Milliseconds elapsed since construction or the last Reset().
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace ips

#endif  // IPS_UTIL_TIMER_H_
