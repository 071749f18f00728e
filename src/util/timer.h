#ifndef IQ_UTIL_TIMER_H_
#define IQ_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace iq {

/// Monotonic nanoseconds on the steady clock: the one timestamp clock of
/// trace and pool spans, profile windows, mutex wait/held times and
/// flight-recorder events, so records from every source share a timeline.
/// This header is the tree's sanctioned direct user of
/// std::chrono::steady_clock (tools/lint.sh enforces it).
inline uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotonic wall-clock stopwatch on MonotonicNanos(), used by the
/// benchmark harness and the observability layer.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ns_ = MonotonicNanos(); }

  /// Integer nanoseconds — the unit the obs::Histogram latency metrics use.
  uint64_t ElapsedNanos() const { return MonotonicNanos() - start_ns_; }

  /// Seconds elapsed since construction or last Restart().
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedNanos()) * 1e-9;
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

 private:
  uint64_t start_ns_ = 0;
};

}  // namespace iq

#endif  // IQ_UTIL_TIMER_H_
