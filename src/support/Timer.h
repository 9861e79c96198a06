//===- Timer.h - wall-clock phase timing ------------------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wall-clock timing helpers used by the code generator's per-phase
/// accounting (experiment E5) and the benchmark harnesses. Measures
/// against the shared MonoClock (support/Clock.h), the same source the
/// tracer and the cost profiler convert into, so seconds reported here
/// line up with every other artifact.
///
//===----------------------------------------------------------------------===//

#ifndef GG_SUPPORT_TIMER_H
#define GG_SUPPORT_TIMER_H

#include "support/Clock.h"

#include <chrono>

namespace gg {

/// A restartable stopwatch accumulating elapsed seconds.
class Timer {
public:
  void start() { Begin = Clock::now(); Running = true; }

  void stop() {
    if (!Running)
      return;
    Accumulated += std::chrono::duration<double>(Clock::now() - Begin).count();
    Running = false;
  }

  void reset() { Accumulated = 0; Running = false; }

  /// Total accumulated seconds (including the live interval if running).
  double seconds() const {
    double Total = Accumulated;
    if (Running)
      Total += std::chrono::duration<double>(Clock::now() - Begin).count();
    return Total;
  }

private:
  using Clock = MonoClock;
  Clock::time_point Begin;
  double Accumulated = 0;
  bool Running = false;
};

/// RAII guard that accumulates a scope's duration into a Timer.
class TimerScope {
public:
  explicit TimerScope(Timer &T) : T(T) { T.start(); }
  ~TimerScope() { T.stop(); }
  TimerScope(const TimerScope &) = delete;
  TimerScope &operator=(const TimerScope &) = delete;

private:
  Timer &T;
};

} // namespace gg

#endif // GG_SUPPORT_TIMER_H
