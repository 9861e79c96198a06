//===- Clock.h - the one monotonic clock source -----------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single monotonic time source every timing consumer shares: Trace's
/// span timestamps, the table builder's and benchmarks' interval reads,
/// and — through profTicks() calibrated against it — the phase clock
/// (support/Phase.h, and so every `*_seconds` value in `gg-stats-v1`) and
/// the `gg-profile-v1` tick-to-seconds conversion all derive from
/// MonoClock, so per-phase numbers from different artifacts are directly
/// comparable.
///
/// Two granularities:
///   * MonoClock — steady_clock, for second-scale intervals.
///   * profTicks() — the cheapest raw timestamp the hardware offers
///     (rdtsc on x86-64, MonoClock nanoseconds elsewhere), for the
///     profiler's per-parse-step charging and the phase clock's
///     per-instruction Emit scopes, where a clock_gettime vDSO call per
///     event would dominate the work being measured.
///     profTicksPerSecond() calibrates ticks against MonoClock so tick
///     totals convert back into the shared seconds domain.
///
//===----------------------------------------------------------------------===//

#ifndef GG_SUPPORT_CLOCK_H
#define GG_SUPPORT_CLOCK_H

#include <chrono>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#define GG_PROF_TICKS_RDTSC 1
#endif

namespace gg {

/// The process-wide monotonic clock. Everything that reports seconds
/// (the phase clock, Trace, profile artifacts) measures against this one
/// source.
using MonoClock = std::chrono::steady_clock;

/// Seconds between two MonoClock points.
inline double monoSeconds(MonoClock::time_point From, MonoClock::time_point To) {
  return std::chrono::duration<double>(To - From).count();
}

/// MonoClock's current time in nanoseconds since its epoch: the absolute
/// time that request deadlines and the frame client's read deadlines use.
inline uint64_t monoNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          MonoClock::now().time_since_epoch())
          .count());
}

/// Raw profiling timestamp: monotone-enough ticks at the lowest cost the
/// platform offers. On x86-64 this is rdtsc (~7ns, no serialization; TSCs
/// are invariant and synchronized on everything this project targets);
/// elsewhere it is MonoClock nanoseconds (~20ns via the vDSO).
inline uint64_t profTicks() {
#ifdef GG_PROF_TICKS_RDTSC
  return __rdtsc();
#else
  return monoNowNs();
#endif
}

/// Measured profTicks() rate, calibrated once (lazily) against MonoClock
/// over a ~2ms spin. Good to ~0.1%, which is far tighter than the noise
/// on anything the profiler reports in seconds.
inline double profTicksPerSecond() {
  static const double TPS = [] {
    MonoClock::time_point T0 = MonoClock::now();
    uint64_t C0 = profTicks();
    while (MonoClock::now() - T0 < std::chrono::milliseconds(2)) {
    }
    MonoClock::time_point T1 = MonoClock::now();
    uint64_t C1 = profTicks();
    double S = monoSeconds(T0, T1);
    return S > 0 ? static_cast<double>(C1 - C0) / S : 1e9;
  }();
  return TPS;
}

} // namespace gg

#endif // GG_SUPPORT_CLOCK_H
