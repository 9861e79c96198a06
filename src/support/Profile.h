//===- Profile.h - hot-path cost attribution over the tables ----*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cycle-level time attribution for the table-driven hot paths. The
/// coverage profiler (support/Coverage.h) answers *how often* each
/// state/production/dyn-tie fires; this subsystem answers *how much it
/// costs*: the matcher's shift/reduce loop and every code-generation
/// phase charge timestamp deltas to per-state, per-production,
/// per-dyn-point and per-phase buckets, and the result dumps as a
/// versioned `gg-profile-v1` JSON artifact that `gg-report --profile`
/// merges, ranks by cost, joins against coverage, and diffs against a
/// PCC-leg profile (`--diff-pcc`). This is the cost half of the PGO loop
/// the related work describes (Samuelsson's example-based table
/// optimization; Nederhof & Satta's table-representation wins): open
/// items 1-2 need to know *where* the 1.95x compile-speed gap lives
/// before packing or direct-coding the tables.
///
/// Two modes behind one `--profile=` flag:
///   * instr — instrumented attribution. Each matcher step charges a
///     profTicks() delta (rdtsc on x86-64) to the acting state; reduce
///     steps additionally charge the production, and deferred
///     reduce/reduce ties charge the tie's share to the (state,
///     terminal) dyn point. Phase scopes charge the code generator's
///     phases. Per-table-region buckets are derived from the per-state
///     buckets at snapshot time (region = RegionSize consecutive states
///     of the packed action/goto tables), so regions cost nothing on the
///     hot path.
///   * perf — instr plus hardware counters via perf_event_open (cycles,
///     instructions, L1d/LLC misses, branch mispredicts), sampled at
///     phase-scope boundaries per thread and summed per phase. When the
///     syscall is unavailable (containers, CI, non-Linux), the mode
///     degrades to instr and the artifact records perf_available=false.
///
/// Two timebases:
///   * cycles (default) — profTicks(); tick totals convert to seconds
///     via profTicksPerSecond(), the same MonoClock domain the phase
///     clock and Stats use (support/Clock.h), so gg-stats-v1 and
///     gg-profile-v1 numbers are directly comparable.
///   * steps — a deterministic virtual clock: each thread's timestamp is
///     a thread-local event counter, so every charged delta is a
///     property of the compiled input, not of the hardware or the
///     schedule. With this timebase the artifact is byte-identical at
///     any --threads count (asserted by tests/ProfileTest.cpp and the
///     check.sh profile leg). Phase scopes that span the parallel
///     region (cg.total) are wall-only and skipped under steps, keeping
///     the key set schedule-independent too.
///
/// Design constraints mirror support/Coverage.h, in order:
///   1. *Off is free.* One relaxed load gates everything; the default-off
///      registry adds no measurable cost (bench sentinel clean).
///   2. *On is cheap.* Hot buckets are per-thread shards of plain atomic
///      arrays (support/Sharded.h — shared with Coverage); instr mode
///      costs < 10% on bench_compile_speed.
///   3. *Deterministic bucket keys.* Which buckets exist is decided by
///      the input at any thread count; under the steps timebase the
///      values are too.
///
/// Sizing (`sizeGrammar`) is serial-only, exactly like Coverage: targets
/// are constructed before compile workers start.
///
//===----------------------------------------------------------------------===//

#ifndef GG_SUPPORT_PROFILE_H
#define GG_SUPPORT_PROFILE_H

#include "support/Clock.h"
#include "support/Sharded.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace gg {

struct JsonValue;

enum class ProfileMode : uint8_t { Off = 0, Instr, Perf };
enum class ProfileTimebase : uint8_t { Cycles = 0, Steps };

enum class Phase : uint8_t; // support/Phase.h

/// Parses a `--profile=` spec: off | instr | perf, with an optional
/// `,cycles` / `,steps` timebase suffix. Returns false and sets \p Err
/// on junk.
bool parseProfileSpec(const std::string &Spec, ProfileMode &Mode,
                      ProfileTimebase &Timebase, std::string &Err);

/// Ticks + event count for one bucket (a state, production, dyn point,
/// region or phase).
struct ProfCell {
  uint64_t Ticks = 0;
  uint64_t Events = 0;
};

/// Per-phase hardware-counter deltas (perf mode; all zero otherwise).
struct HwCounters {
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
  uint64_t L1dMisses = 0;
  uint64_t LlcMisses = 0;
  uint64_t BranchMisses = 0;

  bool any() const {
    return Cycles | Instructions | L1dMisses | LlcMisses | BranchMisses;
  }
  void add(const HwCounters &O) {
    Cycles += O.Cycles;
    Instructions += O.Instructions;
    L1dMisses += O.L1dMisses;
    LlcMisses += O.LlcMisses;
    BranchMisses += O.BranchMisses;
  }
};

/// One phase's accumulated profile.
struct PhaseProfile {
  ProfCell Cell;
  HwCounters Hw;
};

/// A plain-data profile artifact: what one `gg-profile-v1` file holds.
/// The registry serializes through this; `gg-report` parses and merges
/// artifacts with it.
struct ProfileSnapshot {
  /// States per derived table region. 64 states of the packed
  /// action/goto tables are roughly a hot cache page; region buckets
  /// tell the open-item-1 packing work which table pages are hot.
  static constexpr uint64_t RegionSize = 64;

  std::string Fingerprint; ///< grammar/tables identity; "" = unset
  ProfileMode Mode = ProfileMode::Off;
  ProfileTimebase Timebase = ProfileTimebase::Cycles;
  double TicksPerSecond = 0; ///< 0 under the steps timebase
  bool PerfAvailable = false;
  uint64_t Compiles = 0;
  uint64_t NumProds = 0, NumStates = 0;
  std::map<std::string, PhaseProfile> Phases;
  std::map<int, ProfCell> States; ///< state -> matcher loop cost
  std::map<int, ProfCell> Prods;  ///< production -> reduce-step cost
  std::map<std::pair<int, int>, ProfCell> Dyn; ///< (state,term) -> tie cost

  /// Region buckets derived from States (deterministic given States).
  std::map<int, ProfCell> regions() const;

  /// Ticks -> seconds in the shared MonoClock domain; 0 when the
  /// timebase is steps (ticks are unitless there).
  double seconds(uint64_t Ticks) const {
    return TicksPerSecond > 0 ? static_cast<double>(Ticks) / TicksPerSecond
                              : 0;
  }

  /// Serializes as one `gg-profile-v1` JSON object with sorted keys.
  /// Regions are emitted (derived) but never parsed back — they are
  /// recomputed, so round-trips stay byte-identical.
  std::string toJson() const;

  /// Parses a `gg-profile-v1` object. Returns false and sets \p Err on
  /// malformed input or a schema mismatch.
  bool parse(const JsonValue &V, std::string &Err);
  bool parse(const std::string &Text, std::string &Err);

  /// Adds \p Other into this artifact. Fails when fingerprints, table
  /// shapes or timebases disagree — such artifacts must not be summed.
  bool merge(const ProfileSnapshot &Other, std::string &Err);
};

/// The process-wide profiling registry. All hot-path recording funnels
/// through the free function profile() below.
class ProfileRegistry {
public:
  static ProfileRegistry &global();

  /// Selects the mode and timebase. Serial-only (drivers configure
  /// before compiling). Perf mode arms the per-thread hardware-counter
  /// groups lazily; if perf_event_open fails the mode quietly degrades
  /// to instrumented timing and perfAvailable() reports false.
  void configure(ProfileMode Mode, ProfileTimebase TB = ProfileTimebase::Cycles);

  ProfileMode mode() const {
    return static_cast<ProfileMode>(ModeA.load(std::memory_order_relaxed));
  }
  ProfileTimebase timebase() const {
    return static_cast<ProfileTimebase>(
        TimebaseA.load(std::memory_order_relaxed));
  }
  /// The hot-path gate: one relaxed load, false (and free) by default.
  bool instrEnabled() const {
    return ModeA.load(std::memory_order_relaxed) !=
           static_cast<uint8_t>(ProfileMode::Off);
  }
  bool perfEnabled() const {
    return ModeA.load(std::memory_order_relaxed) ==
           static_cast<uint8_t>(ProfileMode::Perf);
  }

  /// Current timestamp in timebase \p TB. Cycles: profTicks(). Steps: a
  /// thread-local counter incremented per call, so consecutive reads on
  /// one thread differ by exactly 1 — a deterministic virtual clock.
  static uint64_t now(ProfileTimebase TB) {
    if (TB == ProfileTimebase::Cycles)
      return profTicks();
    static thread_local uint64_t StepCounter = 0;
    return ++StepCounter;
  }

  /// Hot-path recorders (sharded atomics; callers pre-check
  /// instrEnabled() and pass measured deltas). Out-of-range ids are
  /// dropped, never asserted.
  void chargeState(int State, uint64_t Ticks) {
    StateTicks.add(State, Ticks);
    StateEvents.add(State, 1);
  }
  void chargeProd(int Prod, uint64_t Ticks) {
    ProdTicks.add(Prod, Ticks);
    ProdEvents.add(Prod, 1);
  }
  /// Dyn-tie events are rare (one per deferred reduce/reduce tie hit),
  /// so a mutex-guarded map suffices, exactly as in Coverage.
  void chargeDyn(int State, int TermIdx, uint64_t Ticks);
  /// One event of phase \p P. Phase accumulators are dense atomics.
  void chargePhase(Phase P, uint64_t Ticks, const HwCounters &Delta);
  void noteCompile() {
    if (instrEnabled())
      Compiles.fetch_add(1, std::memory_order_relaxed);
  }

  /// Sizes the state/production buckets (grow-only; serial-only, same
  /// contract as CoverageRegistry::sizeGrammar).
  void sizeGrammar(size_t NumProds, size_t NumStates);
  void setFingerprint(const std::string &HexFP);

  /// True when perf mode has successfully opened hardware counters on at
  /// least one thread and no test forced unavailability.
  bool perfAvailable() const;
  /// Test hook: makes every perf_event_open attempt report failure so
  /// the graceful-fallback path is exercisable where perf works.
  void forcePerfUnavailableForTests(bool Force) {
    PerfForcedOff.store(Force, std::memory_order_relaxed);
  }
  bool perfForcedOff() const {
    return PerfForcedOff.load(std::memory_order_relaxed);
  }
  void notePerfOpened() { PerfOpened.store(true, std::memory_order_relaxed); }

  /// Zeroes all buckets (mode, sizes and fingerprint stay).
  void reset();

  /// Sums the shards into a plain artifact / its JSON rendering.
  ProfileSnapshot snapshot() const;
  std::string toJson() const { return snapshot().toJson(); }

private:
  ProfileRegistry();

  std::atomic<uint8_t> ModeA{static_cast<uint8_t>(ProfileMode::Off)};
  std::atomic<uint8_t> TimebaseA{static_cast<uint8_t>(ProfileTimebase::Cycles)};
  std::atomic<bool> PerfOpened{false};
  std::atomic<bool> PerfForcedOff{false};
  std::atomic<uint64_t> Compiles{0};

  ShardedCounters StateTicks, StateEvents, ProdTicks, ProdEvents;

  struct PhaseAcc {
    std::atomic<uint64_t> Ticks{0}, Events{0};
    std::atomic<uint64_t> Cycles{0}, Instructions{0}, L1dMisses{0},
        LlcMisses{0}, BranchMisses{0};
  };
  std::vector<PhaseAcc> PhaseAccs; ///< one per Phase

  mutable std::mutex M; ///< sizing, fingerprint, dyn map
  std::string Fingerprint;
  std::map<std::pair<int, int>, ProfCell> Dyn;
};

/// Shorthand for the global registry.
inline ProfileRegistry &profile() { return ProfileRegistry::global(); }

/// PhaseScope's profile sink (support/Phase.h): end() charges the phase
/// the tick delta since begin() and, in perf mode, its hardware-counter
/// deltas; the interval may then begin again for the scope's next phase.
/// A disabled registry makes begin() a single relaxed load.
/// \p WallOnly intervals no-op under the steps timebase, where a delta
/// across the parallel region (cg.total) would depend on the schedule.
class ProfileInterval {
public:
  void begin(bool WallOnly);
  void end(Phase P);

private:
  ProfileTimebase TB = ProfileTimebase::Cycles;
  uint64_t StartTicks = 0;
  bool Live = false;
  bool PerfLive = false;
  HwCounters PerfStart;
};

} // namespace gg

#endif // GG_SUPPORT_PROFILE_H
