//===- TableEvents.h - the table-event registry -----------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One registry records how the matcher and the semantic routines use the
/// tables, and serves both table artifacts (support/TableArtifacts.h):
///   * `gg-coverage-v1`, armed by `--coverage-json=`: how often each
///     production, state, dyn-tie point and Figure-3 row is used;
///   * `gg-profile-v1`, armed by `--profile=`: what those uses cost.
/// This is the usage data Samuelsson's example-based table optimization
/// starts from.
///
/// The two artifacts count the same events, so the registry counts each
/// once: per production (reductions), per state (steps acting in it) and
/// per instruction row, plus every tree's final state. Coverage's state
/// visits are the acting-state counts plus the final-state counts (every
/// pushed state acts in the next step, except the last one). The profile
/// adds tick families, charged only while profiling. Dyn-tie points are
/// rare (one per deferred reduce/reduce tie hit), so they share one
/// mutex-guarded map of hits, choices and ticks.
///
/// Profiling modes and timebases (`--profile=MODE[,TIMEBASE]`):
///   * instr — each matcher step charges a tick delta to the acting state;
///     reduce steps also charge the production, and deferred ties their
///     share to the (state, terminal) dyn point. Phase scopes charge the
///     code generator's phases (ProfileInterval).
///   * cycles (default timebase) — profTicks(), convertible to seconds in
///     the MonoClock domain the phase clock and Stats use (support/Clock.h).
///   * steps — a thread-local event counter: every delta is a property of
///     the input, so the artifact is byte-identical at any --threads.
///     Wall-only phases (cg.total) are skipped under steps.
///
/// Design constraints, in order:
///   1. *Off is free.* Nothing is armed by default; the matcher tests one
///      relaxed load per tree.
///   2. *On is cheap and thread-safe.* Counts land in per-thread shards of
///      atomic arrays (support/Sharded.h), summed only at snapshot time.
///   3. *Deterministic artifacts.* Every count is a property of the input,
///      so both artifacts' keys — and, under steps, the profile's values —
///      are identical at any thread count.
///
/// Sizing (sizeTables) is serial-only: VaxTarget::createFromSpec sizes the
/// registry before any compile worker starts. Growth retires the previous
/// counter stores instead of freeing them.
///
//===----------------------------------------------------------------------===//

#ifndef GG_SUPPORT_TABLEEVENTS_H
#define GG_SUPPORT_TABLEEVENTS_H

#include "support/Clock.h"
#include "support/Sharded.h"
#include "support/TableArtifacts.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace gg {

enum class Phase : uint8_t; // support/Phase.h

/// The dimensions of one target's tables.
struct TableShape {
  size_t Prods = 0, States = 0, DynPoints = 0;
  std::vector<std::string> Rows; ///< instruction-table row names, by id
  std::string Fingerprint;       ///< grammar/tables identity (hex)
};

/// The process-wide table-event registry; reach it through tableEvents().
class TableEventRegistry {
public:
  static TableEventRegistry &global();

  /// Arms the coverage artifact. There is no disarm: the drivers arm it
  /// before compiling when a `--coverage-json=` destination is given.
  void armCoverage() {
    Sinks.fetch_or(SinkCoverage, std::memory_order_relaxed);
  }

  /// Selects the profiling mode and timebase (Off disarms the profile).
  /// Serial-only.
  void configureProfile(ProfileMode Mode,
                        ProfileTimebase TB = ProfileTimebase::Cycles);

  /// The hot-path gate: true when either artifact is armed.
  bool armed() const { return Sinks.load(std::memory_order_relaxed) != 0; }
  bool profiling() const {
    return Sinks.load(std::memory_order_relaxed) & SinkProfile;
  }
  ProfileMode profileMode() const {
    return static_cast<ProfileMode>(ModeA.load(std::memory_order_relaxed));
  }
  ProfileTimebase timebase() const {
    return static_cast<ProfileTimebase>(
        TimebaseA.load(std::memory_order_relaxed));
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

  /// Sizes every family for \p S (grow-only) and sets the identity both
  /// artifacts carry. Serial-only; see the file comment.
  void sizeTables(const TableShape &S);

  /// Recorders. Callers test armed() first; ticks are nonzero only while
  /// profiling. Out-of-range ids are dropped rather than asserted — a
  /// stale artifact is better than a crashed compiler.
  void noteStep(int State, uint64_t Ticks) {
    StateEvents.add(State, 1);
    if (Ticks)
      StateTicks.add(State, Ticks);
  }
  void noteReduce(int Prod) { ProdEvents.add(Prod, 1); }
  void chargeReduce(int Prod, uint64_t Ticks) { ProdTicks.add(Prod, Ticks); }
  void noteFinalState(int State) { FinalStates.add(State, 1); }
  void noteRow(int Row) { RowEvents.add(Row, 1); }
  void noteTie(int State, int TermIdx, int ChosenProd, uint64_t Ticks);
  /// One event of phase \p P (ProfileInterval). Dense atomics.
  void chargePhase(Phase P, uint64_t Ticks);

  /// Counts one compile() call in each armed artifact. The PCC baseline
  /// passes \p Coverage = false: it reduces by no production.
  void noteCompile(bool Coverage = true);

  /// Zeroes every count (arming, sizes, names and identity stay).
  void reset();

  /// Sums the shards into either artifact.
  CoverageSnapshot coverageSnapshot() const;
  ProfileSnapshot profileSnapshot() const;

private:
  TableEventRegistry();

  enum : uint8_t { SinkCoverage = 1, SinkProfile = 2 };
  std::atomic<uint8_t> Sinks{0};
  std::atomic<uint8_t> ModeA{static_cast<uint8_t>(ProfileMode::Off)};
  std::atomic<uint8_t> TimebaseA{static_cast<uint8_t>(ProfileTimebase::Cycles)};
  std::atomic<uint64_t> CoverageCompiles{0}, ProfileCompiles{0};

  ShardedCounters ProdEvents, ProdTicks, StateEvents, StateTicks, FinalStates,
      RowEvents;

  struct PhaseAcc {
    std::atomic<uint64_t> Ticks{0}, Events{0};
  };
  std::vector<PhaseAcc> PhaseAccs; ///< one per Phase

  struct DynPoint : DynPointHits {
    uint64_t Ticks = 0;
  };

  mutable std::mutex M; ///< sizing, names, identity, dyn map
  std::vector<std::string> RowNames;
  std::string Fingerprint;
  size_t NumDynPoints = 0;
  std::map<std::pair<int, int>, DynPoint> Dyn;
};

/// Shorthand for the global registry.
inline TableEventRegistry &tableEvents() {
  return TableEventRegistry::global();
}

/// PhaseScope's profile sink (support/Phase.h): end() charges the phase
/// the tick delta since begin(); the interval may then begin again for the
/// scope's next phase.
/// An unarmed profile makes begin() a single relaxed load.
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
};

} // namespace gg

#endif // GG_SUPPORT_TABLEEVENTS_H
