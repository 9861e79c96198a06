//===- Phase.h - the pipeline's one phase vocabulary ------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every phase the compile pipeline and the compile server report on: one
/// enum, one table (Phase.cpp) naming each phase and its sinks, and one
/// RAII scope performing a whole transition (docs/observability.md
/// "Phases"). A thread is in exactly one phase at a time, so the phase
/// clock's self times are disjoint: an Emit scope nested in Replay or
/// Fallback is charged to Emit only.
///
//===----------------------------------------------------------------------===//

#ifndef GG_SUPPORT_PHASE_H
#define GG_SUPPORT_PHASE_H

#include "support/Profile.h"
#include "support/Trace.h"

#include <cstddef>
#include <cstdint>
#include <optional>

namespace gg {

struct RequestBudget;

/// The pipeline phases. NumPhases doubles as "outside every phase".
enum class Phase : uint8_t {
  Queued,     ///< admitted to the server, not yet picked up by a worker
  Frontend,   ///< MiniC parsing and IR construction
  Transform,  ///< phase 1: tree transformation (serial)
  Linearize,  ///< prefix linearization feeding the matcher
  Match,      ///< phase 2: shift/reduce matching of one tree
  Replay,     ///< phase 3: reduction replay of one tree
  Emit,       ///< phase 4: operand formatting and text rendering
  Fallback,   ///< PCC regeneration of one blocked tree
  Stitch,     ///< serial result stitch, peephole and final render
  Total,      ///< the whole GGCodeGenerator::compile
  PccCompile, ///< the PCC baseline's whole compile (the --diff-pcc leg)
  Responding, ///< handler returned; response being written
  NumPhases
};

constexpr size_t NumPhases = static_cast<size_t>(Phase::NumPhases);

/// The dotted name ("cg.transform"): profile bucket and trace span.
const char *phaseName(Phase P);

/// The part after the dot: the gg-status-v1 phase and the flight kind's
/// tail. Async-signal-safe.
const char *phaseShortName(Phase P);

/// Self seconds per phase.
struct PhaseTimes {
  double Seconds[NumPhases] = {};

  double operator[](Phase P) const { return Seconds[static_cast<size_t>(P)]; }
  PhaseTimes &operator+=(const PhaseTimes &O) {
    for (size_t I = 0; I < NumPhases; ++I)
      Seconds[I] += O.Seconds[I];
    return *this;
  }
};

/// RAII: charges the thread's self time into \p Into, starting outside
/// every phase, until the outer account and phase return on exit. A
/// thread without an account reads no clock.
class PhaseAccount {
public:
  explicit PhaseAccount(PhaseTimes &Into);
  ~PhaseAccount();
  PhaseAccount(const PhaseAccount &) = delete;
  PhaseAccount &operator=(const PhaseAccount &) = delete;

private:
  PhaseTimes *OuterAccount;
  Phase OuterPhase;
};

/// RAII transition into \p P and back to the enclosing phase: charges the
/// outgoing phase's self time, then drives the sinks \p P's row names.
/// \p Budget takes the status store (null: none); \p Arg is the flight
/// event's.
class PhaseScope {
public:
  explicit PhaseScope(Phase P, RequestBudget *Budget = nullptr,
                      int64_t Arg = 0);
  ~PhaseScope();

private:
  Phase P;
  Phase Outer;
  ProfileInterval Prof;
  std::optional<TraceSpan> Span;
};

} // namespace gg

#endif // GG_SUPPORT_PHASE_H
