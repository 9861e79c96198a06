//===- Phase.cpp - the pipeline's one phase vocabulary -----------------------===//

#include "support/Phase.h"
#include "support/Deadline.h"
#include "support/FlightRecorder.h"

#include <cstring>

using namespace gg;

namespace {

/// The sinks a row can name; the phase clock sees every phase.
enum Sink : uint8_t {
  SinkProfile = 1,  ///< gg-profile-v1 bucket named after the phase
  SinkWallOnly = 2, ///< ...skipped under the steps timebase
  SinkStatus = 4,   ///< RequestBudget::CurPhase store on entry
  SinkFlight = 8,   ///< "phase-<short name>" flight event on entry
  SinkTrace = 16,   ///< trace span named after the phase
};

/// Which sink sees which phase is what the artifacts promise: a sink
/// added to a row adds keys or events to an artifact.
constexpr struct {
  const char *Name;
  uint8_t Sinks;
} Table[NumPhases] = {
    {"server.queued", SinkStatus},
    {"cg.frontend", SinkStatus | SinkTrace},
    {"cg.transform", SinkProfile | SinkStatus | SinkFlight},
    {"cg.linearize", SinkProfile},
    {"cg.match", SinkProfile | SinkStatus | SinkFlight},
    {"cg.replay", SinkProfile | SinkStatus | SinkFlight | SinkTrace},
    {"cg.emit", 0},
    {"cg.fallback", SinkProfile | SinkStatus | SinkFlight | SinkTrace},
    {"cg.stitch", SinkProfile | SinkStatus | SinkFlight},
    {"cg.total", SinkProfile | SinkWallOnly},
    {"pcc.compile", SinkProfile},
    {"server.responding", SinkStatus},
};

/// The calling thread's phase clock. Emit scopes open once per emitted
/// instruction, so it reads profTicks() (rdtsc), not MonoClock, and
/// converts at the calibrated rate.
struct PhaseClock {
  Phase Cur = Phase::NumPhases;
  uint64_t Since = 0;
  double SecondsPerTick = 0;
  PhaseTimes *Account = nullptr;

  /// Charges Cur's self time up to now and restarts the interval.
  void charge() {
    if (!Account)
      return;
    uint64_t Now = profTicks();
    if (Cur != Phase::NumPhases && Now > Since)
      Account->Seconds[static_cast<size_t>(Cur)] +=
          static_cast<double>(Now - Since) * SecondsPerTick;
    Since = Now;
  }

  /// Charges Cur, then continues in phase \p P on account \p A.
  void switchAccount(PhaseTimes *A, Phase P) {
    charge();
    Account = A;
    Cur = P;
    SecondsPerTick = 1 / profTicksPerSecond();
    Since = profTicks();
  }
};

thread_local PhaseClock Clock;

} // namespace

const char *gg::phaseName(Phase P) {
  return Table[static_cast<size_t>(P)].Name;
}

const char *gg::phaseShortName(Phase P) {
  return strchr(phaseName(P), '.') + 1;
}

PhaseAccount::PhaseAccount(PhaseTimes &Into)
    : OuterAccount(Clock.Account), OuterPhase(Clock.Cur) {
  Clock.switchAccount(&Into, Phase::NumPhases);
}

PhaseAccount::~PhaseAccount() {
  Clock.switchAccount(OuterAccount, OuterPhase);
}

PhaseScope::PhaseScope(Phase P, RequestBudget *Budget, int64_t Arg)
    : P(P), Outer(Clock.Cur) {
  Clock.charge();
  Clock.Cur = P;
  const uint8_t Sinks = Table[static_cast<size_t>(P)].Sinks;
  if (Sinks & SinkProfile)
    Prof.begin(Sinks & SinkWallOnly);
  if (Budget && (Sinks & SinkStatus))
    Budget->CurPhase.store(P, std::memory_order_relaxed);
  if (Sinks & SinkFlight)
    flightRecordPhase(P, Arg);
  if ((Sinks & SinkTrace) && TraceRecorder::global().enabled())
    Span.emplace(phaseName(P));
}

PhaseScope::~PhaseScope() {
  Span.reset();
  Prof.end(P);
  Clock.charge();
  Clock.Cur = Outer;
}
