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
    {"cg.replay", SinkProfile | SinkStatus | SinkFlight},
    {"cg.emit", 0},
    {"cg.fallback", SinkProfile | SinkStatus | SinkFlight | SinkTrace},
    {"cg.stitch", SinkProfile | SinkStatus | SinkFlight},
    {"cg.total", SinkProfile | SinkWallOnly},
    {"pcc.compile", SinkProfile},
    {"server.responding", SinkStatus},
};

/// The calling thread's phase clock. It reads profTicks() (rdtsc), not
/// MonoClock, and converts at the calibrated rate: a compile makes a few
/// transitions per function, and a served request's compile is short.
struct PhaseClock {
  Phase Cur = Phase::NumPhases;
  uint64_t Since = 0;
  double SecondsPerTick = 0;
  PhaseTimes *Account = nullptr;

  /// Charges Cur's self time up to now and continues in \p Next. Returns
  /// the tick it read, or 0 on a thread without an account, which reads
  /// no clock.
  uint64_t enter(Phase Next) {
    uint64_t Now = 0;
    if (Account) {
      Now = profTicks();
      if (Cur != Phase::NumPhases && Now > Since)
        Account->Seconds[static_cast<size_t>(Cur)] +=
            static_cast<double>(Now - Since) * SecondsPerTick;
      Since = Now;
    }
    Cur = Next;
    return Now;
  }

  /// Charges Cur, then continues in phase \p P on account \p A.
  void switchAccount(PhaseTimes *A, Phase P) {
    enter(P);
    Account = A;
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
  begin(Budget, Arg, Clock.enter(P));
}

PhaseScope::~PhaseScope() {
  end();
  Clock.enter(Outer);
}

void PhaseScope::to(Phase Next, RequestBudget *Budget, int64_t Arg) {
  end();
  P = Next;
  begin(Budget, Arg, Clock.enter(Next));
}

void PhaseScope::begin(RequestBudget *Budget, int64_t Arg, uint64_t Now) {
  const uint8_t Sinks = Table[static_cast<size_t>(P)].Sinks;
  if (Sinks & SinkProfile)
    Prof.begin(Sinks & SinkWallOnly);
  if (Budget && (Sinks & SinkStatus))
    Budget->CurPhase.store(P, std::memory_order_relaxed);
  // The flight event reuses the phase clock's tick; a thread without an
  // account reads one for it.
  if (Sinks & SinkFlight)
    flightRecordPhase(P, Arg, Now ? Now : profTicks());
  if ((Sinks & SinkTrace) && TraceRecorder::global().enabled())
    Span.emplace(phaseName(P));
}

void PhaseScope::end() {
  Span.reset();
  Prof.end(P);
}
