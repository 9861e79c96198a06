//===- TableEvents.cpp - the table-event registry -----------------------------===//

#include "support/TableEvents.h"
#include "support/Phase.h"

#include <algorithm>

using namespace gg;

//===----------------------------------------------------------------------===//
// TableEventRegistry
//===----------------------------------------------------------------------===//

TableEventRegistry &TableEventRegistry::global() {
  static TableEventRegistry R;
  return R;
}

TableEventRegistry::TableEventRegistry() : PhaseAccs(NumPhases) {}

void TableEventRegistry::configureProfile(ProfileMode Mode,
                                          ProfileTimebase TB) {
  TimebaseA.store(static_cast<uint8_t>(TB), std::memory_order_relaxed);
  ModeA.store(static_cast<uint8_t>(Mode), std::memory_order_relaxed);
  if (Mode == ProfileMode::Off)
    Sinks.fetch_and(static_cast<uint8_t>(~SinkProfile),
                    std::memory_order_relaxed);
  else
    Sinks.fetch_or(SinkProfile, std::memory_order_relaxed);
}

void TableEventRegistry::sizeTables(const TableShape &S) {
  std::lock_guard<std::mutex> Lock(M);
  for (ShardedCounters *F : {&ProdEvents, &ProdTicks})
    F->growLocked(S.Prods);
  for (ShardedCounters *F : {&StateEvents, &StateTicks, &FinalStates})
    F->growLocked(S.States);
  NumDynPoints = std::max(NumDynPoints, S.DynPoints);
  if (S.Rows.size() > RowNames.size())
    RowNames = S.Rows;
  RowEvents.growLocked(RowNames.size());
  Fingerprint = S.Fingerprint;
}

void TableEventRegistry::noteTie(int State, int TermIdx, int ChosenProd,
                                 uint64_t Ticks) {
  std::lock_guard<std::mutex> Lock(M);
  DynPoint &P = Dyn[{State, TermIdx}];
  ++P.Hits;
  ++P.Chosen[ChosenProd];
  P.Ticks += Ticks;
}

void TableEventRegistry::chargePhase(Phase P, uint64_t Ticks) {
  PhaseAcc &A = PhaseAccs[static_cast<size_t>(P)];
  A.Ticks.fetch_add(Ticks, std::memory_order_relaxed);
  A.Events.fetch_add(1, std::memory_order_relaxed);
}

void TableEventRegistry::noteCompile(bool Coverage) {
  uint8_t Armed = Sinks.load(std::memory_order_relaxed);
  if (Coverage && (Armed & SinkCoverage))
    CoverageCompiles.fetch_add(1, std::memory_order_relaxed);
  if (Armed & SinkProfile)
    ProfileCompiles.fetch_add(1, std::memory_order_relaxed);
}

void TableEventRegistry::reset() {
  std::lock_guard<std::mutex> Lock(M);
  for (ShardedCounters *F : {&ProdEvents, &ProdTicks, &StateEvents,
                             &StateTicks, &FinalStates, &RowEvents})
    F->resetLocked();
  for (PhaseAcc &A : PhaseAccs) {
    A.Ticks.store(0, std::memory_order_relaxed);
    A.Events.store(0, std::memory_order_relaxed);
  }
  Dyn.clear();
  CoverageCompiles.store(0, std::memory_order_relaxed);
  ProfileCompiles.store(0, std::memory_order_relaxed);
}

CoverageSnapshot TableEventRegistry::coverageSnapshot() const {
  std::lock_guard<std::mutex> Lock(M);
  CoverageSnapshot Out;
  Out.Fingerprint = Fingerprint;
  Out.Compiles = CoverageCompiles.load(std::memory_order_relaxed);
  Out.NumProds = ProdEvents.size();
  Out.NumStates = StateEvents.size();
  Out.NumDynPoints = NumDynPoints;
  Out.NumRows = RowEvents.size();
  for (size_t I = 0; I < Out.NumProds; ++I)
    if (uint64_t H = ProdEvents.sum(I))
      Out.ProdHits[static_cast<int>(I)] = H;
  // A visit is a push: every pushed state acts in the next step, except
  // each tree's last one.
  for (size_t I = 0; I < Out.NumStates; ++I)
    if (uint64_t H = StateEvents.sum(I) + FinalStates.sum(I))
      Out.StateHits[static_cast<int>(I)] = H;
  for (size_t I = 0; I < Out.NumRows; ++I)
    if (uint64_t H = RowEvents.sum(I))
      Out.RowHits[RowNames[I]] = H;
  for (const auto &[Key, P] : Dyn)
    Out.Dyn[Key] = P;
  return Out;
}

ProfileSnapshot TableEventRegistry::profileSnapshot() const {
  std::lock_guard<std::mutex> Lock(M);
  ProfileSnapshot Out;
  Out.Fingerprint = Fingerprint;
  Out.Mode = profileMode();
  Out.Timebase = timebase();
  // Steps ticks are unitless; only the cycles timebase converts to the
  // shared MonoClock seconds domain.
  Out.TicksPerSecond =
      Out.Timebase == ProfileTimebase::Cycles ? profTicksPerSecond() : 0;
  Out.Compiles = ProfileCompiles.load(std::memory_order_relaxed);
  Out.NumProds = ProdTicks.size();
  Out.NumStates = StateTicks.size();
  auto Cells = [](const ShardedCounters &Ticks, const ShardedCounters &Events,
                  std::map<int, ProfCell> &Into) {
    for (size_t I = 0; I < Ticks.size(); ++I) {
      uint64_t T = Ticks.sum(I), E = Events.sum(I);
      if (T | E)
        Into[static_cast<int>(I)] = {T, E};
    }
  };
  Cells(StateTicks, StateEvents, Out.States);
  Cells(ProdTicks, ProdEvents, Out.Prods);
  for (size_t P = 0; P < NumPhases; ++P) {
    const PhaseAcc &A = PhaseAccs[P];
    uint64_t T = A.Ticks.load(std::memory_order_relaxed);
    uint64_t E = A.Events.load(std::memory_order_relaxed);
    if (!(T | E))
      continue;
    Out.Phases[phaseName(static_cast<Phase>(P))] = {T, E};
  }
  for (const auto &[Key, P] : Dyn)
    Out.Dyn[Key] = {P.Ticks, P.Hits};
  return Out;
}

//===----------------------------------------------------------------------===//
// ProfileInterval
//===----------------------------------------------------------------------===//

void ProfileInterval::begin(bool WallOnly) {
  TableEventRegistry &R = tableEvents();
  if (!R.profiling())
    return;
  TB = R.timebase();
  if (WallOnly && TB == ProfileTimebase::Steps)
    return;
  Live = true;
  StartTicks = TableEventRegistry::now(TB);
}

void ProfileInterval::end(Phase P) {
  if (!Live)
    return;
  Live = false;
  uint64_t End = TableEventRegistry::now(TB);
  tableEvents().chargePhase(P, End > StartTicks ? End - StartTicks : 0);
}
