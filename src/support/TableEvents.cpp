//===- TableEvents.cpp - the table-event registry -----------------------------===//

#include "support/TableEvents.h"
#include "support/Phase.h"

#include <algorithm>
#include <cstring>

#if defined(__linux__) && __has_include(<linux/perf_event.h>)
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>
#define GG_HAVE_PERF 1
#endif

using namespace gg;

//===----------------------------------------------------------------------===//
// Hardware counters (perf mode)
//===----------------------------------------------------------------------===//

namespace {

/// One thread's hardware-counter group, opened lazily on first phase
/// scope. Five independent fds (no group leader: grouping fails hard
/// when the PMU can't co-schedule all five, and phase-level sums do not
/// need the counters snapshotted atomically). Unavailable counters stay
/// at fd = -1 and read as 0 — partial data beats none on hosts that
/// expose, say, cycles but no cache events.
struct ThreadPerf {
  enum { NCounters = 5 };
  int Fds[NCounters] = {-1, -1, -1, -1, -1};
  bool Tried = false;

#ifdef GG_HAVE_PERF
  static int openCounter(uint32_t Type, uint64_t Config) {
    struct perf_event_attr PE;
    memset(&PE, 0, sizeof(PE));
    PE.size = sizeof(PE);
    PE.type = Type;
    PE.config = Config;
    PE.disabled = 0;
    PE.exclude_kernel = 1; // unprivileged-friendly
    PE.exclude_hv = 1;
    return static_cast<int>(
        syscall(SYS_perf_event_open, &PE, 0 /*this thread*/, -1 /*any cpu*/,
                -1 /*no group*/, 0));
  }
#endif

  /// Opens the counters once per thread; reports whether any opened.
  bool ensureOpen() {
    if (Tried)
      return Fds[0] >= 0 || Fds[1] >= 0;
    Tried = true;
    if (tableEvents().perfForcedOff())
      return false;
#ifdef GG_HAVE_PERF
    static constexpr uint64_t L1dReadMiss =
        PERF_COUNT_HW_CACHE_L1D | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
        (PERF_COUNT_HW_CACHE_RESULT_MISS << 16);
    Fds[0] = openCounter(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES);
    Fds[1] = openCounter(PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS);
    Fds[2] = openCounter(PERF_TYPE_HW_CACHE, L1dReadMiss);
    Fds[3] = openCounter(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES);
    Fds[4] = openCounter(PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES);
    if (Fds[0] >= 0 || Fds[1] >= 0) {
      tableEvents().notePerfOpened();
      return true;
    }
#endif
    return false;
  }

  bool read(HwCounters &Out) {
    if (!ensureOpen())
      return false;
    uint64_t V[NCounters] = {0, 0, 0, 0, 0};
#ifdef GG_HAVE_PERF
    for (int I = 0; I < NCounters; ++I)
      if (Fds[I] >= 0 && ::read(Fds[I], &V[I], sizeof(V[I])) !=
                             static_cast<ssize_t>(sizeof(V[I])))
        V[I] = 0;
#endif
    Out.Cycles = V[0];
    Out.Instructions = V[1];
    Out.L1dMisses = V[2];
    Out.LlcMisses = V[3];
    Out.BranchMisses = V[4];
    return true;
  }

  ~ThreadPerf() {
#ifdef GG_HAVE_PERF
    for (int Fd : Fds)
      if (Fd >= 0)
        close(Fd);
#endif
  }
};

ThreadPerf &threadPerf() {
  static thread_local ThreadPerf TP;
  return TP;
}

uint64_t satSub(uint64_t A, uint64_t B) { return A > B ? A - B : 0; }

} // namespace

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

void TableEventRegistry::chargePhase(Phase P, uint64_t Ticks,
                                     const HwCounters &D) {
  PhaseAcc &A = PhaseAccs[static_cast<size_t>(P)];
  A.Ticks.fetch_add(Ticks, std::memory_order_relaxed);
  A.Events.fetch_add(1, std::memory_order_relaxed);
  if (!D.any())
    return;
  A.Cycles.fetch_add(D.Cycles, std::memory_order_relaxed);
  A.Instructions.fetch_add(D.Instructions, std::memory_order_relaxed);
  A.L1dMisses.fetch_add(D.L1dMisses, std::memory_order_relaxed);
  A.LlcMisses.fetch_add(D.LlcMisses, std::memory_order_relaxed);
  A.BranchMisses.fetch_add(D.BranchMisses, std::memory_order_relaxed);
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
  for (PhaseAcc &A : PhaseAccs)
    for (std::atomic<uint64_t> *C :
         {&A.Ticks, &A.Events, &A.Cycles, &A.Instructions, &A.L1dMisses,
          &A.LlcMisses, &A.BranchMisses})
      C->store(0, std::memory_order_relaxed);
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
  Out.PerfAvailable = perfAvailable();
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
    PhaseProfile &PP = Out.Phases[phaseName(static_cast<Phase>(P))];
    PP.Cell = {T, E};
    PP.Hw = {A.Cycles.load(std::memory_order_relaxed),
             A.Instructions.load(std::memory_order_relaxed),
             A.L1dMisses.load(std::memory_order_relaxed),
             A.LlcMisses.load(std::memory_order_relaxed),
             A.BranchMisses.load(std::memory_order_relaxed)};
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
  PerfLive = R.perfEnabled() && threadPerf().read(PerfStart);
  StartTicks = TableEventRegistry::now(TB);
}

void ProfileInterval::end(Phase P) {
  if (!Live)
    return;
  Live = false;
  uint64_t End = TableEventRegistry::now(TB);
  HwCounters Now, Delta;
  if (PerfLive && threadPerf().read(Now))
    Delta = {satSub(Now.Cycles, PerfStart.Cycles),
             satSub(Now.Instructions, PerfStart.Instructions),
             satSub(Now.L1dMisses, PerfStart.L1dMisses),
             satSub(Now.LlcMisses, PerfStart.LlcMisses),
             satSub(Now.BranchMisses, PerfStart.BranchMisses)};
  tableEvents().chargePhase(P, satSub(End, StartTicks), Delta);
}
