//===- Profile.cpp - hot-path cost attribution over the tables ----------------===//

#include "support/Profile.h"
#include "support/Json.h"
#include "support/Phase.h"
#include "support/Stats.h"
#include "support/Strings.h"

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
// Names and spec parsing
//===----------------------------------------------------------------------===//

static const char *modeName(ProfileMode M) {
  switch (M) {
  case ProfileMode::Off:
    return "off";
  case ProfileMode::Instr:
    return "instr";
  case ProfileMode::Perf:
    return "perf";
  }
  return "?";
}

static const char *timebaseName(ProfileTimebase TB) {
  return TB == ProfileTimebase::Steps ? "steps" : "cycles";
}

bool gg::parseProfileSpec(const std::string &Spec, ProfileMode &Mode,
                          ProfileTimebase &Timebase, std::string &Err) {
  std::string ModePart = Spec, TbPart;
  size_t Comma = Spec.find(',');
  if (Comma != std::string::npos) {
    ModePart = Spec.substr(0, Comma);
    TbPart = Spec.substr(Comma + 1);
  }
  if (ModePart == "off")
    Mode = ProfileMode::Off;
  else if (ModePart == "instr")
    Mode = ProfileMode::Instr;
  else if (ModePart == "perf")
    Mode = ProfileMode::Perf;
  else {
    Err = strf("unknown profile mode \"%s\" (want off|instr|perf)",
               ModePart.c_str());
    return false;
  }
  Timebase = ProfileTimebase::Cycles;
  if (!TbPart.empty()) {
    if (TbPart == "cycles")
      Timebase = ProfileTimebase::Cycles;
    else if (TbPart == "steps")
      Timebase = ProfileTimebase::Steps;
    else {
      Err = strf("unknown profile timebase \"%s\" (want cycles|steps)",
                 TbPart.c_str());
      return false;
    }
  }
  return true;
}

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
    if (profile().perfForcedOff())
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
      profile().notePerfOpened();
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
// ProfileRegistry
//===----------------------------------------------------------------------===//

ProfileRegistry &ProfileRegistry::global() {
  static ProfileRegistry R;
  return R;
}

ProfileRegistry::ProfileRegistry() : PhaseAccs(NumPhases) {}

void ProfileRegistry::configure(ProfileMode Mode, ProfileTimebase TB) {
  TimebaseA.store(static_cast<uint8_t>(TB), std::memory_order_relaxed);
  ModeA.store(static_cast<uint8_t>(Mode), std::memory_order_relaxed);
}

void ProfileRegistry::chargeDyn(int State, int TermIdx, uint64_t Ticks) {
  std::lock_guard<std::mutex> Lock(M);
  ProfCell &C = Dyn[{State, TermIdx}];
  C.Ticks += Ticks;
  ++C.Events;
}

void ProfileRegistry::chargePhase(Phase P, uint64_t Ticks,
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

void ProfileRegistry::sizeGrammar(size_t NumProds, size_t NumStates) {
  std::lock_guard<std::mutex> Lock(M);
  ProdTicks.growLocked(NumProds);
  ProdEvents.growLocked(NumProds);
  StateTicks.growLocked(NumStates);
  StateEvents.growLocked(NumStates);
}

void ProfileRegistry::setFingerprint(const std::string &HexFP) {
  std::lock_guard<std::mutex> Lock(M);
  Fingerprint = HexFP;
}

bool ProfileRegistry::perfAvailable() const {
  return PerfOpened.load(std::memory_order_relaxed) &&
         !PerfForcedOff.load(std::memory_order_relaxed);
}

void ProfileRegistry::reset() {
  std::lock_guard<std::mutex> Lock(M);
  for (ShardedCounters *F :
       {&StateTicks, &StateEvents, &ProdTicks, &ProdEvents})
    F->resetLocked();
  for (PhaseAcc &A : PhaseAccs) {
    A.Ticks.store(0, std::memory_order_relaxed);
    A.Events.store(0, std::memory_order_relaxed);
    A.Cycles.store(0, std::memory_order_relaxed);
    A.Instructions.store(0, std::memory_order_relaxed);
    A.L1dMisses.store(0, std::memory_order_relaxed);
    A.LlcMisses.store(0, std::memory_order_relaxed);
    A.BranchMisses.store(0, std::memory_order_relaxed);
  }
  Dyn.clear();
  Compiles.store(0, std::memory_order_relaxed);
}

ProfileSnapshot ProfileRegistry::snapshot() const {
  std::lock_guard<std::mutex> Lock(M);
  ProfileSnapshot Out;
  Out.Fingerprint = Fingerprint;
  Out.Mode = mode();
  Out.Timebase = timebase();
  // Steps ticks are unitless; only the cycles timebase converts to the
  // shared MonoClock seconds domain.
  Out.TicksPerSecond =
      Out.Timebase == ProfileTimebase::Cycles ? profTicksPerSecond() : 0;
  Out.PerfAvailable = perfAvailable();
  Out.Compiles = Compiles.load(std::memory_order_relaxed);
  Out.NumProds = ProdTicks.size();
  Out.NumStates = StateTicks.size();
  for (size_t I = 0; I < Out.NumStates; ++I) {
    uint64_t T = StateTicks.sum(I), E = StateEvents.sum(I);
    if (T | E)
      Out.States[static_cast<int>(I)] = {T, E};
  }
  for (size_t I = 0; I < Out.NumProds; ++I) {
    uint64_t T = ProdTicks.sum(I), E = ProdEvents.sum(I);
    if (T | E)
      Out.Prods[static_cast<int>(I)] = {T, E};
  }
  for (size_t P = 0; P < NumPhases; ++P) {
    const PhaseAcc &A = PhaseAccs[P];
    uint64_t T = A.Ticks.load(std::memory_order_relaxed);
    uint64_t E = A.Events.load(std::memory_order_relaxed);
    if (!(T | E))
      continue;
    PhaseProfile &PP = Out.Phases[phaseName(static_cast<Phase>(P))];
    PP.Cell = {T, E};
    PP.Hw.Cycles = A.Cycles.load(std::memory_order_relaxed);
    PP.Hw.Instructions = A.Instructions.load(std::memory_order_relaxed);
    PP.Hw.L1dMisses = A.L1dMisses.load(std::memory_order_relaxed);
    PP.Hw.LlcMisses = A.LlcMisses.load(std::memory_order_relaxed);
    PP.Hw.BranchMisses = A.BranchMisses.load(std::memory_order_relaxed);
  }
  Out.Dyn = Dyn;
  return Out;
}

//===----------------------------------------------------------------------===//
// ProfileInterval
//===----------------------------------------------------------------------===//

void ProfileInterval::begin(bool WallOnly) {
  ProfileRegistry &R = profile();
  if (!R.instrEnabled())
    return;
  TB = R.timebase();
  if (WallOnly && TB == ProfileTimebase::Steps)
    return;
  Live = true;
  if (R.perfEnabled())
    PerfLive = threadPerf().read(PerfStart);
  StartTicks = ProfileRegistry::now(TB);
}

void ProfileInterval::end(Phase P) {
  if (!Live)
    return;
  uint64_t End = ProfileRegistry::now(TB);
  HwCounters Now, Delta;
  if (PerfLive && threadPerf().read(Now))
    Delta = {satSub(Now.Cycles, PerfStart.Cycles),
             satSub(Now.Instructions, PerfStart.Instructions),
             satSub(Now.L1dMisses, PerfStart.L1dMisses),
             satSub(Now.LlcMisses, PerfStart.LlcMisses),
             satSub(Now.BranchMisses, PerfStart.BranchMisses)};
  profile().chargePhase(P, satSub(End, StartTicks), Delta);
}

//===----------------------------------------------------------------------===//
// ProfileSnapshot
//===----------------------------------------------------------------------===//

std::map<int, ProfCell> ProfileSnapshot::regions() const {
  std::map<int, ProfCell> Out;
  for (const auto &[Id, C] : States) {
    ProfCell &R = Out[static_cast<int>(Id / RegionSize)];
    R.Ticks += C.Ticks;
    R.Events += C.Events;
  }
  return Out;
}

namespace {

void emitCellMap(std::string &Out, const char *Key,
                 const std::map<int, ProfCell> &M) {
  Out += strf(",\"%s\":{", Key);
  bool First = true;
  for (const auto &[Id, C] : M) {
    Out += strf("%s\"%d\":{\"ticks\":%llu,\"events\":%llu}", First ? "" : ",",
                Id, static_cast<unsigned long long>(C.Ticks),
                static_cast<unsigned long long>(C.Events));
    First = false;
  }
  Out += "}";
}

bool parseCell(const JsonValue &V, ProfCell &C, const char *What,
               std::string &Err) {
  if (!V.isObject()) {
    Err = strf("non-object entry in \"%s\"", What);
    return false;
  }
  C.Ticks = static_cast<uint64_t>(V.numberOr("ticks"));
  C.Events = static_cast<uint64_t>(V.numberOr("events"));
  return true;
}

bool parseIntKey(const std::string &Key, int &Out) {
  if (Key.empty())
    return false;
  int V = 0;
  for (char C : Key) {
    if (C < '0' || C > '9')
      return false;
    V = V * 10 + (C - '0');
  }
  Out = V;
  return true;
}

bool parseCellMap(const JsonValue *V, std::map<int, ProfCell> &Out,
                  const char *What, std::string &Err) {
  if (!V || !V->isObject()) {
    Err = strf("missing or non-object \"%s\"", What);
    return false;
  }
  for (const auto &[Key, Val] : V->Obj) {
    int Id;
    ProfCell C;
    if (!parseIntKey(Key, Id) || !parseCell(Val, C, What, Err)) {
      if (Err.empty())
        Err = strf("bad key \"%s\" in \"%s\"", Key.c_str(), What);
      return false;
    }
    ProfCell &Mine = Out[Id];
    Mine.Ticks += C.Ticks;
    Mine.Events += C.Events;
  }
  return true;
}

} // namespace

std::string ProfileSnapshot::toJson() const {
  std::string Out = strf(
      "{\"schema\":\"gg-profile-v1\",\"fingerprint\":\"%s\","
      "\"mode\":\"%s\",\"timebase\":\"%s\",\"ticks_per_second\":%.9g,"
      "\"perf_available\":%s,\"compiles\":%llu,"
      "\"shape\":{\"productions\":%llu,\"states\":%llu,\"region_size\":%llu}",
      jsonEscape(Fingerprint).c_str(), modeName(Mode), timebaseName(Timebase),
      TicksPerSecond, PerfAvailable ? "true" : "false",
      static_cast<unsigned long long>(Compiles),
      static_cast<unsigned long long>(NumProds),
      static_cast<unsigned long long>(NumStates),
      static_cast<unsigned long long>(RegionSize));

  Out += ",\"phases\":{";
  bool First = true;
  for (const auto &[Name, P] : Phases) {
    Out += strf("%s\"%s\":{\"ticks\":%llu,\"events\":%llu", First ? "" : ",",
                jsonEscape(Name).c_str(),
                static_cast<unsigned long long>(P.Cell.Ticks),
                static_cast<unsigned long long>(P.Cell.Events));
    if (P.Hw.any())
      Out += strf(",\"hw\":{\"cycles\":%llu,\"instructions\":%llu,"
                  "\"l1d_misses\":%llu,\"llc_misses\":%llu,"
                  "\"branch_misses\":%llu}",
                  static_cast<unsigned long long>(P.Hw.Cycles),
                  static_cast<unsigned long long>(P.Hw.Instructions),
                  static_cast<unsigned long long>(P.Hw.L1dMisses),
                  static_cast<unsigned long long>(P.Hw.LlcMisses),
                  static_cast<unsigned long long>(P.Hw.BranchMisses));
    Out += "}";
    First = false;
  }
  Out += "}";

  emitCellMap(Out, "states", States);
  emitCellMap(Out, "productions", Prods);
  // Regions are a pure projection of "states"; emitted for consumers,
  // ignored by parse() so round-trips stay byte-identical.
  emitCellMap(Out, "regions", regions());

  Out += ",\"dyn\":{";
  First = true;
  for (const auto &[Key, C] : Dyn) {
    Out += strf("%s\"%d:%d\":{\"ticks\":%llu,\"events\":%llu}",
                First ? "" : ",", Key.first, Key.second,
                static_cast<unsigned long long>(C.Ticks),
                static_cast<unsigned long long>(C.Events));
    First = false;
  }
  Out += "}}";
  return Out;
}

bool ProfileSnapshot::parse(const JsonValue &V, std::string &Err) {
  *this = ProfileSnapshot();
  const JsonValue *Schema = V.find("schema");
  if (!Schema || Schema->Str != "gg-profile-v1") {
    Err = "not a gg-profile-v1 artifact";
    return false;
  }
  if (const JsonValue *FP = V.find("fingerprint"))
    Fingerprint = FP->Str;
  if (const JsonValue *M = V.find("mode")) {
    ProfileTimebase IgnoredTB;
    std::string SpecErr;
    if (!parseProfileSpec(M->Str, Mode, IgnoredTB, SpecErr)) {
      Err = SpecErr;
      return false;
    }
  }
  if (const JsonValue *TB = V.find("timebase"))
    Timebase = TB->Str == "steps" ? ProfileTimebase::Steps
                                  : ProfileTimebase::Cycles;
  TicksPerSecond = V.numberOr("ticks_per_second");
  if (const JsonValue *PA = V.find("perf_available"))
    PerfAvailable = PA->B;
  Compiles = V.find("compiles") ? V.find("compiles")->asU64() : 0;
  const JsonValue *Shape = V.find("shape");
  if (!Shape || !Shape->isObject()) {
    Err = "missing \"shape\"";
    return false;
  }
  NumProds = static_cast<uint64_t>(Shape->numberOr("productions"));
  NumStates = static_cast<uint64_t>(Shape->numberOr("states"));

  const JsonValue *Ph = V.find("phases");
  if (!Ph || !Ph->isObject()) {
    Err = "missing \"phases\"";
    return false;
  }
  for (const auto &[Name, Val] : Ph->Obj) {
    PhaseProfile &P = Phases[Name];
    if (!parseCell(Val, P.Cell, "phases", Err))
      return false;
    if (const JsonValue *Hw = Val.find("hw")) {
      P.Hw.Cycles = static_cast<uint64_t>(Hw->numberOr("cycles"));
      P.Hw.Instructions = static_cast<uint64_t>(Hw->numberOr("instructions"));
      P.Hw.L1dMisses = static_cast<uint64_t>(Hw->numberOr("l1d_misses"));
      P.Hw.LlcMisses = static_cast<uint64_t>(Hw->numberOr("llc_misses"));
      P.Hw.BranchMisses = static_cast<uint64_t>(Hw->numberOr("branch_misses"));
    }
  }

  if (!parseCellMap(V.find("states"), States, "states", Err) ||
      !parseCellMap(V.find("productions"), Prods, "productions", Err))
    return false;

  const JsonValue *D = V.find("dyn");
  if (!D || !D->isObject()) {
    Err = "missing \"dyn\"";
    return false;
  }
  for (const auto &[Key, Val] : D->Obj) {
    size_t Colon = Key.find(':');
    int State, Term;
    if (Colon == std::string::npos ||
        !parseIntKey(Key.substr(0, Colon), State) ||
        !parseIntKey(Key.substr(Colon + 1), Term)) {
      Err = strf("bad dyn key \"%s\"", Key.c_str());
      return false;
    }
    ProfCell C;
    if (!parseCell(Val, C, "dyn", Err))
      return false;
    ProfCell &Mine = Dyn[{State, Term}];
    Mine.Ticks += C.Ticks;
    Mine.Events += C.Events;
  }
  return true;
}

bool ProfileSnapshot::parse(const std::string &Text, std::string &Err) {
  JsonValue V;
  if (!parseJson(Text, V, Err))
    return false;
  return parse(V, Err);
}

bool ProfileSnapshot::merge(const ProfileSnapshot &Other, std::string &Err) {
  if (!Fingerprint.empty() && !Other.Fingerprint.empty() &&
      Fingerprint != Other.Fingerprint) {
    Err = strf("fingerprint mismatch (%s vs %s): artifacts come from "
               "different grammars/tables",
               Fingerprint.c_str(), Other.Fingerprint.c_str());
    return false;
  }
  if ((NumProds && Other.NumProds && NumProds != Other.NumProds) ||
      (NumStates && Other.NumStates && NumStates != Other.NumStates)) {
    Err = "table shape mismatch: artifacts come from different tables";
    return false;
  }
  if (Compiles && Other.Compiles && Timebase != Other.Timebase) {
    Err = "timebase mismatch: cycles and steps ticks must not be summed";
    return false;
  }
  if (Fingerprint.empty())
    Fingerprint = Other.Fingerprint;
  if (Mode == ProfileMode::Off)
    Mode = Other.Mode;
  if (!Compiles)
    Timebase = Other.Timebase;
  // Same-machine artifacts calibrate within noise of each other; keep the
  // larger sample's rate by preferring a nonzero existing value.
  if (TicksPerSecond == 0)
    TicksPerSecond = Other.TicksPerSecond;
  PerfAvailable = PerfAvailable || Other.PerfAvailable;
  NumProds = std::max(NumProds, Other.NumProds);
  NumStates = std::max(NumStates, Other.NumStates);
  Compiles += Other.Compiles;
  for (const auto &[Name, P] : Other.Phases) {
    PhaseProfile &Mine = Phases[Name];
    Mine.Cell.Ticks += P.Cell.Ticks;
    Mine.Cell.Events += P.Cell.Events;
    Mine.Hw.add(P.Hw);
  }
  for (const auto &[Id, C] : Other.States) {
    States[Id].Ticks += C.Ticks;
    States[Id].Events += C.Events;
  }
  for (const auto &[Id, C] : Other.Prods) {
    Prods[Id].Ticks += C.Ticks;
    Prods[Id].Events += C.Events;
  }
  for (const auto &[Key, C] : Other.Dyn) {
    Dyn[Key].Ticks += C.Ticks;
    Dyn[Key].Events += C.Events;
  }
  return true;
}
