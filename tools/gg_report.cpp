//===- gg_report.cpp - merge telemetry artifacts into one report --------------===//
//
// Offline companion to the `--coverage-json=` / `--stats-json=` driver
// surfaces: merges artifacts from many runs and reports how much of the
// table-driven machinery real input actually exercises.
//
//   gg-report [ARTIFACT.json ...] [--top=N] [--json=FILE]
//             [--fail-on-dead-bridge] [--fail-on-zero-dyn]
//             [--fail-production-coverage=PCT]
//             [--profile] [--profile-json=FILE]
//             [--fail-attribution-below=PCT]
//             [--trace] [--slowest=N] [--fail-queue-wait-p99-ms=MS]
//
// Artifacts are dispatched on their "schema" field:
//
//   gg-coverage-v1  merged (fingerprint/shape-checked) into one artifact;
//                   the report lists table utilization, hot and dead
//                   productions, never-visited states, dynamic-tie points
//                   and instruction-table row usage. When the artifact
//                   fingerprint matches a freshly built VAX target, ids
//                   are rendered with grammar names.
//   gg-profile-v1   merged (fingerprint/shape/timebase-checked); the
//                   profile report ranks hot states, productions, dyn
//                   points and table regions by attributed cost, joins
//                   against merged coverage to flag buckets that are
//                   expensive per visit ("hot but rarely hit"), and
//                   prints the per-phase breakdown with the share of
//                   cg.total wall time the instrumentation attributed.
//   gg-stats-v1     per-phase *_seconds values are summed into a time
//                   breakdown across all stats artifacts; counters and
//                   histograms are summed too, and artifacts carrying
//                   `server.*` keys (the compile server's --stats-json)
//                   additionally get an overload/lifecycle summary: shed
//                   rate by cause, queue-depth and queue-wait histograms,
//                   drain/reload/watchdog counts.
//
// A file whose top level is a bare JSON *array* is a Chrome trace (the
// shape --trace-json writes; it has no schema key because viewers want
// the raw event array). The server tags every span it emits with the
// request id ("req" arg) and serving generation, so gg-report can join
// each request's spans back into one end-to-end timeline: admission
// (server.admit) -> queue wait (gap to server.request) -> the cg.* phase
// spans and cg.function phase args -> total service time. --trace prints that
// per-request report (and fails if no trace artifact was given);
// --slowest=N expands the N slowest requests with their per-phase
// breakdown; --fail-queue-wait-p99-ms=MS exits nonzero when the joined
// queue-wait p99 exceeds MS — the "was the slowness queueing or
// compiling?" gate, straight from the artifacts a live incident leaves
// behind (docs/observability.md).
//
// --json=FILE writes the merged coverage artifact (itself gg-coverage-v1,
// so reports can be merged hierarchically); --profile-json=FILE does the
// same for the merged profile. --fail-on-dead-bridge exits
// nonzero when a bridge-production family (section 6.2.2; width replicas
// grouped) has zero reductions; --fail-on-zero-dyn when no dynamic-tie
// event was recorded. Both back the check.sh coverage gate.
// --fail-production-coverage=PCT gates on the share of *reachable*
// productions with at least one recorded reduction — the denominator
// excludes productions GrammarWalk proves the pipeline's tie defaults
// can never reduce (statically or dynamically shadowed). gg-fuzz's
// fixed-seed coverage artifact passes at PCT=100 (the check.sh fuzz leg).
//
// --profile requires at least one gg-profile-v1 artifact (diagnostic exit
// otherwise). --fail-attribution-below=PCT exits nonzero when the
// instrumented phases cover less than PCT percent of cg.total wall time
// (the check.sh profile-smoke gate).
//
//===----------------------------------------------------------------------===//

#include "fuzz/GrammarWalk.h"
#include "mdl/Grammar.h"
#include "support/Frame.h"
#include "support/Json.h"
#include "support/Strings.h"
#include "support/TableArtifacts.h"
#include "vax/VaxTarget.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace gg;

namespace {

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In) {
    fprintf(stderr, "gg-report: cannot open %s\n", Path.c_str());
    return false;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}

double pct(uint64_t Part, uint64_t Whole) {
  return Whole ? 100.0 * double(Part) / double(Whole) : 0.0;
}

/// Strips the type-replicator's width suffix so bridgedx1_b/_w/_l report
/// as one family: a family is dead only if no width of it ever fired.
std::string familyOf(const std::string &SemTag) {
  size_t N = SemTag.size();
  if (N > 2 && SemTag[N - 2] == '_' &&
      (SemTag[N - 1] == 'b' || SemTag[N - 1] == 'w' || SemTag[N - 1] == 'l'))
    return SemTag.substr(0, N - 2);
  return SemTag;
}

/// Renders grammar ids as names when a freshly built target's
/// fingerprint matches the artifact; raw ids otherwise. Shared by the
/// coverage and profile halves of the report.
struct Namer {
  const VaxTarget *Target = nullptr; ///< null = names unavailable

  std::string prodName(int Id) const {
    if (Target && Id >= 0 &&
        static_cast<size_t>(Id) < Target->grammar().numProductions())
      return renderProduction(Target->grammar(), Target->grammar().prod(Id));
    return strf("P%d", Id);
  }

  std::string stateName(int S) const {
    if (Target && S >= 0 &&
        static_cast<size_t>(S) < Target->build().StateAccessSym.size()) {
      SymId Sym = Target->build().StateAccessSym[S];
      return strf("s%d(%s)", S,
                  Sym < 0 ? "start" : Target->grammar().symbolName(Sym).c_str());
    }
    return strf("s%d", S);
  }

  std::string termName(int TermIdx) const {
    if (Target) {
      const Grammar &G = Target->grammar();
      for (SymId S = 0; S < static_cast<SymId>(G.numSymbols()); ++S)
        if (G.isTerminal(S) && G.termIndex(S) == TermIdx)
          return G.symbolName(S);
    }
    return strf("t%d", TermIdx);
  }
};

/// The coverage half of the report.
struct CoverageReport : Namer {
  CoverageSnapshot Cov;

  uint64_t hits(const std::map<int, uint64_t> &M, int Id) const {
    auto It = M.find(Id);
    return It == M.end() ? 0 : It->second;
  }

  /// Prints the report; returns false when an enabled gate fires.
  bool print(int Top, bool FailDeadBridge, bool FailZeroDyn) const;
};

bool CoverageReport::print(int Top, bool FailDeadBridge,
                           bool FailZeroDyn) const {
  printf("== coverage (%llu compiles, fingerprint %s%s)\n",
         static_cast<unsigned long long>(Cov.Compiles),
         Cov.Fingerprint.c_str(),
         Target ? "" : ", no matching target: raw ids");

  uint64_t DynHitsTotal = 0;
  for (const auto &[Key, D] : Cov.Dyn)
    DynHitsTotal += D.Hits;
  printf("  productions reduced   %4zu / %-4llu (%.1f%%)\n",
         Cov.ProdHits.size(), static_cast<unsigned long long>(Cov.NumProds),
         pct(Cov.ProdHits.size(), Cov.NumProds));
  printf("  states visited        %4zu / %-4llu (%.1f%%)\n",
         Cov.StateHits.size(), static_cast<unsigned long long>(Cov.NumStates),
         pct(Cov.StateHits.size(), Cov.NumStates));
  printf("  dyn-tie points fired  %4zu / %-4llu (%.1f%%, %llu events)\n",
         Cov.Dyn.size(), static_cast<unsigned long long>(Cov.NumDynPoints),
         pct(Cov.Dyn.size(), Cov.NumDynPoints),
         static_cast<unsigned long long>(DynHitsTotal));
  printf("  instr-table rows used %4zu / %-4llu (%.1f%%)\n",
         Cov.RowHits.size(), static_cast<unsigned long long>(Cov.NumRows),
         pct(Cov.RowHits.size(), Cov.NumRows));

  // Hot productions, by reductions.
  std::vector<std::pair<uint64_t, int>> Hot;
  for (const auto &[Id, N] : Cov.ProdHits)
    Hot.push_back({N, Id});
  std::sort(Hot.begin(), Hot.end(), [](const auto &A, const auto &B) {
    return A.first != B.first ? A.first > B.first : A.second < B.second;
  });
  printf("\n  hot productions (top %d of %zu):\n", Top, Hot.size());
  for (size_t I = 0; I < Hot.size() && I < static_cast<size_t>(Top); ++I)
    printf("    %10llu  %s\n", static_cast<unsigned long long>(Hot[I].first),
           prodName(Hot[I].second).c_str());

  // Dead productions. With names available, bridges are tracked per
  // family; everything else is listed (capped) so the report stays
  // readable on sparse single-run artifacts.
  std::vector<int> Dead;
  for (uint64_t Id = 0; Id < Cov.NumProds; ++Id)
    if (!hits(Cov.ProdHits, static_cast<int>(Id)))
      Dead.push_back(static_cast<int>(Id));
  printf("\n  dead productions: %zu\n", Dead.size());
  size_t Shown = 0;
  for (int Id : Dead) {
    if (Shown++ >= static_cast<size_t>(Top)) {
      printf("    ... %zu more\n", Dead.size() - Shown + 1);
      break;
    }
    printf("    %s\n", prodName(Id).c_str());
  }

  bool Ok = true;
  if (Target) {
    // Bridge families (section 6.2.2): MiniC can only reach the byte
    // widths, so a family counts as covered when any width replica fired.
    std::map<std::string, uint64_t> Families;
    for (const Production &P : Target->grammar().productions())
      if (P.IsBridge)
        Families[familyOf(P.SemTag)] += hits(Cov.ProdHits, P.Id);
    printf("\n  bridge families:\n");
    for (const auto &[Name, N] : Families) {
      printf("    %-12s %10llu%s\n", Name.c_str(),
             static_cast<unsigned long long>(N), N ? "" : "  DEAD");
      if (!N && FailDeadBridge) {
        fprintf(stderr, "gg-report: bridge family %s has zero reductions\n",
                Name.c_str());
        Ok = false;
      }
    }
  } else if (FailDeadBridge) {
    fprintf(stderr, "gg-report: --fail-on-dead-bridge needs a matching "
                    "target to identify bridge productions\n");
    Ok = false;
  }

  if (FailZeroDyn && DynHitsTotal == 0) {
    fprintf(stderr, "gg-report: no dynamic-tie events recorded\n");
    Ok = false;
  }

  // Never-visited states: a sample labeled by accessing symbol.
  std::vector<int> Unvisited;
  for (uint64_t S = 0; S < Cov.NumStates; ++S)
    if (!hits(Cov.StateHits, static_cast<int>(S)))
      Unvisited.push_back(static_cast<int>(S));
  printf("\n  never-visited states: %zu", Unvisited.size());
  for (size_t I = 0; I < Unvisited.size() && I < 8; ++I)
    printf("%s%s", I ? " " : "  e.g. ", stateName(Unvisited[I]).c_str());
  printf("\n");

  // Dynamic-tie points with their choice distribution.
  std::vector<std::pair<uint64_t, std::pair<int, int>>> DynHot;
  for (const auto &[Key, D] : Cov.Dyn)
    DynHot.push_back({D.Hits, Key});
  std::sort(DynHot.begin(), DynHot.end(),
            [](const auto &A, const auto &B) { return A.first > B.first; });
  printf("\n  dynamic-tie points (top %d of %zu):\n", Top, DynHot.size());
  for (size_t I = 0; I < DynHot.size() && I < static_cast<size_t>(Top); ++I) {
    const auto &[State, Term] = DynHot[I].second;
    const DynPointHits &D = Cov.Dyn.at(DynHot[I].second);
    printf("    %10llu  %s on %s ->",
           static_cast<unsigned long long>(D.Hits), stateName(State).c_str(),
           termName(Term).c_str());
    for (const auto &[Prod, N] : D.Chosen)
      printf(" %s x%llu", prodName(Prod).c_str(),
             static_cast<unsigned long long>(N));
    printf("\n");
  }

  printf("\n  instruction-table rows:\n");
  for (const auto &[Name, N] : Cov.RowHits)
    printf("    %-8s %10llu\n", Name.c_str(),
           static_cast<unsigned long long>(N));
  return Ok;
}

/// The profile half of the report: hot-path cost attribution from merged
/// gg-profile-v1 artifacts, optionally joined against merged coverage.
struct ProfileReport : Namer {
  ProfileSnapshot Prof;
  const CoverageSnapshot *Cov = nullptr; ///< null = no coverage join

  /// Renders a tick total: seconds under the cycles timebase, raw steps
  /// otherwise.
  std::string ticksStr(uint64_t Ticks) const {
    if (Prof.TicksPerSecond > 0)
      return strf("%10.4fs", Prof.seconds(Ticks));
    return strf("%10llu steps", static_cast<unsigned long long>(Ticks));
  }

  uint64_t phaseTicks(const char *Name) const {
    auto It = Prof.Phases.find(Name);
    return It == Prof.Phases.end() ? 0 : It->second.Ticks;
  }

  /// Sum of the instrumented (non-wall) GG phases — everything charged
  /// under cg.* except the cg.total wall scope.
  uint64_t attributedTicks() const {
    uint64_t T = 0;
    for (const auto &[Name, C] : Prof.Phases)
      if (Name.rfind("cg.", 0) == 0 && Name != "cg.total")
        T += C.Ticks;
    return T;
  }

  /// Percent of cg.total wall time the instrumented phases cover; -1
  /// when no cg.total was recorded (steps timebase, or no GG compile).
  /// Summed per-worker phase time can exceed wall with --threads > 1.
  double attributedPct() const {
    uint64_t Total = phaseTicks("cg.total");
    return Total ? 100.0 * double(attributedTicks()) / double(Total) : -1;
  }

  void print(int Top) const;

private:
  void printHotCells(const char *What, const std::map<int, ProfCell> &Cells,
                     int Top, bool IsState) const;
};

void ProfileReport::printHotCells(const char *What,
                                  const std::map<int, ProfCell> &Cells,
                                  int Top, bool IsState) const {
  uint64_t TotalTicks = 0, CovTotal = 0;
  for (const auto &[Id, C] : Cells)
    TotalTicks += C.Ticks;
  const std::map<int, uint64_t> *Hits = nullptr;
  if (Cov) {
    Hits = IsState ? &Cov->StateHits : &Cov->ProdHits;
    for (const auto &[Id, H] : *Hits)
      CovTotal += H;
  }

  std::vector<std::pair<uint64_t, int>> Hot;
  for (const auto &[Id, C] : Cells)
    Hot.push_back({C.Ticks, Id});
  std::sort(Hot.begin(), Hot.end(), [](const auto &A, const auto &B) {
    return A.first != B.first ? A.first > B.first : A.second < B.second;
  });

  printf("\n  hot %s (top %d of %zu, by attributed ticks):\n", What, Top,
         Hot.size());
  for (size_t I = 0; I < Hot.size() && I < static_cast<size_t>(Top); ++I) {
    int Id = Hot[I].second;
    const ProfCell &C = Cells.at(Id);
    double TickShare = TotalTicks ? 100.0 * double(C.Ticks) / TotalTicks : 0;
    std::string Line = strf(
        "    %s %6.2f%%  %8llu events  %6.1f ticks/event  %s",
        ticksStr(C.Ticks).c_str(), TickShare,
        static_cast<unsigned long long>(C.Events),
        C.Events ? double(C.Ticks) / double(C.Events) : 0.0,
        IsState ? stateName(Id).c_str() : prodName(Id).c_str());
    if (Hits) {
      auto It = Hits->find(Id);
      uint64_t H = It == Hits->end() ? 0 : It->second;
      double HitShare = CovTotal ? 100.0 * double(H) / CovTotal : 0;
      Line += strf("  [cov %llu hits]", static_cast<unsigned long long>(H));
      // Expensive per visit: its share of the cost is far above its
      // share of the traffic — a packing/direct-coding candidate.
      if (TickShare >= 1.0 && TickShare > 5.0 * HitShare)
        Line += "  HOT-BUT-RARELY-HIT";
    }
    printf("%s\n", Line.c_str());
  }
}

void ProfileReport::print(int Top) const {
  const char *TbName =
      Prof.Timebase == ProfileTimebase::Steps ? "steps" : "cycles";
  printf("\n== profile (%llu compiles, timebase %s, fingerprint %s%s)\n",
         static_cast<unsigned long long>(Prof.Compiles), TbName,
         Prof.Fingerprint.c_str(),
         Target ? "" : ", no matching target: raw ids");

  // Per-phase breakdown, largest first.
  std::vector<std::pair<uint64_t, std::string>> Phases;
  for (const auto &[Name, C] : Prof.Phases)
    Phases.push_back({C.Ticks, Name});
  std::sort(Phases.begin(), Phases.end(), [](const auto &A, const auto &B) {
    return A.first != B.first ? A.first > B.first : A.second < B.second;
  });
  uint64_t Total = phaseTicks("cg.total");
  printf("  phases:\n");
  for (const auto &[Ticks, Name] : Phases) {
    std::string Line =
        strf("    %-14s %s  %8llu events", Name.c_str(),
             ticksStr(Ticks).c_str(),
             static_cast<unsigned long long>(Prof.Phases.at(Name).Events));
    if (Total && Name != "cg.total" && Name.rfind("cg.", 0) == 0)
      Line += strf("  %5.1f%% of cg.total", 100.0 * double(Ticks) / Total);
    printf("%s\n", Line.c_str());
  }
  double Attr = attributedPct();
  if (Attr >= 0)
    printf("  attributed: %.1f%% of cg.total wall time is charged to named "
           "phases\n",
           Attr);

  printHotCells("states", Prof.States, Top, /*IsState=*/true);
  printHotCells("productions", Prof.Prods, Top, /*IsState=*/false);

  // Dyn-tie points by chooser cost.
  std::vector<std::pair<uint64_t, std::pair<int, int>>> DynHot;
  for (const auto &[Key, C] : Prof.Dyn)
    DynHot.push_back({C.Ticks, Key});
  std::sort(DynHot.begin(), DynHot.end(),
            [](const auto &A, const auto &B) { return A.first > B.first; });
  printf("\n  hot dyn-tie points (top %d of %zu, by chooser cost):\n", Top,
         DynHot.size());
  for (size_t I = 0; I < DynHot.size() && I < static_cast<size_t>(Top); ++I) {
    const auto &[State, Term] = DynHot[I].second;
    const ProfCell &C = Prof.Dyn.at(DynHot[I].second);
    printf("    %s  %8llu events  %s on %s\n",
           ticksStr(C.Ticks).c_str(),
           static_cast<unsigned long long>(C.Events),
           stateName(State).c_str(), termName(Term).c_str());
  }

  // Table regions: which RegionSize-state pages of the packed tables are
  // hot — the input the open-item-1 table packing work needs.
  std::map<int, ProfCell> Regions = Prof.regions();
  uint64_t RegionTotal = 0;
  for (const auto &[Id, C] : Regions)
    RegionTotal += C.Ticks;
  std::vector<std::pair<uint64_t, int>> HotRegions;
  for (const auto &[Id, C] : Regions)
    HotRegions.push_back({C.Ticks, Id});
  std::sort(HotRegions.begin(), HotRegions.end(),
            [](const auto &A, const auto &B) {
              return A.first != B.first ? A.first > B.first
                                        : A.second < B.second;
            });
  printf("\n  hot table regions (%llu states each, top %d of %zu):\n",
         static_cast<unsigned long long>(ProfileSnapshot::RegionSize), Top,
         HotRegions.size());
  for (size_t I = 0; I < HotRegions.size() && I < static_cast<size_t>(Top);
       ++I) {
    int Id = HotRegions[I].second;
    const ProfCell &C = Regions.at(Id);
    printf("    states %4llu-%-4llu %s  %6.2f%%  %8llu events\n",
           static_cast<unsigned long long>(Id * ProfileSnapshot::RegionSize),
           static_cast<unsigned long long>((Id + 1) *
                                               ProfileSnapshot::RegionSize -
                                           1),
           ticksStr(C.Ticks).c_str(),
           RegionTotal ? 100.0 * double(C.Ticks) / RegionTotal : 0.0,
           static_cast<unsigned long long>(C.Events));
  }
}

/// One request's spans joined from Chrome trace events, keyed by the
/// "req" arg the server stamps on every span in the request's scope.
struct TraceRequest {
  uint64_t Id = 0;
  double AdmitTs = -1;  ///< server.admit start (us); -1 = not seen
  double StartTs = -1;  ///< server.request start (us); -1 = never dispatched
  double TotalUs = 0;   ///< server.request duration
  int64_t Gen = -1;     ///< serving table generation (span arg)
  int64_t Status = -1;  ///< wire ResponseStatus (span arg)
  std::map<std::string, double> SpanUs;  ///< cg.*/match.* name -> summed dur
  std::map<std::string, double> FnPhaseUs; ///< cg.function phase args

  /// Queue wait reconstructed from the admission-to-dispatch gap; the
  /// two spans live on different threads, but both timestamps come from
  /// the recorder's one clock.
  double queueWaitMs() const {
    if (AdmitTs >= 0 && StartTs >= AdmitTs)
      return (StartTs - AdmitTs) / 1000.0;
    return 0;
  }
};

/// The --trace half of the report: per-request timelines from however
/// many trace files the incident left behind (server + clients merge
/// fine — only spans tagged with a request id participate).
struct TraceReport {
  std::map<uint64_t, TraceRequest> Requests;
  size_t Events = 0; ///< all events ingested
  size_t Tagged = 0; ///< events carrying a "req" arg

  void ingest(const JsonValue &Root) {
    for (const JsonValue &E : Root.Arr) {
      ++Events;
      const JsonValue *Name = E.find("name");
      const JsonValue *Args = E.find("args");
      if (!Name || !Args)
        continue;
      const JsonValue *Req = Args->find("req");
      if (!Req || Req->K != JsonValue::Number)
        continue;
      ++Tagged;
      TraceRequest &R = Requests[static_cast<uint64_t>(Req->Num)];
      R.Id = static_cast<uint64_t>(Req->Num);
      double Ts = E.numberOr("ts"), Dur = E.numberOr("dur");
      const std::string &N = Name->Str;
      if (N == "server.admit") {
        // Keep the earliest admission: a shed-then-retried id admits
        // more than once, and queue wait is measured from the first.
        if (R.AdmitTs < 0 || Ts < R.AdmitTs)
          R.AdmitTs = Ts;
      } else if (N == "server.request") {
        R.StartTs = Ts;
        R.TotalUs = Dur;
        if (const JsonValue *G = Args->find("gen"))
          R.Gen = static_cast<int64_t>(G->Num);
        if (const JsonValue *S = Args->find("status"))
          R.Status = static_cast<int64_t>(S->Num);
      } else if (N.rfind("cg.function ", 0) == 0) {
        // A wrapper; its cg.* args are per-phase self times in ns.
        for (const auto &[Key, V] : Args->Obj)
          if (Key.rfind("cg.", 0) == 0)
            R.FnPhaseUs[Key] += V.Num / 1000;
      } else if (N.rfind("cg.", 0) == 0 || N.rfind("match.", 0) == 0) {
        R.SpanUs[N] += Dur;
      }
    }
  }

  /// Prints the report; returns false when the queue-wait gate fires.
  bool print(int Slowest, double FailQueueP99Ms) const;
};

bool TraceReport::print(int Slowest, double FailQueueP99Ms) const {
  std::vector<const TraceRequest *> Served;
  size_t AdmitOnly = 0;
  for (const auto &[Id, R] : Requests) {
    if (R.StartTs >= 0)
      Served.push_back(&R);
    else
      ++AdmitOnly; // admitted (or shed) but never dispatched to a worker
  }
  printf("\n== trace (%zu events, %zu request-tagged, %zu requests: "
         "%zu served, %zu admitted-only)\n",
         Events, Tagged, Requests.size(), Served.size(), AdmitOnly);
  if (Served.empty())
    return FailQueueP99Ms < 0;

  auto Pctl = [](std::vector<double> V, double P) {
    std::sort(V.begin(), V.end());
    return V[static_cast<size_t>(P * (V.size() - 1))];
  };
  std::vector<double> Waits, Totals;
  for (const TraceRequest *R : Served) {
    Waits.push_back(R->queueWaitMs());
    Totals.push_back(R->TotalUs / 1000.0);
  }
  double WaitP99 = Pctl(Waits, 0.99);
  printf("  queue wait   p50 %8.2fms  p99 %8.2fms\n", Pctl(Waits, 0.50),
         WaitP99);
  printf("  service time p50 %8.2fms  p99 %8.2fms  (server.request)\n",
         Pctl(Totals, 0.50), Pctl(Totals, 0.99));

  // The N slowest end-to-end requests, each with where the time went:
  // queueing, or which phase of the compile.
  std::sort(Served.begin(), Served.end(),
            [](const TraceRequest *A, const TraceRequest *B) {
              return A->TotalUs != B->TotalUs ? A->TotalUs > B->TotalUs
                                              : A->Id < B->Id;
            });
  printf("  slowest %d:\n", Slowest);
  for (size_t I = 0;
       I < Served.size() && I < static_cast<size_t>(Slowest); ++I) {
    const TraceRequest &R = *Served[I];
    const char *St =
        R.Status >= 0 && R.Status <= 6
            ? responseStatusName(static_cast<ResponseStatus>(R.Status))
            : "?";
    std::string Line =
        strf("    req %-12llu gen %-3lld %-13s queue %8.2fms  "
             "total %8.2fms",
             static_cast<unsigned long long>(R.Id),
             static_cast<long long>(R.Gen), St, R.queueWaitMs(),
             R.TotalUs / 1000.0);
    // Phase breakdown, largest first. cg.compile wraps the others, and a
    // span inside a function (cg.fallback) is in its args: count neither.
    std::vector<std::pair<double, std::string>> Phases;
    for (const auto &[Name, Us] : R.FnPhaseUs)
      Phases.push_back({Us, Name});
    for (const auto &[Name, Us] : R.SpanUs)
      if (Name != "cg.compile" && !R.FnPhaseUs.count(Name))
        Phases.push_back({Us, Name});
    std::sort(Phases.begin(), Phases.end(),
              [](const auto &A, const auto &B) { return A.first > B.first; });
    for (size_t P = 0; P < Phases.size() && P < 3; ++P)
      Line += strf("  %s %.2fms", Phases[P].second.c_str(),
                   Phases[P].first / 1000.0);
    printf("%s\n", Line.c_str());
  }

  if (FailQueueP99Ms >= 0 && WaitP99 > FailQueueP99Ms) {
    fprintf(stderr,
            "gg-report: queue-wait p99 %.2fms exceeds the "
            "--fail-queue-wait-p99-ms=%.2f gate\n",
            WaitP99, FailQueueP99Ms);
    return false;
  }
  return true;
}

/// One log-histogram summed across gg-stats-v1 artifacts (the JSON shape
/// StatsRegistry::toJson emits: count/sum/min/max plus sparse buckets
/// keyed by their upper bound).
struct HistSummary {
  uint64_t Count = 0, Sum = 0, Min = UINT64_MAX, Max = 0;
  std::map<uint64_t, uint64_t> Buckets; ///< upper bound -> count

  void mergeFrom(const JsonValue &H) {
    uint64_t C = static_cast<uint64_t>(H.numberOr("count"));
    if (!C)
      return;
    Count += C;
    Sum += static_cast<uint64_t>(H.numberOr("sum"));
    Min = std::min(Min, static_cast<uint64_t>(H.numberOr("min")));
    Max = std::max(Max, static_cast<uint64_t>(H.numberOr("max")));
    if (const JsonValue *B = H.find("buckets"))
      for (const auto &[Upper, N] : B->Obj)
        Buckets[strtoull(Upper.c_str(), nullptr, 10)] +=
            static_cast<uint64_t>(N.Num);
  }

  double mean() const { return Count ? double(Sum) / double(Count) : 0; }

  /// "n=N mean=M max=X  <=1:..  <=4:.." on one line.
  std::string render(const char *Unit) const {
    std::string Line = strf("n=%llu mean=%.1f%s max=%llu%s",
                            static_cast<unsigned long long>(Count), mean(),
                            Unit, static_cast<unsigned long long>(Max), Unit);
    for (const auto &[Upper, N] : Buckets)
      Line += strf("  <=%llu:%llu", static_cast<unsigned long long>(Upper),
                   static_cast<unsigned long long>(N));
    return Line;
  }
};

void printUsage(FILE *To) {
  fprintf(To,
          "usage: gg-report [ARTIFACT.json ...] [--top=N] [--json=FILE]\n"
          "                 [--fail-on-dead-bridge] [--fail-on-zero-dyn]\n"
          "                 [--fail-production-coverage=PCT]\n"
          "                 [--profile] [--profile-json=FILE]\n"
          "                 [--fail-attribution-below=PCT]\n"
          "                 [--trace] [--slowest=N] "
          "[--fail-queue-wait-p99-ms=MS]\n"
          "\n"
          "Merges gg-coverage-v1 / gg-profile-v1 / gg-stats-v1 artifacts\n"
          "into one report and joins --trace-json Chrome traces into\n"
          "per-request timelines.\n");
}

/// Diagnostic + usage + the conventional usage-error exit code.
int usageError(const char *Diag) {
  fprintf(stderr, "gg-report: %s\n", Diag);
  printUsage(stderr);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> Artifacts;
  std::string MergedJsonPath, ProfileJsonPath;
  int Top = 10, Slowest = 5;
  bool FailDeadBridge = false, FailZeroDyn = false, WantProfile = false;
  bool WantTrace = false;
  double FailAttrBelow = -1;
  double FailProdCovBelow = -1, FailQueueP99Ms = -1;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A.rfind("--top=", 0) == 0)
      Top = atoi(A.c_str() + 6);
    else if (A.rfind("--json=", 0) == 0)
      MergedJsonPath = A.substr(7);
    else if (A == "--fail-on-dead-bridge")
      FailDeadBridge = true;
    else if (A == "--fail-on-zero-dyn")
      FailZeroDyn = true;
    else if (A.rfind("--fail-production-coverage=", 0) == 0)
      FailProdCovBelow = atof(A.c_str() + 27);
    else if (A == "--profile")
      WantProfile = true;
    else if (A == "--trace")
      WantTrace = true;
    else if (A.rfind("--slowest=", 0) == 0)
      Slowest = atoi(A.c_str() + 10);
    else if (A.rfind("--fail-queue-wait-p99-ms=", 0) == 0)
      FailQueueP99Ms = atof(A.c_str() + 25);
    else if (A.rfind("--profile-json=", 0) == 0)
      ProfileJsonPath = A.substr(15);
    else if (A.rfind("--fail-attribution-below=", 0) == 0)
      FailAttrBelow = atof(A.c_str() + 25);
    else if (A == "--help" || A == "-h") {
      printUsage(stdout);
      return 0;
    } else if (A[0] == '-')
      return usageError(strf("unknown option \"%s\"", A.c_str()).c_str());
    else
      Artifacts.push_back(A);
  }

  // An empty invocation has nothing to do: say so instead of silently
  // exiting 0 (which read as "everything passed" in scripts).
  if (Artifacts.empty())
    return usageError("no artifacts given");

  bool Ok = true;

  // Merge the coverage and profile artifacts and sum phase times from
  // stats artifacts.
  CoverageSnapshot Merged;
  ProfileSnapshot MergedProf;
  bool HaveCov = false, HaveProf = false;
  std::map<std::string, double> PhaseSeconds;
  std::map<std::string, uint64_t> StatCounters;
  std::map<std::string, HistSummary> StatHists;
  int StatsFiles = 0;
  TraceReport Traces;
  int TraceFiles = 0;
  for (const std::string &Path : Artifacts) {
    std::string Text, Err;
    JsonValue V;
    if (!readFile(Path, Text) || !parseJson(Text, V, Err)) {
      if (!Err.empty())
        fprintf(stderr, "gg-report: %s: %s\n", Path.c_str(), Err.c_str());
      return 1;
    }
    // A bare array is a Chrome trace (--trace-json writes no schema key
    // because trace viewers want the raw event array).
    if (V.K == JsonValue::Array) {
      ++TraceFiles;
      Traces.ingest(V);
      continue;
    }
    const JsonValue *Schema = V.find("schema");
    std::string Kind = Schema ? Schema->Str : "";
    if (Kind == "gg-coverage-v1") {
      CoverageSnapshot S;
      if (!S.parse(V, Err) || (HaveCov && !Merged.merge(S, Err))) {
        fprintf(stderr, "gg-report: %s: %s\n", Path.c_str(), Err.c_str());
        return 1;
      }
      if (!HaveCov)
        Merged = std::move(S);
      HaveCov = true;
    } else if (Kind == "gg-profile-v1") {
      ProfileSnapshot S;
      if (!S.parse(V, Err) || (HaveProf && !MergedProf.merge(S, Err))) {
        fprintf(stderr, "gg-report: %s: %s\n", Path.c_str(), Err.c_str());
        return 1;
      }
      if (!HaveProf)
        MergedProf = std::move(S);
      HaveProf = true;
    } else if (Kind == "gg-stats-v1") {
      ++StatsFiles;
      if (const JsonValue *Vals = V.find("values"))
        for (const auto &[Name, Val] : Vals->Obj)
          if (Name.find("seconds") != std::string::npos)
            PhaseSeconds[Name] += Val.Num;
      if (const JsonValue *Cs = V.find("counters"))
        for (const auto &[Name, Val] : Cs->Obj)
          StatCounters[Name] += static_cast<uint64_t>(Val.Num);
      if (const JsonValue *Hs = V.find("histograms"))
        for (const auto &[Name, HV] : Hs->Obj)
          StatHists[Name].mergeFrom(HV);
    } else {
      fprintf(stderr, "gg-report: %s: unrecognized schema \"%s\"\n",
              Path.c_str(), Kind.c_str());
      return 1;
    }
  }

  // Rebuild the target once to name ids in both report halves — only
  // trusted when an artifact was produced by a grammar/tables identical
  // to what we just built.
  std::unique_ptr<VaxTarget> Target;
  std::string TargetFp;
  if (HaveCov || HaveProf) {
    std::string Err;
    Target = VaxTarget::create(Err);
    if (Target)
      TargetFp = VaxTarget::fingerprint(Target->grammar(), Target->packed());
  }

  if (HaveCov) {
    CoverageReport Report;
    Report.Cov = std::move(Merged);
    if (Target && TargetFp == Report.Cov.Fingerprint)
      Report.Target = Target.get();
    if (!Report.print(Top, FailDeadBridge, FailZeroDyn))
      Ok = false;
    if (FailProdCovBelow >= 0) {
      // The production-coverage gate (docs/fuzzing.md): every production
      // the pipeline's tie defaults can reach must have fired. The
      // denominator excludes the statically and dynamically shadowed
      // productions GrammarWalk proves unreachable — a 100% gate is
      // meaningful only against what a parse can actually reduce.
      if (!Report.Target) {
        fprintf(stderr,
                "gg-report: --fail-production-coverage needs a matching "
                "target (artifact fingerprint differs from the freshly "
                "built grammar/tables)\n");
        Ok = false;
      } else {
        GrammarWalk Walk(Report.Target->matcher().driver());
        std::vector<char> Excluded(Report.Cov.NumProds, 0);
        for (int P : Walk.shadowedProductions())
          Excluded[P] = 1;
        for (int P : Walk.dynamicallyShadowedProductions())
          Excluded[P] = 1;
        size_t Reachable = 0, Hit = 0;
        std::vector<int> Missed;
        for (uint64_t Id = 0; Id < Report.Cov.NumProds; ++Id) {
          if (Excluded[Id])
            continue;
          ++Reachable;
          auto It = Report.Cov.ProdHits.find(static_cast<int>(Id));
          if (It != Report.Cov.ProdHits.end() && It->second)
            ++Hit;
          else
            Missed.push_back(static_cast<int>(Id));
        }
        const double Pct = Reachable ? 100.0 * double(Hit) / double(Reachable)
                                     : 100.0;
        printf("\n  production coverage: %zu/%zu reachable (%.1f%%; %zu "
               "shadowed productions excluded)\n",
               Hit, Reachable, Pct,
               Walk.shadowedProductions().size() +
                   Walk.dynamicallyShadowedProductions().size());
        if (Pct < FailProdCovBelow) {
          fprintf(stderr,
                  "gg-report: reachable-production coverage %.1f%% is below "
                  "the --fail-production-coverage=%.1f%% gate (%zu "
                  "missed)\n",
                  Pct, FailProdCovBelow, Missed.size());
          for (size_t I = 0; I < Missed.size() && I < 16; ++I)
            fprintf(stderr, "  p%d %s\n", Missed[I],
                    renderProduction(Report.Target->grammar(),
                                     Report.Target->grammar().prod(Missed[I]))
                        .c_str());
          Ok = false;
        }
      }
    }
    if (!MergedJsonPath.empty()) {
      std::ofstream Out(MergedJsonPath);
      if (!Out) {
        fprintf(stderr, "gg-report: cannot write %s\n",
                MergedJsonPath.c_str());
        return 1;
      }
      Out << Report.Cov.toJson() << "\n";
    }
    Merged = std::move(Report.Cov); // keep for the profile coverage join
  } else if (FailDeadBridge || FailZeroDyn || FailProdCovBelow >= 0 ||
             !MergedJsonPath.empty()) {
    fprintf(stderr, "gg-report: --fail-on-dead-bridge, --fail-on-zero-dyn, "
                    "--fail-production-coverage and --json need at least "
                    "one gg-coverage-v1 artifact (none of the given files "
                    "had that schema)\n");
    return 1;
  }

  if (WantProfile && !HaveProf) {
    fprintf(stderr, "gg-report: --profile needs at least one gg-profile-v1 "
                    "artifact (none of the given files had that schema)\n");
    return 1;
  }
  if (HaveProf) {
    ProfileReport Report;
    Report.Prof = std::move(MergedProf);
    if (Target && TargetFp == Report.Prof.Fingerprint)
      Report.Target = Target.get();
    if (HaveCov)
      Report.Cov = &Merged;
    Report.print(Top);
    if (FailAttrBelow >= 0) {
      double Attr = Report.attributedPct();
      if (Attr < FailAttrBelow) {
        fprintf(stderr,
                "gg-report: attributed phase time %.1f%% of cg.total is "
                "below the --fail-attribution-below=%.1f%% gate\n",
                Attr, FailAttrBelow);
        Ok = false;
      }
    }
    if (!ProfileJsonPath.empty()) {
      std::ofstream Out(ProfileJsonPath);
      if (!Out) {
        fprintf(stderr, "gg-report: cannot write %s\n",
                ProfileJsonPath.c_str());
        return 1;
      }
      Out << Report.Prof.toJson() << "\n";
    }
  } else if (FailAttrBelow >= 0 || !ProfileJsonPath.empty()) {
    fprintf(stderr, "gg-report: --profile-json and --fail-attribution-below "
                    "need at least one gg-profile-v1 artifact\n");
    return 1;
  }

  if (WantTrace && !TraceFiles) {
    fprintf(stderr, "gg-report: --trace needs at least one Chrome trace "
                    "artifact (a --trace-json file; none of the given "
                    "files was a bare JSON array)\n");
    return 1;
  }
  if (TraceFiles) {
    if (!Traces.print(Slowest, FailQueueP99Ms))
      Ok = false;
  } else if (FailQueueP99Ms >= 0) {
    fprintf(stderr, "gg-report: --fail-queue-wait-p99-ms needs at least "
                    "one Chrome trace artifact\n");
    return 1;
  }

  if (StatsFiles) {
    double Total = 0;
    for (const auto &[Name, S] : PhaseSeconds)
      Total += S;
    printf("\n== phase times (%d stats artifacts)\n", StatsFiles);
    for (const auto &[Name, S] : PhaseSeconds)
      printf("  %-36s %10.4fs (%.1f%%)\n", Name.c_str(), S,
             Total > 0 ? 100.0 * S / Total : 0.0);
  }

  // Compile-server overload/lifecycle summary: only when an artifact
  // actually came from a server (--stats-json touches the schema keys, so
  // presence of server.requests is the discriminator).
  if (StatsFiles && StatCounters.count("server.requests")) {
    auto C = [&](const char *Name) -> uint64_t {
      auto It = StatCounters.find(Name);
      return It == StatCounters.end() ? 0 : It->second;
    };
    uint64_t Served = C("server.requests");
    uint64_t Shed = C("server.overloaded");
    uint64_t Offered = Served + Shed;
    printf("\n== server (%d stats artifacts)\n", StatsFiles);
    printf("  served %llu: %llu ok, %llu compile-error, %llu quarantined, "
           "%llu watchdog kills\n",
           static_cast<unsigned long long>(Served),
           static_cast<unsigned long long>(C("server.ok")),
           static_cast<unsigned long long>(C("server.compile_errors")),
           static_cast<unsigned long long>(C("server.quarantined")),
           static_cast<unsigned long long>(C("server.watchdog_kills")));
    printf("  shed %llu (%.1f%% of %llu offered): %llu queue-full, "
           "%llu shed-oldest, %llu queue-deadline, %llu admission-deadline, "
           "%llu draining\n",
           static_cast<unsigned long long>(Shed), pct(Shed, Offered),
           static_cast<unsigned long long>(Offered),
           static_cast<unsigned long long>(C("server.shed_queue_full")),
           static_cast<unsigned long long>(C("server.shed_oldest")),
           static_cast<unsigned long long>(C("server.shed_queue_deadline")),
           static_cast<unsigned long long>(
               C("server.shed_admission_deadline")),
           static_cast<unsigned long long>(C("server.shed_draining")));
    printf("  lifecycle: %llu drains, %llu reloads (%llu failed), "
           "%llu restarts, %llu connections\n",
           static_cast<unsigned long long>(C("server.drains")),
           static_cast<unsigned long long>(C("server.reloads")),
           static_cast<unsigned long long>(C("server.reload_failures")),
           static_cast<unsigned long long>(C("server.restarts")),
           static_cast<unsigned long long>(C("server.connections")));
    for (const char *Name :
         {"server.queue_depth", "server.queue_wait_ms", "server.request_ms"}) {
      auto It = StatHists.find(Name);
      if (It == StatHists.end() || !It->second.Count)
        continue;
      const char *Unit = strstr(Name, "_ms") ? "ms" : "";
      printf("  %-20s %s\n", Name + strlen("server."),
             It->second.render(Unit).c_str());
    }
  }

  return Ok ? 0 : 1;
}
