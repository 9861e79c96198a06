//===- main.cpp - the repository benchmark --------------------------------===//
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--inject-delay-pct P] [--out-dir DIR]
//
// Workloads (each is an input population plus a traffic mix; every run
// measures both the single-shot and the served path on its population,
// weighted toward the path the workload exists for):
//
//   compile-large  seeded generateLargeProgram files (10 functions each),
//                  GG and PCC in interleaved serial passes: the paper's
//                  section 8 experiment. 3/4 of the time single-shot.
//   serve-small    small seeded programs (0-2 functions, 1-6 statements)
//                  sent by 2 closed-loop clients to an in-process Server
//                  with 2 workers and a CompileService. 3/4 served.
//   serve-reload   serve-small plus an in-band Reload frame before every
//                  500th request: the edit-reload-compile loop.
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (and writes the run's spans as a Chrome trace into --out-dir). The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --inject-delay-pct spins that share of the median compile
// (single-shot) or round trip (served) inside the timed path, from the
// benchmark's side only: the sensitivity self-check.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "tablegen/Serialize.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/resource.h>
#include <unistd.h>
#include <vector>

using namespace pb;

namespace {

struct Workload {
  const char *Name;
  Shape Inputs;
  size_t CorpusSize;
  double SingleShotShare; ///< of --seconds; the rest is served traffic
  int ReloadEvery;
};

const Workload Workloads[] = {
    {"compile-large", Shape::Large, 12, 0.7, 0},
    {"serve-small", Shape::Small, 256, 0.25, 0},
    {"serve-reload", Shape::Small, 256, 0.25, 500},
};

/// Largest share of the outside-timed compile span that its frontend and
/// code generator spans may leave unaccounted (Program and generator
/// construction and destruction).
constexpr double CompileUnaccountedTolerance = 0.05;

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void usage() {
  fprintf(stderr, "usage: perfbench --workload compile-large|serve-small|"
                  "serve-reload --seed N --seconds S --trace 0|1\n"
                  "                 [--inject-delay-pct P] [--out-dir DIR]\n");
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace

int main(int argc, char **argv) {
  std::string WorkloadName, OutDir = ".";
  uint64_t Seed = 0;
  double Seconds = 0, InjectPct = 0;
  int Trace = -1;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string Flag = argv[I];
    const char *V = argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload")
      WorkloadName = V;
    else if (Flag == "--seed")
      Seed = strtoull(V, &End, 10);
    else if (Flag == "--seconds")
      Seconds = strtod(V, &End);
    else if (Flag == "--trace")
      Trace = static_cast<int>(strtol(V, &End, 10));
    else if (Flag == "--inject-delay-pct")
      InjectPct = strtod(V, &End);
    else if (Flag == "--out-dir")
      OutDir = V;
    else {
      usage();
      return 2;
    }
    if (End && *End) {
      fprintf(stderr, "perfbench: bad value for %s: %s\n", Flag.c_str(), V);
      return 2;
    }
  }
  const Workload *W = nullptr;
  for (const Workload &Cand : Workloads)
    if (WorkloadName == Cand.Name)
      W = &Cand;
  if (!W || Seconds <= 0 || Seconds > 600 || (Trace != 0 && Trace != 1) ||
      InjectPct < 0 || InjectPct > 1000) {
    usage();
    return 2;
  }
  const bool TraceMode = Trace == 1;
  SpanLog Log;

  // Inputs, then the table layer: VaxTarget::create and the serializer
  // round trip, repeated so their medians are steady.
  Corpus C = makeCorpus(W->Inputs, W->CorpusSize, Seed);
  std::vector<double> BuildS, VerifyS;
  std::unique_ptr<gg::VaxTarget> Target;
  size_t TableBytes = 0;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    std::string Err;
    uint64_t T0 = nowNs();
    Target = gg::VaxTarget::create(Err);
    uint64_t T1 = nowNs();
    if (!Target) {
      fprintf(stderr, "perfbench: VaxTarget::create: %s\n", Err.c_str());
      return 1;
    }
    std::string Text =
        gg::serializeTables(Target->grammar(), Target->build().Tables);
    gg::LRTables Loaded;
    gg::DiagnosticSink D;
    bool Ok = gg::deserializeTables(Text, Target->grammar(), Loaded, D);
    uint64_t T2 = nowNs();
    if (!Ok) {
      fprintf(stderr, "perfbench: table round trip: %s\n",
              D.renderAll().c_str());
      return 1;
    }
    const double Scale = hostScale(referenceBurst());
    BuildS.push_back(seconds(T1 - T0) * Scale);
    VerifyS.push_back(seconds(T2 - T1) * Scale);
    TableBytes = Text.size();
  }

  std::string Why;
  if (!gateCorpus(C, *Target, Why)) {
    fprintf(stderr, "perfbench: correctness gate: %s\n", Why.c_str());
    return 1;
  }
  // Code quality, as exact counts normalized so that corpora drawn from
  // different seeds compare: GG's simulated cycles against PCC's on the
  // same programs, and GG's static instructions per KB of source.
  double Cycles = 0, PccCycles = 0, Insts = 0;
  for (const Input &In : C.Inputs) {
    Cycles += static_cast<double>(In.GGCycles);
    PccCycles += static_cast<double>(In.PccCycles);
    Insts += static_cast<double>(In.GGInsts);
  }

  SingleShotResult SR = runSingleShot(*Target, C, Seconds * W->SingleShotShare,
                                      TraceMode, InjectPct, Log);

  ServeConfig SC;
  SC.SocketPath = OutDir + "/serve-" + std::to_string(getpid()) + ".sock";
  SC.Seconds = Seconds * (1 - W->SingleShotShare);
  SC.ReloadEvery = W->ReloadEvery;
  SC.TraceMode = TraceMode;
  SC.InjectPct = InjectPct;
  ServeResult VR = runServed(C, SC, Log);

  const uint64_t Attempted = SR.Attempted + VR.Attempted;
  const uint64_t Failed = SR.Failed + VR.Failed;
  bool Correct = Failed == 0 && !SR.GGPassS.empty() && !VR.RttS.empty();

  const double KB = static_cast<double>(C.Bytes) / 1024.0;
  std::vector<double> Scales = SR.Scales;
  Scales.insert(Scales.end(), VR.Scales.begin(), VR.Scales.end());
  std::vector<double> Ratios;
  for (size_t I = 0; I < SR.GGPassS.size(); ++I)
    Ratios.push_back(SR.GGPassS[I] / SR.PccPassS[I]);
  const double SetupS =
      median(W->Inputs == Shape::Large ? BuildS : VR.SetupS);

  std::vector<Metric> Out;
  if (!TraceMode) {
    Out = {
        {"setup_s", SetupS, "s"},
        {"gg_compile_kb_per_s", KB / median(SR.GGPassS), "KB/s"},
        {"pcc_compile_kb_per_s", KB / median(SR.PccPassS), "KB/s"},
        {"gg_pcc_time_ratio", median(Ratios), "x"},
        {"gg_sim_cycles", Cycles / PccCycles, "x"},
        {"gg_asm_insts", Insts / KB, "insts/KB"},
        {"serve_req_per_s", median(VR.WindowReqPerS), "req/s"},
        {"serve_p50_ms", median(VR.WindowP50S) * 1e3, "ms"},
        {"serve_p99_ms", median(VR.WindowP99S) * 1e3, "ms"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    fprintf(stderr,
            "perfbench: %s seed %llu: %zu untraced passes, %zu served "
            "samples in %zu windows, host scale %.3f\n",
            W->Name, static_cast<unsigned long long>(Seed),
            SR.GGPassS.size(), VR.RttS.size(), VR.WindowP50S.size(),
            median(Scales));
  } else {
    std::map<std::string, SpanTotals> Spans = Log.totals();
    const gg::CodeGenStats &PS = SR.PassStats;
    const double PhasesS = SR.TransformS + SR.MatchS + SR.InstrGenS + SR.EmitS;
    const SpanTotals &GGSpan = Spans["compile.gg"], &PccSpan = Spans["compile.pcc"];
    const SpanTotals &Rtt = Spans["server.rtt"];
    // Layers add up. A compile's self time is what its frontend and code
    // generator spans leave unaccounted. A round trip's queue-wait, handler
    // and respond spans share its end points and the handler's, so they
    // tile it by construction; what can go wrong there is the join by
    // request id, which a misnested span shows.
    const double CompileGap =
        (GGSpan.SelfS + PccSpan.SelfS) / (GGSpan.TotalS + PccSpan.TotalS);
    const size_t Misnested = Log.misnested();
    if (CompileGap > CompileUnaccountedTolerance || Misnested) {
      fprintf(stderr,
              "perfbench: layers do not add up: compile %.3f%% (tolerance "
              "%.1f%%), %zu misnested spans\n",
              CompileGap * 100, CompileUnaccountedTolerance * 100, Misnested);
      Correct = false;
    }
    auto Overhead = [](const std::vector<double> &Traced,
                       const std::vector<double> &Untraced) {
      return (median(Traced) / median(Untraced) - 1) * 100;
    };
    auto Count = [](double V) { return V; };
    Out = {
        {"frontend.busy_s", SR.FrontendS, "s"},
        {"frontend.ns_per_byte", SR.FrontendS / SR.FrontendBytes * 1e9, "ns/B"},
        {"cg.busy_s", SR.CgS, "s"},
        {"cg.transform_s", SR.TransformS, "s"},
        {"cg.match_s", SR.MatchS, "s"},
        {"cg.instrgen_s", SR.InstrGenS, "s"},
        {"cg.emit_s", SR.EmitS, "s"},
        {"cg.unattributed_s", SR.CgS - PhasesS, "s"},
        {"cg.ns_per_token", SR.CgS / SR.Tokens * 1e9, "ns/token"},
        {"cg.trees", Count(PS.StatementTrees), "count"},
        {"cg.recovered_trees", Count(PS.RecoveredTrees), "count"},
        {"match.tokens", Count(PS.MatcherTokens), "count"},
        {"match.steps", Count(PS.MatcherSteps), "count"},
        {"match.steps_per_token",
         static_cast<double>(PS.MatcherSteps) / PS.MatcherTokens, "steps/token"},
        {"match.ns_per_step", SR.MatchS / SR.Steps * 1e9, "ns/step"},
        {"vax.instructions", Count(PS.Instructions), "count"},
        {"vax.asm_lines", Count(PS.AsmLines), "count"},
        {"vax.regs.spills", Count(PS.Regs.Spills), "count"},
        {"vax.idiom.binding", Count(PS.Idioms.BindingApplied), "count"},
        {"vax.idiom.range", Count(PS.Idioms.RangeApplied), "count"},
        {"pcc.busy_s", SR.PccS, "s"},
        {"pcc.ns_per_byte", SR.PccS / SR.PccBytes * 1e9, "ns/B"},
        {"tablegen.build_s", median(BuildS), "s"},
        {"tablegen.verify_s", median(VerifyS), "s"},
        {"tablegen.states", Count(Target->build().Tables.NumStates), "count"},
        {"tablegen.table_bytes", Count(TableBytes), "B"},
        {"server.rtt_s", Rtt.meanS(), "s"},
        {"server.queue_wait_s", Spans["server.queue_wait"].meanSelfS(), "s"},
        {"server.handler_s", Spans["server.handler"].meanS(), "s"},
        {"server.respond_s", Spans["server.respond"].meanSelfS(), "s"},
        {"server.handler_ns_per_byte", VR.HandlerS / VR.HandlerBytes * 1e9,
         "ns/B"},
        {"frame.encode_s", Spans["frame.encode"].meanS(), "s"},
        {"frame.decode_s", Spans["frame.decode"].meanS(), "s"},
        {"server.reloads", Count(VR.Reloads), "count"},
        {"server.reload_s", VR.Reloads ? VR.ReloadS / VR.Reloads : 0, "s"},
        {"server.non_ok", Count(VR.NonOk), "count"},
        {"failed_ratio",
         Attempted ? static_cast<double>(Failed) / Attempted : 1, "fraction"},
        {"trace.compile_overhead_pct", Overhead(SR.TracedGGPassS, SR.GGPassS),
         "%"},
        {"trace.serve_overhead_pct", Overhead(VR.TracedRttS, VR.RttS), "%"},
        {"layers.compile_unaccounted_pct", CompileGap * 100, "%"},
        {"host.scale", median(Scales), "x"},
    };
    std::string SpanPath = OutDir + "/spans-" + W->Name + "-seed" +
                           std::to_string(Seed) + ".json";
    if (!Log.writeChromeTrace(SpanPath))
      fprintf(stderr, "perfbench: cannot write %s\n", SpanPath.c_str());
  }

  std::string Json = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(Attempted) +
                     ", \"failed\": " + std::to_string(Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I < Out.size(); ++I)
    Json += (I ? ", \"" : "\"") + Out[I].Name + "\": {\"value\": " +
            jsonNumber(Out[I].Value) + ", \"unit\": \"" + Out[I].Unit + "\"}";
  Json += "}}";
  printf("%s\n", Json.c_str());
  return 0;
}
