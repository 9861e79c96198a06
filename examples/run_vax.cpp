//===- run_vax.cpp - compile and execute on the VAX simulator -----------------===//
//
// Compiles a MiniC program with the table-driven backend (or the PCC
// baseline with --backend=pcc) and executes it on the VAX simulator,
// reporting program output, exit value and the simulator's cost counters.
//
//   run_vax FILE [--backend=gg|pcc] [--threads=N] [--compare]
//           [--fault=SPEC] [--stats-json=FILE] [--trace-json=FILE]
//           [--coverage-json=FILE] [--profile=off|instr[,cycles|,steps]]
//           [--profile-json=FILE]
//
// --threads=N compiles functions on N pool workers (0 = hardware
// concurrency); assembly and simulation results are identical at any
// thread count.
//
// With --compare, runs both backends and the IR interpreter and reports
// all three (the differential setup the test suite uses).
//
// --stats-json dumps the process-wide stats registry (per-phase seconds,
// matcher step/stack-depth distributions, table-constructor conflict
// counts, idiom/peephole/register telemetry) as one JSON object;
// --trace-json dumps Chrome trace_event JSON loadable in chrome://tracing;
// --coverage-json dumps the gg-coverage-v1 table-coverage artifact
// (per-production/state/dyn-point/instruction-row hits) for gg-report;
// --profile=/--profile-json= dump the gg-profile-v1 cost-attribution
// artifact (support/TableEvents.h) for gg-report --profile.
// "-" writes to stdout. These flags are shared with compile_minic
// (support/CliOptions.h).
//
// --fault=SPEC injects deterministic faults to exercise the degradation
// ladder (see support/FaultInject.h): e.g. --fault=drop-prod=mul_l,
// --fault=truncate-input=3, --fault=cap-regs=1, --fault=corrupt-table.
// Recovery events are reported on stderr and in the fault.*/cg.* stats.
//
//===----------------------------------------------------------------------===//

#include "cg/CodeGenerator.h"
#include "frontend/Parser.h"
#include "ir/Interp.h"
#include "pcc/PccCodeGen.h"
#include "support/CliOptions.h"
#include "support/ExitCodes.h"
#include "support/FaultInject.h"
#include "support/Phase.h"
#include "support/Stats.h"
#include "support/Trace.h"
#include "tablegen/Serialize.h"
#include "vaxsim/Simulator.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace gg;

static bool loadProgram(const std::string &Source, Program &Prog) {
  DiagnosticSink Diags;
  PhaseScope PS(Phase::Frontend);
  if (!compileMiniC(Source, Prog, Diags)) {
    fprintf(stderr, "%s", Diags.renderAll().c_str());
    return false;
  }
  return true;
}

int main(int argc, char **argv) {
  const char *File = nullptr;
  bool UsePcc = false, Compare = false;
  CodeGenOptions GGOpts;
  CommonDriverOptions Common;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    switch (parseCommonDriverOption(A, Common)) {
    case CliParse::Ok:
      continue;
    case CliParse::Bad:
      return ExitUsage;
    case CliParse::NotMine:
      break;
    }
    if (A == "--backend=pcc")
      UsePcc = true;
    else if (A == "--backend=gg")
      UsePcc = false;
    else if (A == "--compare")
      Compare = true;
    else
      File = argv[I];
  }
  if (!File) {
    fprintf(stderr, "usage: run_vax FILE [--backend=gg|pcc] [--compare] %s\n",
            commonDriverUsage());
    return ExitUsage;
  }
  if (Common.Threads >= 0)
    GGOpts.Parallel.Threads = Common.Threads;
  TelemetryDump Dump(Common);
  std::ifstream In(File);
  if (!In) {
    fprintf(stderr, "cannot open %s\n", File);
    return ExitCompileFailure;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  std::string Source = Buffer.str();

  std::string Err;
  std::unique_ptr<VaxTarget> Target = VaxTarget::create(Err);
  if (!Target) {
    // A description that fails to build is a fatal fault: no retry or
    // restart can help (support/ExitCodes.h).
    fprintf(stderr, "%s\n", Err.c_str());
    return ExitFatalFault;
  }

  // corrupt-table fault: round-trip the freshly built tables through the
  // serialized format with one body byte flipped, and show the hardened
  // loader rejecting the file. The in-memory tables stay authoritative, so
  // compilation proceeds normally afterwards.
  if (faultInject().config().CorruptTableByte != -1) {
    std::string Text =
        serializeTables(Target->grammar(), Target->build().Tables);
    int64_t Off = faultInject().corruptTableBody(Text, tableBodyOffset(Text));
    LRTables Loaded;
    DiagnosticSink LoadDiags;
    if (!deserializeTables(Text, Target->grammar(), Loaded, LoadDiags))
      fprintf(stderr,
              "table load rejected (byte %lld corrupted):\n%s"
              "continuing with the in-memory tables\n",
              (long long)Off, LoadDiags.renderAll().c_str());
    else
      fprintf(stderr, "table corruption at byte %lld went UNDETECTED\n",
              (long long)Off);
  }

  auto RunGG = [&](SimResult &R) -> bool {
    Program P;
    if (!loadProgram(Source, P))
      return false;
    GGCodeGenerator CG(*Target, GGOpts);
    std::string Asm;
    bool Ok = CG.compile(P, Asm, Err);
    // Recovery warnings (and unrecoverable errors) from the ladder.
    if (!CG.diagnostics().all().empty())
      fputs(CG.diagnostics().renderAll().c_str(), stderr);
    if (!Ok) {
      fprintf(stderr, "gg: %s\n", Err.c_str());
      return false;
    }
    R = assembleAndRun(Asm);
    return true;
  };
  auto RunPcc = [&](SimResult &R) -> bool {
    Program P;
    if (!loadProgram(Source, P))
      return false;
    PccCodeGenerator CG;
    std::string Asm;
    if (!CG.compile(P, Asm, Err)) {
      fprintf(stderr, "pcc: %s\n", Err.c_str());
      return false;
    }
    R = assembleAndRun(Asm);
    return true;
  };

  if (Compare) {
    Program P;
    if (!loadProgram(Source, P))
      return ExitCompileFailure;
    InterpResult Oracle = interpret(P);
    SimResult G, B;
    if (!RunGG(G) || !RunPcc(B))
      return ExitCompileFailure;
    printf("== interpreter: ret=%lld steps=%llu\n%s",
           (long long)Oracle.ReturnValue,
           (unsigned long long)Oracle.Steps, Oracle.Output.c_str());
    printf("== gg backend:  ret=%lld insts=%llu cycles=%llu%s\n%s",
           (long long)G.ReturnValue, (unsigned long long)G.Instructions,
           (unsigned long long)G.Cycles, G.Ok ? "" : " (FAILED)",
           G.Output.c_str());
    printf("== pcc backend: ret=%lld insts=%llu cycles=%llu%s\n%s",
           (long long)B.ReturnValue, (unsigned long long)B.Instructions,
           (unsigned long long)B.Cycles, B.Ok ? "" : " (FAILED)",
           B.Output.c_str());
    bool Agree = Oracle.Ok && G.Ok && B.Ok && Oracle.Output == G.Output &&
                 Oracle.Output == B.Output &&
                 Oracle.ReturnValue == G.ReturnValue &&
                 Oracle.ReturnValue == B.ReturnValue;
    printf("== %s\n", Agree ? "ALL ENGINES AGREE" : "MISMATCH");
    return Agree ? ExitOk : ExitCompileFailure;
  }

  SimResult R;
  if (!(UsePcc ? RunPcc(R) : RunGG(R)))
    return ExitCompileFailure;
  if (!R.Ok) {
    fprintf(stderr, "simulation failed: %s\n", R.Error.c_str());
    return ExitCompileFailure;
  }
  fputs(R.Output.c_str(), stdout);
  fprintf(stderr, "exit=%lld instructions=%llu cycles=%llu\n",
          (long long)R.ReturnValue, (unsigned long long)R.Instructions,
          (unsigned long long)R.Cycles);
  return ExitOk;
}
