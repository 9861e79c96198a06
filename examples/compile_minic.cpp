//===- compile_minic.cpp - cc-like driver ------------------------------------===//
//
// Compiles a MiniC source file to VAX assembly on stdout.
//
//   compile_minic FILE [--backend=gg|pcc] [--threads=N] [--trace]
//                 [--no-idioms] [--no-reverse-ops] [--no-recover] [--stats]
//                 [--explain] [--fault=SPEC] [--stats-json=FILE]
//                 [--trace-json=FILE] [--coverage-json=FILE]
//                 [--profile=off|instr[,cycles|,steps]]
//                 [--profile-json=FILE]
//   compile_minic --gen-corpus=N [--threads=N] [--coverage-json=FILE] ...
//   compile_minic --serve[=SOCKET] [--serve-workers=N]
//                 [--serve-deadline-ms=N] [--serve-max-steps=N]
//                 [--serve-max-arena=BYTES] [--serve-grace-ms=N]
//                 [--serve-allow-crash] [--serve-generation=N]
//                 [--serve-queue-depth=N] [--serve-queue-deadline-ms=N]
//                 [--serve-shed-policy=reject-newest|shed-oldest]
//                 [--serve-drain-ms=N]
//
// --threads=N compiles functions on N pool workers (0 = hardware
// concurrency); the output is byte-identical at any thread count.
//
// --explain annotates each emitted instruction with the grammar
// production whose reduction generated it. --stats-json / --trace-json /
// --coverage-json dump the stats registry, Chrome trace_event spans and
// the gg-coverage-v1 table-coverage artifact; "-" means stdout, the same
// contract as run_vax (support/CliOptions.h — it used to mean stderr
// here). --profile=/--profile-json= arm the hot-path cost profiler and
// dump its gg-profile-v1 artifact for gg-report --profile
// (support/TableEvents.h; docs/observability.md).
//
// --gen-corpus=N replaces FILE: it generates the N-seed deterministic
// program corpus the differential tests use (seed 0xD1FF0000+i) and
// compiles each program with the gg backend, cycling the worker count
// through 1/2/4/8 unless --threads pins it. Structurally identical
// seeds (byte-identical generated source) are deduplicated and the
// distinct-program count is reported. No assembly is printed; the
// mode exists to accumulate telemetry (notably --coverage-json) over a
// realistic program population in one process.
//
// --fault=SPEC injects deterministic faults (see support/FaultInject.h);
// --no-recover disables the degradation ladder so the first syntactic
// block fails the module (the pre-ladder behavior).
//
// --serve runs the fault-isolated compile daemon (docs/server.md): load
// the tables once (self-verified through the v2 serializer), then serve
// framed compile requests over stdin/stdout — or over a Unix socket with
// --serve=PATH — dispatching onto the work-stealing pool with
// per-request deadlines, step/memory budgets and a watchdog. The
// supervisor loop lives in scripts/serve.sh. --serve-queue-depth bounds
// the admission queue (excess load is shed with Overloaded frames per
// --serve-shed-policy); SIGTERM drains gracefully and SIGHUP hot-reloads
// the table image under a fresh generation (--serve-drain-ms bounds
// both waits). Status frames (gg-top, docs/observability.md) answer with
// a gg-status-v1 snapshot; --flight-json=FILE arms the always-on flight
// recorder, dumped on crash, watchdog kill, SIGQUIT and normal exit.
//
// Exit codes (support/ExitCodes.h): 0 success, 1 recoverable compile
// failure, 2 usage error, 3 fatal fault (broken description/tables —
// restarting will not help).
//
//===----------------------------------------------------------------------===//

#include "cg/CodeGenerator.h"
#include "cg/CompileService.h"
#include "frontend/Parser.h"
#include "pcc/PccCodeGen.h"
#include "support/CliOptions.h"
#include "support/ExitCodes.h"
#include "support/Phase.h"
#include "support/Server.h"
#include "support/Stats.h"
#include "support/Strings.h"
#include "workload/ProgramGen.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

using namespace gg;

static void printGGStats(const CodeGenStats &S) {
  fprintf(stderr,
          "# gg: %zu trees, %zu instructions, %zu lines\n"
          "# phases: transform %.4fs, match %.4fs, instr-gen %.4fs, "
          "emit %.4fs\n"
          "# idioms: %u binding, %u range, %u cc-elide, %u pseudo\n"
          "# registers: %u allocations, %u spills, %u unspills\n",
          S.StatementTrees, S.Instructions, S.AsmLines, S.TransformSeconds,
          S.MatchSeconds, S.InstrGenSeconds, S.EmitSeconds,
          S.Idioms.BindingApplied, S.Idioms.RangeApplied,
          S.Idioms.CCTestsElided, S.Idioms.PseudoExpansions,
          S.Regs.Allocations, S.Regs.Spills, S.Regs.Unspills);
  if (S.Parallel.Workers > 1)
    fprintf(stderr, "# parallel: %llu workers, %llu tasks, %llu steals\n",
            static_cast<unsigned long long>(S.Parallel.Workers),
            static_cast<unsigned long long>(S.Parallel.Tasks),
            static_cast<unsigned long long>(S.Parallel.Steals));
}

/// Compiles the differential-test corpus (same seeds and sizes as
/// tests/DifferentialTest.cpp) with the gg backend, discarding the
/// assembly. Worker counts cycle 1/2/4/8 across cases unless the user
/// pinned --threads; the telemetry a TelemetryDump writes afterwards
/// covers the whole population.
static int runCorpus(int Cases, const VaxTarget &Target, CodeGenOptions Opts,
                     int PinnedThreads) {
  static const int ThreadCycle[] = {1, 2, 4, 8};
  // Structural dedup: the generator's identifiers are deterministic
  // counters, so two seeds that collapse to the same program shape
  // produce byte-identical source. Compiling a duplicate would double-
  // count its telemetry and misrepresent corpus breadth.
  std::set<std::string> Seen;
  int Duplicates = 0;
  for (int Case = 0; Case < Cases; ++Case) {
    GenOptions GOpts;
    GOpts.Functions = 4 + Case % 3;
    GOpts.StmtsPerFunction = 6 + Case % 5;
    std::string Source = generateProgram(0xD1FF0000u + Case, GOpts);
    if (!Seen.insert(Source).second) {
      ++Duplicates;
      continue;
    }

    Program Prog;
    DiagnosticSink Diags;
    {
      PhaseScope PS(Phase::Frontend);
      if (!compileMiniC(Source, Prog, Diags)) {
        fprintf(stderr, "gen-corpus case %d: frontend rejected its own "
                        "program:\n%s",
                Case, Diags.renderAll().c_str());
        return ExitCompileFailure;
      }
    }
    Opts.Parallel.Threads =
        PinnedThreads >= 0 ? PinnedThreads : ThreadCycle[Case % 4];
    GGCodeGenerator CG(Target, Opts);
    std::string Asm, Err;
    if (!CG.compile(Prog, Asm, Err)) {
      fprintf(stderr, "gen-corpus case %d: %s\n", Case, Err.c_str());
      return ExitCompileFailure;
    }
  }
  fprintf(stderr,
          "gen-corpus: compiled %zu distinct programs (%d seeds, %d "
          "structural duplicates skipped)\n",
          Seen.size(), Cases, Duplicates);
  return ExitOk;
}

/// Parses the integer value of `--NAME=N` into \p Out; reports and
/// returns false on garbage. \p Arg must already match the prefix.
static bool serveIntValue(const std::string &Arg, size_t PrefixLen,
                          int64_t Min, int64_t Max, uint64_t &Out) {
  std::optional<int64_t> N = parseInt(
      std::string_view(Arg).substr(PrefixLen));
  if (!N || *N < Min || *N > Max) {
    fprintf(stderr, "bad value in %s\n", Arg.c_str());
    return false;
  }
  Out = static_cast<uint64_t>(*N);
  return true;
}

int main(int argc, char **argv) {
  const char *File = nullptr;
  bool UsePcc = false, Trace = false, Stats = false;
  bool ServeMode = false;
  std::string ServeSocket;
  ServerOptions SOpts;
  int CorpusCases = -1;
  CodeGenOptions Opts;
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
    else if (A == "--trace")
      Trace = true;
    else if (A == "--stats")
      Stats = true;
    else if (A == "--explain")
      Opts.Explain = true;
    else if (A == "--no-recover")
      Opts.Recover = false;
    else if (A == "--no-idioms") {
      Opts.Idioms.BindingIdioms = false;
      Opts.Idioms.RangeIdioms = false;
      Opts.Idioms.CCTracking = false;
    } else if (A == "--no-reverse-ops")
      Opts.Transform.ReverseOps = false;
    else if (A.rfind("--gen-corpus=", 0) == 0) {
      char *End = nullptr;
      long N = strtol(A.c_str() + 13, &End, 10);
      if (!End || *End || N < 1 || N > 100000) {
        fprintf(stderr, "bad --gen-corpus value: %s\n", A.c_str());
        return ExitUsage;
      }
      CorpusCases = static_cast<int>(N);
    } else if (A == "--serve") {
      ServeMode = true;
    } else if (A.rfind("--serve=", 0) == 0) {
      ServeMode = true;
      ServeSocket = A.substr(8);
      if (ServeSocket.empty()) {
        fprintf(stderr, "--serve= requires a socket path\n");
        return ExitUsage;
      }
    } else if (A.rfind("--serve-workers=", 0) == 0) {
      uint64_t V;
      if (!serveIntValue(A, 16, 0, 1024, V))
        return ExitUsage;
      SOpts.Workers = static_cast<int>(V);
    } else if (A.rfind("--serve-deadline-ms=", 0) == 0) {
      if (!serveIntValue(A, 20, 0, 86400000, SOpts.DefaultDeadlineMs))
        return ExitUsage;
    } else if (A.rfind("--serve-max-steps=", 0) == 0) {
      if (!serveIntValue(A, 18, 0, INT64_MAX, SOpts.DefaultMaxSteps))
        return ExitUsage;
    } else if (A.rfind("--serve-max-arena=", 0) == 0) {
      if (!serveIntValue(A, 18, 0, INT64_MAX, SOpts.DefaultMaxArenaBytes))
        return ExitUsage;
    } else if (A.rfind("--serve-grace-ms=", 0) == 0) {
      if (!serveIntValue(A, 17, 1, 600000, SOpts.WatchdogGraceMs))
        return ExitUsage;
    } else if (A == "--serve-allow-crash") {
      SOpts.AllowCrash = true;
    } else if (A.rfind("--serve-generation=", 0) == 0) {
      if (!serveIntValue(A, 19, 0, INT64_MAX, SOpts.Generation))
        return ExitUsage;
    } else if (A.rfind("--serve-queue-depth=", 0) == 0) {
      uint64_t V;
      if (!serveIntValue(A, sizeof("--serve-queue-depth=") - 1, 0, 1u << 20,
                         V))
        return ExitUsage;
      SOpts.MaxQueueDepth = static_cast<size_t>(V);
    } else if (A.rfind("--serve-queue-deadline-ms=", 0) == 0) {
      if (!serveIntValue(A, sizeof("--serve-queue-deadline-ms=") - 1, 0,
                         86400000, SOpts.QueueDeadlineMs))
        return ExitUsage;
    } else if (A == "--serve-shed-policy=reject-newest") {
      SOpts.Shed = ShedPolicy::RejectNewest;
    } else if (A == "--serve-shed-policy=shed-oldest") {
      SOpts.Shed = ShedPolicy::ShedOldest;
    } else if (A.rfind("--serve-shed-policy=", 0) == 0) {
      fprintf(stderr,
              "bad --serve-shed-policy (want reject-newest or shed-oldest)"
              ": %s\n",
              A.c_str());
      return ExitUsage;
    } else if (A.rfind("--serve-drain-ms=", 0) == 0) {
      if (!serveIntValue(A, sizeof("--serve-drain-ms=") - 1, 1, 86400000,
                         SOpts.DrainDeadlineMs))
        return ExitUsage;
    } else if (A[0] == '-') {
      fprintf(stderr, "unknown option %s\n", A.c_str());
      return ExitUsage;
    } else
      File = argv[I];
  }
  if (!File && CorpusCases < 0 && !ServeMode) {
    fprintf(stderr,
            "usage: compile_minic FILE [--backend=gg|pcc] [--trace] "
            "[--no-idioms] [--no-reverse-ops] [--no-recover] [--stats] "
            "[--explain] %s\n"
            "       compile_minic --gen-corpus=N [common options]\n"
            "       compile_minic --serve[=SOCKET] [--serve-workers=N] "
            "[--serve-deadline-ms=N] [--serve-max-steps=N] "
            "[--serve-max-arena=BYTES] [--serve-grace-ms=N] "
            "[--serve-allow-crash] [--serve-generation=N] "
            "[--serve-queue-depth=N] [--serve-queue-deadline-ms=N] "
            "[--serve-shed-policy=reject-newest|shed-oldest] "
            "[--serve-drain-ms=N]\n",
            commonDriverUsage());
    return ExitUsage;
  }
  TelemetryDump Dump(Common);
  Opts.Trace = Trace;
  if (Common.Threads >= 0)
    Opts.Parallel.Threads = Common.Threads;

  if (ServeMode) {
    // Daemon mode: build + self-verify the shared tables once, then serve
    // until Shutdown/EOF. A startup failure (broken description, the
    // corrupt-table fault) is fatal: restarting cannot fix it, and
    // scripts/serve.sh gives up instead of respawning.
    std::string Err;
    std::unique_ptr<CompileService> Svc = CompileService::create(Err, Opts);
    if (!Svc) {
      fprintf(stderr, "serve: %s\n", Err.c_str());
      return ExitFatalFault;
    }
    Server S(Svc->handler(), SOpts);
    S.setReloader(Svc->reloader());
    S.setStatusAugmenter(Svc->statusAugmenter());
    // Operator lifecycle signals: SIGTERM/SIGINT drain gracefully (finish
    // queued + in-flight work, then exit 0 so the supervisor stops
    // cleanly); SIGHUP hot-reloads the table image. The handler just sets
    // a flag; the server's watchdog thread does the work. No SA_RESTART:
    // an interrupted poll/read retries on its own.
    struct sigaction SA;
    memset(&SA, 0, sizeof(SA));
    SA.sa_handler = [](int Sig) { Server::notifySignal(Sig); };
    sigaction(SIGTERM, &SA, nullptr);
    sigaction(SIGINT, &SA, nullptr);
    sigaction(SIGHUP, &SA, nullptr);
    return ServeSocket.empty() ? S.serveFds(0, 1)
                               : S.serveUnixSocket(ServeSocket);
  }

  if (CorpusCases >= 0) {
    std::string Err;
    std::unique_ptr<VaxTarget> Target = VaxTarget::create(Err);
    if (!Target) {
      fprintf(stderr, "%s\n", Err.c_str());
      return ExitFatalFault;
    }
    return runCorpus(CorpusCases, *Target, Opts, Common.Threads);
  }

  std::ifstream In(File);
  if (!In) {
    fprintf(stderr, "cannot open %s\n", File);
    return ExitCompileFailure;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();

  Program Prog;
  DiagnosticSink Diags;
  {
    PhaseScope PS(Phase::Frontend);
    if (!compileMiniC(Buffer.str(), Prog, Diags)) {
      fprintf(stderr, "%s", Diags.renderAll().c_str());
      return ExitCompileFailure;
    }
  }

  std::string Asm, Err;
  if (UsePcc) {
    PccCodeGenerator CG;
    if (!CG.compile(Prog, Asm, Err)) {
      fprintf(stderr, "%s\n", Err.c_str());
      return ExitCompileFailure;
    }
    if (Stats)
      fprintf(stderr, "# pcc: %zu instructions, %zu lines, %.3fs\n",
              CG.stats().Instructions, CG.stats().AsmLines,
              CG.stats().Seconds);
  } else {
    std::unique_ptr<VaxTarget> Target = VaxTarget::create(Err);
    if (!Target) {
      fprintf(stderr, "%s\n", Err.c_str());
      return ExitFatalFault;
    }
    GGCodeGenerator CG(*Target, Opts);
    bool Ok = CG.compile(Prog, Asm, Err);
    if (!CG.diagnostics().all().empty())
      fputs(CG.diagnostics().renderAll().c_str(), stderr);
    if (!Ok) {
      fprintf(stderr, "%s\n", Err.c_str());
      return ExitCompileFailure;
    }
    if (Trace)
      fprintf(stderr, "%s", CG.trace().c_str());
    if (Stats)
      printGGStats(CG.stats());
  }
  fputs(Asm.c_str(), stdout);
  return ExitOk;
}
