//===- BenchCommon.h - shared helpers for the experiment benches -*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
// Each bench binary reproduces one table/figure/claim from the paper (see
// DESIGN.md's experiment index). Shared plumbing lives here: building the
// target, compiling corpora with both backends, and printing paper-vs-
// measured rows.
//
//===----------------------------------------------------------------------===//

#ifndef GG_BENCH_BENCHCOMMON_H
#define GG_BENCH_BENCHCOMMON_H

#include "cg/CodeGenerator.h"
#include "frontend/Parser.h"
#include "ir/Interp.h"
#include "pcc/PccCodeGen.h"
#include "support/CliOptions.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "vaxsim/Simulator.h"
#include "workload/ProgramGen.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

namespace ggbench {

inline const gg::VaxTarget &target() {
  static std::unique_ptr<gg::VaxTarget> T = [] {
    std::string Err;
    std::unique_ptr<gg::VaxTarget> P = gg::VaxTarget::create(Err);
    if (!P) {
      fprintf(stderr, "target build failed: %s\n", Err.c_str());
      abort();
    }
    return P;
  }();
  return *T;
}

/// Parses MiniC or dies (bench corpora are generated, so failures are bugs).
inline void mustParse(const std::string &Source, gg::Program &P) {
  gg::DiagnosticSink Diags;
  if (!gg::compileMiniC(Source, P, Diags)) {
    fprintf(stderr, "corpus program failed to parse:\n%s\n",
            Diags.renderAll().c_str());
    abort();
  }
}

/// A deterministic corpus of source programs for the experiments that run
/// what they compile. Programs whose execution exceeds \p MaxSteps
/// interpreter statements are skipped (re-seeded) so that those runs finish
/// quickly.
inline std::vector<std::string> corpus(int Count, int FunctionsEach,
                                       uint64_t Seed = 0x5EED,
                                       uint64_t MaxSteps = 3'000'000) {
  std::vector<std::string> Out;
  uint64_t Next = Seed;
  while (static_cast<int>(Out.size()) < Count) {
    std::string Source = gg::generateLargeProgram(Next++, FunctionsEach);
    gg::Program P;
    mustParse(Source, P);
    gg::InterpResult R = gg::interpret(P, "main", MaxSteps);
    if (!R.Ok)
      continue; // too heavy (or a division fault): pick another seed
    Out.push_back(std::move(Source));
  }
  return Out;
}

/// Compiles one source with the table-driven backend; aborts on failure.
inline std::string compileGG(const std::string &Source,
                             gg::CodeGenOptions Opts = {},
                             gg::CodeGenStats *Stats = nullptr) {
  gg::Program P;
  mustParse(Source, P);
  gg::GGCodeGenerator CG(target(), Opts);
  std::string Asm, Err;
  if (!CG.compile(P, Asm, Err)) {
    fprintf(stderr, "gg compile failed: %s\n", Err.c_str());
    abort();
  }
  if (Stats)
    *Stats = CG.stats();
  return Asm;
}

/// Compiles one source with the PCC-style baseline; aborts on failure.
inline std::string compilePcc(const std::string &Source,
                              gg::PccStats *Stats = nullptr) {
  gg::Program P;
  mustParse(Source, P);
  gg::PccCodeGenerator CG;
  std::string Asm, Err;
  if (!CG.compile(P, Asm, Err)) {
    fprintf(stderr, "pcc compile failed: %s\n", Err.c_str());
    abort();
  }
  if (Stats)
    *Stats = CG.stats();
  return Asm;
}

/// Runs assembly on the simulator; aborts on failure.
inline gg::SimResult mustRun(const std::string &Asm) {
  gg::SimResult R = gg::assembleAndRun(Asm);
  if (!R.Ok) {
    fprintf(stderr, "simulation failed: %s\n", R.Error.c_str());
    abort();
  }
  return R;
}

inline void header(const char *Id, const char *Title, const char *Claim) {
  printf("================================================================\n");
  printf("%s: %s\n", Id, Title);
  printf("paper: %s\n", Claim);
  printf("================================================================\n");
}

/// Zeroes the shared telemetry registry so a bench's BENCH_JSON line
/// covers only its own work (target construction included if the bench
/// resets before first use of target()).
inline void resetStats() { gg::stats().reset(); }

/// Emits the process-wide stats registry as one machine-readable line:
///   BENCH_JSON <id> <gg-stats-v1 object>
/// This is byte-for-byte the same schema the `--stats-json` runtime
/// surface writes, so bench output and production telemetry can be
/// compared and post-processed by the same tooling.
inline void emitBenchJson(const char *Id) {
  printf("BENCH_JSON %s %s\n", Id, gg::stats().toJson().c_str());
}

} // namespace ggbench

#endif // GG_BENCH_BENCHCOMMON_H
