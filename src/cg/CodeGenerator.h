//===- CodeGenerator.h - the table-driven code generator --------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level code generator: "one single program structured into
/// logical subphases" (paper Figure 2):
///
///   phase 1  tree transformation        (cg/Phase1.cpp)
///   phase 2  pattern matching           (match/Matcher.cpp)
///   phase 3  instruction generation     (vax/VaxSemantics.cpp)
///   phase 4  output generation          (vax/Emitter.cpp, Operand.cpp)
///
/// Per-phase wall-clock accounting reproduces the paper's observation
/// that "roughly one half the code generation time is spent in the
/// pattern matching phase" (experiment E5). Each phase transition is one
/// PhaseScope (support/Phase.h).
///
/// Phases 2-4 are embarrassingly parallel across functions: the SLR
/// tables and instruction table are immutable once built, and all
/// mutable per-compilation state (register manager, semantic stack,
/// output buffer, fallback arena) is per-function. With
/// CodeGenOptions::Parallel.Threads > 1 each function is compiled by an
/// independent worker into a private buffer; buffers are stitched in
/// source order, so the output is byte-identical to the single-threaded
/// stream at any thread count. Phase 1 stays serial — it allocates from
/// the program's shared node arena and label counter.
///
//===----------------------------------------------------------------------===//

#ifndef GG_CG_CODEGENERATOR_H
#define GG_CG_CODEGENERATOR_H

#include "cg/Peephole.h"
#include "cg/Transform.h"
#include "ir/Program.h"
#include "support/Deadline.h"
#include "support/Phase.h"
#include "support/ThreadPool.h"
#include "vax/VaxSemantics.h"
#include "vax/VaxTarget.h"

#include <string>

namespace gg {

/// Options for a compilation.
struct CodeGenOptions {
  CgOptions Idioms;
  TransformOptions Transform;
  bool Trace = false;    ///< collect per-tree shift/reduce traces
  /// Annotate each emitted instruction with the production whose
  /// reduction generated it (the --explain surface).
  bool Explain = false;
  /// Run the assembly-level peephole optimizer over the output (the
  /// paper's section 6.1/9 future-work direction; off by default to
  /// match the paper's configuration).
  bool Peephole = false;
  /// Degradation ladder: when a tree hits a syntactic block (or a
  /// recoverable phase-3 failure), regenerate just that tree through the
  /// PCC baseline and splice its code in, keeping the module compilable.
  /// Off = the pre-ladder behavior (first failure aborts the module).
  bool Recover = true;
  /// Per-function compilation parallelism (the --threads surface).
  /// Output is byte-identical at any thread count.
  ParallelOptions Parallel;
  /// Request-quarantine budget (docs/server.md), or null for no limits.
  /// When set, the matcher polls cancellation/deadline/steps, worker
  /// arenas are byte-capped, and a budget stop fails the compile WITHOUT
  /// the PCC fallback ladder — an exhausted request must fail fast, not
  /// consume more of its worker. Budget failures are classified by
  /// reading Budget->Stopped after compile() returns false.
  RequestBudget *Budget = nullptr;
};

/// Aggregate statistics for one compile() call. The four Seconds fields
/// are the paper's Figure-2 phases and are disjoint phase-clock self
/// times: instruction generation (replay and PCC fallback) excludes the
/// output formatting it is interleaved with, charged to EmitSeconds.
struct CodeGenStats {
  double TransformSeconds = 0;
  double MatchSeconds = 0;
  double InstrGenSeconds = 0;
  double EmitSeconds = 0; ///< phase 4: operand formatting + text rendering
  size_t StatementTrees = 0;
  size_t MatcherTokens = 0;
  size_t MatcherSteps = 0;
  size_t Instructions = 0;
  size_t AsmLines = 0;
  /// Degradation-ladder outcomes: trees whose match/replay failed, and
  /// the subset regenerated successfully through the PCC baseline.
  size_t BlockedTrees = 0;
  size_t RecoveredTrees = 0;
  RegAllocStats Regs;
  IdiomStats Idioms;
  TransformStats Transform;
  PeepholeStats Peephole;
  /// Worker-pool telemetry: threads resolved, tasks dealt, steal events.
  PoolRunStats Parallel;
  PhaseTimes Phases; ///< self seconds; the four above derive from it

  /// Adds \p O into this (counts and seconds sum; MaxLive takes the max).
  CodeGenStats &operator+=(const CodeGenStats &O);
};

/// Compiles IR programs to VAX assembly via the pattern matcher.
class GGCodeGenerator {
public:
  GGCodeGenerator(const VaxTarget &Target, CodeGenOptions Opts = {})
      : Target(Target), Opts(Opts) {}

  /// Compiles \p Prog, appending assembly text to \p Asm. With Recover on
  /// (the default), a syntactic block or recoverable phase-3 failure on
  /// one tree does not fail the module: the tree is regenerated through
  /// the PCC baseline, the event is recorded in diagnostics() and the
  /// Blocked/Recovered stats, and compilation continues. Returns false
  /// and sets \p Err only when a tree cannot be generated by either path
  /// (or Recover is off).
  bool compile(Program &Prog, std::string &Asm, std::string &Err);

  const CodeGenStats &stats() const { return Stats; }

  /// Shift/reduce traces collected when Trace is on (one per tree).
  const std::string &trace() const { return Trace; }

  /// Diagnostics from the last compile(): one warning per recovered tree
  /// (with the BlockReport rendering), errors for unrecoverable failures.
  const DiagnosticSink &diagnostics() const { return Diags; }

private:
  const VaxTarget &Target;
  CodeGenOptions Opts;
  CodeGenStats Stats;
  std::string Trace;
  DiagnosticSink Diags;
};

/// Emits the .data section for the program's globals (shared with the PCC
/// baseline so both backends produce directly comparable modules).
void emitDataSection(const Program &Prog, AsmEmitter &Emit);

} // namespace gg

#endif // GG_CG_CODEGENERATOR_H
