//===- Fuzzer.h - grammar-aware differential fuzzing driver -----*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The orchestration layer of the grammar-aware fuzzer: plans a witness
/// corpus that (simulator-provably) covers every reachable production,
/// state, and dynamic-tie point of the machine grammar's SLR tables,
/// synthesizes the witnesses into runnable programs (fuzz/TreeSynth),
/// and runs each program through three independent oracles:
///
///   1. the IR interpreter (ir/Interp) — semantic ground truth;
///   2. the table-driven backend + VAX simulator (cg/CodeGenerator with
///      raw trees, vaxsim) — the system under test;
///   3. the hand-coded PCC baseline + VAX simulator (pcc/PccCodeGen).
///
/// All three must agree on printed output and exit value; the GG
/// pipeline's blocked-tree count must equal the simulator's prediction
/// (deliberately blocked witnesses for toxic dyn points, nothing else).
/// Failing programs are shrunk to a minimal witness subset that still
/// fails.
///
/// Everything is deterministic in (seed, plan): the corpus, the verdicts,
/// and the coverage artifact are byte-identical at any --threads count.
///
//===----------------------------------------------------------------------===//

#ifndef GG_FUZZ_FUZZER_H
#define GG_FUZZ_FUZZER_H

#include "fuzz/GrammarWalk.h"
#include "fuzz/TreeSynth.h"
#include "vax/VaxTarget.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gg {

struct FuzzOptions {
  uint64_t Seed = 0xF0225EEDull;
  int Threads = 1;        ///< programs verified concurrently
  size_t StmtsPerProgram = 24;
  size_t MaxPrograms = 0; ///< 0 = as many as the plan needs
  /// Target-production mode: plan only witnesses whose parse reduces this
  /// production (-1 = full coverage plan).
  int TargetProduction = -1;
  bool Shrink = true; ///< minimize failing programs
};

/// What the coverage planner achieved, before any program runs: targets
/// are simulator-proven, so these are predictions the run then validates.
struct FuzzPlanStats {
  size_t Productions = 0, States = 0, DynPoints = 0; ///< table totals
  size_t WitnessedProductions = 0; ///< distinct prods the plan reduces
  size_t WitnessedStates = 0;      ///< distinct states the plan visits
  size_t WitnessedDynPoints = 0;   ///< distinct dyn points consulted
  size_t BlockedWitnesses = 0;     ///< deliberate blocks (toxic dyn points)
  std::vector<int> ShadowedProductions;   ///< never a Reduce default
  /// Every reduce site in a state the tie defaults never route into (the
  /// raw automaton reaches it, the pipeline never does);
  /// proven dead by GrammarWalk's reachability fixpoint and excluded
  /// from the reachable denominator like the statically shadowed set.
  std::vector<int> DynShadowedProductions;
  /// States the pipeline provably never enters, and the dyn
  /// points sitting in them; both excluded from their denominators.
  std::vector<int> UnreachableStates;
  std::vector<std::pair<int, int>> UnreachableDynPoints;
  std::vector<int> UnwitnessedProductions; ///< reachable, search failed
  std::vector<int> UnwitnessedStates;
  std::vector<std::pair<int, int>> UnwitnessedDynPoints;
  /// Dyn points no linearization of a complete statement tree can ever
  /// consult, though truncated or extended token sequences can: hit
  /// either past the end of a finished linearization (the extra-token
  /// mode) or at end-of-input while operand slots are still open (the
  /// early-EOF mode). The Matcher only parses whole statements, so the
  /// shipped pipeline can never consult them. Proven per point by the
  /// splice sweep; excluded from the reachable denominator like
  /// shadowed productions.
  std::vector<std::pair<int, int>> StrandedDynPoints;
};

/// One failing program, shrunk when shrinking is on.
struct FuzzFailure {
  size_t ProgramIndex = 0;
  uint64_t Seed = 0;
  std::string Detail; ///< which oracles disagreed, or what broke
  std::vector<SynthStmt> Reproducer; ///< minimal failing witness subset
};

struct FuzzResult {
  FuzzPlanStats Plan;
  size_t Programs = 0;
  size_t Statements = 0, Live = 0, Guarded = 0, ExpectedBlocks = 0;
  /// Blocked witnesses whose shape no backend can compile (assignments
  /// into constants, Label operands): verified against the real matcher
  /// alone — it must block exactly as the simulator predicted.
  size_t ParseOnlyStatements = 0;
  /// Live statements the baseline cannot compile (embedded-assignment
  /// shapes): verified by interpreter + table-driven backend only.
  size_t PccExemptStatements = 0;
  std::vector<FuzzFailure> Failures;
  bool ok() const { return Failures.empty(); }
};

/// The fuzzing driver. Holds the witness-search engine; all verdict state
/// is per-call, so one Fuzzer may serve many runs.
class Fuzzer {
public:
  explicit Fuzzer(const VaxTarget &Target);

  /// Plans the deterministic witness corpus for \p Opts (full-coverage or
  /// target-production). Greedy: each new witness is simulated and its
  /// whole trace absorbed, so later targets already covered incidentally
  /// are skipped.
  std::vector<SynthStmt> plan(const FuzzOptions &Opts, FuzzPlanStats &PS);

  /// Runs one program (a batch of witness statements) through all three
  /// oracles. Returns the empty string when every oracle agrees and all
  /// predictions hold; otherwise a failure description. \p Rep reports
  /// what was synthesized.
  std::string verdict(const std::vector<SynthStmt> &Stmts, uint64_t Seed,
                      SynthReport &Rep);

  /// Full run: plan, batch, verify in parallel, shrink failures.
  FuzzResult run(const FuzzOptions &Opts);

  /// Greedy ddmin-style reduction of a failing batch: drops windows of
  /// statements while the verdict still fails. Deterministic, serial.
  std::vector<SynthStmt> shrink(const std::vector<SynthStmt> &Stmts,
                                uint64_t Seed);

  GrammarWalk &walk() { return Walk; }
  TreeSynth &synth() { return Synth; }
  const VaxTarget &target() const { return Target; }

private:
  /// Capability probe: can the hand-coded baseline compile a program
  /// holding just \p S? Classifies statements into oracle buckets;
  /// deterministic (fixed probe seed), judged by the real PccCodeGenerator
  /// so classification can never drift from the backend it predicts.
  bool pccCanCompile(const SynthStmt &S, uint64_t Seed);

  /// Parse-only oracle for blocked witnesses no backend can compile: the
  /// real matcher must block on the synthesized tree's linearization,
  /// exactly as the table simulator predicted. Empty on agreement.
  std::string parseOnlyVerdict(const SynthStmt &S, uint64_t Seed);

  const VaxTarget &Target;
  GrammarWalk Walk;
  TreeSynth Synth;
};

} // namespace gg

#endif // GG_FUZZ_FUZZER_H
