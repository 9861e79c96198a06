//===- FuzzTest.cpp - determinism guarantees of the grammar-aware fuzzer -===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
// The fuzzer's contract (docs/fuzzing.md) is that everything downstream
// of (seed, plan) is deterministic: the planned corpus, every synthesized
// program, and the verdicts — byte-identical at any --threads count.
// These tests pin that contract so reproducer seeds in bug reports stay
// meaningful across refactors of the planner and the parallel driver.
//
//===----------------------------------------------------------------------===//

#include "TerminalMapCheck.h"
#include "fuzz/Fuzzer.h"
#include "ir/Node.h"
#include "match/Matcher.h"
#include "vax/VaxTarget.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

using namespace gg;

namespace {

const VaxTarget &vaxTarget() {
  static std::unique_ptr<VaxTarget> T = [] {
    std::string Err;
    std::unique_ptr<VaxTarget> Made = VaxTarget::create(Err);
    if (!Made) {
      ADD_FAILURE() << "VaxTarget::create: " << Err;
      abort();
    }
    return Made;
  }();
  return *T;
}

FuzzOptions smallRun(int Threads) {
  FuzzOptions O;
  O.Seed = 0xF0225EEDull;
  O.Threads = Threads;
  O.MaxPrograms = 2;
  return O;
}

/// Renders the planned corpus to one string: token sequences plus the
/// predicted treatment of each witness.
std::string corpusKey(const std::vector<SynthStmt> &Stmts) {
  std::ostringstream OS;
  for (const SynthStmt &S : Stmts) {
    for (const std::string &T : S.Tokens)
      OS << T << ' ';
    OS << (S.ExpectBlocked ? "[blocked]" : "[live]")
       << (S.PccOk ? "" : "[pcc-exempt]") << '\n';
  }
  return OS.str();
}

/// Renders a synthesized program to one string: every global with its
/// initializer, every function body statement re-linearized. Any change
/// in structure or bound attribute values shows up here.
std::string programKey(Program &P) {
  std::ostringstream OS;
  for (const GlobalVar &G : P.Globals) {
    OS << 'g' << P.Syms.text(G.Name) << '/' << G.Count << ':';
    for (int64_t V : G.Init)
      OS << V << ',';
    OS << '\n';
  }
  for (const Function &F : P.Functions) {
    OS << 'f' << P.Syms.text(F.Name) << '\n';
    for (const Node *S : F.Body)
      OS << printLinear(S, P.Syms) << '\n';
  }
  return OS.str();
}

std::string resultKey(const FuzzResult &R) {
  std::ostringstream OS;
  OS << R.Programs << '/' << R.Statements << '/' << R.Live << '/'
     << R.Guarded << '/' << R.ExpectedBlocks << '/' << R.ParseOnlyStatements
     << '/' << R.PccExemptStatements << '/' << R.Plan.WitnessedProductions
     << '/' << R.Plan.WitnessedStates << '/' << R.Plan.WitnessedDynPoints;
  for (const FuzzFailure &F : R.Failures)
    OS << " FAIL[" << F.ProgramIndex << ':' << F.Detail << ']';
  return OS.str();
}

TEST(FuzzDeterminism, PlanIsReproducible) {
  Fuzzer F(vaxTarget());
  FuzzPlanStats PS1, PS2;
  const std::vector<SynthStmt> A = F.plan(smallRun(1), PS1);
  const std::vector<SynthStmt> B = F.plan(smallRun(1), PS2);
  ASSERT_FALSE(A.empty());
  EXPECT_EQ(corpusKey(A), corpusKey(B));
  EXPECT_EQ(PS1.WitnessedProductions, PS2.WitnessedProductions);
  EXPECT_EQ(PS1.WitnessedStates, PS2.WitnessedStates);
  EXPECT_EQ(PS1.WitnessedDynPoints, PS2.WitnessedDynPoints);
  EXPECT_EQ(PS1.ShadowedProductions, PS2.ShadowedProductions);
  EXPECT_EQ(PS1.StrandedDynPoints, PS2.StrandedDynPoints);
}

TEST(FuzzDeterminism, SameSeedBuildsByteIdenticalProgram) {
  Fuzzer F(vaxTarget());
  FuzzPlanStats PS;
  std::vector<SynthStmt> Corpus = F.plan(smallRun(1), PS);
  ASSERT_FALSE(Corpus.empty());
  // A representative batch: the first few witnesses the plan emits.
  std::vector<SynthStmt> Batch(
      Corpus.begin(), Corpus.begin() + std::min<size_t>(Corpus.size(), 24));
  std::string Key;
  for (int Trial = 0; Trial < 2; ++Trial) {
    Program P;
    SynthReport Rep;
    std::string Err;
    ASSERT_TRUE(F.synth().buildProgram(Batch, /*Seed=*/42, P, Rep, Err))
        << Err;
    const std::string K = programKey(P);
    if (Trial == 0)
      Key = K;
    else
      EXPECT_EQ(Key, K);
  }
  // A different seed must actually vary the bound attributes — otherwise
  // the seed knob is dead and "byte-identical per seed" is vacuous.
  Program P;
  SynthReport Rep;
  std::string Err;
  ASSERT_TRUE(F.synth().buildProgram(Batch, /*Seed=*/43, P, Rep, Err)) << Err;
  EXPECT_NE(Key, programKey(P));
}

TEST(FuzzDeterminism, VerdictsIdenticalAcrossThreadCounts) {
  std::string Baseline;
  for (int Threads : {1, 4, 8}) {
    Fuzzer F(vaxTarget());
    const FuzzResult R = F.run(smallRun(Threads));
    EXPECT_TRUE(R.ok()) << "threads=" << Threads << ": "
                        << (R.Failures.empty() ? ""
                                               : R.Failures[0].Detail);
    const std::string K = resultKey(R);
    if (Baseline.empty())
      Baseline = K;
    else
      EXPECT_EQ(Baseline, K) << "threads=" << Threads;
  }
}

TEST(FuzzSimulation, DeepSentenceAcceptedLikeTheMatcher) {
  // r <- r + (r + (r + ...)): each nested Plus keeps two states on the
  // parse stack, so 3000 levels peak near depth 6000. The fuzzer's
  // simulated parse runs on the Matcher's own driver, so it must accept
  // exactly what the Matcher accepts, depth cap included.
  std::vector<std::string> Toks{"Assign_l", "Dreg_l"};
  for (int I = 0; I < 3000; ++I) {
    Toks.push_back("Plus_l");
    Toks.push_back("Dreg_l");
  }
  Toks.push_back("Dreg_l");
  const VaxTarget &Target = vaxTarget();
  std::vector<LinToken> Input;
  for (const std::string &T : Toks)
    Input.push_back(tokenFor(Target.matcher().driver(), T));

  const MatchResult MR = Target.matcher().match(Input);
  ASSERT_TRUE(MR.Ok) << MR.Error;
  // The sentence really is deep: a 4096 cap blocks it.
  MatcherOptions Shallow;
  Shallow.MaxStackDepth = 4096;
  const MatchResult Capped =
      Matcher(Target.grammar(), Target.packed(), Shallow).match(Input);
  ASSERT_TRUE(Capped.Block.has_value());
  EXPECT_EQ(Capped.Block->Why, BlockReport::Cause::DepthCap);

  Fuzzer F(Target);
  const SimTrace Tr = F.walk().simulateNames(Toks);
  EXPECT_TRUE(Tr.Accepted);
  std::vector<int> MatchReduces;
  for (const MatchStep &S : MR.Steps)
    if (S.Kind == MatchStep::Reduce)
      MatchReduces.push_back(S.ProdId);
  EXPECT_EQ(Tr.Reduces, MatchReduces);
  EXPECT_EQ(Tr.Steps, MR.Steps.size());
}

} // namespace
