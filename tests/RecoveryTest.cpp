//===- RecoveryTest.cpp - degradation ladder and fault injection ---------------===//
//
// End-to-end tests for the graceful-degradation pipeline: BlockReport
// structure, the matcher stack-depth cap, fault-injection spec parsing,
// and the per-tree PCC fallback keeping faulted modules runnable with
// unchanged program output.
//
//===----------------------------------------------------------------------===//

#include "cg/CodeGenerator.h"
#include "frontend/Parser.h"
#include "ir/Node.h"
#include "support/Deadline.h"
#include "TerminalMapCheck.h"
#include "ir/Linearize.h"
#include "match/Matcher.h"
#include "mdl/SpecParser.h"
#include "support/FaultInject.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/Strings.h"
#include "tablegen/TableBuilder.h"
#include "vax/VaxGrammar.h"
#include "vaxsim/Simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace gg;

namespace {

/// Restores the all-off fault default when a test scope exits, so the
/// process-global injector never leaks config into later tests.
struct FaultGuard {
  FaultGuard() { faultInject().reset(); }
  ~FaultGuard() { faultInject().reset(); }
};

struct Built {
  Grammar G;
  BuildResult R;
  std::unique_ptr<PackedTables> P;
  std::unique_ptr<Matcher> M;
};

Built buildFrom(const char *Spec, MatcherOptions Opts = {}) {
  Built B;
  DiagnosticSink Diags;
  MdSpec S;
  EXPECT_TRUE(parseSpec(Spec, S, Diags)) << Diags.renderAll();
  EXPECT_TRUE(S.expand(B.G, Diags)) << Diags.renderAll();
  B.G.freeze();
  B.R = buildTables(B.G);
  EXPECT_TRUE(B.R.Ok) << B.R.Error;
  B.P = std::make_unique<PackedTables>(PackedTables::pack(B.R.Tables));
  B.M = std::make_unique<Matcher>(B.G, *B.P, Opts);
  return B;
}

/// Compiles \p Source with the table-driven backend and runs it on the
/// simulator; the fault config active at call time applies.
SimResult compileAndRun(const char *Source, CodeGenStats *OutStats = nullptr,
                        std::string *OutDiags = nullptr) {
  std::string Err;
  std::unique_ptr<VaxTarget> Target = VaxTarget::create(Err);
  EXPECT_NE(Target, nullptr) << Err;
  Program P;
  DiagnosticSink D;
  EXPECT_TRUE(compileMiniC(Source, P, D)) << D.renderAll();
  GGCodeGenerator CG(*Target);
  std::string Asm;
  EXPECT_TRUE(CG.compile(P, Asm, Err)) << Err;
  if (OutStats)
    *OutStats = CG.stats();
  if (OutDiags)
    *OutDiags = CG.diagnostics().renderAll();
  return assembleAndRun(Asm);
}

TEST(BlockReport, NoActionCarriesStructuredFields) {
  const char *Spec = R"(
%start s
s <- Plus_l Const_l Const_l : emit add
)";
  Built B = buildFrom(Spec);
  std::vector<LinToken> Input;
  Input.push_back(tokenFor(B.M->driver(), "Const_l")); // Plus_l expected first
  MatchResult MR = B.M->match(Input);
  ASSERT_FALSE(MR.Ok);
  ASSERT_TRUE(MR.Block.has_value());
  EXPECT_EQ(MR.Block->Why, BlockReport::Cause::NoAction);
  EXPECT_EQ(MR.Block->TokenPos, 0u);
  EXPECT_GE(MR.Block->State, 0);
  EXPECT_EQ(MR.Block->Lookahead, "Const_l");
  // The report names what WOULD have shifted: the description gap is
  // actionable, not just "error".
  ASSERT_FALSE(MR.Block->ShiftableTerms.empty());
  EXPECT_NE(MR.Error.find("shiftable here"), std::string::npos);
  EXPECT_EQ(MR.Error, MR.Block->render());
}

TEST(BlockReport, UnknownTerminalCause) {
  const char *Spec = R"(
%start s
s <- Const_l : emit c
)";
  Built B = buildFrom(Spec);
  // A global-variable node: the description has no Name_l terminal.
  NodeArena A;
  Interner Syms;
  MatchResult MR = B.M->match(linearize(A.name(Ty::L, Syms.intern("g")),
                                        B.M->driver().termMap()));
  ASSERT_FALSE(MR.Ok);
  ASSERT_TRUE(MR.Block.has_value());
  EXPECT_EQ(MR.Block->Why, BlockReport::Cause::UnknownTerminal);
  EXPECT_EQ(MR.Block->Lookahead, "Name_l");
}

TEST(BlockReport, ViablePrefixShowsParseSoFar) {
  const char *Spec = R"(
%start s
s <- Assign_l Name_l reg_l : emit mov
reg_l <- Plus_l reg_l reg_l : emit add
reg_l <- Const_l : emit load
)";
  Built B = buildFrom(Spec);
  // Assign Name + (blocked: Assign is not an rval here).
  std::vector<LinToken> Input;
  Input.push_back(tokenFor(B.M->driver(), "Assign_l"));
  Input.push_back(tokenFor(B.M->driver(), "Name_l"));
  Input.push_back(tokenFor(B.M->driver(), "Plus_l"));
  Input.push_back(tokenFor(B.M->driver(), "Assign_l"));
  MatchResult MR = B.M->match(Input);
  ASSERT_FALSE(MR.Ok);
  ASSERT_TRUE(MR.Block.has_value());
  EXPECT_EQ(MR.Block->TokenPos, 3u);
  // The viable prefix holds the already-shifted/reduced symbols.
  ASSERT_GE(MR.Block->ViablePrefix.size(), 3u);
  EXPECT_EQ(MR.Block->ViablePrefix[0], "Assign_l");
  EXPECT_NE(MR.Error.find("viable prefix"), std::string::npos);
}

TEST(BlockReport, DepthCapReportsAndCounts) {
  // Right-recursive list: each element deepens the stack before any
  // reduction, so a tiny cap trips mid-parse.
  const char *Spec = R"(
%start s
s <- Seq_l Const_l s : emit cons
s <- Const_l : emit nil
)";
  MatcherOptions Opts;
  Opts.MaxStackDepth = 4;
  Built B = buildFrom(Spec, Opts);
  std::vector<LinToken> Input;
  for (int I = 0; I < 8; ++I) {
    Input.push_back(tokenFor(B.M->driver(), "Seq_l"));
    Input.push_back(tokenFor(B.M->driver(), "Const_l"));
  }
  Input.push_back(tokenFor(B.M->driver(), "Const_l"));
  MatchResult MR = B.M->match(Input);
  ASSERT_FALSE(MR.Ok);
  ASSERT_TRUE(MR.Block.has_value());
  EXPECT_EQ(MR.Block->Why, BlockReport::Cause::DepthCap);
  EXPECT_GT(MR.Block->StackDepth, Opts.MaxStackDepth);
  EXPECT_NE(MR.Error.find("depth"), std::string::npos);

  // The default cap is generous enough for the same input.
  Built B2 = buildFrom(Spec);
  EXPECT_TRUE(B2.M->match(Input).Ok);
}

TEST(FaultSpec, ParsesAndValidates) {
  FaultGuard Guard;
  std::string Err;
  ASSERT_TRUE(faultInject().configure("drop-prod=mul_l,seed=7", Err)) << Err;
  EXPECT_EQ(faultInject().config().DropProdTag, "mul_l");
  EXPECT_EQ(faultInject().config().Seed, 7u);

  ASSERT_TRUE(faultInject().configure("corrupt-table", Err)) << Err;
  EXPECT_EQ(faultInject().config().CorruptTableByte, -2);
  ASSERT_TRUE(faultInject().configure("corrupt-table=41", Err)) << Err;
  EXPECT_EQ(faultInject().config().CorruptTableByte, 41);

  // Malformed specs are rejected and keep the previous config.
  EXPECT_FALSE(faultInject().configure("cap-regs=0", Err));
  EXPECT_FALSE(faultInject().configure("cap-regs=7", Err));
  EXPECT_FALSE(faultInject().configure("truncate-input=0", Err));
  EXPECT_FALSE(faultInject().configure("bogus-fault=1", Err));
  EXPECT_NE(Err.find("bogus-fault"), std::string::npos);
  EXPECT_EQ(faultInject().config().CorruptTableByte, 41);
}

TEST(Recovery, DroppedProductionFallsBackWithSameOutput) {
  FaultGuard Guard;
  // print() pushes its argument; push_l is the only production covering
  // Push, so dropping it is a guaranteed description gap.
  const char *Source = "int main() {\n"
                       "  int i; i = 3;\n"
                       "  print(i + 4);\n"
                       "  print(i * i);\n"
                       "  return i;\n"
                       "}\n";
  SimResult Clean = compileAndRun(Source);
  ASSERT_TRUE(Clean.Ok) << Clean.Error;

  std::string Err;
  ASSERT_TRUE(faultInject().configure("drop-prod=push_l", Err)) << Err;
  CodeGenStats Stats;
  std::string Diags;
  SimResult Faulted = compileAndRun(Source, &Stats, &Diags);
  ASSERT_TRUE(Faulted.Ok) << Faulted.Error;

  // The ladder fired: blocked trees were regenerated via the baseline...
  EXPECT_GE(Stats.BlockedTrees, 1u);
  EXPECT_EQ(Stats.RecoveredTrees, Stats.BlockedTrees);
  EXPECT_NE(Diags.find("recovering via the baseline generator"),
            std::string::npos);
  EXPECT_NE(Diags.find("syntactic block"), std::string::npos);
  // ...and the module still computes exactly the same thing.
  EXPECT_EQ(Faulted.Output, Clean.Output);
  EXPECT_EQ(Faulted.ReturnValue, Clean.ReturnValue);
}

TEST(Recovery, UnknownSemanticTagFailsReplayAndFallsBack) {
  FaultGuard Guard;
  const char *Source = "int main() {\n"
                       "  int i; i = 3;\n"
                       "  print(i + 4);\n"
                       "  return i;\n"
                       "}\n";
  SimResult Clean = compileAndRun(Source);
  ASSERT_TRUE(Clean.Ok) << Clean.Error;

  // Renames a tag in the description to one no semantic routine handles:
  // the push of print()'s argument, and the constant operand encapsulation.
  const struct {
    const char *From, *To, *Message;
  } Cases[] = {
      {"emit push_l", "emit shove_l", "unknown emit action 'shove_l'"},
      {"encap imm_Y", "encap frob_Y",
       "unknown encapsulation action 'frob_l'"},
  };
  for (const auto &C : Cases) {
    std::string Spec = vaxSpecText();
    const size_t At = Spec.find(C.From);
    ASSERT_NE(At, std::string::npos) << C.From;
    Spec.replace(At, strlen(C.From), C.To);
    // Building the target does not reject the tag...
    std::string Err;
    std::unique_ptr<VaxTarget> Target = VaxTarget::createFromSpec(Err, Spec);
    ASSERT_NE(Target, nullptr) << Err;
    size_t Unknown = 0;
    for (const SemAction &A : Target->semActions())
      Unknown += A.Op == SemOp::Unknown;
    EXPECT_GT(Unknown, 0u) << C.To;

    // ...replaying a reduction by it fails with the routine's message, and
    // the ladder regenerates the tree through the baseline.
    Program P;
    DiagnosticSink D;
    ASSERT_TRUE(compileMiniC(Source, P, D)) << D.renderAll();
    GGCodeGenerator CG(*Target);
    std::string Asm;
    ASSERT_TRUE(CG.compile(P, Asm, Err)) << Err;
    const std::string Diags = CG.diagnostics().renderAll();
    EXPECT_NE(Diags.find(C.Message), std::string::npos) << Diags;
    EXPECT_NE(Diags.find("recovering via the baseline generator"),
              std::string::npos);
    EXPECT_GE(CG.stats().BlockedTrees, 1u);
    EXPECT_EQ(CG.stats().RecoveredTrees, CG.stats().BlockedTrees);
    SimResult Faulted = assembleAndRun(Asm);
    ASSERT_TRUE(Faulted.Ok) << Faulted.Error;
    EXPECT_EQ(Faulted.Output, Clean.Output);
    EXPECT_EQ(Faulted.ReturnValue, Clean.ReturnValue);
  }
}

TEST(Recovery, NoRecoverFailsTheModule) {
  FaultGuard Guard;
  std::string Err;
  ASSERT_TRUE(faultInject().configure("drop-prod=push_l", Err)) << Err;

  std::unique_ptr<VaxTarget> Target = VaxTarget::create(Err);
  ASSERT_NE(Target, nullptr) << Err;
  Program P;
  DiagnosticSink D;
  ASSERT_TRUE(compileMiniC("int main() { print(1); return 0; }", P, D));
  CodeGenOptions Opts;
  Opts.Recover = false;
  GGCodeGenerator CG(*Target, Opts);
  std::string Asm;
  EXPECT_FALSE(CG.compile(P, Asm, Err));
  EXPECT_NE(Err.find("syntactic block"), std::string::npos);
}

TEST(Recovery, TruncatedInputFallsBackWithSameOutput) {
  FaultGuard Guard;
  const char *Source = "int main() {\n"
                       "  int i; int s; s = 0;\n"
                       "  for (i = 0; i < 5; i++) s = s + i * i;\n"
                       "  print(s);\n"
                       "  return s;\n"
                       "}\n";
  SimResult Clean = compileAndRun(Source);
  ASSERT_TRUE(Clean.Ok) << Clean.Error;

  std::string Err;
  ASSERT_TRUE(faultInject().configure("truncate-input=2", Err)) << Err;
  CodeGenStats Stats;
  SimResult Faulted = compileAndRun(Source, &Stats);
  ASSERT_TRUE(Faulted.Ok) << Faulted.Error;
  EXPECT_GE(Stats.BlockedTrees, 1u);
  EXPECT_EQ(Stats.RecoveredTrees, Stats.BlockedTrees);
  EXPECT_EQ(Faulted.Output, Clean.Output);
  EXPECT_EQ(Faulted.ReturnValue, Clean.ReturnValue);
}

/// The statement trees that open \p F after phase 1 (compile() ran it in
/// place), in the order the code generator matches them, up to the first
/// return or call: each tree returned is its own statement, not a copy.
std::vector<const Node *> leadingTrees(const Function &F) {
  std::vector<const Node *> Trees;
  for (const Node *S : F.Body) {
    if (S->Opcode == Op::LabelDef || S->Opcode == Op::Jump)
      continue;
    if (S->Opcode == Op::Ret || S->Opcode == Op::CallStmt)
      break;
    Trees.push_back(S);
  }
  return Trees;
}

/// One GG compile of \p Source: its assembly, diagnostics and stats, and
/// the program after phase 1.
struct GGRun {
  bool Ok = false;
  std::string Asm, Err, Diags;
  CodeGenStats Stats;
  Program P;
};

void runGG(const VaxTarget &Target, const char *Source, GGRun &Run,
           int Threads = 1, RequestBudget *Budget = nullptr) {
  DiagnosticSink D;
  ASSERT_TRUE(compileMiniC(Source, Run.P, D)) << D.renderAll();
  CodeGenOptions Opts;
  Opts.Parallel.Threads = Threads;
  Opts.Budget = Budget;
  GGCodeGenerator CG(Target, Opts);
  Run.Ok = CG.compile(Run.P, Run.Asm, Run.Err);
  Run.Diags = CG.diagnostics().renderAll();
  Run.Stats = CG.stats();
}

TEST(Recovery, MiddleTreeBlockFallsBackInItsTurn) {
  // A function's trees are all linearized and matched before any is
  // replayed. A block in the middle tree must still run the ladder in
  // its turn: the same diagnostics, counters and program output as
  // matching each tree just before replaying it.
  FaultGuard Guard;
  const char *Source = "int main() {\n"
                       "  int a; int b; int c; int d;\n"
                       "  a = 7; b = a * 3 + 1; c = b - a * 2;\n"
                       "  d = c * c + b; a = d - c; b = a + d;\n"
                       "  print(a + b);\n"
                       "  return b;\n"
                       "}\n";
  std::string Err;
  std::unique_ptr<VaxTarget> Target = VaxTarget::create(Err);
  ASSERT_NE(Target, nullptr) << Err;
  GGRun Clean;
  runGG(*Target, Source, Clean);
  ASSERT_TRUE(Clean.Ok) << Clean.Err;
  const std::vector<const Node *> Leading =
      leadingTrees(Clean.P.Functions.back());
  ASSERT_GE(Leading.size(), 3u);
  const size_t Mid = Leading.size() / 2;
  const size_t NumTrees = Clean.Stats.StatementTrees;

  // The first compile under the fault takes tree ordinals 0..N-1, the
  // second N..2N-1: a period of N + Mid truncates ordinal 0 of the first
  // and, of the second, the middle tree alone.
  auto Faulted = [&](int Threads, GGRun &Run) {
    ASSERT_TRUE(faultInject().configure(
        strf("truncate-input=%zu", NumTrees + Mid), Err))
        << Err;
    GGRun WarmUp;
    runGG(*Target, Source, WarmUp, Threads);
    ASSERT_TRUE(WarmUp.Ok) << WarmUp.Err;
    const uint64_t Truncated0 = gg::stats().counter("fault.trees_truncated");
    runGG(*Target, Source, Run, Threads);
    EXPECT_EQ(gg::stats().counter("fault.trees_truncated") - Truncated0, 1u);
  };
  GGRun Serial, Parallel;
  Faulted(1, Serial);
  Faulted(4, Parallel);
  ASSERT_TRUE(Serial.Ok) << Serial.Err;
  ASSERT_TRUE(Parallel.Ok) << Parallel.Err;
  EXPECT_EQ(Serial.Asm, Parallel.Asm);
  EXPECT_EQ(Serial.Diags, Parallel.Diags);
  EXPECT_EQ(Serial.Stats.BlockedTrees, 1u);
  EXPECT_EQ(Serial.Stats.RecoveredTrees, 1u);
  EXPECT_EQ(Serial.Stats.StatementTrees, NumTrees);

  // The one diagnostic is the middle tree's block, matched from the
  // prefix the fault kept.
  const Node *Tree = leadingTrees(Serial.P.Functions.back())[Mid];
  const Matcher &M = Target->matcher();
  const std::vector<LinToken> Tokens = linearize(Tree, M.driver().termMap());
  const size_t Keep = Tokens.size() - std::max<size_t>(Tokens.size() / 4, 1);
  const MatchResult Blocked = M.match(
      std::vector<LinToken>(Tokens.begin(), Tokens.begin() + Keep));
  ASSERT_FALSE(Blocked.Ok);
  DiagnosticSink Want;
  Want.warning(strf("recovering via the baseline generator: %s\n"
                    "  while matching: %s",
                    Blocked.Error.c_str(),
                    printLinear(Tree, Serial.P.Syms).c_str()));
  EXPECT_EQ(Serial.Diags, Want.renderAll());

  // The counters lose exactly the blocked tree's dropped tokens and its
  // steps.
  const MatchResult Whole = M.match(Tokens);
  ASSERT_TRUE(Whole.Ok) << Whole.Error;
  EXPECT_EQ(Serial.Stats.MatcherTokens,
            Clean.Stats.MatcherTokens - (Tokens.size() - Keep));
  EXPECT_EQ(Serial.Stats.MatcherSteps,
            Clean.Stats.MatcherSteps - Whole.Steps.size());

  SimResult Base = assembleAndRun(Clean.Asm);
  SimResult R = assembleAndRun(Serial.Asm);
  ASSERT_TRUE(Base.Ok) << Base.Error;
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, Base.Output);
  EXPECT_EQ(R.ReturnValue, Base.ReturnValue);
}

TEST(Recovery, BudgetStopInTheMatchPassNamesItsTree) {
  // A step budget that runs out part-way through a function's Match pass
  // fails the function at the tree where it ran out, with that tree's
  // text: the trees matched before it replay, and none reports the stop.
  FaultGuard Guard;
  std::string Terms = "a";
  for (int I = 0; I < 40; ++I)
    Terms += I % 2 ? " + b" : " + c";
  const std::string Source = "int main() {\n"
                             "  int a; int b; int c; int d;\n"
                             "  a = 1; b = a + 2; c = a * b;\n"
                             "  d = " +
                             Terms +
                             ";\n"
                             "  print(d);\n"
                             "  return d;\n"
                             "}\n";
  std::string Err;
  std::unique_ptr<VaxTarget> Target = VaxTarget::create(Err);
  ASSERT_NE(Target, nullptr) << Err;
  const Matcher &M = Target->matcher();
  GGRun Clean;
  runGG(*Target, Source.c_str(), Clean);
  ASSERT_TRUE(Clean.Ok) << Clean.Err;

  // The first tree long enough for a poll inside it, and the steps of
  // the trees before it.
  const std::vector<const Node *> Leading =
      leadingTrees(Clean.P.Functions.back());
  size_t Long = 0;
  uint64_t StepsBefore = 0;
  for (; Long < Leading.size(); ++Long) {
    const size_t Steps =
        M.match(linearize(Leading[Long], M.driver().termMap())).Steps.size();
    if (Steps > BudgetPollMask + 1)
      break;
    StepsBefore += Steps;
  }
  ASSERT_LT(Long, Leading.size()) << "no tree polls the budget inside it";
  ASSERT_GT(Long, 0u);

  for (const bool Inside : {false, true}) {
    SCOPED_TRACE(Inside ? "inside the tree" : "before the tree");
    // Before: the trees so far already exceed the budget when the long
    // tree's match is about to start. Inside: its poll after
    // BudgetPollMask+1 steps finds the budget spent.
    RequestBudget Budget;
    Budget.MaxSteps = Inside ? StepsBefore + BudgetPollMask / 2
                             : StepsBefore - 1;
    GGRun Run;
    runGG(*Target, Source.c_str(), Run, 1, &Budget);
    ASSERT_FALSE(Run.Ok);
    EXPECT_EQ(Budget.Stopped.load(), BudgetStop::Steps);
    EXPECT_EQ(Budget.StepsUsed.load(),
              Inside ? StepsBefore + BudgetPollMask + 1 : StepsBefore);

    const Node *Tree = leadingTrees(Run.P.Functions.back())[Long];
    const std::string Linear = printLinear(Tree, Run.P.Syms);
    std::string Want = strf("request budget exhausted (steps) before tree: %s",
                            Linear.c_str());
    if (Inside) {
      RequestBudget Alone;
      Alone.MaxSteps = Budget.MaxSteps;
      Alone.StepsUsed = StepsBefore;
      const MatchResult MR =
          M.match(linearize(Tree, M.driver().termMap()), &Alone);
      ASSERT_FALSE(MR.Ok);
      Want = strf("%s\n  while matching: %s", MR.Error.c_str(),
                  Linear.c_str());
    }
    EXPECT_EQ(Run.Err, Want);
    DiagnosticSink Diags;
    Diags.error(Want);
    EXPECT_EQ(Run.Diags, Diags.renderAll());
  }
}

TEST(Recovery, RegisterExhaustionFallsBackWithSameOutput) {
  FaultGuard Guard;
  // Indexed loads from byte arrays pin registers inside addressing modes;
  // with only one scratch register the manager cannot satisfy the tree
  // and reports a recoverable exhaustion instead of aborting.
  const char *Source = "char t[8];\n"
                       "int main() {\n"
                       "  int p; int v; p = 1;\n"
                       "  t[0] = 5; t[1] = 9; t[2] = 2;\n"
                       "  v = t[p] * 10 + t[p + 1] - t[p - 1];\n"
                       "  print(v);\n"
                       "  return v;\n"
                       "}\n";
  SimResult Clean = compileAndRun(Source);
  ASSERT_TRUE(Clean.Ok) << Clean.Error;

  std::string Err;
  ASSERT_TRUE(faultInject().configure("cap-regs=1", Err)) << Err;
  CodeGenStats Stats;
  std::string Diags;
  SimResult Faulted = compileAndRun(Source, &Stats, &Diags);
  ASSERT_TRUE(Faulted.Ok) << Faulted.Error;
  EXPECT_GE(Stats.BlockedTrees, 1u);
  EXPECT_EQ(Stats.RecoveredTrees, Stats.BlockedTrees);
  EXPECT_NE(Diags.find("recovering via the baseline generator"),
            std::string::npos);
  EXPECT_EQ(Faulted.Output, Clean.Output);
  EXPECT_EQ(Faulted.ReturnValue, Clean.ReturnValue);
}

TEST(Recovery, RegisterManagerReportsInsteadOfAborting) {
  FaultGuard Guard;
  std::string Err;
  ASSERT_TRUE(faultInject().configure("cap-regs=2", Err)) << Err;

  std::string Seen;
  RegisterManager RM([](int, const Operand &) {}, [] { return -4; },
                     [](int) { return false; }, // nothing is relocatable
                     [&](const std::string &Msg) { Seen = Msg; });
  int A = RM.alloc();
  int B = RM.alloc();
  RM.pin(A);
  RM.pin(B);
  // Third alloc: both capped registers pinned, nothing spillable — the
  // old code called fatalError here.
  int C = RM.alloc();
  EXPECT_EQ(C, RegFirstAlloc);
  EXPECT_TRUE(RM.hasError());
  EXPECT_FALSE(Seen.empty());
  EXPECT_NE(RM.lastError().find("pinned"), std::string::npos);

  // evict() of a pinned register likewise reports instead of dying.
  EXPECT_FALSE(RM.canEvict(A));
  EXPECT_FALSE(RM.evict(A));

  RM.unpin(A);
  RM.unpin(B);
  RM.free(A);
  RM.free(B);
  RM.resetForStatement();
  EXPECT_FALSE(RM.hasError());
}

TEST(FaultSpec, StallWorkerParses) {
  FaultGuard Guard;
  std::string Err;
  ASSERT_TRUE(faultInject().configure("stall-worker", Err)) << Err;
  EXPECT_EQ(faultInject().config().StallWorkerMs, 5) << "default delay cap";
  ASSERT_TRUE(faultInject().configure("stall-worker=20,seed=11", Err)) << Err;
  EXPECT_EQ(faultInject().config().StallWorkerMs, 20);
  EXPECT_EQ(faultInject().config().Seed, 11u);
  EXPECT_FALSE(faultInject().configure("stall-worker=0", Err));
  EXPECT_FALSE(faultInject().configure("stall-worker=5000", Err));
}

TEST(Recovery, StallWorkerScramblesSchedulingNotOutput) {
  // Adversarial scheduling: seed-derived per-task delays make workers
  // finish in an order unrelated to source order. The stitcher must
  // still produce the exact serial, unstalled stream — byte for byte —
  // and the same recovery telemetry.
  const char *Source = R"(
int a(int x) { return x * 3 + 1; }
int b(int x) { int i = 0; int s = 0; while (i < x) { s = s + i * i; i = i + 1; } return s; }
int c(int x) { return a(x) + b(x); }
int d(int x) { if (x > 4) return x - 4; return x + 4; }
int main() { print(c(6)); print(d(2) + d(9)); return a(1) + b(3); }
)";
  std::string Err;
  std::unique_ptr<VaxTarget> Target = VaxTarget::create(Err);
  ASSERT_NE(Target, nullptr) << Err;

  auto CompileWith = [&](int Threads, bool Stall, CodeGenStats *OutStats) {
    FaultGuard Guard;
    if (Stall) {
      std::string FErr;
      EXPECT_TRUE(faultInject().configure("stall-worker=3,seed=9", FErr))
          << FErr;
    }
    Program P;
    DiagnosticSink D;
    EXPECT_TRUE(compileMiniC(Source, P, D)) << D.renderAll();
    CodeGenOptions Opts;
    Opts.Parallel.Threads = Threads;
    GGCodeGenerator CG(*Target, Opts);
    std::string Asm;
    EXPECT_TRUE(CG.compile(P, Asm, Err)) << Err;
    if (OutStats)
      *OutStats = CG.stats();
    return Asm;
  };

  std::string Serial = CompileWith(1, /*Stall=*/false, nullptr);
  ASSERT_FALSE(Serial.empty());
  uint64_t StallsBefore = gg::stats().counter("fault.worker_stalls");
  CodeGenStats Stats;
  std::string Stalled = CompileWith(4, /*Stall=*/true, &Stats);
  EXPECT_EQ(Serial, Stalled)
      << "stitched output order did not survive adversarial scheduling";
  EXPECT_GT(gg::stats().counter("fault.worker_stalls"), StallsBefore)
      << "stall fault never fired; the test is vacuous";
  EXPECT_EQ(Stats.BlockedTrees, 0u);

  SimResult Base = assembleAndRun(Serial);
  SimResult R = assembleAndRun(Stalled);
  ASSERT_TRUE(Base.Ok) << Base.Error;
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(Base.Output, R.Output);
  EXPECT_EQ(Base.ReturnValue, R.ReturnValue);
}

TEST(FaultSpec, OomArenaParses) {
  FaultGuard Guard;
  std::string Err;
  ASSERT_TRUE(faultInject().configure("oom-arena", Err)) << Err;
  EXPECT_EQ(faultInject().config().ArenaCapBytes, 4096) << "default cap";
  ASSERT_TRUE(faultInject().configure("oom-arena=65536", Err)) << Err;
  EXPECT_EQ(faultInject().config().ArenaCapBytes, 65536);
  EXPECT_FALSE(faultInject().configure("oom-arena=0", Err));
  EXPECT_NE(Err.find(">= 1 byte"), std::string::npos);
}

TEST(Recovery, OomArenaFailsCleanlyAndCountsExhaustions) {
  FaultGuard Guard;
  const char *Source = "int main() { int a; int b; a = 2; b = 3;\n"
                       "  print(a * b + a - b); return a + b; }\n";
  SimResult Clean = compileAndRun(Source);
  ASSERT_TRUE(Clean.Ok) << Clean.Error;

  // A cap far too small for any real program: every arena the request
  // touches goes sticky-exhausted. The pipeline must fail with a
  // diagnostic — allocation never returns null and nothing crashes — and
  // the exhaustion must be visible in fault telemetry.
  std::string Err;
  ASSERT_TRUE(faultInject().configure("oom-arena=512", Err)) << Err;
  uint64_t Before = gg::stats().counter("fault.arena_exhaustions");
  std::unique_ptr<VaxTarget> Target;
  {
    std::string TErr;
    Target = VaxTarget::create(TErr);
    ASSERT_NE(Target, nullptr) << TErr;
  }
  Program P;
  DiagnosticSink D;
  NodeArena &Arena = *P.Arena;
  // The program arena was constructed under the fault, so the cap is
  // already armed; parsing this source overflows 512 bytes of nodes.
  bool Parsed = compileMiniC(Source, P, D);
  if (Parsed) {
    GGCodeGenerator CG(*Target);
    std::string Asm;
    EXPECT_FALSE(CG.compile(P, Asm, Err));
    EXPECT_NE(CG.diagnostics().renderAll().find("arena"), std::string::npos);
  }
  EXPECT_TRUE(Arena.exhausted());
  EXPECT_GT(gg::stats().counter("fault.arena_exhaustions"), Before);

  // A generous cap is never hit: output identical to the clean run.
  ASSERT_TRUE(faultInject().configure("oom-arena=67108864", Err)) << Err;
  SimResult Roomy = compileAndRun(Source);
  ASSERT_TRUE(Roomy.Ok) << Roomy.Error;
  EXPECT_EQ(Roomy.Output, Clean.Output);
  EXPECT_EQ(Roomy.ReturnValue, Clean.ReturnValue);
}

TEST(Recovery, ArenaLimitOnlyTightens) {
  FaultGuard Guard;
  NodeArena A;
  A.setLimitBytes(1 << 20);
  A.setLimitBytes(1 << 24); // looser: ignored
  A.setLimitBytes(4096);    // tighter: applied
  size_t Made = 0;
  while (!A.exhausted() && Made < 100000) {
    (void)A.make(Op::Const, Ty::L);
    ++Made;
  }
  EXPECT_TRUE(A.exhausted());
  EXPECT_GT(A.bytes(), size_t(4096));
  EXPECT_LE(A.bytes(), size_t(1 << 20)) << "the 4096 cap applied";
}

TEST(Recovery, MatcherBudgetStopBlocksWithoutFallback) {
  FaultGuard Guard;
  // A right-recursive list long enough to cost well over the step budget.
  const char *Spec = R"(
%start s
s <- Plus_l Const_l s : emit add
s <- Const_l : emit move
)";
  Built B = buildFrom(Spec);
  // Prefix form of Plus(c, Plus(c, ... c)): "Plus_l Const_l" x 600, then
  // the innermost Const_l — ~1800 matcher steps, far over the budget.
  std::vector<LinToken> Input;
  for (int I = 0; I < 600; ++I) {
    Input.push_back(tokenFor(B.M->driver(), "Plus_l"));
    Input.push_back(tokenFor(B.M->driver(), "Const_l"));
  }
  Input.push_back(tokenFor(B.M->driver(), "Const_l"));

  RequestBudget Budget;
  Budget.MaxSteps = 256; // poll interval is 128, so the cap is observed
  MatchResult MR = B.M->match(Input, &Budget);
  ASSERT_FALSE(MR.Ok);
  ASSERT_TRUE(MR.Block.has_value());
  EXPECT_EQ(MR.Block->Why, BlockReport::Cause::Budget);
  EXPECT_EQ(MR.Block->BudgetWhy, BudgetStop::Steps);
  EXPECT_EQ(Budget.Stopped.load(), BudgetStop::Steps);
  EXPECT_NE(MR.Error.find("request budget exhausted (steps)"),
            std::string::npos);

  // Same input, no budget: matches fine — the block above was the
  // budget, not the grammar.
  MatchResult Free = B.M->match(Input);
  EXPECT_TRUE(Free.Ok) << Free.Error;

  // Cancellation (the watchdog path) reports its own cause.
  RequestBudget Cancelled;
  Cancelled.Cancelled.store(true);
  MatchResult MC = B.M->match(Input, &Cancelled);
  ASSERT_FALSE(MC.Ok);
  ASSERT_TRUE(MC.Block.has_value());
  EXPECT_EQ(MC.Block->Why, BlockReport::Cause::Budget);
  EXPECT_EQ(MC.Block->BudgetWhy, BudgetStop::Cancelled);
}

#if defined(GG_COMPILE_MINIC_BIN) && defined(GG_RUN_VAX_BIN)
/// Runs \p Cmd through the shell and returns its exit code (-1 if it
/// died on a signal).
static int runExit(const std::string &Cmd) {
  int Status = std::system(Cmd.c_str());
  if (Status == -1 || !WIFEXITED(Status))
    return -1;
  return WEXITSTATUS(Status);
}

// The exit-code taxonomy (support/ExitCodes.h) is supervisor API: 2 for
// usage errors (operator bug — don't retry), 1 for recoverable compile
// failures, 3 for fatal faults where a restart cannot help, 0 otherwise.
TEST(ExitCodes, DriversFollowTheTaxonomy) {
  const std::string CM = GG_COMPILE_MINIC_BIN;
  const std::string RV = GG_RUN_VAX_BIN;

  // Usage errors: no input, unknown flag, malformed --serve value.
  EXPECT_EQ(runExit(CM + " >/dev/null 2>&1"), 2);
  EXPECT_EQ(runExit(CM + " --no-such-flag >/dev/null 2>&1"), 2);
  EXPECT_EQ(runExit(CM + " --serve= >/dev/null 2>&1"), 2);
  EXPECT_EQ(runExit(RV + " >/dev/null 2>&1"), 2);

  // Recoverable compile failure: missing input file.
  EXPECT_EQ(runExit(CM + " /nonexistent-input.c >/dev/null 2>&1"), 1);
  EXPECT_EQ(runExit(RV + " /nonexistent-input.c >/dev/null 2>&1"), 1);

  // Fatal fault: corrupt shared tables fail the server's startup
  // self-verification — restart cannot help, the supervisor must stop.
  EXPECT_EQ(runExit("GG_FAULT=corrupt-table " + CM +
                    " --serve=/tmp/gg-recovery-test.sock >/dev/null 2>&1"),
            3);

  // Success: a well-formed corpus run.
  EXPECT_EQ(runExit(CM + " --gen-corpus=1 >/dev/null 2>&1"), 0);
}

// Telemetry artifacts are part of the exit contract (the flush-on-every-
// exit-path sweep, docs/observability.md): success, recoverable compile
// failure, fatal startup fault and a SIGTERM drain must all leave the
// requested --stats-json / --flight-json artifacts behind. A crash
// post-mortem that depends on the process having exited cleanly is
// useless exactly when it is needed.
TEST(ExitCodes, EveryExitPathFlushesTelemetryArtifacts) {
  const std::string CM = GG_COMPILE_MINIC_BIN;
  std::string Dir = "/tmp/gg-exit-flush-" + std::to_string(getpid());
  ASSERT_EQ(::mkdir(Dir.c_str(), 0755), 0);
  auto Slurp = [](const std::string &P) {
    std::ifstream In(P);
    std::stringstream SS;
    SS << In.rdbuf();
    return SS.str();
  };
  auto WriteFile = [](const std::string &P, const char *Text) {
    std::ofstream Out(P);
    Out << Text;
  };

  // Success (exit 0).
  WriteFile(Dir + "/good.c", "int main() { return 7; }\n");
  ASSERT_EQ(runExit(CM + " " + Dir + "/good.c --stats-json=" + Dir +
                    "/s0.json --flight-json=" + Dir +
                    "/f0.json >/dev/null 2>&1"),
            0);
  EXPECT_NE(Slurp(Dir + "/s0.json").find("gg-stats-v1"), std::string::npos);
  std::string F0 = Slurp(Dir + "/f0.json");
  EXPECT_NE(F0.find("gg-flight-v1"), std::string::npos);
  EXPECT_NE(F0.find("\"reason\":\"exit\""), std::string::npos);

  // Recoverable compile failure (exit 1): artifacts still flush.
  WriteFile(Dir + "/bad.c", "int main( { this is not minic\n");
  ASSERT_EQ(runExit(CM + " " + Dir + "/bad.c --stats-json=" + Dir +
                    "/s1.json --flight-json=" + Dir +
                    "/f1.json >/dev/null 2>&1"),
            1);
  EXPECT_NE(Slurp(Dir + "/s1.json").find("gg-stats-v1"), std::string::npos);
  EXPECT_NE(Slurp(Dir + "/f1.json").find("gg-flight-v1"), std::string::npos);

  // Fatal fault (exit 3): the server's startup self-verification fails,
  // but the artifacts for the autopsy are written before it gives up.
  ASSERT_EQ(runExit("GG_FAULT=corrupt-table " + CM + " --serve=" + Dir +
                    "/fatal.sock --stats-json=" + Dir +
                    "/s3.json --flight-json=" + Dir +
                    "/f3.json >/dev/null 2>&1"),
            3);
  EXPECT_NE(Slurp(Dir + "/s3.json").find("gg-stats-v1"), std::string::npos);
  EXPECT_NE(Slurp(Dir + "/f3.json").find("gg-flight-v1"), std::string::npos);

  // SIGTERM drain (exit 0): a live server, terminated gracefully, leaves
  // stats, trace and flight artifacts on its way out.
  std::string Drain =
      "(" + CM + " --serve=" + Dir + "/drain.sock --serve-workers=1" +
      " --stats-json=" + Dir + "/s4.json --trace-json=" + Dir +
      "/t4.json --flight-json=" + Dir + "/f4.json >/dev/null 2>&1 & P=$!;"
      " i=0; while [ $i -lt 200 ] && [ ! -S " + Dir + "/drain.sock ];"
      " do sleep 0.05; i=$((i+1)); done;"
      " kill -TERM $P; wait $P)";
  ASSERT_EQ(runExit(Drain), 0);
  EXPECT_NE(Slurp(Dir + "/s4.json").find("gg-stats-v1"), std::string::npos);
  std::string T4 = Slurp(Dir + "/t4.json");
  ASSERT_FALSE(T4.empty());
  EXPECT_EQ(T4[0], '[') << "trace artifact is a Chrome trace_event array";
  std::string F4 = Slurp(Dir + "/f4.json");
  EXPECT_NE(F4.find("gg-flight-v1"), std::string::npos);
  EXPECT_NE(F4.find("\"reason\":\"exit\""), std::string::npos);
}
// The single-shot drivers run the MiniC frontend in its own phase, as the
// server does: a --trace-json artifact has one cg.frontend span per parse.
TEST(SingleShotTrace, DriversSpanTheFrontend) {
  const std::string Dir = "/tmp/gg-frontend-span-" + std::to_string(getpid());
  ASSERT_EQ(::mkdir(Dir.c_str(), 0755), 0);
  {
    std::ofstream Out(Dir + "/p.c");
    Out << "int main() { int x; x = 3; return x + 4; }\n";
  }
  auto FrontendSpans = [](const std::string &Path) {
    std::ifstream In(Path);
    std::stringstream SS;
    SS << In.rdbuf();
    JsonValue V;
    std::string Err;
    EXPECT_TRUE(parseJson(SS.str(), V, Err)) << Path << ": " << Err;
    int N = 0;
    for (const JsonValue &E : V.Arr)
      if (const JsonValue *Name = E.find("name"))
        N += Name->Str == "cg.frontend";
    return N;
  };
  for (const std::string &Bin : {std::string(GG_COMPILE_MINIC_BIN),
                                 std::string(GG_RUN_VAX_BIN)}) {
    const std::string Trace = Dir + "/t.json";
    ASSERT_EQ(runExit(Bin + " " + Dir + "/p.c --trace-json=" + Trace +
                      " >/dev/null 2>&1"),
              0)
        << Bin;
    EXPECT_EQ(FrontendSpans(Trace), 1) << Bin;
  }
  runExit("rm -rf " + Dir);
}
#endif

TEST(Recovery, DropProdCountsFaultStat) {
  FaultGuard Guard;
  std::string Err;
  ASSERT_TRUE(faultInject().configure("drop-prod=mul_l", Err)) << Err;
  std::unique_ptr<VaxTarget> Faulted = VaxTarget::create(Err);
  ASSERT_NE(Faulted, nullptr) << Err;
  faultInject().reset();
  std::unique_ptr<VaxTarget> Clean = VaxTarget::create(Err);
  ASSERT_NE(Clean, nullptr) << Err;
  // Exactly the dropped production is missing; its symbols survive so
  // inputs mentioning them block instead of being rejected as unknown.
  EXPECT_EQ(Faulted->grammar().numProductions() + 1,
            Clean->grammar().numProductions());
  EXPECT_GE(Faulted->grammar().lookup("Mul_l"), 0);
}

} // namespace
