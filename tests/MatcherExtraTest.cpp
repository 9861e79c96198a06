//===- MatcherExtraTest.cpp - matcher, mdl and workload extras -----------------===//

#include "TerminalMapCheck.h"
#include "ir/Linearize.h"
#include "frontend/Parser.h"
#include "match/Matcher.h"
#include "mdl/SpecParser.h"
#include "tablegen/TableBuilder.h"
#include "workload/ProgramGen.h"

#include <gtest/gtest.h>

#include <thread>

using namespace gg;

namespace {

struct Built {
  Grammar G;
  BuildResult R;
  std::unique_ptr<PackedTables> P;
  std::unique_ptr<Matcher> M;
};

Built buildFrom(const char *Spec) {
  Built B;
  DiagnosticSink Diags;
  MdSpec S;
  EXPECT_TRUE(parseSpec(Spec, S, Diags)) << Diags.renderAll();
  EXPECT_TRUE(S.expand(B.G, Diags)) << Diags.renderAll();
  B.G.freeze();
  B.R = buildTables(B.G);
  EXPECT_TRUE(B.R.Ok) << B.R.Error;
  B.P = std::make_unique<PackedTables>(PackedTables::pack(B.R.Tables));
  B.M = std::make_unique<Matcher>(B.G, *B.P);
  return B;
}

TEST(MatcherExtra, DynamicTieTakesStaticDefault) {
  // Two equally long reductions for the same input: Const_l can condense
  // as either flavour; the static default, the earlier production, wins.
  const char *Spec = R"(
%start s
s <- Assign_l flavA : emit useA
s <- Assign_l flavB : emit useB
flavA <- Const_l : encap a
flavB <- Const_l : encap b
)";
  Built B = buildFrom(Spec);

  // There is a genuine reduce/reduce tie.
  bool SawDynamic = false;
  for (const ReduceReduceConflict &C : B.R.RRConflicts)
    SawDynamic |= C.Dynamic;
  ASSERT_TRUE(SawDynamic);

  Interner Syms;
  NodeArena A;
  Node *Tree =
      A.bin(Op::Assign, Ty::L, A.con(Ty::L, 77), A.con(Ty::L, 5));
  // Use a flat 2-token input crafted for this grammar.
  std::vector<LinToken> Input;
  Input.push_back(tokenFor(B.M->driver(), "Assign_l", Tree));
  Input.push_back(tokenFor(B.M->driver(), "Const_l", Tree->left()));

  auto TagOfFirstEncap = [&](const MatchResult &MR) -> std::string {
    for (const MatchStep &S : MR.Steps)
      if (S.Kind == MatchStep::Reduce &&
          B.G.prod(S.ProdId).Kind == ActionKind::Encap)
        return B.G.prod(S.ProdId).SemTag;
    return "";
  };

  MatchResult Default = B.M->match(Input);
  ASSERT_TRUE(Default.Ok) << Default.Error;
  EXPECT_EQ(TagOfFirstEncap(Default), "a");
}

TEST(MatcherExtra, UnknownTerminalReported) {
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
  EXPECT_FALSE(MR.Ok);
  EXPECT_NE(MR.Error.find("no terminal symbol 'Name_l'"),
            std::string::npos);
}

TEST(MatcherExtra, SyntacticBlockNamesStateAndToken) {
  const char *Spec = R"(
%start s
s <- Plus_l Const_l Const_l : emit add
)";
  Built B = buildFrom(Spec);
  std::vector<LinToken> Input;
  Input.push_back(tokenFor(B.M->driver(), "Const_l")); // Plus_l expected first
  MatchResult MR = B.M->match(Input);
  EXPECT_FALSE(MR.Ok);
  EXPECT_NE(MR.Error.find("syntactic block"), std::string::npos);
  EXPECT_NE(MR.Error.find("token 0"), std::string::npos);
}

TEST(MatcherExtra, TruncatedInputBlocksAtEnd) {
  const char *Spec = R"(
%start s
s <- Plus_l Const_l Const_l : emit add
)";
  Built B = buildFrom(Spec);
  std::vector<LinToken> Input;
  Input.push_back(tokenFor(B.M->driver(), "Plus_l"));
  Input.push_back(tokenFor(B.M->driver(), "Const_l"));
  MatchResult MR = B.M->match(Input);
  EXPECT_FALSE(MR.Ok);
  EXPECT_NE(MR.Error.find("$end"), std::string::npos);
}

/// A right-recursive list: "Plus_l Const_l" x Pairs, then Const_l. The
/// step count grows with Pairs.
const char *ListSpec = R"(
%start s
s <- Plus_l Const_l s : emit add
s <- Const_l : emit move
)";

std::vector<LinToken> listInput(const LRDriver &D, int Pairs) {
  std::vector<LinToken> Input;
  for (int I = 0; I < Pairs; ++I) {
    Input.push_back(tokenFor(D, "Plus_l"));
    Input.push_back(tokenFor(D, "Const_l"));
  }
  Input.push_back(tokenFor(D, "Const_l"));
  return Input;
}

/// One tree of the reuse sequence: its input and, when MaxSteps is set, a
/// fresh step budget per match.
struct ReuseCase {
  const char *Name;
  std::vector<LinToken> Input;
  uint64_t MaxSteps = 0;
};

/// accept -> NoAction block -> budget stop -> accept.
std::vector<ReuseCase> reuseSequence(const LRDriver &D) {
  return {{"accept", listInput(D, 40)},
          {"no-action", {tokenFor(D, "Plus_l"), tokenFor(D, "Plus_l")}},
          {"budget", listInput(D, 600), 256},
          {"accept-again", listInput(D, 40)}};
}

MatchResult matchCase(const Matcher &M, const ReuseCase &C) {
  RequestBudget Budget;
  Budget.MaxSteps = C.MaxSteps;
  return M.match(C.Input, C.MaxSteps ? &Budget : nullptr);
}

void matchCaseInto(const Matcher &M, const ReuseCase &C, MatchResult &R) {
  RequestBudget Budget;
  Budget.MaxSteps = C.MaxSteps;
  M.match(C.Input, R, C.MaxSteps ? &Budget : nullptr);
}

bool sameOutcome(const MatchResult &A, const MatchResult &B) {
  return A.Ok == B.Ok && A.Steps == B.Steps && A.Block == B.Block &&
         A.Error == B.Error;
}

TEST(MatcherExtra, ReusedResultEqualsFreshMatch) {
  Built B = buildFrom(ListSpec);
  const std::vector<ReuseCase> Cases = reuseSequence(B.M->driver());
  MatchResult R;
  for (const ReuseCase &C : Cases) {
    SCOPED_TRACE(C.Name);
    matchCaseInto(*B.M, C, R);
    const MatchResult Fresh = matchCase(*B.M, C);
    EXPECT_EQ(R.Ok, Fresh.Ok);
    EXPECT_EQ(R.Steps, Fresh.Steps);
    EXPECT_EQ(R.Block, Fresh.Block);
    EXPECT_EQ(R.Error, Fresh.Error);
  }
  // The sequence really visits each outcome.
  ASSERT_TRUE(matchCase(*B.M, Cases[0]).Ok);
  ASSERT_EQ(matchCase(*B.M, Cases[1]).Block->Why, BlockCause::NoAction);
  ASSERT_EQ(matchCase(*B.M, Cases[2]).Block->Why, BlockCause::Budget);
  EXPECT_TRUE(R.Ok);
  EXPECT_FALSE(R.Block.has_value());
  EXPECT_TRUE(R.Error.empty());

  // A second tree of the same size reuses both buffers.
  const MatchStep *Steps = R.Steps.data();
  const int *Stack = R.StateStack.data();
  B.M->match(listInput(B.M->driver(), 40), R);
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Steps.data(), Steps);
  EXPECT_EQ(R.StateStack.data(), Stack);
}

TEST(MatcherExtra, ReusedResultsOnFourThreads) {
  Built B = buildFrom(ListSpec);
  const std::vector<ReuseCase> Cases = reuseSequence(B.M->driver());
  std::vector<MatchResult> Want;
  for (const ReuseCase &C : Cases)
    Want.push_back(matchCase(*B.M, C));

  constexpr int Threads = 4, Rounds = 25;
  std::vector<int> Mismatches(Threads, 0);
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      MatchResult R; // this thread's own scratch
      for (int Round = 0; Round < Rounds; ++Round)
        for (size_t I = 0; I < Cases.size(); ++I) {
          // Threads start at different points of the sequence.
          const size_t K = (I + T) % Cases.size();
          matchCaseInto(*B.M, Cases[K], R);
          Mismatches[T] += !sameOutcome(R, Want[K]);
        }
    });
  for (std::thread &Th : Pool)
    Th.join();
  for (int T = 0; T < Threads; ++T)
    EXPECT_EQ(Mismatches[T], 0) << "thread " << T;
}

TEST(SpecParserExtra, CommentsAndBlankLines) {
  const char *Spec = "# leading comment\n"
                     "\n"
                     "%start s    -- trailing comment\n"
                     "s <- X : emit x  # another\n";
  DiagnosticSink D;
  MdSpec S;
  ASSERT_TRUE(parseSpec(Spec, S, D)) << D.renderAll();
  EXPECT_EQ(S.Rules.size(), 1u);
  EXPECT_EQ(S.StartSymbol, "s");
}

TEST(SpecParserExtra, BridgeFlagParsed) {
  const char *Spec = "%start s\ns <- X : emit x bridge\n";
  DiagnosticSink D;
  MdSpec S;
  ASSERT_TRUE(parseSpec(Spec, S, D));
  EXPECT_TRUE(S.Rules[0].IsBridge);
  Grammar G;
  ASSERT_TRUE(S.expand(G, D));
  EXPECT_TRUE(G.prod(0).IsBridge);
}

TEST(SpecParserExtra, MissingStartDiagnosed) {
  DiagnosticSink D;
  MdSpec S;
  EXPECT_FALSE(parseSpec("s <- X : emit x\n", S, D));
  EXPECT_NE(D.renderAll().find("%start"), std::string::npos);
}

TEST(SpecParserExtra, UndefinedStartDiagnosed) {
  DiagnosticSink D;
  MdSpec S;
  ASSERT_TRUE(parseSpec("%start zz\ns <- X : emit x\n", S, D));
  Grammar G;
  EXPECT_FALSE(S.expand(G, D));
}

TEST(GrammarValidate, CatchesBadShapes) {
  {
    Grammar G;
    G.addProduction("s", {"X"}, ActionKind::Glue);
    G.setStart(G.getOrAddSymbol("X")); // terminal start
    G.freeze();
    DiagnosticSink D;
    G.validate(D);
    EXPECT_TRUE(D.hasErrors());
  }
  {
    Grammar G;
    G.addProduction("s", {"dead"}, ActionKind::Glue); // no prods for 'dead'
    G.setStart(G.lookup("s"));
    G.freeze();
    DiagnosticSink D;
    G.validate(D);
    EXPECT_TRUE(D.hasErrors());
  }
}

TEST(Workload, DeterministicAndParses) {
  std::string A = generateProgram(1234), B = generateProgram(1234),
              C = generateProgram(1235);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  for (uint64_t Seed : {1u, 2u, 3u, 4u, 5u}) {
    Program P;
    DiagnosticSink D;
    EXPECT_TRUE(compileMiniC(generateProgram(Seed), P, D))
        << "seed " << Seed << "\n"
        << D.renderAll();
  }
}

TEST(Workload, LargeProgramScalesWithFunctions) {
  std::string Small = generateLargeProgram(7, 3);
  std::string Big = generateLargeProgram(7, 12);
  EXPECT_GT(Big.size(), Small.size() * 2);
}

} // namespace
