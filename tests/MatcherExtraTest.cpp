//===- MatcherExtraTest.cpp - matcher, mdl and workload extras -----------------===//

#include "TerminalMapCheck.h"
#include "ir/Linearize.h"
#include "frontend/Parser.h"
#include "match/Matcher.h"
#include "mdl/SpecParser.h"
#include "tablegen/TableBuilder.h"
#include "workload/ProgramGen.h"

#include <gtest/gtest.h>

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
