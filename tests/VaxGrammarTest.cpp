//===- VaxGrammarTest.cpp - VAX machine description tests -------------------===//

#include "TerminalMapCheck.h"
#include "support/Strings.h"
#include "vax/VaxTarget.h"

#include <gtest/gtest.h>

using namespace gg;

namespace {

TEST(VaxGrammarTest, BuildsWithoutErrors) {
  std::string Err;
  std::unique_ptr<VaxTarget> T = VaxTarget::create(Err);
  ASSERT_NE(T, nullptr) << Err;
  EXPECT_TRUE(T->build().ChainLoops.empty());
  // The paper's replicated VAX grammar: 1073 productions, 219 terminals,
  // 148 non-terminals, 2216 states. Ours is an integer-subset description
  // of the same structure; assert the same order of magnitude.
  GrammarStats S = statsOf(T->grammar());
  EXPECT_GT(S.Productions, 150u);
  EXPECT_GT(S.Terminals, 50u);
  EXPECT_GT(S.Nonterminals, 10u);
  EXPECT_GT(T->build().Tables.NumStates, 300);
  // Maximal munch resolves many conflicts; they must exist (the machine
  // grammar is highly ambiguous) and all be resolved.
  EXPECT_GT(T->build().SRConflicts.size(), 0u);
}

TEST(VaxGrammarTest, NoSyntacticBlocksForOperatorCategories) {
  std::string Err;
  std::unique_ptr<VaxTarget> T = VaxTarget::create(Err);
  ASSERT_NE(T, nullptr) << Err;
  std::string Blocks;
  for (const PotentialBlock &B : T->build().Blocks) {
    Blocks += "state " + std::to_string(B.State) + ": " +
              T->grammar().symbolName(B.Term) + " (witness " +
              T->grammar().symbolName(B.Witness) + ")\n";
    if (Blocks.size() > 2000)
      break;
  }
  EXPECT_EQ(T->build().Blocks.size(), 0u) << Blocks;
}

TEST(VaxGrammarTest, ReverseOpsGrowGrammarAndTables) {
  std::string Err;
  VaxGrammarOptions With, Without;
  Without.ReverseOps = false;
  std::unique_ptr<VaxTarget> A = VaxTarget::create(Err, With);
  ASSERT_NE(A, nullptr) << Err;
  std::unique_ptr<VaxTarget> B = VaxTarget::create(Err, Without);
  ASSERT_NE(B, nullptr) << Err;
  EXPECT_GT(statsOf(A->grammar()).Productions,
            statsOf(B->grammar()).Productions);
  EXPECT_GT(A->build().Tables.NumStates, B->build().Tables.NumStates);
}

TEST(VaxGrammarTest, SizeSubsettingShrinksGrammar) {
  std::string Err;
  VaxGrammarOptions One, Three;
  One.NumSizes = 1;
  std::unique_ptr<VaxTarget> A = VaxTarget::create(Err, One);
  ASSERT_NE(A, nullptr) << Err;
  std::unique_ptr<VaxTarget> B = VaxTarget::create(Err, Three);
  ASSERT_NE(B, nullptr) << Err;
  EXPECT_LT(statsOf(A->grammar()).Productions,
            statsOf(B->grammar()).Productions);
}

TEST(VaxGrammarTest, TerminalMapFollowsTheNamingRules) {
  std::string Err;
  std::unique_ptr<VaxTarget> T = VaxTarget::create(Err);
  ASSERT_NE(T, nullptr) << Err;
  // The special long constants, unsigned ones included; other sizes keep
  // their typed name.
  NodeArena A;
  EXPECT_EQ(terminalName(A.con(Ty::UL, 4)), "Four");
  EXPECT_EQ(terminalName(A.con(Ty::L, 8)), "Eight");
  EXPECT_EQ(terminalName(A.con(Ty::B, 1)), "Const_b");
  EXPECT_EQ(terminalName(A.con(Ty::L, 3)), "Const_l");
  EXPECT_EQ(terminalName(A.unary(Op::Conv, Ty::UL, A.con(Ty::UB, 1))),
            "Cvt_b_l");
  expectTerminalMapFollowsNames(T->matcher());
}

/// The tag parse replay did per reduction before tags were decoded once:
/// "base_b_l" -> base and up to two one-letter size classes.
void oldParseTag(const std::string &Tag, std::string &Base, char &SC1,
                 char &SC2) {
  SC1 = SC2 = 0;
  std::vector<std::string_view> Parts = splitString(Tag, '_');
  Base = std::string(Parts[0]);
  size_t I = 1;
  if (I < Parts.size() && Parts[I].size() == 1)
    SC1 = Parts[I++][0];
  if (I < Parts.size() && Parts[I].size() == 1)
    SC2 = Parts[I++][0];
}

TEST(VaxGrammarTest, SemanticTagsDecodeLikeTheTagParse) {
  std::vector<VaxGrammarOptions> Variants(5);
  Variants[1].ReverseOps = false;
  for (int N = 1; N <= 3; ++N)
    Variants[1 + N].NumSizes = N;
  for (const VaxGrammarOptions &Opts : Variants) {
    std::string Err;
    std::unique_ptr<VaxTarget> T = VaxTarget::create(Err, Opts);
    ASSERT_NE(T, nullptr) << Err;
    const Grammar &G = T->grammar();
    ASSERT_EQ(T->semActions().size(), G.numProductions());
    size_t Arith = 0;
    for (size_t I = 0; I < G.numProductions(); ++I) {
      const Production &P = G.prod(static_cast<int>(I));
      const SemAction &A = T->semActions()[I];
      if (P.Kind == ActionKind::Glue) {
        EXPECT_EQ(A.Op, SemOp::Glue) << P.SemTag;
        continue;
      }
      std::string Base;
      char SC1, SC2;
      oldParseTag(P.SemTag, Base, SC1, SC2);
      EXPECT_NE(A.Op, SemOp::Unknown) << P.SemTag;
      EXPECT_EQ(semActionBase(A), Base) << P.SemTag;
      EXPECT_EQ(A.SC1, SC1) << P.SemTag;
      EXPECT_EQ(A.SC2, SC2) << P.SemTag;
      // Arithmetic carries its operand layout and its Figure-3 row.
      EXPECT_EQ(A.Shape != nullptr, A.Cluster != nullptr) << P.SemTag;
      Arith += A.Shape != nullptr;
    }
    EXPECT_GT(Arith, 0u);
  }
}

} // namespace
