//===- IrTest.cpp - IR node / type / fold / linearize unit tests --------------===//

#include "ir/Fold.h"
#include "ir/Interp.h"
#include "ir/Linearize.h"
#include "ir/Node.h"
#include "ir/Program.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace gg;

namespace {

TEST(TypeTest, SizesAndSuffixes) {
  EXPECT_EQ(sizeOfTy(Ty::B), 1);
  EXPECT_EQ(sizeOfTy(Ty::UW), 2);
  EXPECT_EQ(sizeOfTy(Ty::L), 4);
  EXPECT_EQ(suffixChar(Ty::UB), 'b');
  EXPECT_EQ(suffixChar(Ty::W), 'w');
  EXPECT_EQ(suffixChar(Ty::UL), 'l');
  EXPECT_TRUE(isUnsignedTy(Ty::UB));
  EXPECT_FALSE(isUnsignedTy(Ty::W));
}

TEST(TypeTest, Truncation) {
  EXPECT_EQ(truncateToTy(300, Ty::B), 44);    // 300 mod 256 sign-extended
  EXPECT_EQ(truncateToTy(255, Ty::B), -1);
  EXPECT_EQ(truncateToTy(255, Ty::UB), 255);
  EXPECT_EQ(truncateToTy(-1, Ty::UW), 65535);
  EXPECT_EQ(truncateToTy(0x100000000ll, Ty::L), 0);
  EXPECT_EQ(truncateToTy(-1, Ty::UL), 4294967295ll);
}

TEST(TypeTest, CondSwapNegate) {
  EXPECT_EQ(swapCond(Cond::LT), Cond::GT);
  EXPECT_EQ(swapCond(Cond::EQ), Cond::EQ);
  EXPECT_EQ(swapCond(Cond::ULE), Cond::UGE);
  EXPECT_EQ(negateCond(Cond::LT), Cond::GE);
  EXPECT_EQ(negateCond(Cond::NE), Cond::EQ);
  EXPECT_EQ(negateCond(Cond::UGT), Cond::ULE);
  // Double application is the identity.
  for (Cond C : {Cond::EQ, Cond::NE, Cond::LT, Cond::LE, Cond::GT, Cond::GE,
                 Cond::ULT, Cond::ULE, Cond::UGT, Cond::UGE}) {
    EXPECT_EQ(negateCond(negateCond(C)), C);
    EXPECT_EQ(swapCond(swapCond(C)), C);
  }
}

TEST(TypeTest, EvalCondSignedVsUnsigned) {
  EXPECT_TRUE(evalCond(Cond::LT, -1, 1, Ty::L));
  EXPECT_FALSE(evalCond(Cond::ULT, -1, 1, Ty::L)); // 0xffffffff > 1
  EXPECT_TRUE(evalCond(Cond::UGT, -1, 1, Ty::L));
  EXPECT_TRUE(evalCond(Cond::EQ, 256, 0, Ty::B)); // truncation first
  EXPECT_TRUE(evalCond(Cond::GE, 5, 5, Ty::W));
  EXPECT_TRUE(evalCond(Cond::ULE, 65535, 65535, Ty::UW));
}

TEST(VaxShiftTest, AshlSemantics) {
  EXPECT_EQ(vaxAshl32(3, 5), 40);
  EXPECT_EQ(vaxAshl32(-2, 40), 10);
  EXPECT_EQ(vaxAshl32(-1, -8), -4); // arithmetic right shift
  EXPECT_EQ(vaxAshl32(32, 1), 0);
  EXPECT_EQ(vaxAshl32(-32, -1), -1); // sign fill
  EXPECT_EQ(vaxAshl32(-32, 1), 0);
  EXPECT_EQ(vaxAshl32(31, 1), INT32_MIN);
  // Count is taken as a byte: 256+3 behaves like 3.
  EXPECT_EQ(vaxAshl32(259, 5), 40);
}

TEST(VaxShiftTest, LogicalRightShift) {
  EXPECT_EQ(vaxLshr32(4, 0x80000000u), 0x08000000);
  EXPECT_EQ(vaxLshr32(0, -1), 4294967295ll);
  EXPECT_EQ(vaxLshr32(31, -1), 1);
  EXPECT_EQ(vaxLshr32(32, -1), 0);
  EXPECT_EQ(vaxLshr32(-1, 12345), 0);
}

TEST(OpTest, ArityAndFlags) {
  EXPECT_EQ(opArity(Op::Const), 0);
  EXPECT_EQ(opArity(Op::Neg), 1);
  EXPECT_EQ(opArity(Op::Plus), 2);
  EXPECT_TRUE(isLeafOp(Op::Name));
  EXPECT_TRUE(isCommutativeOp(Op::Mul));
  EXPECT_FALSE(isCommutativeOp(Op::Minus));
  EXPECT_TRUE(isStmtOp(Op::CBranch));
  EXPECT_TRUE(isRewrittenOp(Op::AndAnd));
  EXPECT_TRUE(isReverseOp(Op::MinusR));
  EXPECT_STREQ(opName(Op::Indir), "Indir");
}

TEST(OpTest, ReverseFormsRoundTrip) {
  for (Op O : {Op::Minus, Op::Div, Op::Mod, Op::Lsh, Op::Rsh, Op::Assign}) {
    EXPECT_TRUE(hasReverseForm(O));
    EXPECT_EQ(reverseOp(reverseOp(O)), O);
  }
  EXPECT_FALSE(hasReverseForm(Op::Plus));
}

TEST(NodeTest, BuildersAndTreeSize) {
  Interner Syms;
  NodeArena A;
  Node *T = A.bin(Op::Plus, Ty::L, A.con(Ty::L, 1),
                  A.bin(Op::Mul, Ty::L, A.con(Ty::L, 2),
                        A.name(Ty::L, Syms.intern("x"))));
  EXPECT_EQ(T->treeSize(), 5);
  EXPECT_TRUE(T->left()->isConst(1));
  EXPECT_EQ(T->right()->Opcode, Op::Mul);
}

TEST(NodeTest, CloneIsDeepAndEqual) {
  Interner Syms;
  NodeArena A;
  Node *T = A.bin(Op::Assign, Ty::W, A.name(Ty::W, Syms.intern("g")),
                  A.local(Ty::B, -8));
  Node *C = A.clone(T);
  EXPECT_NE(T, C);
  EXPECT_TRUE(treeEquals(T, C));
  C->Kids[1]->Value = 99;
  EXPECT_FALSE(treeEquals(T, C));
  EXPECT_FALSE(treeEquals(T, nullptr));
  EXPECT_TRUE(treeEquals(nullptr, nullptr));
}

TEST(NodeTest, ArenaPointersSurviveChunkGrowth) {
  // Five doubling chunks fill up; one more node starts a sixth. Every
  // node keeps its address and contents, and the arena counts the nodes
  // made, not the storage reserved.
  NodeArena A;
  constexpr size_t Made = 31 * NodeArena::FirstChunkNodes + 1;
  std::vector<Node *> Nodes;
  for (size_t I = 0; I < Made; ++I) {
    Nodes.push_back(A.con(Ty::L, static_cast<int64_t>(I)));
    EXPECT_EQ(A.size(), I + 1);
    EXPECT_EQ(A.bytes(), (I + 1) * sizeof(Node));
  }
  for (size_t I = 0; I < Made; ++I) {
    ASSERT_TRUE(Nodes[I]->isConst(static_cast<int64_t>(I))) << I;
    EXPECT_EQ(Nodes[I]->Type, Ty::L);
    EXPECT_EQ(Nodes[I]->Kids[0], nullptr);
    EXPECT_EQ(Nodes[I]->Need, 0);
  }
  std::vector<Node *> Sorted = Nodes;
  std::sort(Sorted.begin(), Sorted.end());
  EXPECT_EQ(std::adjacent_find(Sorted.begin(), Sorted.end()), Sorted.end());
  EXPECT_FALSE(A.exhausted());
}

TEST(NodeTest, ArenaCapTripsOnTheNodePastIt) {
  // A cap of K nodes' bytes holds K nodes; node K+1 trips it, also when
  // that node is the first of the second, third or fourth chunk.
  constexpr size_t First = NodeArena::FirstChunkNodes;
  for (size_t K : {size_t(1), size_t(10), First - 1, First, 3 * First,
                   7 * First, size_t(1000)}) {
    NodeArena A;
    A.setLimitBytes(K * sizeof(Node));
    for (size_t I = 0; I < K; ++I)
      (void)A.make(Op::Const, Ty::L);
    EXPECT_FALSE(A.exhausted()) << K;
    Node *Past = A.make(Op::Dreg, Ty::L);
    EXPECT_TRUE(A.exhausted()) << K;
    EXPECT_EQ(Past->Opcode, Op::Dreg) << "the node past the cap is usable";
    EXPECT_EQ(A.bytes(), (K + 1) * sizeof(Node));
  }
}

TEST(NodeTest, LocalShape) {
  NodeArena A;
  Node *L = A.local(Ty::B, -4);
  EXPECT_EQ(L->Opcode, Op::Indir);
  EXPECT_EQ(L->Type, Ty::B);
  EXPECT_EQ(L->left()->Opcode, Op::Plus);
  EXPECT_TRUE(L->left()->left()->isConst(-4));
  EXPECT_EQ(L->left()->right()->Reg, RegFP);
}

TEST(NodeTest, RegisterNames) {
  EXPECT_STREQ(regName(0), "r0");
  EXPECT_STREQ(regName(11), "r11");
  EXPECT_STREQ(regName(RegAP), "ap");
  EXPECT_STREQ(regName(RegFP), "fp");
  EXPECT_STREQ(regName(RegSP), "sp");
  EXPECT_STREQ(regName(RegPC), "pc");
}

TEST(LinearizeTest, TerminalNames) {
  Interner Syms;
  NodeArena A;
  EXPECT_EQ(terminalName(A.con(Ty::B, 27)), "Const_b");
  EXPECT_EQ(terminalName(A.con(Ty::L, 5)), "Const_l");
  EXPECT_EQ(terminalName(A.con(Ty::L, 0)), "Zero");
  EXPECT_EQ(terminalName(A.con(Ty::L, 1)), "One");
  EXPECT_EQ(terminalName(A.con(Ty::L, 2)), "Two");
  EXPECT_EQ(terminalName(A.con(Ty::L, 4)), "Four");
  EXPECT_EQ(terminalName(A.con(Ty::L, 8)), "Eight");
  EXPECT_EQ(terminalName(A.con(Ty::UL, 4)), "Four"); // size class decides
  EXPECT_EQ(terminalName(A.con(Ty::B, 1)), "Const_b"); // not special at b
  EXPECT_EQ(terminalName(A.name(Ty::W, Syms.intern("g"))), "Name_w");
  EXPECT_EQ(terminalName(A.dreg(RegFP)), "Dreg_l");
  Node *Cv = A.unary(Op::Conv, Ty::L, A.con(Ty::B, 3));
  EXPECT_EQ(terminalName(Cv), "Cvt_b_l");
  Node *Br = A.bin(Op::CBranch, Ty::L,
                   A.cmp(Cond::EQ, A.con(Ty::L, 0), A.con(Ty::L, 0), Ty::L),
                   A.label(Syms.intern("L1")));
  EXPECT_EQ(terminalName(Br), "CBranch");
  EXPECT_EQ(terminalName(Br->right()), "Label");
}

TEST(LinearizeTest, PrefixOrderAndNodes) {
  Interner Syms;
  NodeArena A;
  Node *T = A.bin(Op::Assign, Ty::L, A.name(Ty::L, Syms.intern("a")),
                  A.bin(Op::Plus, Ty::L, A.con(Ty::B, 27),
                        A.local(Ty::B, -4)));
  const std::vector<std::string> Names = terminalNames(T);
  ASSERT_EQ(Names.size(), 8u);
  EXPECT_EQ(Names[0], "Assign_l");
  EXPECT_EQ(Names[1], "Name_l");
  EXPECT_EQ(Names[2], "Plus_l");
  EXPECT_EQ(Names[3], "Const_b");
  EXPECT_EQ(Names[4], "Indir_b");
  EXPECT_EQ(Names[5], "Plus_l");
  EXPECT_EQ(Names[6], "Const_l");
  EXPECT_EQ(Names[7], "Dreg_l");

  // Through a terminal map: the same order, as indices into the map's
  // names, each token carrying its node. Dreg_l is not in this map.
  const std::vector<std::string> Grammar = {"Plus_l", "Assign_l", "Const_b",
                                            "Name_l", "Indir_b", "Const_l"};
  std::vector<LinToken> Toks = linearize(T, TerminalMap(Grammar));
  ASSERT_EQ(Toks.size(), 8u);
  const int16_t Want[] = {1, 3, 0, 2, 4, 0, 5, -1};
  for (size_t I = 0; I < Toks.size(); ++I) {
    EXPECT_EQ(Toks[I].Term, Want[I]) << I;
    EXPECT_EQ(terminalName(Toks[I].N), Names[I]) << I;
  }
  EXPECT_EQ(Toks[3].N->Value, 27);
}

TEST(PrintTest, LinearRendering) {
  Interner Syms;
  NodeArena A;
  Node *T = A.bin(Op::Assign, Ty::L, A.name(Ty::L, Syms.intern("a")),
                  A.con(Ty::L, 7));
  EXPECT_EQ(printLinear(T, Syms), "Assign_l Name_l(a) Const_l(7)");
  std::string Tree = printTree(T, Syms);
  EXPECT_NE(Tree.find("Assign_l\n"), std::string::npos);
  EXPECT_NE(Tree.find("  Name_l(a)\n"), std::string::npos);
}

TEST(FoldTest, MatchesDefinedSemantics) {
  // Plus wraps.
  EXPECT_EQ(foldBinaryOp(Op::Plus, Ty::L, INT32_MAX, 1).value(), INT32_MIN);
  EXPECT_EQ(foldBinaryOp(Op::Mul, Ty::B, 16, 16).value(), 0);
  // Division semantics.
  EXPECT_FALSE(foldBinaryOp(Op::Div, Ty::L, 5, 0).has_value());
  EXPECT_EQ(foldBinaryOp(Op::Div, Ty::L, -7, 2).value(), -3);
  EXPECT_EQ(foldBinaryOp(Op::Mod, Ty::L, -7, 2).value(), -1);
  EXPECT_EQ(foldBinaryOp(Op::Div, Ty::L, INT32_MIN, -1).value(), INT32_MIN);
  EXPECT_EQ(foldBinaryOp(Op::Mod, Ty::L, INT32_MIN, -1).value(), 0);
  EXPECT_EQ(foldBinaryOp(Op::Div, Ty::UL, -1, 2).value(), 2147483647);
  // Shifts route through the VAX helpers.
  EXPECT_EQ(foldBinaryOp(Op::Lsh, Ty::L, 5, 3).value(), 40);
  EXPECT_EQ(foldBinaryOp(Op::Rsh, Ty::L, -8, 1).value(), -4);
  EXPECT_EQ(foldBinaryOp(Op::Rsh, Ty::UL, -8, 1).value(), 2147483644);
  // Reverse forms swap.
  EXPECT_EQ(foldBinaryOp(Op::MinusR, Ty::L, 3, 10).value(), 7);
  EXPECT_EQ(foldBinaryOp(Op::DivR, Ty::L, 3, 12).value(), 4);
  // Non-arithmetic operators decline.
  EXPECT_FALSE(foldBinaryOp(Op::Assign, Ty::L, 1, 2).has_value());
}

TEST(FoldTest, Unary) {
  EXPECT_EQ(foldUnaryOp(Op::Neg, Ty::B, -128).value(), -128); // wraps
  EXPECT_EQ(foldUnaryOp(Op::Com, Ty::L, 0).value(), -1);
  EXPECT_EQ(foldUnaryOp(Op::Not, Ty::L, 0).value(), 1);
  EXPECT_EQ(foldUnaryOp(Op::Not, Ty::L, 7).value(), 0);
  EXPECT_EQ(foldUnaryOp(Op::Conv, Ty::B, 300).value(), 44);
  EXPECT_FALSE(foldUnaryOp(Op::Indir, Ty::L, 0).has_value());
}

TEST(ProgramTest, FreshLabelsAndLookup) {
  Program P;
  std::vector<InternedString> Labels;
  for (int I = 1; I <= 1200; ++I) {
    Labels.push_back(P.freshLabel());
    EXPECT_EQ(P.Syms.text(Labels.back()), "L$" + std::to_string(I));
  }
  std::sort(Labels.begin(), Labels.end());
  EXPECT_EQ(std::adjacent_find(Labels.begin(), Labels.end()), Labels.end());
  Function F;
  F.Name = P.Syms.intern("main");
  P.Functions.push_back(std::move(F));
  EXPECT_NE(P.findFunction("main"), nullptr);
  EXPECT_EQ(P.findFunction("other"), nullptr);
  P.Globals.push_back({P.Syms.intern("g"), Ty::L, 1, {}});
  EXPECT_NE(P.findGlobal(P.Syms.intern("g")), nullptr);
}

TEST(ProgramTest, FrameAllocationAligns) {
  Function F;
  EXPECT_EQ(F.allocLocal(1), -4);
  EXPECT_EQ(F.allocLocal(4), -8);
  EXPECT_EQ(F.allocLocal(6), -16);
  EXPECT_EQ(F.FrameSize, 16);
}

} // namespace
