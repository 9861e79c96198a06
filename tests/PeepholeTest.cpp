//===- PeepholeTest.cpp - peephole optimizer unit + differential tests ---------===//

#include "cg/CodeGenerator.h"
#include "cg/Peephole.h"
#include "frontend/Parser.h"
#include "ir/Interp.h"
#include "vaxsim/Simulator.h"
#include "workload/ProgramGen.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace gg;

namespace {

std::vector<std::string> lines(std::initializer_list<const char *> L) {
  return {L.begin(), L.end()};
}

TEST(Peephole, BranchToNextRemoved) {
  auto L = lines({"\tbrw\tL1", "L1:", "\tret"});
  PeepholeStats S = runPeephole(L);
  EXPECT_EQ(S.BranchToNextRemoved, 1u);
  ASSERT_EQ(L.size(), 2u);
  EXPECT_EQ(L[0], "L1:");
}

TEST(Peephole, BranchToNextThroughSeveralLabels) {
  auto L = lines({"\tbrw\tL2", "L1:", "L2:", "\tret"});
  PeepholeStats S = runPeephole(L);
  EXPECT_EQ(S.BranchToNextRemoved, 1u);
}

TEST(Peephole, BranchNotToNextKept) {
  auto L = lines({"\tbrw\tL9", "L1:", "\tret", "L9:", "\tret"});
  PeepholeStats S = runPeephole(L);
  EXPECT_EQ(S.BranchToNextRemoved, 0u);
  EXPECT_EQ(L[0], "\tbrw\tL9");
}

TEST(Peephole, ConditionalInversion) {
  auto L = lines({"\tjeql\tL1", "\tbrw\tL2", "L1:", "\tincl\tr0", "L2:",
                  "\tret"});
  PeepholeStats S = runPeephole(L);
  EXPECT_EQ(S.BranchesInverted, 1u);
  EXPECT_EQ(L[0], "\tjneq\tL2");
  // L1 label stays; the brw is gone.
  EXPECT_EQ(L[1], "L1:");
}

TEST(Peephole, InversionCoversUnsignedConds) {
  auto L = lines({"\tjlssu\tL1", "\tbrw\tL2", "L1:", "\tret", "L2:",
                  "\tret"});
  runPeephole(L);
  EXPECT_EQ(L[0], "\tjgequ\tL2");
}

TEST(Peephole, ChainCollapsing) {
  auto L = lines({"\tjeql\tL1", "\tclrl\tr0", "\tret", "L1:", "\tbrw\tL2",
                  "L2:", "\tmovl\t$1,r0", "\tret"});
  PeepholeStats S = runPeephole(L);
  EXPECT_GE(S.ChainsCollapsed, 1u);
  EXPECT_EQ(L[0], "\tjeql\tL2");
}

TEST(Peephole, SelfLoopLeftAlone) {
  auto L = lines({"L:", "\tbrw\tL"});
  PeepholeStats S = runPeephole(L);
  EXPECT_EQ(S.ChainsCollapsed, 0u);
  EXPECT_EQ(L[1], "\tbrw\tL");
}

TEST(Peephole, UnreachableAfterRetRemoved) {
  auto L = lines({"\tret", "\tincl\tr0", "\tclrl\tr1", "Lx:", "\tret"});
  PeepholeStats S = runPeephole(L);
  EXPECT_EQ(S.UnreachableRemoved, 2u);
  ASSERT_EQ(L.size(), 3u);
  EXPECT_EQ(L[1], "Lx:");
}

TEST(Peephole, DirectivesAreBarriers) {
  auto L = lines({"\tret", "\t.globl next", "next:", "\tret"});
  PeepholeStats S = runPeephole(L);
  EXPECT_EQ(S.UnreachableRemoved, 0u);
  EXPECT_EQ(L.size(), 4u);
}

const VaxTarget &target() {
  static std::unique_ptr<VaxTarget> T = [] {
    std::string Err;
    auto P = VaxTarget::create(Err);
    if (!P)
      abort();
    return P;
  }();
  return *T;
}

TEST(Peephole, ShrinksGeneratedControlFlow) {
  // An empty-then if/else produces "jCC L1; brw L2; L1:" (inversion
  // fodder) and a trailing continue produces a branch to the next line.
  const char *Source = "int main() {\n"
                       "  int i; int s; s = 0;\n"
                       "  for (i = 0; i < 10; i++) {\n"
                       "    if (i == 4) ; else s += i;\n"
                       "    if (i == 9) continue;\n"
                       "  }\n"
                       "  print(s); return s;\n"
                       "}";
  Program P1, P2;
  DiagnosticSink D;
  ASSERT_TRUE(compileMiniC(Source, P1, D));
  ASSERT_TRUE(compileMiniC(Source, P2, D));
  CodeGenOptions Plain, Opt;
  Opt.Peephole = true;
  GGCodeGenerator A(target(), Plain), B(target(), Opt);
  std::string AsmA, AsmB, Err;
  ASSERT_TRUE(A.compile(P1, AsmA, Err)) << Err;
  ASSERT_TRUE(B.compile(P2, AsmB, Err)) << Err;
  EXPECT_GT(B.stats().Peephole.total(), 0u);
  EXPECT_LT(AsmB.size(), AsmA.size());
  SimResult RA = assembleAndRun(AsmA), RB = assembleAndRun(AsmB);
  ASSERT_TRUE(RA.Ok) << RA.Error;
  ASSERT_TRUE(RB.Ok) << RB.Error << "\n" << AsmB;
  EXPECT_EQ(RA.Output, RB.Output);
  EXPECT_EQ(RA.ReturnValue, RB.ReturnValue);
  EXPECT_LE(RB.Instructions, RA.Instructions);
}

class PeepholeSweep : public ::testing::TestWithParam<int> {};

TEST_P(PeepholeSweep, PreservesSemantics) {
  uint64_t Seed = 0xFEE70000u + static_cast<uint64_t>(GetParam());
  std::string Source = generateProgram(Seed);
  Program P1, P2;
  DiagnosticSink D;
  ASSERT_TRUE(compileMiniC(Source, P1, D)) << D.renderAll();
  InterpResult Oracle = interpret(P1);
  ASSERT_TRUE(Oracle.Ok) << Oracle.Error;
  ASSERT_TRUE(compileMiniC(Source, P2, D));
  CodeGenOptions Opts;
  Opts.Peephole = true;
  GGCodeGenerator CG(target(), Opts);
  std::string Asm, Err;
  ASSERT_TRUE(CG.compile(P2, Asm, Err)) << Err << "\nseed " << Seed;
  SimResult R = assembleAndRun(Asm);
  ASSERT_TRUE(R.Ok) << R.Error << "\nseed " << Seed << "\n" << Source;
  EXPECT_EQ(Oracle.Output, R.Output) << "seed " << Seed << "\n" << Source;
  EXPECT_EQ(Oracle.ReturnValue, R.ReturnValue) << "seed " << Seed;
  // The instruction count is the output's: the lines the peephole pass
  // deleted are not in it.
  size_t InstLines = 0;
  std::istringstream Lines(Asm);
  for (std::string Line; std::getline(Lines, Line);)
    InstLines += Line.size() > 1 && Line[0] == '\t' && Line[1] != '.';
  EXPECT_EQ(CG.stats().Instructions, InstLines) << "seed " << Seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PeepholeSweep, ::testing::Range(0, 40));

} // namespace
