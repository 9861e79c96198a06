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

/// One function's records, built line by line, rendered back to lines.
class Listing {
  Interner Syms;

public:
  AsmEmitter E{Syms};

  Listing &label(const char *Name) {
    E.label(Syms.intern(Name));
    return *this;
  }
  Listing &branch(const char *Op, const char *Target) {
    E.inst(Op, {Operand::labelRef(Syms.intern(Target))});
    return *this;
  }
  Listing &inst(const char *Op, std::initializer_list<Operand> Ops = {}) {
    E.inst(Op, Ops);
    return *this;
  }
  Listing &directive(const char *Text) {
    E.directive(Text);
    return *this;
  }
  std::vector<AsmRecord> &records() { return E.records(); }

  /// Renders the records, one string per line.
  std::vector<std::string> lines() {
    std::string Text;
    E.render(Text);
    std::vector<std::string> Out;
    std::istringstream In(Text);
    for (std::string Line; std::getline(In, Line);)
      Out.push_back(Line);
    return Out;
  }
};

Operand r(int N) { return Operand::reg(N, Ty::L); }

TEST(Peephole, BranchToNextRemoved) {
  Listing L;
  L.branch("brw", "L1").label("L1").inst("ret");
  PeepholeStats S = runPeephole(L.records());
  EXPECT_EQ(S.BranchToNextRemoved, 1u);
  std::vector<std::string> Out = L.lines();
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(Out[0], "L1:");
}

TEST(Peephole, BranchToNextThroughSeveralLabels) {
  Listing L;
  L.branch("brw", "L2").label("L1").label("L2").inst("ret");
  PeepholeStats S = runPeephole(L.records());
  EXPECT_EQ(S.BranchToNextRemoved, 1u);
}

TEST(Peephole, BranchNotToNextKept) {
  Listing L;
  L.branch("brw", "L9").label("L1").inst("ret").label("L9").inst("ret");
  PeepholeStats S = runPeephole(L.records());
  EXPECT_EQ(S.BranchToNextRemoved, 0u);
  EXPECT_EQ(L.lines()[0], "\tbrw\tL9");
}

TEST(Peephole, ConditionalInversion) {
  Listing L;
  L.branch("jeql", "L1").branch("brw", "L2").label("L1").inst("incl", {r(0)});
  L.label("L2").inst("ret");
  PeepholeStats S = runPeephole(L.records());
  EXPECT_EQ(S.BranchesInverted, 1u);
  std::vector<std::string> Out = L.lines();
  EXPECT_EQ(Out[0], "\tjneq\tL2");
  // L1 label stays; the brw is gone.
  EXPECT_EQ(Out[1], "L1:");
}

TEST(Peephole, InversionCoversUnsignedConds) {
  Listing L;
  L.branch("jlssu", "L1").branch("brw", "L2").label("L1").inst("ret");
  L.label("L2").inst("ret");
  runPeephole(L.records());
  EXPECT_EQ(L.lines()[0], "\tjgequ\tL2");
}

TEST(Peephole, ChainCollapsing) {
  Listing L;
  L.branch("jeql", "L1").inst("clrl", {r(0)}).inst("ret").label("L1");
  L.branch("brw", "L2").label("L2");
  L.inst("movl", {Operand::imm(1, Ty::L), r(0)}).inst("ret");
  PeepholeStats S = runPeephole(L.records());
  EXPECT_GE(S.ChainsCollapsed, 1u);
  EXPECT_EQ(L.lines()[0], "\tjeql\tL2");
}

TEST(Peephole, SelfLoopLeftAlone) {
  Listing L;
  L.label("L").branch("brw", "L");
  PeepholeStats S = runPeephole(L.records());
  EXPECT_EQ(S.ChainsCollapsed, 0u);
  EXPECT_EQ(L.lines()[1], "\tbrw\tL");
}

TEST(Peephole, UnreachableAfterRetRemoved) {
  Listing L;
  L.inst("ret").inst("incl", {r(0)}).inst("clrl", {r(1)}).label("Lx");
  L.inst("ret");
  PeepholeStats S = runPeephole(L.records());
  EXPECT_EQ(S.UnreachableRemoved, 2u);
  std::vector<std::string> Out = L.lines();
  ASSERT_EQ(Out.size(), 3u);
  EXPECT_EQ(Out[1], "Lx:");
}

TEST(Peephole, DirectivesAreBarriers) {
  Listing L;
  L.inst("ret").directive(".globl next").label("next").inst("ret");
  PeepholeStats S = runPeephole(L.records());
  EXPECT_EQ(S.UnreachableRemoved, 0u);
  EXPECT_EQ(L.lines().size(), 4u);
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

TEST(Peephole, AnnotatedBranchesRewrittenLikePlainOnes) {
  // In explain mode a branch carries the production that emitted it. The
  // pass rewrites it as it would a plain one: an inverted branch loses
  // the annotation (no production emitted it), a retargeted one keeps it.
  Listing L;
  L.E.setExplain(&target().grammar());
  L.E.setProduction(0);
  L.branch("jeql", "L1").branch("brw", "L2");
  L.E.clearProduction();
  L.label("L1").inst("ret").label("L2").inst("ret");
  PeepholeStats S = runPeephole(L.records());
  EXPECT_EQ(S.BranchesInverted, 1u);
  EXPECT_EQ(L.lines()[0], "\tjneq\tL2");

  Listing C;
  C.E.setExplain(&target().grammar());
  C.E.setProduction(0);
  C.branch("jeql", "L1");
  C.E.clearProduction();
  C.inst("ret").label("L1").branch("brw", "L2").label("L2").inst("ret");
  S = runPeephole(C.records());
  EXPECT_GE(S.ChainsCollapsed, 1u);
  EXPECT_EQ(C.lines()[0].rfind("\tjeql\tL2\t# P0: ", 0), 0u);
}

TEST(Peephole, ExplainChangesNoRewrite) {
  // The annotations are the only difference explain mode makes to the
  // optimized code: same instructions once they are stripped, same
  // rewrite counts.
  auto Compile = [](const std::string &Source, bool Explain,
                    std::string &Asm, PeepholeStats &Stats) {
    Program P;
    DiagnosticSink D;
    ASSERT_TRUE(compileMiniC(Source, P, D)) << D.renderAll();
    CodeGenOptions Opts;
    Opts.Peephole = true;
    Opts.Explain = Explain;
    GGCodeGenerator CG(target(), Opts);
    std::string Err;
    ASSERT_TRUE(CG.compile(P, Asm, Err)) << Err;
    Stats = CG.stats().Peephole;
  };
  auto Strip = [](const std::string &Asm) {
    std::string Out;
    std::istringstream In(Asm);
    for (std::string Line; std::getline(In, Line);)
      Out += Line.substr(0, Line.find("\t# ")) + "\n";
    return Out;
  };
  unsigned Rewrites = 0, Annotated = 0;
  for (uint64_t Seed = 0; Seed < 64; ++Seed) {
    std::string Source = generateProgram(0xE5A1A000u + Seed);
    std::string Plain, Explained;
    PeepholeStats PlainStats, ExplainedStats;
    Compile(Source, false, Plain, PlainStats);
    Compile(Source, true, Explained, ExplainedStats);
    Annotated += Explained != Plain;
    EXPECT_EQ(Strip(Explained), Plain) << "seed " << Seed;
    EXPECT_TRUE(ExplainedStats == PlainStats) << "seed " << Seed;
    Rewrites += PlainStats.total();
  }
  EXPECT_EQ(Annotated, 64u);
  EXPECT_GT(Rewrites, 0u) << "the programs must give the pass work";
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
