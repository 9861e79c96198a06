//===- VaxBackendTest.cpp - operand, emitter, regman, semantics tests ----------===//

#include "cg/CodeGenerator.h"
#include "frontend/Parser.h"
#include "vax/Emitter.h"
#include "vax/InstrTable.h"
#include "vax/Operand.h"
#include "vax/RegisterManager.h"

#include <gtest/gtest.h>

#include <cstdint>

using namespace gg;

namespace {

TEST(OperandFmt, AllModes) {
  Interner Syms;
  InternedString X = Syms.intern("x");
  EXPECT_EQ(formatOperand(Operand::reg(3, Ty::L), Syms), "r3");
  EXPECT_EQ(formatOperand(Operand::imm(-7, Ty::L), Syms), "$-7");
  EXPECT_EQ(formatOperand(Operand::immSym(X), Syms), "$x");
  {
    Operand O = Operand::immSym(X);
    O.Disp = 8;
    EXPECT_EQ(formatOperand(O, Syms), "$x+8");
  }
  EXPECT_EQ(formatOperand(Operand::abs(X, Ty::L), Syms), "x");
  EXPECT_EQ(formatOperand(Operand::abs(X, Ty::L, 12), Syms), "x+12");
  EXPECT_EQ(formatOperand(Operand::disp(RegFP, -4, Ty::L), Syms), "-4(fp)");
  EXPECT_EQ(formatOperand(Operand::disp(2, 0, Ty::L), Syms), "(r2)");
  {
    Operand O = Operand::disp(5, 0, Ty::B);
    O.Sym = X;
    EXPECT_EQ(formatOperand(O, Syms), "x(r5)");
    O.Disp = 4;
    EXPECT_EQ(formatOperand(O, Syms), "x+4(r5)");
  }
  {
    Operand O = Operand::disp(RegFP, -8, Ty::L);
    O.Mode = AMode::DispDef;
    EXPECT_EQ(formatOperand(O, Syms), "*-8(fp)");
  }
  {
    Operand O = Operand::abs(X, Ty::L);
    O.Mode = AMode::AbsDef;
    EXPECT_EQ(formatOperand(O, Syms), "*x");
  }
  {
    Operand O;
    O.Mode = AMode::Indexed;
    O.Base = 2;
    O.Disp = 16;
    O.Index = 3;
    EXPECT_EQ(formatOperand(O, Syms), "16(r2)[r3]");
    O.Base = -1;
    O.Sym = X;
    O.Disp = 0;
    EXPECT_EQ(formatOperand(O, Syms), "x[r3]");
  }
  {
    Operand O;
    O.Mode = AMode::AutoInc;
    O.Base = 7;
    EXPECT_EQ(formatOperand(O, Syms), "(r7)+");
    O.Mode = AMode::AutoDec;
    EXPECT_EQ(formatOperand(O, Syms), "-(r7)");
  }
  EXPECT_EQ(formatOperand(Operand::labelRef(Syms.intern("L9")), Syms), "L9");
}

TEST(OperandFmt, SameLocation) {
  Interner Syms;
  Operand A = Operand::disp(RegFP, -4, Ty::L);
  Operand B = Operand::disp(RegFP, -4, Ty::B); // type differs, cell same
  EXPECT_TRUE(A.sameLocation(B));
  EXPECT_FALSE(A.sameLocation(Operand::disp(RegFP, -8, Ty::L)));
  EXPECT_FALSE(A.sameLocation(Operand::reg(RegFP, Ty::L)));
}

TEST(OperandFmt, EveryModeAtDisplacementExtremes) {
  // The format routine appends integers with std::to_chars; these pin the
  // text printf's "%s+%lld" family produced, mode by mode.
  Interner Syms;
  InternedString X = Syms.intern("x");
  auto Fmt = [&](AMode M, int Base, int64_t Disp, InternedString Sym = {},
                 int Index = -1) {
    Operand O;
    O.Mode = M;
    O.Base = Base;
    O.Disp = Disp;
    O.Sym = Sym;
    O.Index = Index;
    return formatOperand(O, Syms);
  };
  const int64_t Min = INT64_MIN, Max = INT64_MAX;
  EXPECT_EQ(Fmt(AMode::Reg, RegSP, 0), "sp");
  EXPECT_EQ(Fmt(AMode::Reg, RegFP, 0), "fp");
  EXPECT_EQ(Fmt(AMode::Imm, -1, 0), "$0");
  EXPECT_EQ(Fmt(AMode::Imm, -1, 4), "$4");
  EXPECT_EQ(Fmt(AMode::Imm, -1, -4), "$-4");
  EXPECT_EQ(Fmt(AMode::Imm, -1, Min), "$-9223372036854775808");
  EXPECT_EQ(Fmt(AMode::Imm, -1, Max), "$9223372036854775807");
  EXPECT_EQ(Fmt(AMode::ImmSym, -1, 0, X), "$x");
  EXPECT_EQ(Fmt(AMode::ImmSym, -1, 4, X), "$x+4");
  EXPECT_EQ(Fmt(AMode::ImmSym, -1, -4, X), "$x+-4");
  EXPECT_EQ(Fmt(AMode::ImmSym, -1, Min, X), "$x+-9223372036854775808");
  EXPECT_EQ(Fmt(AMode::Abs, -1, 0, X), "x");
  EXPECT_EQ(Fmt(AMode::Abs, -1, -4, X), "x+-4");
  EXPECT_EQ(Fmt(AMode::Abs, -1, Max, X), "x+9223372036854775807");
  EXPECT_EQ(Fmt(AMode::Disp, RegFP, 0), "(fp)");
  EXPECT_EQ(Fmt(AMode::Disp, RegFP, 8), "8(fp)");
  EXPECT_EQ(Fmt(AMode::Disp, RegSP, -8), "-8(sp)");
  EXPECT_EQ(Fmt(AMode::Disp, 1, Min), "-9223372036854775808(r1)");
  EXPECT_EQ(Fmt(AMode::Disp, 1, Max), "9223372036854775807(r1)");
  EXPECT_EQ(Fmt(AMode::Disp, 5, 0, X), "x(r5)");
  EXPECT_EQ(Fmt(AMode::Disp, 5, -4, X), "x+-4(r5)");
  EXPECT_EQ(Fmt(AMode::DispDef, RegFP, 0), "*0(fp)");
  EXPECT_EQ(Fmt(AMode::DispDef, RegSP, 12), "*12(sp)");
  EXPECT_EQ(Fmt(AMode::DispDef, RegFP, Min), "*-9223372036854775808(fp)");
  EXPECT_EQ(Fmt(AMode::AbsDef, -1, 0, X), "*x");
  EXPECT_EQ(Fmt(AMode::AbsDef, -1, -4, X), "*x+-4");
  EXPECT_EQ(Fmt(AMode::AbsDef, -1, Max, X), "*x+9223372036854775807");
  EXPECT_EQ(Fmt(AMode::Indexed, 2, 0, {}, 3), "(r2)[r3]");
  EXPECT_EQ(Fmt(AMode::Indexed, RegFP, -16, {}, 3), "-16(fp)[r3]");
  EXPECT_EQ(Fmt(AMode::Indexed, -1, 16, {}, 3), "16[r3]");
  EXPECT_EQ(Fmt(AMode::Indexed, -1, 0, {}, 3), "0[r3]");
  EXPECT_EQ(Fmt(AMode::Indexed, -1, Min, {}, 0), "-9223372036854775808[r0]");
  EXPECT_EQ(Fmt(AMode::Indexed, -1, 0, X, 4), "x[r4]");
  EXPECT_EQ(Fmt(AMode::Indexed, -1, -4, X, 4), "x+-4[r4]");
  EXPECT_EQ(Fmt(AMode::AutoInc, RegSP, 0), "(sp)+");
  EXPECT_EQ(Fmt(AMode::AutoDec, RegSP, 0), "-(sp)");
  EXPECT_EQ(Fmt(AMode::LabelRef, -1, 0, X), "x");
  // Appending extends what is there.
  std::string Out = "\tmovl\t";
  appendOperand(Out, Operand::disp(RegFP, -4, Ty::L), Syms);
  EXPECT_EQ(Out, "\tmovl\t-4(fp)");
}

TEST(Emitter, FormattingAndCounts) {
  Interner Syms;
  AsmEmitter E(Syms);
  E.directive(".text");
  E.label(Syms.intern("main"));
  E.inst("subl2", {Operand::imm(0, Ty::L), Operand::reg(RegSP, Ty::L)});
  E.inst("movl", {Operand::imm(1, Ty::L), Operand::reg(0, Ty::L)});
  AsmEmitter::Mark M = E.mark();
  E.inst("brw", {Operand::labelRef(Syms.intern("L1"))});
  E.directive(".word 0");
  E.rollback(M);
  E.inst("ret", {});
  E.blank();
  // The prologue's frame size is patched as its operand.
  E.records()[2].Ops[0].Disp = 12;
  std::string T;
  E.render(T);
  EXPECT_EQ(T, "\t.text\nmain:\n\tsubl2\t$12,sp\n\tmovl\t$1,r0\n\tret\n\n");
  EXPECT_EQ(E.instructionCount(), 3u);
  EXPECT_EQ(E.lineCount(), 6u);
  // Rendering drops the records; the counts keep running.
  EXPECT_TRUE(E.records().empty());
  E.directive(".data");
  E.render(T);
  EXPECT_EQ(T.substr(T.size() - 7), "\t.data\n");
  EXPECT_EQ(E.lineCount(), 7u);
}

TEST(InstrTableTest, ClustersAndMnemonics) {
  ASSERT_NE(findCluster("add"), nullptr);
  EXPECT_TRUE(findCluster("add")->Swappable);
  EXPECT_FALSE(findCluster("sub")->Swappable);
  EXPECT_EQ(findCluster("mod")->Kind, ClusterKind::Special);
  EXPECT_EQ(findCluster("nope"), nullptr);
  const SpellingTable &Sp = spellings();
  EXPECT_EQ(Sp.row(RowAdd, 'l', 3).view(), "addl3");
  EXPECT_EQ(Sp.row(RowXor, 'w', 2).view(), "xorw2");
  EXPECT_EQ(Sp.row(RowNeg, 'b').view(), "mnegb");
  EXPECT_EQ(Sp.row(RowAnd, 'b', 3).view(), "bicb3");
  EXPECT_EQ(Sp.incDec(false, 'w').view(), "decw");
  EXPECT_EQ(Sp.convert('b', 'l', /*ZeroExtend=*/true).view(), "movzbl");
  EXPECT_EQ(Sp.convert('l', 'w', false).view(), "cvtlw");
  EXPECT_EQ(Sp.branch(Cond::UGE).view(), "jgequ");
  Cond C = Cond::EQ;
  EXPECT_TRUE(Sp.branchCond("jlequ", C));
  EXPECT_EQ(C, Cond::ULE);
  EXPECT_FALSE(Sp.branchCond("brw", C));
  std::string Fig3 = renderInstrTable();
  EXPECT_NE(Fig3.find("addX3 / addX2 / incX"), std::string::npos);
}

TEST(RegMan, StackDisciplineAndPreference) {
  std::vector<std::pair<int, Operand>> Spills;
  int NextCell = 0;
  RegisterManager RM(
      [&](int R, const Operand &Cell) { Spills.push_back({R, Cell}); },
      [&]() { return NextCell -= 4; }, [](int) { return true; });

  int A = RM.alloc(), B = RM.alloc();
  EXPECT_EQ(A, 0);
  EXPECT_EQ(B, 1);
  RM.free(A);
  EXPECT_EQ(RM.alloc(), 0); // lowest free first
  Operand RB = Operand::reg(B, Ty::L);
  EXPECT_EQ(RM.allocPreferring(RB, RB), B); // reuses a register source
  Operand Mem = Operand::disp(RegFP, -4, Ty::L);
  int C = RM.allocPreferring(Mem, Mem); // no register to reuse: allocates
  EXPECT_EQ(C, 2);
  RM.resetForStatement();
  EXPECT_FALSE(RM.anyBusy());
}

TEST(RegMan, SpillsOldestUnpinned) {
  std::vector<int> Spilled;
  int NextCell = 0;
  RegisterManager RM(
      [&](int R, const Operand &) { Spilled.push_back(R); },
      [&]() { return NextCell -= 4; }, [](int) { return true; });
  for (int I = 0; I < 6; ++I)
    RM.alloc();
  RM.pin(0); // r0 is inside an addressing mode: not a victim
  int R = RM.alloc();
  ASSERT_EQ(Spilled.size(), 1u);
  EXPECT_EQ(Spilled[0], 1); // oldest unpinned
  EXPECT_EQ(R, 1);
  EXPECT_EQ(RM.stats().Spills, 1u);
  RM.unpin(0);
  RM.resetForStatement();
}

TEST(RegMan, ReclaimFreesOperandRegisters) {
  int NextCell = 0;
  RegisterManager RM([](int, const Operand &) {},
                     [&]() { return NextCell -= 4; },
                     [](int) { return true; });
  int A = RM.alloc(), B = RM.alloc();
  Operand Ix;
  Ix.Mode = AMode::Indexed;
  Ix.Base = A;
  Ix.Index = B;
  RM.reclaim(Ix);
  EXPECT_FALSE(RM.isBusy(A));
  EXPECT_FALSE(RM.isBusy(B));
  int C = RM.alloc();
  Operand RC = Operand::reg(C, Ty::L);
  RM.reclaim(RC, /*KeepReg=*/C);
  EXPECT_TRUE(RM.isBusy(C)); // kept
  RM.resetForStatement();
}

//===--- exact-assembly checks for the idiom recognizer -------------------===//

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

std::string genAsm(const std::string &Source, CodeGenOptions Opts = {}) {
  Program P;
  DiagnosticSink D;
  EXPECT_TRUE(compileMiniC(Source, P, D)) << D.renderAll();
  GGCodeGenerator CG(target(), Opts);
  std::string Asm, Err;
  EXPECT_TRUE(CG.compile(P, Asm, Err)) << Err;
  return Asm;
}

TEST(Idioms, BindingTurnsThreeAddressIntoTwo) {
  std::string Asm = genAsm("int a; int b;\n"
                           "int main() { a = a + b; return 0; }");
  EXPECT_NE(Asm.find("\taddl2\tb,a\n"), std::string::npos) << Asm;
}

TEST(Idioms, IncDecClrTst) {
  std::string Asm = genAsm("int a;\n"
                           "int main() { a = a + 1; a = a - 1; a = 0;\n"
                           "  if (a) a = 5; return 0; }");
  EXPECT_NE(Asm.find("\tincl\ta\n"), std::string::npos) << Asm;
  EXPECT_NE(Asm.find("\tdecl\ta\n"), std::string::npos) << Asm;
  EXPECT_NE(Asm.find("\tclrl\ta\n"), std::string::npos) << Asm;
  EXPECT_NE(Asm.find("\ttstl\ta\n"), std::string::npos) << Asm;
}

TEST(Idioms, MulByPowerOfTwoUsesShift) {
  std::string Asm = genAsm("int a; int b;\n"
                           "int main() { a = b * 8; return 0; }");
  EXPECT_NE(Asm.find("ashl\t$3,b"), std::string::npos) << Asm;
}

TEST(Idioms, AndUsesBicWithComplementedMask) {
  std::string Asm = genAsm("int a; int b;\n"
                           "int main() { a = b & 15; return 0; }");
  EXPECT_NE(Asm.find("\tbicl3\t$-16,b,a\n"), std::string::npos) << Asm;
}

TEST(Idioms, DisabledProducesPlainForms) {
  CodeGenOptions Off;
  Off.Idioms.BindingIdioms = false;
  Off.Idioms.RangeIdioms = false;
  Off.Idioms.CCTracking = false;
  std::string Asm = genAsm("int a; int b;\n"
                           "int main() { a = a + 1; a = 0; return 0; }",
                           Off);
  EXPECT_NE(Asm.find("\taddl3\t$1,a,a\n"), std::string::npos) << Asm;
  EXPECT_NE(Asm.find("\tmovl\t$0,a\n"), std::string::npos) << Asm;
  EXPECT_EQ(Asm.find("\tincl\t"), std::string::npos) << Asm;
}

TEST(Idioms, ConditionCodesElideTst) {
  // (a+b) computed into a register and immediately tested: no tst.
  std::string Asm = genAsm("int a; int b; int c;\n"
                           "int main() { register int r;\n"
                           "  r = 0;\n"
                           "  if ((c = a + b) != 0) r = 1;\n"
                           "  return r; }");
  // The value lands in memory c... use a pure expression branch instead.
  std::string Asm2 = genAsm("int a; int b;\n"
                            "int main() { if (a + b) return 1; return 0; }");
  EXPECT_NE(Asm2.find("\taddl3\ta,b,r0\n"), std::string::npos) << Asm2;
  EXPECT_EQ(Asm2.find("\ttstl\tr0\n"), std::string::npos) << Asm2;
  (void)Asm;
}

TEST(Idioms, IndexedAddressingSelected) {
  std::string Asm = genAsm("int v[8]; int i;\n"
                           "int main() { v[i] = 5; return v[i+1]; }");
  EXPECT_NE(Asm.find("v[r"), std::string::npos) << Asm;
}

TEST(Idioms, AutoincrementModeSelected) {
  std::string Asm = genAsm("int v[4];\n"
                           "int main() { register int *p; int s;\n"
                           "  p = v; s = *p++; s = s + *p++; return s; }");
  EXPECT_NE(Asm.find("(r6)+"), std::string::npos) << Asm;
}

TEST(Idioms, ConversionFusedIntoAssignment) {
  std::string Asm = genAsm("char c; int i;\n"
                           "int main() { i = c; c = i; return 0; }");
  EXPECT_NE(Asm.find("\tcvtbl\tc,i\n"), std::string::npos) << Asm;
  EXPECT_NE(Asm.find("\tcvtlb\ti,c\n"), std::string::npos) << Asm;
}

TEST(Idioms, UnsignedWideningUsesMovz) {
  std::string Asm = genAsm("unsigned char c; int i;\n"
                           "int main() { i = c; return 0; }");
  EXPECT_NE(Asm.find("\tmovzbl\tc,i\n"), std::string::npos) << Asm;
}

TEST(Idioms, SignedModulusExpansion) {
  std::string Asm = genAsm("int a; int b;\n"
                           "int main() { a = a % b; return 0; }");
  // div, mul, sub triple (the paper's pseudo-instruction).
  EXPECT_NE(Asm.find("divl3"), std::string::npos) << Asm;
  EXPECT_NE(Asm.find("mull2"), std::string::npos) << Asm;
  EXPECT_NE(Asm.find("subl3"), std::string::npos) << Asm;
}

TEST(Idioms, UnsignedDivisionCallsLibrary) {
  std::string Asm = genAsm("unsigned a; unsigned b;\n"
                           "int main() { a = a / b; a = a % b; return 0; }");
  EXPECT_NE(Asm.find("calls\t$2,__udiv"), std::string::npos) << Asm;
  EXPECT_NE(Asm.find("calls\t$2,__urem"), std::string::npos) << Asm;
}

TEST(Idioms, DregBranchGetsExplicitTst) {
  // The §6.2.1 production: comparing a register variable against zero
  // must re-test (reading a Dreg sets no condition codes).
  std::string Asm = genAsm("int main() { register int r; r = 5;\n"
                           "  while (r != 0) r = r - 1; return r; }");
  EXPECT_NE(Asm.find("\ttstl\tr6\n"), std::string::npos) << Asm;
}

} // namespace
