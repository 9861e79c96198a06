//===- TransformTest.cpp - phase 1 transformer unit tests ----------------------===//

#include "cg/Transform.h"
#include "frontend/Parser.h"
#include "ir/Interp.h"
#include "ir/Linearize.h"

#include <gtest/gtest.h>

using namespace gg;

namespace {

/// Parses, transforms main, and returns the program (for tree inspection).
std::unique_ptr<Program> transformed(const std::string &Source,
                                     TransformOptions Opts = {},
                                     TransformStats *Stats = nullptr) {
  auto P = std::make_unique<Program>();
  DiagnosticSink D;
  EXPECT_TRUE(compileMiniC(Source, *P, D)) << D.renderAll();
  for (Function &F : P->Functions) {
    TransformStats S;
    runPhase1(*P, F, Opts, S);
    if (Stats && P->Syms.text(F.Name) == "main")
      *Stats = S;
  }
  return P;
}

bool anyNode(const Node *N, Op O) {
  if (!N)
    return false;
  if (N->is(O))
    return true;
  return anyNode(N->left(), O) || anyNode(N->right(), O);
}

bool bodyContains(const Function &F, Op O) {
  for (const Node *S : F.Body)
    if (anyNode(S, O))
      return true;
  return false;
}

TEST(Phase1a, BooleanOperatorsAreEliminated) {
  auto P = transformed("int main() { int a; int b; a = 1; b = 0;\n"
                       "  int c; c = (a && b) || !(a < b);\n"
                       "  if (a && (b || !c)) c = 2;\n"
                       "  return c ? a : b; }");
  const Function &F = P->Functions[0];
  for (Op O : {Op::AndAnd, Op::OrOr, Op::Not, Op::Rel, Op::Select,
               Op::Colon, Op::Call})
    EXPECT_FALSE(bodyContains(F, O)) << "operator survived: " << opName(O);
  // Control flow became explicit: labels and branches appeared.
  EXPECT_TRUE(bodyContains(F, Op::LabelDef));
  EXPECT_TRUE(bodyContains(F, Op::CBranch));
}

TEST(Phase1a, CallsBecomePushCallSequences) {
  auto P = transformed("int f(int a, int b) { return a + b; }\n"
                       "int main() { return f(3, f(1, 2)); }");
  const Function &Main = *P->findFunction("main");
  int Pushes = 0, CallStmts = 0;
  for (const Node *S : Main.Body) {
    Pushes += S->is(Op::Push);
    CallStmts += S->is(Op::CallStmt);
  }
  EXPECT_EQ(Pushes, 4);    // two per call
  EXPECT_EQ(CallStmts, 2); // inner factored before outer
  // The Call nodes now carry argument counts and no Arg chains.
  for (const Node *S : Main.Body)
    if (S->is(Op::CallStmt)) {
      EXPECT_EQ(S->right()->Value, 2);
      EXPECT_EQ(S->right()->right(), nullptr);
    }
}

TEST(Phase1a, SemanticsPreservedOnHandPickedPrograms) {
  const char *Programs[] = {
      "int g;\n"
      "int f() { g = g + 1; return g; }\n"
      "int main() { int x; x = g + f(); print(x); print(g); return 0; }",
      "int g;\n"
      "int f() { g = 7; return 1; }\n"
      "int v[4];\n"
      "int main() { g = 2; v[g] = f(); print(v[2]); print(v[7 & 3]); "
      "return 0; }",
      "int main() { int a; a = 3; int b; b = (a = 5) + a; "
      "print(b); return 0; }",
  };
  for (const char *Source : Programs) {
    Program P1, P2;
    DiagnosticSink D;
    ASSERT_TRUE(compileMiniC(Source, P1, D));
    ASSERT_TRUE(compileMiniC(Source, P2, D));
    TransformStats S;
    for (Function &F : P2.Functions)
      runPhase1(P2, F, {}, S);
    InterpResult A = interpret(P1), B = interpret(P2);
    ASSERT_TRUE(A.Ok && B.Ok) << A.Error << B.Error;
    EXPECT_EQ(A.Output, B.Output) << Source;
    EXPECT_EQ(A.ReturnValue, B.ReturnValue) << Source;
  }
}

TEST(Phase1b, ConstantFolding) {
  TransformStats S;
  auto P = transformed("int main() { int x; x = 2 + 3 * 4; "
                       "return x - (10 / 2); }",
                       {}, &S);
  EXPECT_GT(S.ConstantsFolded, 0u);
  // x = 14 directly.
  const Function &F = P->Functions[0];
  bool Found14 = false;
  for (const Node *St : F.Body)
    if (St->is(Op::Assign) && St->right()->isConst(14))
      Found14 = true;
  EXPECT_TRUE(Found14);
}

TEST(Phase1b, MinusConstBecomesPlusAndConstGoesLeft) {
  auto P = transformed("int main() { int a; a = 1; a = a - 7; "
                       "a = a * 3; return a; }");
  const Function &F = P->Functions[0];
  bool SawPlusNegative = false, MulConstLeft = false;
  for (const Node *St : F.Body) {
    if (!St->is(Op::Assign) && !St->is(Op::AssignR))
      continue;
    const Node *Src = St->is(Op::Assign) ? St->right() : St->left();
    if (Src->is(Op::Plus) && Src->left()->isConst(-7))
      SawPlusNegative = true;
    if (Src->is(Op::Mul) && Src->left()->is(Op::Const))
      MulConstLeft = true;
  }
  EXPECT_TRUE(SawPlusNegative);
  EXPECT_TRUE(MulConstLeft);
}

TEST(Phase1b, ShiftByConstantBecomesMultiply) {
  auto P = transformed("int main() { int a; a = 3; return a << 4; }");
  const Function &F = P->Functions[0];
  EXPECT_FALSE(bodyContains(F, Op::Lsh));
  bool SawMul16 = false;
  for (const Node *St : F.Body)
    if (anyNode(St, Op::Mul))
      SawMul16 = true;
  EXPECT_TRUE(SawMul16);
}

TEST(Phase1b, GaddrOffsetsFold) {
  auto P = transformed("int v[8];\nint main() { return v[3]; }");
  const Function &F = P->Functions[0];
  // v[3] collapses to Indir(Gaddr v+12): no Plus or Mul remains.
  const Node *Ret = F.Body.back();
  ASSERT_TRUE(Ret->is(Op::Ret));
  const Node *E = Ret->left();
  ASSERT_TRUE(E->is(Op::Indir));
  ASSERT_TRUE(E->left()->is(Op::Gaddr));
  EXPECT_EQ(E->left()->Value, 12);
}

TEST(Phase1b, IdentityRulesRespectWidth) {
  // (0 + us) must stay long-typed: the tree keeps an explicit widening.
  Program P1, P2;
  DiagnosticSink D;
  const char *Source = "unsigned short u;\n"
                       "int main() { u = 65535; return (0 + u) > 4; }";
  ASSERT_TRUE(compileMiniC(Source, P1, D));
  ASSERT_TRUE(compileMiniC(Source, P2, D));
  TransformStats S;
  for (Function &F : P2.Functions)
    runPhase1(P2, F, {}, S);
  InterpResult A = interpret(P1), B = interpret(P2);
  ASSERT_TRUE(A.Ok && B.Ok);
  EXPECT_EQ(A.ReturnValue, B.ReturnValue);
  EXPECT_EQ(A.ReturnValue, 1);
}

TEST(Phase1c, BiggerSubtreeMovesLeft) {
  TransformStats S;
  transformed("int main() { int a; int b; int c; a=1;b=2;c=3;\n"
              "  return a + (b * c + b / (c | 1)); }",
              {}, &S);
  EXPECT_GT(S.SubtreesSwapped, 0u);
}

TEST(Phase1c, ReverseOpsOnlyWhenEnabled) {
  const char *Source =
      "int v[4];\nint main() { int i; i = 1;\n"
      "  v[v[i] & 3] = (v[0] * v[1] + v[2]) * i; return 0; }";
  TransformStats With, Without;
  TransformOptions NoRev;
  NoRev.ReverseOps = false;
  transformed(Source, {}, &With);
  transformed(Source, NoRev, &Without);
  EXPECT_EQ(Without.ReverseOpsUsed, 0u);
}

TEST(Phase1c, RegisterNeedEstimates) {
  NodeArena A;
  // Leaves and foldable addresses need nothing.
  EXPECT_EQ(registerNeed(A.con(Ty::L, 5)), 0);
  EXPECT_EQ(registerNeed(A.local(Ty::L, -4)), 0);
  EXPECT_EQ(registerNeed(A.dreg(RegFirstVar)), 0);
  // A binary over two leaves needs one register.
  Node *Sum = A.bin(Op::Plus, Ty::L, A.local(Ty::L, -4), A.local(Ty::L, -8));
  EXPECT_EQ(registerNeed(Sum), 1);
  // Balanced trees grow logarithmically (Sethi-Ullman).
  Node *T2 = A.bin(Op::Plus, Ty::L, A.clone(Sum), A.clone(Sum));
  Node *T3 = A.bin(Op::Plus, Ty::L, A.clone(T2), A.clone(T2));
  EXPECT_EQ(registerNeed(T2), 2);
  EXPECT_EQ(registerNeed(T3), 3);
  // Computed addresses need their computation.
  Node *Mem = A.unary(Op::Indir, Ty::L, A.clone(Sum));
  EXPECT_EQ(registerNeed(Mem), 1);
}

TEST(Phase1c, SpillPreventionSplitsHugeTrees) {
  // Build a source with a balanced depth-6 computed tree: need 7 > budget.
  std::string Expr = "(v0|1)";
  for (int I = 1; I < 64; ++I)
    Expr = "(" + Expr + " + (v" + std::to_string(I % 8) + "|1))";
  // Make it balanced instead: nest pairs.
  std::vector<std::string> Terms;
  for (int I = 0; I < 64; ++I)
    Terms.push_back("(v" + std::to_string(I % 8) + "|1)");
  while (Terms.size() > 1) {
    std::vector<std::string> Next;
    for (size_t I = 0; I + 1 < Terms.size(); I += 2)
      Next.push_back("(" + Terms[I] + " + " + Terms[I + 1] + ")");
    Terms = Next;
  }
  std::string Source = "int main() { int v0;int v1;int v2;int v3;"
                       "int v4;int v5;int v6;int v7;"
                       "v0=0;v1=1;v2=2;v3=3;v4=4;v5=5;v6=6;v7=7;"
                       "return " +
                       Terms[0] + "; }";
  TransformStats S;
  auto P = transformed(Source, {}, &S);
  EXPECT_GT(S.SpillSplits, 0u);
  // Every remaining statement fits the register budget.
  for (const Node *St : P->Functions[0].Body)
    EXPECT_LE(registerNeed(St), 5) << "statement still too hungry";
}

TEST(Phase1a, OrderGuardPreservesReadBeforeCall) {
  // x = g + f()  where f modifies g: g must be read first.
  const char *Source = "int g;\n"
                       "int f() { g = 100; return 1; }\n"
                       "int main() { g = 5; return g + f(); }";
  Program P;
  DiagnosticSink D;
  ASSERT_TRUE(compileMiniC(Source, P, D));
  InterpResult Pre = interpret(P);
  Program P2;
  ASSERT_TRUE(compileMiniC(Source, P2, D));
  TransformStats S;
  for (Function &F : P2.Functions)
    runPhase1(P2, F, {}, S);
  InterpResult Post = interpret(P2);
  ASSERT_TRUE(Pre.Ok && Post.Ok);
  EXPECT_EQ(Pre.ReturnValue, 6);
  EXPECT_EQ(Post.ReturnValue, 6);
}

TEST(Phase1a, PostIncOnMemoryRewritten) {
  auto P = transformed("int g;\nint main() { int x; x = g++; "
                       "return x * 10 + g; }");
  const Function &F = P->Functions[0];
  EXPECT_FALSE(bodyContains(F, Op::PostInc));
}

TEST(Phase1a, RegisterAutoincrementSurvives) {
  auto P = transformed("int v[4];\n"
                       "int main() { register int *p; p = v; "
                       "return *p++; }");
  const Function &F = *P->findFunction("main");
  EXPECT_TRUE(bodyContains(F, Op::PostInc));
}

} // namespace
