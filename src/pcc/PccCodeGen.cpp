//===- PccCodeGen.cpp - hand-coded baseline code generator --------------------===//

#include "pcc/PccCodeGen.h"
#include "cg/CodeGenerator.h" // emitDataSection
#include "cg/Transform.h"
#include "support/Error.h"
#include "support/Phase.h"
#include "support/Profile.h"
#include "support/Strings.h"
#include "vax/Emitter.h"
#include "vax/Operand.h"

using namespace gg;

namespace {

char scOf(Ty T) { return suffixChar(T); }

class PccFunctionGen {
public:
  PccFunctionGen(Program &P, Function &F, AsmEmitter &Emit,
                 DiagnosticSink &Diags, NodeArena *Arena = nullptr)
      : P(P), F(F), A(Arena ? *Arena : *P.Arena), Emit(Emit), Diags(Diags) {}

  bool run() {
    // The baseline prevents spills the way PCC did: split register-hungry
    // statements up front, then walk with a simple accumulator stack.
    splitBusyStatements();

    bool EndsWithRet = false;
    for (Node *S : F.Body) {
      EndsWithRet = false;
      genStmt(S);
      if (S->is(Op::Ret))
        EndsWithRet = true;
      if (Failed)
        return false;
      if (BusyMask != 0) {
        fatal("baseline register leak");
        return false;
      }
    }
    if (!EndsWithRet)
      Emit.instRaw("ret", {});
    return true;
  }

  /// Generates one statement tree (the fallback path); splits it the same
  /// way run() pre-splits the whole body, without touching F.Body.
  bool runOne(Node *S) {
    std::vector<Node *> Stmts;
    splitStatement(S, Stmts);
    for (Node *St : Stmts) {
      genStmt(St);
      if (Failed)
        return false;
      if (BusyMask != 0) {
        fatal("baseline register leak");
        return false;
      }
    }
    return true;
  }

private:
  Program &P;
  Function &F;
  NodeArena &A;
  AsmEmitter &Emit;
  DiagnosticSink &Diags;
  unsigned BusyMask = 0; ///< bit per scratch register r0..r5
  bool Failed = false;

  void fatal(const std::string &M) {
    // First failure is the root cause; it accumulates as a diagnostic
    // (never process death) so the baseline is safe as a fallback.
    if (!Failed) {
      Failed = true;
      Diags.error(M);
    }
  }

  int alloc() {
    for (int R = RegFirstAlloc; R <= RegLastAlloc; ++R)
      if (!(BusyMask & (1u << R))) {
        BusyMask |= 1u << R;
        return R;
      }
    fatal("baseline ran out of registers");
    return 0;
  }
  void freeReg(int R) {
    if (R >= RegFirstAlloc && R <= RegLastAlloc)
      BusyMask &= ~(1u << R);
  }
  void reclaim(const Operand &O) {
    freeReg(O.Base);
    freeReg(O.Index);
  }

  /// Pre-splits one statement into \p Out: embedded library calls are
  /// hoisted so r0 is never live across the call, then register-hungry
  /// subtrees are assigned to frame temporaries.
  void splitStatement(Node *S, std::vector<Node *> &Out) {
    // Unsigned division/modulus become library calls whose result
    // arrives in r0; hoist each one to its own statement so r0 is
    // never live across the call.
    for (int Guard = 0; Guard < 16; ++Guard) {
      Node **Lib = findLibCallSubtree(S, /*AtRoot=*/true);
      if (!Lib)
        break;
      Node *Tmp = A.local((*Lib)->Type, F.allocLocal(4));
      Out.push_back(A.bin(Op::Assign, (*Lib)->Type, Tmp, *Lib));
      *Lib = A.clone(Tmp);
    }
    for (int Guard = 0; Guard < 16 && registerNeed(S) > 5; ++Guard) {
      Node **Split = findHungryChild(S);
      if (!Split)
        break;
      Node *Tmp = A.local((*Split)->Type, F.allocLocal(4));
      Out.push_back(A.bin(Op::Assign, (*Split)->Type, Tmp, *Split));
      *Split = A.clone(Tmp);
    }
    Out.push_back(S);
  }

  void splitBusyStatements() {
    std::vector<Node *> Out;
    for (Node *S : F.Body)
      splitStatement(S, Out);
    F.Body = std::move(Out);
  }

  static bool hasEffects(const Node *N) {
    if (!N)
      return false;
    if (N->is(Op::PostInc) || N->is(Op::PreDec))
      return true;
    return hasEffects(N->left()) || hasEffects(N->right());
  }

  /// Finds an inner unsigned Div/Mod to hoist. A node that is already the
  /// direct source of a root assignment is fine where it is.
  Node **findLibCallSubtree(Node *N, bool AtRoot) {
    if (!N)
      return nullptr;
    for (Node *&Kid : N->Kids) {
      if (!Kid)
        continue;
      bool KidIsRootSource =
          AtRoot && (N->is(Op::Assign) || N->is(Op::AssignR)) &&
          &Kid == &N->Kids[N->is(Op::Assign) ? 1 : 0];
      if ((Kid->is(Op::Div) || Kid->is(Op::Mod)) &&
          isUnsignedTy(Kid->Type) && !KidIsRootSource &&
          !hasEffects(Kid)) {
        // Hoist the outermost such node only after its own operands are
        // clean of nested library calls.
        if (Node **Inner = findLibCallSubtree(Kid, false))
          return Inner;
        return &Kid;
      }
      if (Node **Found = findLibCallSubtree(Kid, false))
        return Found;
    }
    return nullptr;
  }

  Node **findHungryChild(Node *S) {
    Node *N = S;
    while (true) {
      Node **Best = nullptr;
      int BestNeed = -1;
      for (Node *&Kid : N->Kids) {
        if (!Kid)
          continue;
        int Need = registerNeed(Kid);
        if (Need > BestNeed) {
          BestNeed = Need;
          Best = &Kid;
        }
      }
      if (!Best || BestNeed < 2)
        return nullptr;
      if (BestNeed <= 4 && !(*Best)->is(Op::Dreg) && !hasEffects(*Best))
        return Best;
      N = *Best;
    }
  }

  //===--- statements ----------------------------------------------------------
  void genStmt(Node *S) {
    switch (S->Opcode) {
    case Op::LabelDef:
      Emit.label(S->Sym);
      return;
    case Op::Jump:
      Emit.instRaw("brw", {P.Syms.text(S->left()->Sym)});
      return;
    case Op::CBranch: {
      Node *C = S->left();
      Operand L = genExpr(C->left());
      Operand R = genExpr(C->right());
      char SC = scOf(C->Type);
      // Widen mismatched operands to the comparison width.
      L = widenTo(L, C->left()->Type, C->Type);
      R = widenTo(R, C->right()->Type, C->Type);
      if (R.isImm() && R.Disp == 0)
        Emit.inst(strf("tst%c", SC), {L});
      else
        Emit.inst(strf("cmp%c", SC), {L, R});
      Emit.instRaw(strf("j%s", condName(C->CC)),
                   {P.Syms.text(S->right()->Sym)});
      reclaim(L);
      reclaim(R);
      return;
    }
    case Op::Ret:
      if (S->left()) {
        Operand V = genExpr(S->left());
        V = widenTo(V, S->left()->Type, Ty::L);
        if (!(V.isReg() && V.Base == RegR0))
          Emit.inst("movl", {V, Operand::reg(RegR0, Ty::L)});
        reclaim(V);
      }
      Emit.instRaw("ret", {});
      return;
    case Op::Push: {
      Operand V = genExpr(S->left());
      V = widenTo(V, S->left()->Type, Ty::L);
      Emit.inst("pushl", {V});
      reclaim(V);
      return;
    }
    case Op::CallStmt: {
      const Node *Call = S->right();
      Emit.instRaw("calls", {strf("$%lld", (long long)Call->Value),
                             P.Syms.text(Call->left()->Sym)});
      if (S->left()) {
        Operand Dst = lvalueOperand(S->left());
        Emit.inst(strf("mov%c", scOf(S->left()->Type)),
                  {Operand::reg(RegR0, Ty::L), Dst});
        reclaim(Dst);
      }
      return;
    }
    case Op::Assign:
    case Op::AssignR: {
      Node *DstN = S->is(Op::Assign) ? S->left() : S->right();
      Node *SrcN = S->is(Op::Assign) ? S->right() : S->left();
      Operand Src = genExpr(SrcN);
      Operand Dst = lvalueOperand(DstN);
      char SC = scOf(DstN->Type);
      Src = widenTo(Src, SrcN->Type, DstN->Type);
      if (Src.isImm() && Src.Disp == 0)
        Emit.inst(strf("clr%c", SC), {Dst});
      else if (!Src.sameLocation(Dst))
        Emit.inst(strf("mov%c", SC), {Src, Dst});
      reclaim(Src);
      reclaim(Dst);
      return;
    }
    default: {
      Operand V = genExpr(S); // expression statement
      reclaim(V);
      return;
    }
    }
  }

  //===--- operands ------------------------------------------------------------
  Operand lvalueOperand(Node *N) {
    switch (N->Opcode) {
    case Op::Name:
      return Operand::abs(N->Sym, N->Type);
    case Op::Dreg:
      return Operand::reg(N->Reg, N->Type);
    case Op::Indir:
      return memOperand(N);
    default:
      fatal(strf("baseline: bad lvalue %s", opName(N->Opcode)));
      return Operand::imm(0, Ty::L);
    }
  }

  /// Memory operand for an Indir: folds abs / disp(reg); everything else
  /// computes the address into a register ((rN) deferred).
  Operand memOperand(Node *N) {
    Node *Addr = N->left();
    if (Addr->is(Op::Gaddr))
      return Operand::abs(Addr->Sym, N->Type, Addr->Value);
    if (Addr->is(Op::Plus) && Addr->left()->is(Op::Const) &&
        Addr->right()->is(Op::Dreg)) {
      return Operand::disp(Addr->right()->Reg,
                           static_cast<int32_t>(Addr->left()->Value),
                           N->Type);
    }
    if (Addr->is(Op::Dreg))
      return Operand::disp(Addr->Reg, 0, N->Type);
    Operand R = toReg(genExpr(Addr), Ty::L);
    Operand M = Operand::disp(R.Base, 0, N->Type);
    return M;
  }

  Operand toReg(Operand O, Ty T) {
    if (O.isReg() && O.Base >= RegFirstAlloc && O.Base <= RegLastAlloc)
      return O;
    reclaim(O);
    int R = alloc();
    Operand D = Operand::reg(R, T);
    if (O.isReg()) // register variable: copy to a scratch register
      Emit.inst("movl", {O, D});
    else
      Emit.inst(strf("mov%c", scOf(T)), {O, D});
    return D;
  }

  /// Converts \p O (typed \p From) to width of \p To if narrower.
  Operand widenTo(Operand O, Ty From, Ty To) {
    if (sizeOfTy(From) >= sizeOfTy(To))
      return O;
    if (O.isImm())
      return Operand::imm(O.Disp, To);
    reclaim(O);
    int R = alloc();
    Operand D = Operand::reg(R, To);
    const char *Opc = isUnsignedTy(From) ? "movz" : "cvt";
    Emit.instRaw(strf("%s%c%c", Opc, suffixChar(From), suffixChar(To)),
                 {formatOperand(O, P.Syms), formatOperand(D, P.Syms)});
    return D;
  }

  //===--- expressions ----------------------------------------------------------
  Operand genExpr(Node *N) {
    if (Failed)
      return Operand::imm(0, Ty::L);
    Ty T = N->Type;
    char SC = scOf(T);
    switch (N->Opcode) {
    case Op::Const:
      return Operand::imm(N->Value, T);
    case Op::Gaddr: {
      Operand O = Operand::immSym(N->Sym);
      O.Disp = N->Value;
      return O;
    }
    case Op::Name:
      return Operand::abs(N->Sym, T);
    case Op::Dreg:
      return Operand::reg(N->Reg, T);
    case Op::Indir:
      return memOperand(N);
    case Op::Conv: {
      Node *Kid = N->left();
      Operand S = genExpr(Kid);
      if (S.isImm())
        return Operand::imm(truncateToTy(S.Disp, T), T);
      if (sizeOfTy(Kid->Type) < sizeOfTy(T))
        return widenTo(S, Kid->Type, T);
      reclaim(S);
      int R = alloc();
      Operand D = Operand::reg(R, T);
      Emit.instRaw(strf("cvt%c%c", suffixChar(Kid->Type), SC),
                   {formatOperand(S, P.Syms), formatOperand(D, P.Syms)});
      return D;
    }
    case Op::Neg:
    case Op::Com: {
      Operand S = genExpr(N->left());
      S = widenTo(S, N->left()->Type, T);
      reclaim(S);
      int R = alloc();
      Operand D = Operand::reg(R, T);
      Emit.inst(strf("%s%c", N->is(Op::Neg) ? "mneg" : "mcom", SC), {S, D});
      return D;
    }
    case Op::PostInc: {
      // Register autoincrement value (the only form phase 1a leaves).
      Operand Cell = lvalueOperand(N->left());
      int R = alloc();
      Operand D = Operand::reg(R, Ty::L);
      Emit.inst("movl", {Cell, D});
      Emit.inst("addl2", {genExpr(N->right()), Cell});
      return D;
    }
    case Op::PreDec: {
      Operand Cell = lvalueOperand(N->left());
      Emit.inst("subl2", {genExpr(N->right()), Cell});
      int R = alloc();
      Operand D = Operand::reg(R, Ty::L);
      Emit.inst("movl", {Cell, D});
      return D;
    }
    default:
      break;
    }

    if (opArity(N->Opcode) != 2) {
      fatal(strf("baseline cannot generate %s", opName(N->Opcode)));
      return Operand::imm(0, Ty::L);
    }

    // Binary operators. Evaluate the hungrier side first.
    Node *LN = N->left(), *RN = N->right();
    Op O = N->Opcode;
    if (isReverseOp(O)) {
      std::swap(LN, RN);
      O = reverseOp(O);
    }
    bool RightFirst = registerNeed(RN) > registerNeed(LN);
    Operand L, R;
    if (RightFirst) {
      R = genExpr(RN);
      L = genExpr(LN);
    } else {
      L = genExpr(LN);
      R = genExpr(RN);
    }
    L = widenTo(L, LN->Type, T);
    R = widenTo(R, RN->Type, T);

    switch (O) {
    case Op::Plus:
      return arith3("add", SC, L, R, /*Reversed=*/false);
    case Op::Minus:
      return arith3("sub", SC, L, R, /*Reversed=*/true);
    case Op::Mul:
      return arith3("mul", SC, L, R, false);
    case Op::Div:
      if (isUnsignedTy(T))
        return libCall("__udiv", L, R);
      return arith3("div", SC, L, R, true);
    case Op::Mod: {
      if (isUnsignedTy(T))
        return libCall("__urem", L, R);
      // q = a / b; q *= b; r = a - q.
      Operand LR = toReg(L, T);
      Operand RS = R.Mode == AMode::AutoInc || R.Mode == AMode::AutoDec
                       ? toReg(R, T)
                       : R;
      int Q = alloc();
      Operand QOp = Operand::reg(Q, T);
      Emit.inst(strf("div%c3", SC), {RS, LR, QOp});
      Emit.inst(strf("mul%c2", SC), {RS, QOp});
      Emit.inst(strf("sub%c3", SC), {QOp, LR, QOp});
      reclaim(LR);
      reclaim(RS);
      return QOp;
    }
    case Op::And: {
      Operand Mask;
      if (L.isImm())
        Mask = Operand::imm(truncateToTy(~L.Disp, T), T);
      else if (R.isImm()) {
        Mask = Operand::imm(truncateToTy(~R.Disp, T), T);
        R = L;
      } else {
        reclaim(L);
        int M = alloc();
        Mask = Operand::reg(M, T);
        Emit.inst(strf("mcom%c", SC), {L, Mask});
      }
      // bicX3 mask,src,dst computes src & ~mask: mask prints first.
      return arith3("bic", SC, Mask, R, false);
    }
    case Op::Or:
      return arith3("bis", SC, L, R, false);
    case Op::Xor:
      return arith3("xor", SC, L, R, false);
    case Op::Lsh: {
      reclaim(L);
      reclaim(R);
      int D = alloc();
      Operand DO = Operand::reg(D, T);
      Emit.inst("ashl", {R, L, DO});
      return DO;
    }
    case Op::Rsh: {
      if (isUnsignedTy(T)) {
        if (R.isImm()) {
          int64_t C = R.Disp;
          reclaim(L);
          int D = alloc();
          Operand DO = Operand::reg(D, T);
          if (C == 0)
            Emit.inst("movl", {L, DO});
          else if (C < 0 || C > 31)
            Emit.inst("clrl", {DO});
          else
            Emit.inst("extzv", {Operand::imm(C, Ty::L),
                                Operand::imm(32 - C, Ty::L), L, DO});
          return DO;
        }
        Operand RS = toReg(R, Ty::L);
        int W = alloc();
        Operand WO = Operand::reg(W, Ty::L);
        Emit.inst("subl3", {RS, Operand::imm(32, Ty::L), WO});
        reclaim(L);
        int D = alloc();
        Operand DO = Operand::reg(D, T);
        Emit.inst("extzv", {RS, WO, L, DO});
        freeReg(W);
        reclaim(RS);
        return DO;
      }
      Operand NegCnt;
      if (R.isImm()) {
        NegCnt = Operand::imm(-R.Disp, Ty::L);
      } else {
        reclaim(R);
        int M = alloc();
        NegCnt = Operand::reg(M, Ty::L);
        Emit.inst("mnegl", {R, NegCnt});
      }
      reclaim(L);
      reclaim(NegCnt);
      int D = alloc();
      Operand DO = Operand::reg(D, T);
      Emit.inst("ashl", {NegCnt, L, DO});
      return DO;
    }
    case Op::Assign: {
      // Embedded assignment (rare post-1a; handle for robustness).
      fatal("baseline: embedded assignment");
      return Operand::imm(0, Ty::L);
    }
    default:
      fatal(strf("baseline cannot generate %s", opName(N->Opcode)));
      return Operand::imm(0, Ty::L);
    }
  }

  /// op3 a,b,dst with the PCC-era inc/dec special case.
  Operand arith3(const char *Base, char SC, Operand L, Operand R,
                 bool Reversed) {
    reclaim(L);
    reclaim(R);
    int D = alloc();
    Operand DO = Operand::reg(D, Ty::L);
    if (std::string_view(Base) == "add" && R.isImm() && R.Disp == 1 &&
        L.isReg() && L.Base == D) {
      Emit.inst(strf("inc%c", SC), {DO});
      return DO;
    }
    if (Reversed)
      Emit.inst(strf("%s%c3", Base, SC), {R, L, DO});
    else
      Emit.inst(strf("%s%c3", Base, SC), {L, R, DO});
    return DO;
  }

  Operand libCall(const char *Fn, Operand L, Operand R) {
    Emit.inst("pushl", {R});
    Emit.inst("pushl", {L});
    reclaim(L);
    reclaim(R);
    if (BusyMask & 1u)
      fatal("baseline: r0 busy across a library call");
    Emit.instRaw("calls", {"$2", Fn});
    BusyMask |= 1u; // claim r0
    return Operand::reg(RegR0, Ty::UL);
  }
};

} // namespace

bool PccCodeGenerator::compile(Program &Prog, std::string &Asm,
                               std::string &Err) {
  Stats = PccStats();
  PhaseTimes Times;
  PhaseAccount Account(Times);
  // The whole baseline compile is one phase: the --diff-pcc leg compares
  // its profile against the GG side's per-phase breakdown.
  PhaseScope PS(Phase::PccCompile);
  profile().noteCompile();
  AsmEmitter Emit(Prog.Syms);
  emitDataSection(Prog, Emit);
  Emit.directive(".text");

  for (Function &F : Prog.Functions) {
    // Shared target-independent lowering (phase 1a only); the baseline
    // does its own ordering and spill prevention.
    TransformOptions TO;
    TO.Reorder = false;
    TO.ReverseOps = false;
    TO.PreventSpills = false;
    runPhase1(Prog, F, TO);
    Stats.StatementTrees += F.Body.size();

    Emit.blank();
    Emit.directive(strf(".globl %s", Prog.Syms.text(F.Name).c_str()));
    Emit.labelText(Prog.Syms.text(F.Name));
    Emit.directive(".word 0x0fc0");
    size_t PrologueLine = Emit.lines().size();
    Emit.instRaw("subl2", {"$FRAME", "sp"});

    DiagnosticSink Diags;
    PccFunctionGen Gen(Prog, F, Emit, Diags);
    if (!Gen.run()) {
      Err = Diags.renderAll();
      return false;
    }
    Emit.patchLine(PrologueLine, strf("\tsubl2\t$%d,sp", F.FrameSize));
  }
  Stats.Instructions = Emit.instructionCount();
  Asm += Emit.text();
  Stats.AsmLines = Emit.lineCount();
  // Charged up to the final render's Emit scope: the whole compile.
  Stats.Seconds = Times[Phase::PccCompile] + Times[Phase::Emit];
  return true;
}

bool gg::pccGenStatement(Program &P, Function &F, Node *S, AsmEmitter &Emit,
                         DiagnosticSink &Diags, NodeArena *Arena) {
  // Fallback generation must be all-or-nothing: roll back anything a
  // failed walk emitted so the caller can report a clean module error.
  AsmEmitter::Mark M = Emit.mark();
  PccFunctionGen Gen(P, F, Emit, Diags, Arena);
  if (!Gen.runOne(S)) {
    Emit.rollback(M);
    return false;
  }
  return true;
}
