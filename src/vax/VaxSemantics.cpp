//===- VaxSemantics.cpp - phase-3 instruction generation ---------------------===//

#include "vax/VaxSemantics.h"
#include "support/Error.h"
#include "support/Strings.h"
#include "support/TableEvents.h"

using namespace gg;

namespace {

/// Records a consultation of a Figure-3 row in the table-event registry;
/// unarmed it costs one relaxed load.
void covRow(int Row) {
  TableEventRegistry &Ev = tableEvents();
  if (Ev.armed())
    Ev.noteRow(Row);
}
void covRow(const InstCluster &C) { covRow(clusterId(C)); }

} // namespace

namespace {

Ty tyForSize(char SC, bool Unsigned = false) {
  switch (SC) {
  case 'b':
    return Unsigned ? Ty::UB : Ty::B;
  case 'w':
    return Unsigned ? Ty::UW : Ty::W;
  default:
    return Unsigned ? Ty::UL : Ty::L;
  }
}

int sizeRank(char SC) { return SC == 'b' ? 1 : SC == 'w' ? 2 : 4; }

bool isPowerOfTwo(int64_t V) { return V > 1 && (V & (V - 1)) == 0; }

int log2Of(int64_t V) {
  int K = 0;
  while ((int64_t(1) << K) < V)
    ++K;
  return K;
}

/// Truncates a mask complement to the instruction width so bic immediates
/// print in-range.
int64_t complementFor(int64_t V, char SC) {
  return truncateToTy(~V, tyForSize(SC));
}

} // namespace

//===----------------------------------------------------------------------===//
// Semantic-tag decoding (once per target)
//===----------------------------------------------------------------------===//

/// Operand layout of a three-address arithmetic tag.
struct gg::ArithShape {
  const char *Tag;     // semantic tag base
  const char *Cluster; // instruction-table cluster
  int OpIdx;           // index of the operator leaf in Vals
  int S1, S2;          // source indices (pre-swap)
  int DstIdx;          // lvalue index or -1
  bool SwapSrcs;       // reverse-operator form
};

namespace {

const ArithShape Shapes[] = {
    {"add", "add", 0, 1, 2, -1, false},
    {"sub", "sub", 0, 1, 2, -1, false},
    {"mul", "mul", 0, 1, 2, -1, false},
    {"div", "div", 0, 1, 2, -1, false},
    {"mod", "mod", 0, 1, 2, -1, false},
    {"and", "and", 0, 1, 2, -1, false},
    {"bis", "bis", 0, 1, 2, -1, false},
    {"xor", "xor", 0, 1, 2, -1, false},
    {"ash", "ash", 0, 1, 2, -1, false},
    {"rsh", "rsh", 0, 1, 2, -1, false},
    {"subr", "sub", 0, 1, 2, -1, true},
    {"divr", "div", 0, 1, 2, -1, true},
    {"modr", "mod", 0, 1, 2, -1, true},
    {"ashr", "ash", 0, 1, 2, -1, true},
    {"rshr", "rsh", 0, 1, 2, -1, true},
    {"add3", "add", 2, 3, 4, 1, false},
    {"sub3", "sub", 2, 3, 4, 1, false},
    {"mul3", "mul", 2, 3, 4, 1, false},
    {"div3", "div", 2, 3, 4, 1, false},
    {"mod3", "mod", 2, 3, 4, 1, false},
    {"and3", "and", 2, 3, 4, 1, false},
    {"bis3", "bis", 2, 3, 4, 1, false},
    {"xor3", "xor", 2, 3, 4, 1, false},
    {"ash3", "ash", 2, 3, 4, 1, false},
    {"rsh3", "rsh", 2, 3, 4, 1, false},
    {"sub3r", "sub", 2, 3, 4, 1, true},
    {"div3r", "div", 2, 3, 4, 1, true},
    {"mod3r", "mod", 2, 3, 4, 1, true},
    {"ash3r", "ash", 2, 3, 4, 1, true},
    {"rsh3r", "rsh", 2, 3, 4, 1, true},
    {"add3s", "add", 1, 2, 3, 4, false},
    {"sub3s", "sub", 1, 2, 3, 4, false},
    {"mul3s", "mul", 1, 2, 3, 4, false},
    {"div3s", "div", 1, 2, 3, 4, false},
    {"mod3s", "mod", 1, 2, 3, 4, false},
    {"and3s", "and", 1, 2, 3, 4, false},
    {"bis3s", "bis", 1, 2, 3, 4, false},
    {"xor3s", "xor", 1, 2, 3, 4, false},
    {"ash3s", "ash", 1, 2, 3, 4, false},
    {"rsh3s", "rsh", 1, 2, 3, 4, false},
    {"sub3sr", "sub", 1, 2, 3, 4, true},
    {"div3sr", "div", 1, 2, 3, 4, true},
    {"mod3sr", "mod", 1, 2, 3, 4, true},
    {"ash3sr", "ash", 1, 2, 3, 4, true},
    {"rsh3sr", "rsh", 1, 2, 3, 4, true},
};

struct NamedOp {
  const char *Base;
  SemOp Op;
};

const NamedOp EncapOps[] = {
    {"imm", SemOp::Imm},         {"immsym", SemOp::ImmSym},
    {"conwiden", SemOp::ConWiden}, {"dregloc", SemOp::DregLoc},
    {"usedreg", SemOp::UseDreg}, {"abs", SemOp::Abs},
    {"gabs", SemOp::GAbs},       {"regdef", SemOp::RegDef},
    {"disp", SemOp::Disp},       {"def", SemOp::Def},
    {"dxdisp", SemOp::DxDisp},   {"dxreg", SemOp::DxReg},
    {"dxabs", SemOp::DxAbs},     {"autoinc", SemOp::AutoInc},
    {"autodec", SemOp::AutoDec},
};

const NamedOp EmitOps[] = {
    {"load", SemOp::Load},       {"loadcon", SemOp::LoadCon},
    {"cvtm", SemOp::CvtM},       {"cvtr", SemOp::CvtR},
    {"cvt", SemOp::Cvt},         {"cvta", SemOp::CvtA},
    {"cvtas", SemOp::CvtAS},     {"mov", SemOp::Mov},
    {"movr", SemOp::MovR},       {"neg", SemOp::Neg},
    {"com", SemOp::Com},         {"neg2", SemOp::Neg2},
    {"com2", SemOp::Com2},       {"neg2s", SemOp::Neg2S},
    {"com2s", SemOp::Com2S},     {"cmpbr", SemOp::CmpBr},
    {"tstbr", SemOp::TstBr},     {"dregbr", SemOp::DregBr},
    {"push", SemOp::Push},       {"postinc", SemOp::PostInc},
    {"predec", SemOp::PreDec},   {"bridgedx1", SemOp::BridgeDx1},
    {"bridgedx2", SemOp::BridgeDx2}, {"bridgedx3", SemOp::BridgeDx3},
};

/// The arithmetic family of an instruction-table cluster: how doArith
/// selects the instruction.
SemOp arithFamily(std::string_view Cluster) {
  if (Cluster == "div")
    return SemOp::ArithDiv;
  if (Cluster == "mod")
    return SemOp::ArithMod;
  if (Cluster == "and")
    return SemOp::ArithAnd;
  if (Cluster == "ash")
    return SemOp::ArithAsh;
  if (Cluster == "rsh")
    return SemOp::ArithRsh;
  return SemOp::Arith;
}

/// Decodes one tag "base_b_l": the base names the routine (looked up among
/// the routines of the production's action kind), then up to two
/// one-letter size classes follow.
SemAction decodeTag(ActionKind Kind, const std::string &Tag) {
  SemAction A;
  if (Kind == ActionKind::Glue) {
    A.Op = SemOp::Glue;
    return A;
  }
  std::vector<std::string_view> Parts = splitString(Tag, '_');
  size_t I = 1;
  if (I < Parts.size() && Parts[I].size() == 1)
    A.SC1 = Parts[I++][0];
  if (I < Parts.size() && Parts[I].size() == 1)
    A.SC2 = Parts[I++][0];
  const std::string_view Base = Parts[0];
  if (Kind == ActionKind::Encap) {
    for (const NamedOp &N : EncapOps)
      if (Base == N.Base)
        A.Op = N.Op;
    return A;
  }
  for (const NamedOp &N : EmitOps)
    if (Base == N.Base)
      A.Op = N.Op;
  for (const ArithShape &S : Shapes)
    if (Base == S.Tag) {
      A.Op = arithFamily(S.Cluster);
      A.Shape = &S;
      A.Cluster = findCluster(S.Cluster);
    }
  return A;
}

} // namespace

std::vector<SemAction> gg::decodeSemActions(const Grammar &G) {
  std::vector<SemAction> Acts;
  Acts.reserve(G.numProductions());
  for (const Production &P : G.productions())
    Acts.push_back(decodeTag(P.Kind, P.SemTag));
  return Acts;
}

const char *gg::semActionBase(const SemAction &A) {
  if (A.Shape)
    return A.Shape->Tag;
  for (const NamedOp &N : EncapOps)
    if (N.Op == A.Op)
      return N.Base;
  for (const NamedOp &N : EmitOps)
    if (N.Op == A.Op)
      return N.Base;
  return "";
}

VaxSemantics::VaxSemantics(AsmEmitter &Emit, Function &F,
                           const CgOptions &Opts)
    : Emit(Emit), F(F), Opts(Opts), Spell(spellings()),
      RM([this](int R, const Operand &Cell) { spillStore(R, Cell); },
         [this]() { return this->F.allocLocal(4); },
         [this](int R) { return isSpillable(R); },
         [this](const std::string &Msg) { fail(Msg); }) {}

void VaxSemantics::fail(const std::string &Message) {
  if (ReplayErr.empty())
    ReplayErr = Message;
}

void VaxSemantics::resetAfterFailure() {
  ReplayErr.clear();
  Stack.clear();
  FrameBase = 0;
  RM.resetForStatement();
  invalidateCC();
  Emit.clearProduction();
}

//===----------------------------------------------------------------------===//
// Operand plumbing
//===----------------------------------------------------------------------===//

bool VaxSemantics::isSpillable(int Reg) const {
  // A register is relocatable only while its sole holder is a plain
  // register operand on the semantic stack *below* the reduction that is
  // currently executing: entries at or above FrameBase may have been
  // copied into handler locals that a rewrite cannot reach.
  for (size_t I = 0; I < Stack.size(); ++I) {
    const Operand &O = Stack[I].Opnd;
    if (O.DregRef)
      continue; // names the register as a location, not a value holder
    bool References = O.Base == Reg || O.Index == Reg;
    if (I < FrameBase && O.Mode == AMode::Reg && O.Base == Reg)
      continue; // rewritable holder
    if (References)
      return false; // held somewhere a rewrite cannot fix
  }
  for (size_t I = 0; I < FrameBase && I < Stack.size(); ++I) {
    const Operand &O = Stack[I].Opnd;
    if (O.Mode == AMode::Reg && O.Base == Reg && !O.DregRef)
      return true;
  }
  return false;
}

void VaxSemantics::spillStore(int Reg, const Operand &Cell) {
  emitInst("movl", {Operand::reg(Reg, Ty::L), Cell});
  // Rewrite every live semantic value that holds the spilled register.
  bool Rewrote = false;
  for (SemVal &V : Stack) {
    if (V.Opnd.Mode == AMode::Reg && V.Opnd.Base == Reg &&
        !V.Opnd.DregRef) {
      Ty Keep = V.Opnd.Type;
      V.Opnd = Cell;
      V.Opnd.Type = Keep;
      V.Opnd.Spilled = true;
      Rewrote = true;
    }
  }
  if (!Rewrote)
    fail(strf("spilled register %s not found on the semantic stack",
              regName(Reg)));
  if (LastCCReg == Reg)
    LastCCReg = -1;
}

void VaxSemantics::prepare(Operand &O) {
  if (!O.Spilled)
    return;
  // "If a register is spilled, it is reloaded just before it is used."
  Operand Cell = O;
  Cell.Type = Ty::L;
  int R = RM.alloc();
  RM.noteUnspill();
  emitInst("movl", {Cell, Operand::reg(R, Ty::L)});
  Ty Keep = O.Type;
  O = Operand::reg(R, Keep);
}

Operand VaxSemantics::ensureReg(Operand O, char SC) {
  prepare(O);
  if (O.isReg())
    return O;
  RM.reclaim(O);
  int R = RM.alloc();
  Operand Dst = Operand::reg(R, tyForSize(SC));
  emitInst(Spell.row(RowMov, SC), {O, Dst});
  setCC(Dst, SC);
  return Dst;
}

Operand VaxSemantics::stabilize(Operand O, char SC) {
  if (O.Mode == AMode::AutoInc || O.Mode == AMode::AutoDec)
    return ensureReg(O, SC);
  return O;
}

void VaxSemantics::setCC(const Operand &O, char SC) {
  if (O.Mode == AMode::Reg) {
    LastCCReg = O.Base;
    LastCCSize = SC;
  } else {
    LastCCReg = -1;
  }
}

void VaxSemantics::emitInst(Spelling Op,
                            std::initializer_list<Operand> Ops) {
  Emit.inst(Op, Ops);
}

//===----------------------------------------------------------------------===//
// Statement-level helpers
//===----------------------------------------------------------------------===//

void VaxSemantics::emitLabel(InternedString L) {
  Emit.label(L);
  invalidateCC();
}

void VaxSemantics::emitJump(InternedString L) {
  emitInst("brw", {Operand::labelRef(L)});
  invalidateCC();
}

void VaxSemantics::emitCall(InternedString Fn, int NumArgs) {
  emitInst("calls", {Operand::imm(NumArgs, Ty::L), Operand::labelRef(Fn)});
  invalidateCC();
}

void VaxSemantics::emitRet() {
  emitInst("ret", {});
  invalidateCC();
}

//===----------------------------------------------------------------------===//
// Replay
//===----------------------------------------------------------------------===//

bool VaxSemantics::replay(const Grammar &G, const std::vector<SemAction> &Acts,
                          std::span<const LinToken> Input,
                          std::span<const MatchStep> Steps,
                          std::string &Err) {
  ReplayErr.clear();
  Stack.clear();
  FrameBase = 0;
  for (const MatchStep &S : Steps) {
    if (S.Kind == MatchStep::Shift) {
      SemVal V;
      V.Leaf = Input[S.TokenIndex].N;
      Stack.push_back(V);
      FrameBase = Stack.size();
      continue;
    }
    const Production &P = G.prod(S.ProdId);
    size_t K = P.Rhs.size();
    assert(Stack.size() >= K && "semantic stack underflow");
    FrameBase = Stack.size() - K;
    // Explain mode: instructions emitted by this reduction's semantic
    // action carry the production that selected them.
    Emit.setProduction(S.ProdId);
    SemVal Result = dispatch(P, Acts[S.ProdId], &Stack[FrameBase], K);
    Stack.resize(Stack.size() - K);
    Stack.push_back(Result);
    FrameBase = Stack.size();
    if (!ReplayErr.empty()) {
      Err = ReplayErr;
      return false;
    }
  }
  assert(Stack.size() == 1 && "statement did not reduce to one value");
  Stack.clear();
  Emit.clearProduction();
  if (RM.anyBusy()) {
    Err = "register leak: allocatable registers still busy after statement";
    RM.resetForStatement();
    return false;
  }
  return true;
}

SemVal VaxSemantics::dispatch(const Production &P, const SemAction &A,
                              SemVal *Vals, size_t N) {
  switch (P.Kind) {
  case ActionKind::Glue:
    assert(N == 1 && "glue production with multi-symbol RHS");
    return Vals[0];
  case ActionKind::Encap:
    return doEncap(P, A, Vals);
  case ActionKind::Emit:
    return doEmit(P, A, Vals, N);
  }
  gg_unreachable("bad action kind");
}

//===----------------------------------------------------------------------===//
// Encapsulating reductions: addressing-mode condensation
//===----------------------------------------------------------------------===//

SemVal VaxSemantics::doEncap(const Production &P, const SemAction &A,
                             SemVal *Vals) {
  SemVal R;
  auto PinIfReg = [&](const Operand &O) {
    if (O.isReg())
      RM.pin(O.Base);
  };

  switch (A.Op) {
  case SemOp::Imm: {
    const Node *L = Vals[0].Leaf;
    R.Opnd = Operand::imm(L->Value, L->Type);
    return R;
  }
  case SemOp::ImmSym: {
    const Node *L = Vals[0].Leaf;
    R.Opnd = Operand::immSym(L->Sym);
    R.Opnd.Disp = L->Value;
    return R;
  }
  case SemOp::ConWiden: {
    const Node *L = Vals[0].Leaf;
    // Node values are stored sign-/zero-extended per their own type, so
    // widening is a retype of the already-extended value.
    R.Opnd = Operand::imm(L->Value, tyForSize(A.SC2, isUnsignedTy(L->Type)));
    return R;
  }
  case SemOp::DregLoc:
  case SemOp::UseDreg: {
    const Node *L = Vals[0].Leaf;
    R.Opnd = Operand::reg(L->Reg, L->Type);
    R.Opnd.DregRef = true; // a register location, not an allocated value
    return R;
  }
  case SemOp::Abs: {
    const Node *L = Vals[0].Leaf;
    R.Opnd = Operand::abs(L->Sym, L->Type);
    return R;
  }
  case SemOp::GAbs: {
    // Indir_Y Gaddr_l
    const Node *Ind = Vals[0].Leaf, *GA = Vals[1].Leaf;
    R.Opnd = Operand::abs(GA->Sym, Ind->Type, GA->Value);
    return R;
  }
  case SemOp::RegDef:
    // Indir_Y reg_l
    prepare(Vals[1].Opnd);
    R.Opnd = Operand::disp(Vals[1].Opnd.Base, 0, Vals[0].Leaf->Type);
    PinIfReg(Vals[1].Opnd);
    return R;
  case SemOp::Disp: {
    // Indir_Y Plus_l con_l reg_l
    prepare(Vals[3].Opnd);
    const Operand &Con = Vals[2].Opnd;
    R.Opnd = Operand::disp(Vals[3].Opnd.Base, Con.Disp, Vals[0].Leaf->Type);
    if (Con.Mode == AMode::ImmSym)
      R.Opnd.Sym = Con.Sym;
    PinIfReg(Vals[3].Opnd);
    return R;
  }
  case SemOp::Def: {
    // Indir_Y mem_l : displacement- or absolute-deferred
    Operand Inner = Vals[1].Opnd;
    Ty T = Vals[0].Leaf->Type;
    if (Inner.Mode == AMode::Disp && Inner.Sym.isEmpty()) {
      R.Opnd = Inner;
      R.Opnd.Mode = AMode::DispDef;
      R.Opnd.Type = T;
      return R; // base register pin is inherited
    }
    if (Inner.Mode == AMode::Abs) {
      R.Opnd = Inner;
      R.Opnd.Mode = AMode::AbsDef;
      R.Opnd.Type = T;
      return R;
    }
    // No doubly-deferred hardware mode: load the pointer first.
    Operand Ptr = ensureReg(Inner, 'l');
    R.Opnd = Operand::disp(Ptr.Base, 0, T);
    PinIfReg(Ptr);
    return R;
  }
  case SemOp::DxDisp: {
    // Indir_Y Plus_l con_l Plus_l reg_l Mul_l @Y reg_l
    prepare(Vals[4].Opnd);
    prepare(Vals[7].Opnd);
    const Operand &Con = Vals[2].Opnd;
    R.Opnd.Mode = AMode::Indexed;
    R.Opnd.Type = Vals[0].Leaf->Type;
    R.Opnd.Base = Vals[4].Opnd.Base;
    R.Opnd.Disp = Con.Disp;
    if (Con.Mode == AMode::ImmSym)
      R.Opnd.Sym = Con.Sym;
    R.Opnd.Index = Vals[7].Opnd.Base;
    PinIfReg(Vals[4].Opnd);
    PinIfReg(Vals[7].Opnd);
    return R;
  }
  case SemOp::DxReg:
    // Indir_Y Plus_l reg_l Mul_l @Y reg_l
    prepare(Vals[2].Opnd);
    prepare(Vals[5].Opnd);
    R.Opnd.Mode = AMode::Indexed;
    R.Opnd.Type = Vals[0].Leaf->Type;
    R.Opnd.Base = Vals[2].Opnd.Base;
    R.Opnd.Index = Vals[5].Opnd.Base;
    PinIfReg(Vals[2].Opnd);
    PinIfReg(Vals[5].Opnd);
    return R;
  case SemOp::DxAbs: {
    // Indir_Y Plus_l con_l Mul_l @Y reg_l
    prepare(Vals[5].Opnd);
    const Operand &Con = Vals[2].Opnd;
    R.Opnd.Mode = AMode::Indexed;
    R.Opnd.Type = Vals[0].Leaf->Type;
    if (Con.Mode == AMode::ImmSym)
      R.Opnd.Sym = Con.Sym;
    R.Opnd.Base = -1;
    R.Opnd.Disp = Con.Disp;
    R.Opnd.Index = Vals[5].Opnd.Base;
    PinIfReg(Vals[5].Opnd);
    return R;
  }
  case SemOp::AutoInc:
  case SemOp::AutoDec:
    // Indir_Y PostInc_l Dreg_l @Y  /  Indir_Y PreDec_l Dreg_l @Y
    R.Opnd.Mode = A.Op == SemOp::AutoInc ? AMode::AutoInc : AMode::AutoDec;
    R.Opnd.Base = Vals[2].Leaf->Reg;
    R.Opnd.Type = Vals[0].Leaf->Type;
    return R;
  default:
    break;
  }

  fail(strf("unknown encapsulation action '%s'", P.SemTag.c_str()));
  return R;
}

//===----------------------------------------------------------------------===//
// Emitting reductions: instruction selection
//===----------------------------------------------------------------------===//

SemVal VaxSemantics::doEmit(const Production &P, const SemAction &A,
                            SemVal *Vals, size_t N) {
  const char SC1 = A.SC1, SC2 = A.SC2;
  SemVal R;

  switch (A.Op) {
  // --- loads and conversions ---------------------------------------------
  case SemOp::Load:
    R.Opnd = ensureReg(Vals[0].Opnd, SC1);
    return R;
  case SemOp::LoadCon: {
    Operand Con = Vals[0].Opnd;
    int Reg = RM.alloc();
    Operand Dst = Operand::reg(Reg, tyForSize(SC1));
    if (Opts.RangeIdioms && Con.isImm() && Con.Disp == 0) {
      ++Idioms.RangeApplied;
      emitInst(Spell.clr(SC1), {Dst});
    } else {
      emitInst(Spell.row(RowMov, SC1), {Con, Dst});
    }
    setCC(Dst, SC1);
    R.Opnd = Dst;
    return R;
  }
  case SemOp::CvtM:
  case SemOp::CvtR: {
    Operand Src = Vals[0].Opnd;
    R.Opnd = convert(SC1, SC2, isUnsignedTy(Src.Type), Src, nullptr);
    return R;
  }
  case SemOp::Cvt: {
    // Cvt_F_T rval_F
    Operand Src = Vals[1].Opnd;
    bool SrcUnsigned = isUnsignedTy(Vals[0].Leaf->left()->Type);
    R.Opnd = convert(SC1, SC2, SrcUnsigned, Src, nullptr);
    return R;
  }
  case SemOp::CvtA:
  case SemOp::CvtAS: {
    bool Reverse = A.Op == SemOp::CvtAS;
    // Widening forms: [Assign lval mem] / [AssignR mem lval].
    // Narrowing forms: [Assign lval Cvt rval] / [AssignR Cvt rval lval].
    Operand Src, Dst;
    bool SrcUnsigned;
    if (N == 3) {
      Src = Vals[Reverse ? 1 : 2].Opnd;
      Dst = Vals[Reverse ? 2 : 1].Opnd;
      SrcUnsigned = isUnsignedTy(Src.Type);
    } else {
      Src = Vals[Reverse ? 2 : 3].Opnd;
      Dst = Vals[Reverse ? 3 : 1].Opnd;
      const Node *CvtLeaf = Vals[Reverse ? 1 : 2].Leaf;
      SrcUnsigned = isUnsignedTy(CvtLeaf->left()->Type);
    }
    convert(SC1, SC2, SrcUnsigned, Src, &Dst);
    return R;
  }

  // --- moves ---------------------------------------------------------------
  case SemOp::Mov:
  case SemOp::MovR: {
    Operand Src = Vals[A.Op == SemOp::Mov ? 2 : 1].Opnd;
    Operand Dst = Vals[A.Op == SemOp::Mov ? 1 : 2].Opnd;
    move(SC1, Src, Dst);
    return R;
  }

  // --- three-address arithmetic (the Figure-3 clusters) --------------------
  case SemOp::Arith:
  case SemOp::ArithDiv:
  case SemOp::ArithMod:
  case SemOp::ArithAnd:
  case SemOp::ArithAsh:
  case SemOp::ArithRsh:
    R.Opnd = doArith(A, Vals);
    return R;

  // --- unary ----------------------------------------------------------------
  case SemOp::Neg:
  case SemOp::Com:
    R.Opnd = unary2(A.Op == SemOp::Neg ? RowNeg : RowCom, SC1, Vals[1].Opnd,
                    nullptr);
    return R;
  case SemOp::Neg2:
  case SemOp::Com2:
    unary2(A.Op == SemOp::Neg2 ? RowNeg : RowCom, SC1, Vals[3].Opnd,
           &Vals[1].Opnd);
    return R;
  case SemOp::Neg2S:
  case SemOp::Com2S:
    unary2(A.Op == SemOp::Neg2S ? RowNeg : RowCom, SC1, Vals[2].Opnd,
           &Vals[3].Opnd);
    return R;

  // --- branches ---------------------------------------------------------------
  case SemOp::CmpBr: {
    // CBranch Cmp_Y rval rval Label
    const Node *Cmp = Vals[1].Leaf;
    compareBranch(SC1, Cmp->CC, Vals[2].Opnd, Vals[3].Opnd,
                  Vals[4].Leaf->Sym);
    return R;
  }
  case SemOp::TstBr: {
    // CBranch Cmp_l reg_l Zero Label
    const Node *Cmp = Vals[1].Leaf;
    compareBranch('l', Cmp->CC, Vals[2].Opnd, Operand::imm(0, Ty::L),
                  Vals[4].Leaf->Sym);
    return R;
  }
  case SemOp::DregBr: {
    // CBranch Cmp_l Dreg_l Zero Label — added to fix the overfactored
    // "reg <- Dreg" chain (§6.2.1): a Dreg read sets no condition codes,
    // so the test is always explicit.
    const Node *Cmp = Vals[1].Leaf;
    Operand Reg = Operand::reg(Vals[2].Leaf->Reg, Vals[2].Leaf->Type);
    covRow(RowCmp); // tst is the cmp row's degenerate range form
    emitInst("tstl", {Reg});
    emitInst(Spell.branch(Cmp->CC), {Operand::labelRef(Vals[4].Leaf->Sym)});
    invalidateCC();
    return R;
  }

  // --- calls / stack ------------------------------------------------------------
  case SemOp::Push: {
    covRow(RowPush);
    Operand Src = Vals[1].Opnd;
    prepare(Src);
    emitInst("pushl", {Src});
    RM.reclaim(Src);
    setCC(Src, 'l');
    return R;
  }

  // --- autoincrement as a value -----------------------------------------------
  case SemOp::PostInc: {
    // PostInc_l Dreg_l con_l: value is the old register contents.
    int DregNo = Vals[1].Leaf->Reg;
    Operand Amount = Vals[2].Opnd;
    int T = RM.alloc();
    Operand Dst = Operand::reg(T, Ty::L);
    emitInst("movl", {Operand::reg(DregNo, Ty::L), Dst});
    emitInst("addl2", {Amount, Operand::reg(DregNo, Ty::L)});
    invalidateCC();
    R.Opnd = Dst;
    return R;
  }
  case SemOp::PreDec: {
    int DregNo = Vals[1].Leaf->Reg;
    Operand Amount = Vals[2].Opnd;
    int T = RM.alloc();
    Operand Dst = Operand::reg(T, Ty::L);
    emitInst("subl2", {Amount, Operand::reg(DregNo, Ty::L)});
    emitInst("movl", {Operand::reg(DregNo, Ty::L), Dst});
    invalidateCC();
    R.Opnd = Dst;
    return R;
  }

  // --- bridge productions -------------------------------------------------------
  case SemOp::BridgeDx1:
    // Indir_Y Plus_l con_l Plus_l reg_l Mul_l rval_l rval_l
    R.Opnd = bridgeAddress(SC1, &Vals[2].Opnd, &Vals[4].Opnd, Vals[6].Opnd,
                           Vals[7].Opnd);
    R.Opnd.Type = Vals[0].Leaf->Type;
    return R;
  case SemOp::BridgeDx2:
    // Indir_Y Plus_l reg_l Mul_l rval_l rval_l
    R.Opnd = bridgeAddress(SC1, nullptr, &Vals[2].Opnd, Vals[4].Opnd,
                           Vals[5].Opnd);
    R.Opnd.Type = Vals[0].Leaf->Type;
    return R;
  case SemOp::BridgeDx3:
    // Indir_Y Plus_l con_l Mul_l rval_l rval_l
    R.Opnd = bridgeAddress(SC1, &Vals[2].Opnd, nullptr, Vals[4].Opnd,
                           Vals[5].Opnd);
    R.Opnd.Type = Vals[0].Leaf->Type;
    return R;
  default:
    break;
  }

  fail(strf("unknown emit action '%s'", P.SemTag.c_str()));
  return R;
}

Operand VaxSemantics::doArith(const SemAction &A, SemVal *Vals) {
  const ArithShape &S = *A.Shape;
  Operand S1 = Vals[S.S1].Opnd, S2 = Vals[S.S2].Opnd;
  if (S.SwapSrcs)
    std::swap(S1, S2);
  const bool IsUnsigned = isUnsignedTy(Vals[S.OpIdx].Leaf->Type);
  const Operand *Dst = S.DstIdx >= 0 ? &Vals[S.DstIdx].Opnd : nullptr;
  switch (A.Op) {
  case SemOp::ArithMod:
    return modulus(A.SC1, IsUnsigned, S1, S2, Dst);
  case SemOp::ArithAnd:
    return andOp(A.SC1, S1, S2, Dst);
  case SemOp::ArithAsh:
    return shift(A.SC1, /*Right=*/false, IsUnsigned, S1, S2, Dst);
  case SemOp::ArithRsh:
    return shift(A.SC1, /*Right=*/true, IsUnsigned, S1, S2, Dst);
  case SemOp::ArithDiv:
    if (IsUnsigned)
      return libCall2("__udiv", S1, S2, Dst);
    break;
  default:
    break;
  }
  return arith(*A.Cluster, A.SC1, IsUnsigned, S1, S2, Dst);
}

//===----------------------------------------------------------------------===//
// Instruction families
//===----------------------------------------------------------------------===//

Operand VaxSemantics::arith(const InstCluster &C, char SC, bool IsUnsigned,
                            Operand S1, Operand S2, const Operand *DstOpt) {
  (void)IsUnsigned; // signed/unsigned share add/sub/mul/bis/xor
  covRow(C);
  const InstRow Row = static_cast<InstRow>(clusterId(C));
  prepare(S1);
  prepare(S2);
  bool SubLike = !C.Swappable; // sub/div print divisor-first

  // Binding idiom: turn the three-address form into a two-address form.
  if (DstOpt && Opts.BindingIdioms) {
    const Operand &Dst = *DstOpt;
    Operand *Other = nullptr;
    if (S1.sameLocation(Dst))
      Other = &S2;
    else if (C.Swappable && S2.sameLocation(Dst))
      Other = &S1;
    if (Other) {
      ++Idioms.BindingApplied;
      Operand Bound = Dst;
      // Range idiom on the bound form.
      if (Opts.RangeIdioms && Other->isImm()) {
        int64_t V = Other->Disp;
        if (C.Range == RangeIdiom::AddSub && (V == 1 || V == -1)) {
          ++Idioms.RangeApplied;
          bool Inc = (V == 1) != (C.Tag[0] == 's'); // sub flips direction
          emitInst(Spell.incDec(Inc, SC), {Bound});
          RM.reclaim(S1);
          RM.reclaim(S2);
          RM.reclaim(Bound);
          invalidateCC();
          return Operand();
        }
        if ((C.Range == RangeIdiom::AddSub || C.Range == RangeIdiom::BisXor ||
             C.Range == RangeIdiom::Div) &&
            (C.Range == RangeIdiom::Div ? V == 1 : V == 0)) {
          ++Idioms.RangeApplied;
          RM.reclaim(S1);
          RM.reclaim(S2);
          RM.reclaim(Bound);
          return Operand(); // x op= identity: no instruction at all
        }
        if (C.Range == RangeIdiom::Mul && SC == 'l' && isPowerOfTwo(V)) {
          ++Idioms.RangeApplied;
          emitInst("ashl", {Operand::imm(log2Of(V), Ty::L), Bound, Bound});
          RM.reclaim(S1);
          RM.reclaim(S2);
          RM.reclaim(Bound);
          invalidateCC();
          return Operand();
        }
      }
      emitInst(Spell.row(Row, SC, 2), {*Other, Bound});
      RM.reclaim(*Other);
      RM.reclaim(S1);
      RM.reclaim(S2);
      setCC(Bound, SC);
      Operand Result;
      if (!DstOpt)
        Result = Bound;
      else
        RM.reclaim(Bound);
      return Result;
    }
  }

  // Three-address range idioms.
  if (Opts.RangeIdioms) {
    auto MoveInto = [&](Operand Src) -> Operand {
      ++Idioms.RangeApplied;
      if (DstOpt) {
        Operand Dst = *DstOpt;
        RM.reclaim(S1, Src.isReg() ? Src.Base : -1);
        RM.reclaim(S2, Src.isReg() ? Src.Base : -1);
        move(SC, Src, Dst);
        return Operand();
      }
      Operand Dst = ensureReg(Src, SC);
      RM.reclaim(S1, Dst.Base);
      RM.reclaim(S2, Dst.Base);
      return Dst;
    };
    if (C.Range == RangeIdiom::AddSub) {
      if (S2.isImm() && S2.Disp == 0)
        return MoveInto(S1); // x +- 0
      if (S1.isImm() && S1.Disp == 0 && C.Swappable)
        return MoveInto(S2); // 0 + x
      if (S1.isImm() && S1.Disp == 0 && !C.Swappable)
        return unary2(RowNeg, SC, S2, DstOpt); // 0 - x
      // Address arithmetic: $c + reg computes an address; moval does it
      // in one operand fetch (the classic VAX address-of sequence).
      if (C.Swappable && SC == 'l' && S1.isImm() && S2.isReg() &&
          S1.Disp >= INT32_MIN && S1.Disp <= INT32_MAX) {
        ++Idioms.RangeApplied;
        Operand Cell = Operand::disp(S2.Base, S1.Disp, Ty::L);
        Operand Dst = DstOpt ? *DstOpt
                             : Operand::reg(RM.allocPreferring(S2, S2),
                                            Ty::L);
        emitInst("moval", {Cell, Dst});
        int Keep = !DstOpt && Dst.isReg() ? Dst.Base : -1;
        RM.reclaim(S2, Keep);
        setCC(Dst, SC);
        if (DstOpt) {
          RM.reclaim(Dst);
          return Operand();
        }
        return Dst;
      }
    }
    if (C.Range == RangeIdiom::BisXor && S2.isImm() && S2.Disp == 0)
      return MoveInto(S1);
    if (C.Range == RangeIdiom::BisXor && S1.isImm() && S1.Disp == 0)
      return MoveInto(S2);
    if (C.Range == RangeIdiom::Div && S2.isImm() && S2.Disp == 1)
      return MoveInto(S1);
    if (C.Range == RangeIdiom::Mul && SC == 'l') {
      const Operand *Pow = nullptr, *Val = nullptr;
      if (S1.isImm() && isPowerOfTwo(S1.Disp)) {
        Pow = &S1;
        Val = &S2;
      } else if (S2.isImm() && isPowerOfTwo(S2.Disp)) {
        Pow = &S2;
        Val = &S1;
      }
      if (Pow) {
        ++Idioms.RangeApplied;
        Operand Dst =
            DstOpt ? *DstOpt
                   : Operand::reg(RM.allocPreferring(*Val, *Val), Ty::L);
        emitInst("ashl",
                 {Operand::imm(log2Of(Pow->Disp), Ty::L), *Val, Dst});
        RM.reclaim(S1, Dst.isReg() ? Dst.Base : -1);
        RM.reclaim(S2, Dst.isReg() ? Dst.Base : -1);
        setCC(Dst, SC);
        if (DstOpt) {
          RM.reclaim(Dst);
          return Operand();
        }
        return Dst;
      }
      if ((S1.isImm() && S1.Disp == 1))
        return MoveInto(S2);
      if ((S2.isImm() && S2.Disp == 1))
        return MoveInto(S1);
    }
  }

  Operand Dst = DstOpt
                    ? *DstOpt
                    : Operand::reg(RM.allocPreferring(S1, S2), tyForSize(SC));
  if (SubLike)
    emitInst(Spell.row(Row, SC, 3), {S2, S1, Dst});
  else
    emitInst(Spell.row(Row, SC, 3), {S1, S2, Dst});
  int Keep = !DstOpt && Dst.isReg() ? Dst.Base : -1;
  RM.reclaim(S1, Keep);
  RM.reclaim(S2, Keep);
  setCC(Dst, SC);
  if (DstOpt) {
    RM.reclaim(Dst);
    return Operand();
  }
  return Dst;
}

void VaxSemantics::move(char SC, Operand Src, Operand Dst) {
  covRow(RowMov);
  prepare(Src);
  if (Src.sameLocation(Dst)) {
    // mov x,x: nothing to do (common for "return r0" when the value is
    // already in r0).
    RM.reclaim(Src);
    RM.reclaim(Dst);
    return;
  }
  if (Opts.RangeIdioms && Src.isImm() && Src.Disp == 0) {
    ++Idioms.RangeApplied;
    emitInst(Spell.clr(SC), {Dst});
    invalidateCC();
  } else {
    emitInst(Spell.row(RowMov, SC), {Src, Dst});
    if (Dst.isReg())
      setCC(Dst, SC);
    else
      setCC(Src, SC);
  }
  RM.reclaim(Src);
  RM.reclaim(Dst);
}

Operand VaxSemantics::unary2(InstRow Row, char SC, Operand Src,
                             const Operand *DstOpt) {
  covRow(Row);
  prepare(Src);
  Operand Dst = DstOpt
                    ? *DstOpt
                    : Operand::reg(RM.allocPreferring(Src, Src), tyForSize(SC));
  emitInst(Spell.row(Row, SC), {Src, Dst});
  int Keep = !DstOpt && Dst.isReg() ? Dst.Base : -1;
  RM.reclaim(Src, Keep);
  setCC(Dst, SC);
  if (DstOpt) {
    RM.reclaim(Dst);
    return Operand();
  }
  return Dst;
}

Operand VaxSemantics::convert(char FromSC, char ToSC, bool SrcUnsigned,
                              Operand Src, const Operand *DstOpt) {
  prepare(Src);
  Ty ToTy = tyForSize(ToSC, SrcUnsigned);
  if (Src.isImm()) {
    // Constant conversions fold: no code (a degenerate range idiom).
    Operand Folded = Operand::imm(truncateToTy(Src.Disp, ToTy), ToTy);
    if (DstOpt) {
      move(ToSC, Folded, *DstOpt);
      return Operand();
    }
    return Folded;
  }
  bool Widening = sizeRank(FromSC) < sizeRank(ToSC);
  Spelling Opcode = Spell.convert(FromSC, ToSC, Widening && SrcUnsigned);
  Operand Dst = DstOpt
                    ? *DstOpt
                    : Operand::reg(RM.allocPreferring(Src, Src), ToTy);
  emitInst(Opcode, {Src, Dst});
  int Keep = !DstOpt && Dst.isReg() ? Dst.Base : -1;
  RM.reclaim(Src, Keep);
  setCC(Dst, ToSC);
  if (DstOpt) {
    RM.reclaim(Dst);
    return Operand();
  }
  return Dst;
}

Operand VaxSemantics::andOp(char SC, Operand S1, Operand S2,
                            const Operand *DstOpt) {
  // The VAX has no and instruction: a & b == bic(~a, b). With a constant
  // mask the complement folds into the immediate; otherwise an mcom into a
  // scratch register is required (a pseudo-instruction of sorts).
  covRow(RowAnd);
  prepare(S1);
  prepare(S2);
  if (!S1.isImm() && S2.isImm())
    std::swap(S1, S2); // commutative: get the mask first

  if (Opts.RangeIdioms && S1.isImm()) {
    if (S1.Disp == 0) {
      // x & 0 == 0.
      ++Idioms.RangeApplied;
      RM.reclaim(S1);
      RM.reclaim(S2);
      if (DstOpt) {
        move(SC, Operand::imm(0, tyForSize(SC)), *DstOpt);
        return Operand();
      }
      int T = RM.alloc();
      Operand Dst = Operand::reg(T, tyForSize(SC));
      emitInst(Spell.clr(SC), {Dst});
      invalidateCC();
      return Dst;
    }
    if (truncateToTy(S1.Disp, tyForSize(SC)) ==
        truncateToTy(-1, tyForSize(SC))) {
      // x & ~0 == x.
      ++Idioms.RangeApplied;
      if (DstOpt) {
        RM.reclaim(S1);
        move(SC, S2, *DstOpt);
        return Operand();
      }
      Operand Dst = ensureReg(S2, SC);
      RM.reclaim(S1);
      return Dst;
    }
  }

  Operand Mask;
  if (S1.isImm()) {
    Mask = Operand::imm(complementFor(S1.Disp, SC), tyForSize(SC));
  } else {
    ++Idioms.PseudoExpansions;
    Mask = unary2(RowCom, SC, S1, nullptr);
  }

  // Binding idiom on the bic form.
  if (DstOpt && Opts.BindingIdioms && S2.sameLocation(*DstOpt)) {
    ++Idioms.BindingApplied;
    emitInst(Spell.row(RowAnd, SC, 2), {Mask, *DstOpt});
    RM.reclaim(Mask);
    RM.reclaim(S2);
    RM.reclaim(*DstOpt);
    invalidateCC();
    return Operand();
  }

  Operand Dst = DstOpt
                    ? *DstOpt
                    : Operand::reg(RM.allocPreferring(Mask, S2), tyForSize(SC));
  emitInst(Spell.row(RowAnd, SC, 3), {Mask, S2, Dst});
  int Keep = !DstOpt && Dst.isReg() ? Dst.Base : -1;
  RM.reclaim(Mask, Keep);
  RM.reclaim(S2, Keep);
  setCC(Dst, SC);
  if (DstOpt) {
    RM.reclaim(Dst);
    return Operand();
  }
  return Dst;
}

Operand VaxSemantics::shift(char SC, bool Right, bool IsUnsigned, Operand Val,
                            Operand Cnt, const Operand *DstOpt) {
  covRow(Right ? RowRsh : RowAsh);
  prepare(Val);
  prepare(Cnt);
  if (SC != 'l') {
    fail("shifts are only generated at long width (front ends promote)");
    return Operand();
  }
  // ashl accesses its count as a *byte* operand: indexed mode would scale
  // the index by 1 and autoincrement would bump by 1, so such counts must
  // be materialized in a register first.
  if (Cnt.Mode == AMode::Indexed || Cnt.Mode == AMode::AutoInc ||
      Cnt.Mode == AMode::AutoDec)
    Cnt = ensureReg(Cnt, 'l');

  auto FinishReg = [&](Operand Dst) -> Operand {
    setCC(Dst, SC);
    if (DstOpt) {
      RM.reclaim(Dst);
      return Operand();
    }
    return Dst;
  };

  if (!Right) {
    if (Opts.RangeIdioms && Cnt.isImm() && Cnt.Disp == 0) {
      ++Idioms.RangeApplied;
      if (DstOpt) {
        RM.reclaim(Cnt);
        move(SC, Val, *DstOpt);
        return Operand();
      }
      Operand Dst = ensureReg(Val, SC);
      RM.reclaim(Cnt);
      return Dst;
    }
    Operand Dst = DstOpt
                      ? *DstOpt
                      : Operand::reg(RM.allocPreferring(Val, Val), Ty::L);
    emitInst("ashl", {Cnt, Val, Dst});
    RM.reclaim(Cnt, !DstOpt && Dst.isReg() ? Dst.Base : -1);
    RM.reclaim(Val, !DstOpt && Dst.isReg() ? Dst.Base : -1);
    return FinishReg(Dst);
  }

  if (!IsUnsigned) {
    // Arithmetic right shift: ashl with a negated count.
    Operand NegCnt;
    if (Cnt.isImm()) {
      NegCnt = Operand::imm(-Cnt.Disp, Ty::L);
    } else {
      ++Idioms.PseudoExpansions;
      NegCnt = unary2(RowNeg, 'l', Cnt, nullptr);
      Cnt = Operand(); // consumed
    }
    Operand Dst = DstOpt
                      ? *DstOpt
                      : Operand::reg(RM.allocPreferring(Val, NegCnt), Ty::L);
    emitInst("ashl", {NegCnt, Val, Dst});
    int Keep = !DstOpt && Dst.isReg() ? Dst.Base : -1;
    RM.reclaim(NegCnt, Keep);
    RM.reclaim(Val, Keep);
    if (Cnt.Mode != AMode::None)
      RM.reclaim(Cnt, Keep);
    return FinishReg(Dst);
  }

  // Logical right shift: extzv pos=cnt size=32-cnt (a pseudo-instruction;
  // PCC used the same expansion for unsigned >>).
  ++Idioms.PseudoExpansions;
  if (Cnt.isImm()) {
    int64_t C = Cnt.Disp;
    if (C == 0) {
      RM.reclaim(Cnt);
      if (DstOpt) {
        move(SC, Val, *DstOpt);
        return Operand();
      }
      return ensureReg(Val, SC);
    }
    if (C < 0 || C > 31) {
      RM.reclaim(Cnt);
      RM.reclaim(Val);
      Operand Dst =
          DstOpt ? *DstOpt : Operand::reg(RM.alloc(), Ty::UL);
      emitInst("clrl", {Dst});
      invalidateCC();
      if (DstOpt) {
        RM.reclaim(Dst);
        return Operand();
      }
      return Dst;
    }
    Operand Dst = DstOpt
                      ? *DstOpt
                      : Operand::reg(RM.allocPreferring(Val, Val), Ty::UL);
    emitInst("extzv", {Operand::imm(C, Ty::L), Operand::imm(32 - C, Ty::L),
                       Val, Dst});
    RM.reclaim(Val, !DstOpt && Dst.isReg() ? Dst.Base : -1);
    return FinishReg(Dst);
  }
  Operand CntR = stabilize(Cnt, 'l'); // used twice below
  int WidthReg = RM.alloc();
  Operand Width = Operand::reg(WidthReg, Ty::L);
  emitInst("subl3", {CntR, Operand::imm(32, Ty::L), Width});
  Operand Dst =
      DstOpt ? *DstOpt : Operand::reg(RM.allocPreferring(Val, Val), Ty::UL);
  emitInst("extzv", {CntR, Width, Val, Dst});
  RM.free(WidthReg);
  int Keep = !DstOpt && Dst.isReg() ? Dst.Base : -1;
  RM.reclaim(CntR, Keep);
  RM.reclaim(Val, Keep);
  return FinishReg(Dst);
}

Operand VaxSemantics::modulus(char SC, bool IsUnsigned, Operand A, Operand B,
                              const Operand *DstOpt) {
  covRow(RowMod);
  if (IsUnsigned)
    return libCall2("__urem", A, B, DstOpt);

  // "These pseudo-instructions include signed integer modulus, which
  // requires a register to hold an intermediate result" (§5.3.2):
  //   q = a / b; q *= b; dst = a - q.
  ++Idioms.PseudoExpansions;
  prepare(A);
  prepare(B);
  A = stabilize(A, SC);
  B = stabilize(B, SC);
  int Q = RM.alloc();
  Operand QOp = Operand::reg(Q, tyForSize(SC));
  emitInst(Spell.row(RowDiv, SC, 3), {B, A, QOp});
  emitInst(Spell.row(RowMul, SC, 2), {B, QOp});
  if (DstOpt) {
    emitInst(Spell.row(RowSub, SC, 3), {QOp, A, *DstOpt});
    RM.free(Q);
    RM.reclaim(A);
    RM.reclaim(B);
    RM.reclaim(*DstOpt);
    invalidateCC();
    return Operand();
  }
  emitInst(Spell.row(RowSub, SC, 3), {QOp, A, QOp});
  RM.reclaim(A, Q);
  RM.reclaim(B, Q);
  setCC(QOp, SC);
  return QOp;
}

Operand VaxSemantics::libCall2(const char *Fn, Operand A, Operand B,
                               const Operand *DstOpt) {
  // Unsigned division "requires a call to a library function that is
  // known not to modify any registers" (§5.3.2).
  ++Idioms.PseudoExpansions;
  prepare(A);
  prepare(B);
  emitInst("pushl", {B});
  emitInst("pushl", {A});
  RM.reclaim(A);
  RM.reclaim(B);
  if (RM.isBusy(RegR0)) {
    if (RM.canEvict(RegR0)) {
      RM.evict(RegR0);
    } else {
      // r0 lives inside a composite addressing mode (pinned) or another
      // live value: relocate register-to-register and patch every stack
      // operand that names it.
      int NewReg = RM.alloc();
      emitInst("movl",
               {Operand::reg(RegR0, Ty::L), Operand::reg(NewReg, Ty::L)});
      for (SemVal &V : Stack) {
        if (V.Opnd.DregRef)
          continue;
        if (V.Opnd.Base == RegR0 && V.Opnd.Mode != AMode::None &&
            V.Opnd.Mode != AMode::Imm)
          V.Opnd.Base = NewReg;
        if (V.Opnd.Index == RegR0)
          V.Opnd.Index = NewReg;
      }
      if (LastCCReg == RegR0)
        LastCCReg = NewReg;
      RM.transferPins(RegR0, NewReg);
      RM.free(RegR0);
    }
  }
  emitInst("calls",
           {Operand::imm(2, Ty::L), runtimeRoutine(Emit.interner(), Fn)});
  invalidateCC();
  RM.claim(RegR0);
  Operand R0 = Operand::reg(RegR0, Ty::UL);
  if (DstOpt) {
    move('l', R0, *DstOpt);
    RM.free(RegR0);
    return Operand();
  }
  // Condition codes are unknown after a call; do NOT mark r0 as covered.
  return R0;
}

void VaxSemantics::compareBranch(char SC, Cond C, Operand A, Operand B,
                                 InternedString Target) {
  covRow(RowCmp);
  prepare(A);
  prepare(B);
  if (Opts.RangeIdioms && A.isImm() && !B.isImm()) {
    std::swap(A, B);
    C = swapCond(C);
  }
  if (Opts.RangeIdioms && B.isImm() && B.Disp == 0) {
    ++Idioms.RangeApplied;
    if (Opts.CCTracking && A.isReg() && A.Base == LastCCReg &&
        LastCCSize == SC) {
      // The condition codes already reflect this value (§6.1): no test.
      ++Idioms.CCTestsElided;
    } else {
      emitInst(Spell.tst(SC), {A});
    }
  } else {
    emitInst(Spell.row(RowCmp, SC), {A, B});
  }
  emitInst(Spell.branch(C), {Operand::labelRef(Target)});
  RM.reclaim(A);
  RM.reclaim(B);
  invalidateCC();
}

Operand VaxSemantics::bridgeAddress(char MemSC, Operand *ConOpt,
                                    Operand *BaseOpt, Operand S1,
                                    Operand S2) {
  // A bridge production "does not correspond to a single instruction or
  // addressing mode" (§6.2.2): compute con + base + s1*s2 into a register
  // and hand back a displacement operand.
  (void)MemSC;
  Operand Prod = arith(clusterAt(RowMul), 'l', false, S1, S2, nullptr);
  Prod = ensureReg(Prod, 'l'); // mul range idiom may return a non-register
  if (BaseOpt) {
    prepare(*BaseOpt);
    emitInst("addl2", {*BaseOpt, Prod});
    RM.reclaim(*BaseOpt, Prod.Base);
  }
  Operand Mem = Operand::disp(Prod.Base, 0, Ty::L);
  if (ConOpt) {
    Mem.Disp = ConOpt->Disp;
    if (ConOpt->Mode == AMode::ImmSym)
      Mem.Sym = ConOpt->Sym;
  }
  RM.pin(Prod.Base);
  invalidateCC();
  return Mem;
}
