//===- TreeSynth.cpp - witness sentences to runnable IR programs ----------===//

#include "fuzz/TreeSynth.h"
#include "ir/Linearize.h"
#include "support/Strings.h"

#include <algorithm>
#include <array>

using namespace gg;

namespace {

constexpr int ValueRegs[4] = {8, 9, 10, 11};
constexpr int64_t ValueRegInit[4] = {2, 3, 1, 6};
constexpr int AddrRegs[2] = {6, 7};
/// Every fuzz array spans the same number of bytes, so any (array, offset,
/// element size) combination checks against one bound.
constexpr int ArrSpanBytes = 128;

/// Long constants in these values linearize as the special terminals
/// Zero/One/Two/Four/Eight; generic Const_l bindings must avoid them so a
/// bound tree re-linearizes to the exact witness sentence.
bool isSpecialLongConst(int64_t V) {
  return V == 0 || V == 1 || V == 2 || V == 4 || V == 8;
}

uint64_t xorshift(uint64_t &S) {
  S ^= S << 13;
  S ^= S >> 7;
  S ^= S << 17;
  return S ? S : (S = 0x9E3779B97F4A7C15ull);
}

int elemBytes(Ty T) { return sizeOfTy(T); }

} // namespace

TreeSynth::TreeSynth() {
  auto Add = [&](const std::string &Name, TokSpec S) {
    Specs.push_back(S);
    TokTable.emplace_back(Name, static_cast<int>(Specs.size()) - 1);
  };
  static const Op AllOps[] = {
#define GG_OP(Name, Str, Arity, Flags) Op::Name,
#include "ir/Ops.def"
  };
  static const Ty AllTys[] = {Ty::B, Ty::W, Ty::L};
  for (Op O : AllOps) {
    if (O == Op::Conv || O == Op::CBranch || O == Op::Label)
      continue;
    for (Ty T : AllTys)
      Add(strf("%s_%c", opName(O), suffixChar(T)), {TokSpec::Generic, O, T});
  }
  for (Ty Src : AllTys)
    for (Ty Dst : AllTys) {
      TokSpec S{TokSpec::CvtTok, Op::Conv, Dst};
      S.SrcT = Src;
      Add(strf("Cvt_%c_%c", suffixChar(Src), suffixChar(Dst)), S);
    }
  Add("CBranch", {TokSpec::CBrTok, Op::CBranch, Ty::L});
  Add("Label", {TokSpec::LabTok, Op::Label, Ty::L});
  static const std::pair<const char *, int64_t> Specials[] = {
      {"Zero", 0}, {"One", 1}, {"Two", 2}, {"Four", 4}, {"Eight", 8}};
  for (auto [Name, V] : Specials) {
    TokSpec S{TokSpec::Special, Op::Const, Ty::L};
    S.Val = V;
    Add(Name, S);
  }
  std::sort(TokTable.begin(), TokTable.end());
}

const TreeSynth::TokSpec *TreeSynth::classify(const std::string &Name) const {
  auto It = std::lower_bound(
      TokTable.begin(), TokTable.end(), Name,
      [](const std::pair<std::string, int> &E, const std::string &N) {
        return E.first < N;
      });
  if (It == TokTable.end() || It->first != Name)
    return nullptr;
  return &Specs[It->second];
}

Node *TreeSynth::decodeRec(Program &P, const std::vector<std::string> &Tokens,
                           size_t &Pos, bool AllowPartial, Op ParentOp,
                           int Slot, Ty SlotTy, std::string &Err) {
  NodeArena &A = *P.Arena;
  if (Pos >= Tokens.size()) {
    if (!AllowPartial) {
      Err = "sentence ended with an open operand slot";
      return nullptr;
    }
    // Blocked-witness prefix: fill the open slot with the blandest leaf
    // that keeps the tree well-formed for the interpreter and the PCC
    // fallback (acceptance by the tables is explicitly not wanted here).
    if (ParentOp == Op::CBranch)
      return Slot == 0 ? A.cmp(Cond::EQ, A.con(Ty::L, 3), A.con(Ty::L, 3),
                               Ty::L)
                       : A.label(P.freshLabel());
    if ((ParentOp == Op::PostInc || ParentOp == Op::PreDec) && Slot == 0)
      return A.dreg(ValueRegs[0], Ty::L);
    return A.con(SlotTy, 3);
  }
  const std::string &Name = Tokens[Pos++];
  const TokSpec *S = classify(Name);
  if (!S) {
    Err = strf("unknown terminal '%s'", Name.c_str());
    return nullptr;
  }
  auto Child = [&](Op O, int KidSlot, Ty KidTy) {
    return decodeRec(P, Tokens, Pos, AllowPartial, O, KidSlot, KidTy, Err);
  };
  switch (S->K) {
  case TokSpec::Special:
    return A.con(Ty::L, S->Val);
  case TokSpec::CvtTok: {
    Node *Kid = Child(Op::Conv, 0, S->SrcT);
    return Kid ? A.unary(Op::Conv, S->T, Kid) : nullptr;
  }
  case TokSpec::CBrTok: {
    Node *L = Child(Op::CBranch, 0, Ty::L);
    if (!L)
      return nullptr;
    Node *R = Child(Op::CBranch, 1, Ty::L);
    if (!R)
      return nullptr;
    Node *N = A.make(Op::CBranch, Ty::L);
    N->Kids[0] = L;
    N->Kids[1] = R;
    return N;
  }
  case TokSpec::LabTok:
    return A.label(P.freshLabel());
  case TokSpec::Generic:
    break;
  }
  const Op O = S->O;
  const Ty T = S->T;
  switch (opArity(O)) {
  case 0:
    switch (O) {
    case Op::Const:
      return A.con(T, 3);
    case Op::Name:
      return A.name(T, P.Syms.intern("fz_gl0"));
    case Op::Gaddr:
      return A.gaddr(P.Syms.intern("fz_ll"));
    case Op::Dreg:
      return A.dreg(ValueRegs[0], T);
    default:
      Err = strf("unexpected leaf terminal '%s'", Name.c_str());
      return nullptr;
    }
  case 1: {
    Ty KidTy = (O == Op::Indir) ? Ty::L : T;
    Node *Kid = Child(O, 0, KidTy);
    return Kid ? A.unary(O, T, Kid) : nullptr;
  }
  default: {
    Ty KidTy = (O == Op::PostInc || O == Op::PreDec) ? Ty::L : T;
    Node *L = Child(O, 0, KidTy);
    if (!L)
      return nullptr;
    Node *R = Child(O, 1, KidTy);
    if (!R)
      return nullptr;
    if (O == Op::Cmp)
      return A.cmp(Cond::EQ, L, R, T);
    return A.bin(O, T, L, R);
  }
  }
}

int TreeSynth::pendingAfter(const std::vector<std::string> &Tokens) const {
  int Pending = 1;
  for (const std::string &Name : Tokens) {
    if (Pending <= 0)
      return -1; // tokens continue past a completed tree
    const TokSpec *S = classify(Name);
    if (!S)
      return -1;
    int Arity = 0;
    switch (S->K) {
    case TokSpec::Special:
    case TokSpec::LabTok:
      break;
    case TokSpec::CvtTok:
      Arity = 1;
      break;
    case TokSpec::CBrTok:
      Arity = 2;
      break;
    case TokSpec::Generic:
      Arity = opArity(S->O);
      break;
    }
    Pending += Arity - 1;
  }
  return Pending;
}

Node *TreeSynth::decode(Program &P, const std::vector<std::string> &Tokens,
                        bool AllowPartial, std::string &Err) {
  if (Tokens.empty()) {
    Err = "empty sentence";
    return nullptr;
  }
  size_t Pos = 0;
  Node *Tree =
      decodeRec(P, Tokens, Pos, AllowPartial, Op::LabelDef, 0, Ty::L, Err);
  if (Tree && Pos != Tokens.size()) {
    Err = strf("trailing tokens after a complete tree (%zu of %zu consumed)",
               Pos, Tokens.size());
    return nullptr;
  }
  return Tree;
}

//===----------------------------------------------------------------------===//
// Attribute binding + runtime-safety proof
//===----------------------------------------------------------------------===//

namespace {

/// Abstract runtime value for the safety proof. `Con` is an exact integer
/// (register contents are tracked from their per-statement
/// initializations); `Mem` is a value loaded from memory — unknown but
/// identical under every oracle by the no-address-escapes induction;
/// `Adr` is array base + exact byte offset; everything else is `Poison`.
struct AbsVal {
  enum K { Con, Mem, Adr, Poison } Kind = Poison;
  int64_t V = 0; ///< Con value or Adr byte offset
  int Arr = -1;  ///< Adr: which fuzz array
  static AbsVal con(int64_t V) { return {Con, V, -1}; }
  static AbsVal mem() { return {Mem, 0, -1}; }
  static AbsVal adr(int Arr, int64_t Off) { return {Adr, Off, Arr}; }
  static AbsVal poison() { return {Poison, 0, -1}; }
};

} // namespace

struct TreeSynth::Binder {
  Program &P;
  NodeArena &A;
  uint64_t Rng = 1;

  // Environment symbols.
  std::array<InternedString, 3> Arr; ///< fz_bb, fz_ww, fz_ll
  InternedString Ptr;
  std::array<InternedString, 2> ScalB, ScalW, ScalL;

  // Per-statement results.
  std::vector<int> UsedValue, UsedAddr; ///< registers needing init
  std::vector<Node *> LabelNodes;       ///< statement-local branch targets
  int AddrRegArr[2] = {0, 1};           ///< array index r6/r7 hold
  std::vector<const Node *> BaseMarks;  ///< address-base leaves

  explicit Binder(Program &P) : P(P), A(*P.Arena) {
    Arr = {P.Syms.intern("fz_bb"), P.Syms.intern("fz_ww"),
           P.Syms.intern("fz_ll")};
    Ptr = P.Syms.intern("fz_pl");
    ScalB = {P.Syms.intern("fz_gb0"), P.Syms.intern("fz_gb1")};
    ScalW = {P.Syms.intern("fz_gw0"), P.Syms.intern("fz_gw1")};
    ScalL = {P.Syms.intern("fz_gl0"), P.Syms.intern("fz_gl1")};
  }

  size_t pick(size_t N) { return static_cast<size_t>(xorshift(Rng) % N); }

  bool isBase(const Node *N) const {
    return std::find(BaseMarks.begin(), BaseMarks.end(), N) !=
           BaseMarks.end();
  }

  void useValueReg(int R) {
    if (std::find(UsedValue.begin(), UsedValue.end(), R) == UsedValue.end())
      UsedValue.push_back(R);
  }
  void useAddrReg(int R) {
    if (std::find(UsedAddr.begin(), UsedAddr.end(), R) == UsedAddr.end())
      UsedAddr.push_back(R);
  }

  /// Picks the address-base leaf of an address expression: the first
  /// Dreg/Gaddr/long-Name not inside a Mul (scaled-index factors must stay
  /// small values), falling back to the first such leaf anywhere.
  const Node *pickBase(const Node *N, bool UnderMul) {
    if (!N)
      return nullptr;
    if (N->Opcode == Op::Dreg || N->Opcode == Op::Gaddr ||
        (N->Opcode == Op::Name && sizeClassOf(N->Type) == SizeClass::L)) {
      if (!UnderMul)
        return N;
      return nullptr;
    }
    bool Mul = UnderMul || N->Opcode == Op::Mul;
    for (const Node *Kid : N->Kids)
      if (const Node *B = pickBase(Kid, Mul))
        return B;
    return nullptr;
  }
  const Node *pickBaseAny(const Node *N) {
    if (!N)
      return nullptr;
    if (N->Opcode == Op::Dreg || N->Opcode == Op::Gaddr ||
        (N->Opcode == Op::Name && sizeClassOf(N->Type) == SizeClass::L))
      return N;
    for (const Node *Kid : N->Kids)
      if (const Node *B = pickBaseAny(Kid))
        return B;
    return nullptr;
  }

  enum class Mode { Value, Lval, Addr };

  void bind(Node *N, Mode M) {
    if (!N)
      return;
    switch (N->Opcode) {
    case Op::Const:
      if (sizeClassOf(N->Type) == SizeClass::L &&
          isSpecialLongConst(N->Value)) {
        // A special terminal (Zero/One/Two/Four/Eight): value is the
        // terminal's identity, never rebind.
        return;
      }
      if (M == Mode::Addr && sizeClassOf(N->Type) != SizeClass::L) {
        N->Value = static_cast<int64_t>(pick(7)); // small offsets, >= 0
      } else if (M == Mode::Addr) {
        // Long offsets must dodge the special-constant values, or the
        // bound tree linearizes to Zero/One/... instead of Const_l.
        static const int64_t OffPool[] = {3, 5, 6};
        N->Value = OffPool[pick(3)];
      } else {
        static const int64_t Pool[] = {3, 5, 6, 7};
        N->Value = Pool[pick(4)];
      }
      return;
    case Op::Name:
      if (M == Mode::Addr && sizeClassOf(N->Type) == SizeClass::L) {
        N->Sym = Ptr; // pointer global: holds an array base at runtime
        return;
      }
      switch (sizeClassOf(N->Type)) {
      case SizeClass::B:
        N->Sym = ScalB[pick(2)];
        return;
      case SizeClass::W:
        N->Sym = ScalW[pick(2)];
        return;
      case SizeClass::L:
        N->Sym = ScalL[pick(2)];
        return;
      }
      return;
    case Op::Gaddr:
      N->Sym = Arr[pick(3)];
      return;
    case Op::Dreg: {
      if (M == Mode::Addr && isBase(N)) {
        int I = static_cast<int>(pick(2));
        N->Reg = AddrRegs[I];
        useAddrReg(N->Reg);
        return;
      }
      size_t I = pick(4);
      N->Reg = ValueRegs[I];
      useValueReg(N->Reg);
      return;
    }
    case Op::Label:
      N->Sym = P.freshLabel();
      LabelNodes.push_back(N);
      return;
    case Op::Indir: {
      // Entering an address context: designate the base leaf first so
      // the recursive walk binds it as a base and everything else small.
      if (const Node *B = pickBase(N->Kids[0], false))
        BaseMarks.push_back(B);
      else if (const Node *B2 = pickBaseAny(N->Kids[0]))
        BaseMarks.push_back(B2);
      bind(N->Kids[0], Mode::Addr);
      return;
    }
    case Op::Assign:
      bind(N->Kids[0], Mode::Lval);
      bind(N->Kids[1], Mode::Value);
      return;
    case Op::AssignR:
      bind(N->Kids[0], Mode::Value);
      bind(N->Kids[1], Mode::Lval);
      return;
    case Op::Cmp: {
      static const Cond Pool[] = {Cond::EQ,  Cond::NE,  Cond::LT,
                                  Cond::GE,  Cond::LE,  Cond::GT};
      N->CC = Pool[pick(6)];
      bind(N->Kids[0], Mode::Value);
      bind(N->Kids[1], Mode::Value);
      return;
    }
    case Op::CBranch:
      bind(N->Kids[0], Mode::Value);
      bind(N->Kids[1], Mode::Value);
      return;
    case Op::PostInc:
    case Op::PreDec:
      // In an address context the target register is the designated base;
      // in value position it is an ordinary lvalue.
      bind(N->Kids[0], M == Mode::Addr ? Mode::Addr : Mode::Lval);
      bind(N->Kids[1], Mode::Value);
      return;
    default:
      // Arithmetic/conversions: an address context propagates so a deep
      // base leaf still binds as a base; everything else is a value.
      for (Node *Kid : N->Kids)
        bind(Kid, M == Mode::Addr ? Mode::Addr : Mode::Value);
      return;
    }
  }

  //===--- safety proof ----------------------------------------------------
  bool Unsafe = false;
  std::array<AbsVal, 16> Reg;
  AbsVal PtrVal;

  void resetAbs() {
    Unsafe = false;
    for (AbsVal &V : Reg)
      V = AbsVal::poison();
    for (size_t I = 0; I < 4; ++I)
      Reg[ValueRegs[I]] = AbsVal::con(ValueRegInit[I]);
    for (size_t I = 0; I < 2; ++I)
      Reg[AddrRegs[I]] = AbsVal::adr(AddrRegArr[I], 0);
    PtrVal = AbsVal::adr(2, 0); // fz_pl -> fz_ll, re-established per function
  }

  int arrIndexOf(InternedString Sym) const {
    for (int I = 0; I < 3; ++I)
      if (Arr[I] == Sym)
        return I;
    return -1;
  }

  bool inBounds(const AbsVal &Addr, int Bytes) const {
    return Addr.Kind == AbsVal::Adr && Addr.Arr >= 0 && Addr.V >= 0 &&
           Addr.V + Bytes <= ArrSpanBytes;
  }

  static AbsVal addVals(const AbsVal &L, const AbsVal &R) {
    if (L.Kind == AbsVal::Con && R.Kind == AbsVal::Con)
      return AbsVal::con(static_cast<int64_t>(static_cast<uint64_t>(L.V) +
                                              static_cast<uint64_t>(R.V)));
    if (L.Kind == AbsVal::Adr && R.Kind == AbsVal::Con)
      return AbsVal::adr(L.Arr, L.V + R.V);
    if (L.Kind == AbsVal::Con && R.Kind == AbsVal::Adr)
      return AbsVal::adr(R.Arr, R.V + L.V);
    if ((L.Kind == AbsVal::Con || L.Kind == AbsVal::Mem) &&
        (R.Kind == AbsVal::Con || R.Kind == AbsVal::Mem))
      return AbsVal::mem();
    return AbsVal::poison();
  }

  static AbsVal subVals(const AbsVal &L, const AbsVal &R) {
    if (L.Kind == AbsVal::Con && R.Kind == AbsVal::Con)
      return AbsVal::con(static_cast<int64_t>(static_cast<uint64_t>(L.V) -
                                              static_cast<uint64_t>(R.V)));
    if (L.Kind == AbsVal::Adr && R.Kind == AbsVal::Con)
      return AbsVal::adr(L.Arr, L.V - R.V);
    if ((L.Kind == AbsVal::Con || L.Kind == AbsVal::Mem) &&
        (R.Kind == AbsVal::Con || R.Kind == AbsVal::Mem))
      return AbsVal::mem();
    return AbsVal::poison();
  }

  static AbsVal mixVals(const AbsVal &L, const AbsVal &R, int64_t ConResult) {
    if (L.Kind == AbsVal::Con && R.Kind == AbsVal::Con)
      return AbsVal::con(ConResult);
    if ((L.Kind == AbsVal::Con || L.Kind == AbsVal::Mem) &&
        (R.Kind == AbsVal::Con || R.Kind == AbsVal::Mem))
      return AbsVal::mem();
    return AbsVal::poison();
  }

  /// Abstract location for lvalue writes.
  struct AbsLoc {
    enum K { RegLoc, PtrLoc, ScalarLoc, MemLoc, Bad } Kind = Bad;
    int Reg = -1;
  };

  AbsLoc evalLoc(const Node *N) {
    AbsLoc Loc;
    switch (N->Opcode) {
    case Op::Dreg:
      Loc.Kind = AbsLoc::RegLoc;
      Loc.Reg = N->Reg;
      return Loc;
    case Op::Name:
      Loc.Kind = (N->Sym == Ptr) ? AbsLoc::PtrLoc : AbsLoc::ScalarLoc;
      return Loc;
    case Op::Indir: {
      AbsVal Addr = evalAbs(N->Kids[0]);
      if (!inBounds(Addr, elemBytes(N->Type)))
        Unsafe = true;
      Loc.Kind = AbsLoc::MemLoc;
      return Loc;
    }
    default:
      Unsafe = true;
      return Loc;
    }
  }

  void writeLoc(const AbsLoc &Loc, const AbsVal &V) {
    const bool Plain = V.Kind == AbsVal::Con || V.Kind == AbsVal::Mem;
    switch (Loc.Kind) {
    case AbsLoc::RegLoc:
      Reg[Loc.Reg] = V;
      if (!Plain && V.Kind != AbsVal::Adr)
        Unsafe = true;
      // Address values may live in registers (that is what base registers
      // are); they must just never escape to memory or comparisons.
      return;
    case AbsLoc::PtrLoc:
      PtrVal = V;
      if (!Plain && V.Kind != AbsVal::Adr)
        Unsafe = true;
      return;
    case AbsLoc::ScalarLoc:
    case AbsLoc::MemLoc:
      if (!Plain)
        Unsafe = true; // no addresses in data memory: loads stay `Mem`
      return;
    case AbsLoc::Bad:
      return;
    }
  }

  AbsVal readLoc(const Node *N, const AbsLoc &Loc) {
    switch (Loc.Kind) {
    case AbsLoc::RegLoc:
      return Reg[Loc.Reg];
    case AbsLoc::PtrLoc:
      return PtrVal;
    case AbsLoc::ScalarLoc:
    case AbsLoc::MemLoc:
      return AbsVal::mem();
    case AbsLoc::Bad:
      break;
    }
    (void)N;
    return AbsVal::poison();
  }

  AbsVal evalAbs(const Node *N) {
    if (!N)
      return AbsVal::poison();
    const Ty T = N->Type;
    switch (N->Opcode) {
    case Op::Const:
      return AbsVal::con(N->Value);
    case Op::Name:
      if (N->Sym == Ptr)
        return PtrVal;
      return AbsVal::mem();
    case Op::Gaddr: {
      int I = arrIndexOf(N->Sym);
      return I >= 0 ? AbsVal::adr(I, 0) : AbsVal::poison();
    }
    case Op::Dreg:
      return Reg[N->Reg];
    case Op::Label:
      return AbsVal::con(0);
    case Op::Indir: {
      AbsVal Addr = evalAbs(N->Kids[0]);
      if (!inBounds(Addr, elemBytes(T)))
        Unsafe = true;
      return AbsVal::mem();
    }
    case Op::Conv: {
      AbsVal V = evalAbs(N->Kids[0]);
      if (V.Kind == AbsVal::Con)
        return AbsVal::con(truncateToTy(V.V, T));
      return V.Kind == AbsVal::Mem ? AbsVal::mem() : AbsVal::poison();
    }
    case Op::Neg:
    case Op::Com: {
      AbsVal V = evalAbs(N->Kids[0]);
      if (V.Kind == AbsVal::Con)
        return AbsVal::con(N->Opcode == Op::Neg
                               ? -static_cast<int64_t>(
                                     static_cast<uint64_t>(V.V))
                               : ~V.V);
      return V.Kind == AbsVal::Mem ? AbsVal::mem() : AbsVal::poison();
    }
    case Op::Plus:
      return addVals(evalAbs(N->Kids[0]), evalAbs(N->Kids[1]));
    case Op::Minus:
      return subVals(evalAbs(N->Kids[0]), evalAbs(N->Kids[1]));
    case Op::MinusR:
      return subVals(evalAbs(N->Kids[1]), evalAbs(N->Kids[0]));
    case Op::Mul:
    case Op::And:
    case Op::Or:
    case Op::Xor: {
      AbsVal L = evalAbs(N->Kids[0]), R = evalAbs(N->Kids[1]);
      int64_t C = 0;
      if (L.Kind == AbsVal::Con && R.Kind == AbsVal::Con) {
        uint64_t A2 = static_cast<uint64_t>(L.V),
                 B2 = static_cast<uint64_t>(R.V);
        switch (N->Opcode) {
        case Op::Mul:
          C = static_cast<int64_t>(A2 * B2);
          break;
        case Op::And:
          C = static_cast<int64_t>(A2 & B2);
          break;
        case Op::Or:
          C = static_cast<int64_t>(A2 | B2);
          break;
        default:
          C = static_cast<int64_t>(A2 ^ B2);
          break;
        }
      }
      return mixVals(L, R, C);
    }
    case Op::Div:
    case Op::Mod:
    case Op::DivR:
    case Op::ModR: {
      const bool Rev = N->Opcode == Op::DivR || N->Opcode == Op::ModR;
      AbsVal Num = evalAbs(N->Kids[Rev ? 1 : 0]);
      AbsVal Den = evalAbs(N->Kids[Rev ? 0 : 1]);
      if (Den.Kind != AbsVal::Con || Den.V == 0 || Den.V == -1)
        Unsafe = true; // -1 guards INT_MIN/-1; constants here are small
      int64_t C = 0;
      if (Num.Kind == AbsVal::Con && Den.Kind == AbsVal::Con && Den.V != 0 &&
          Den.V != -1)
        C = (N->Opcode == Op::Div || N->Opcode == Op::DivR) ? Num.V / Den.V
                                                            : Num.V % Den.V;
      return mixVals(Num, Den, C);
    }
    case Op::Lsh:
    case Op::Rsh:
    case Op::LshR:
    case Op::RshR: {
      const bool Rev = N->Opcode == Op::LshR || N->Opcode == Op::RshR;
      AbsVal Val = evalAbs(N->Kids[Rev ? 1 : 0]);
      AbsVal Amt = evalAbs(N->Kids[Rev ? 0 : 1]);
      if (Amt.Kind != AbsVal::Con || Amt.V < 0 || Amt.V > 7)
        Unsafe = true;
      int64_t C = 0;
      if (Val.Kind == AbsVal::Con && Amt.Kind == AbsVal::Con && Amt.V >= 0 &&
          Amt.V <= 7)
        C = (N->Opcode == Op::Lsh || N->Opcode == Op::LshR)
                ? static_cast<int64_t>(static_cast<uint64_t>(Val.V) << Amt.V)
                : (Val.V >> Amt.V);
      return mixVals(Val, Amt, C);
    }
    case Op::Cmp: {
      AbsVal L = evalAbs(N->Kids[0]), R = evalAbs(N->Kids[1]);
      const bool PlainL = L.Kind == AbsVal::Con || L.Kind == AbsVal::Mem;
      const bool PlainR = R.Kind == AbsVal::Con || R.Kind == AbsVal::Mem;
      if (!PlainL || !PlainR)
        Unsafe = true; // address comparisons diverge across oracles
      return AbsVal::mem();
    }
    case Op::Assign: {
      AbsVal V = evalAbs(N->Kids[1]);
      AbsLoc Loc = evalLoc(N->Kids[0]);
      writeLoc(Loc, V);
      return V;
    }
    case Op::AssignR: {
      AbsVal V = evalAbs(N->Kids[0]);
      AbsLoc Loc = evalLoc(N->Kids[1]);
      writeLoc(Loc, V);
      return V;
    }
    case Op::PostInc:
    case Op::PreDec: {
      AbsLoc Loc = evalLoc(N->Kids[0]);
      AbsVal Old = readLoc(N->Kids[0], Loc);
      AbsVal Delta = evalAbs(N->Kids[1]);
      AbsVal New = N->Opcode == Op::PostInc ? addVals(Old, Delta)
                                            : subVals(Old, Delta);
      writeLoc(Loc, New);
      return N->Opcode == Op::PostInc ? Old : New;
    }
    case Op::CBranch:
      evalAbs(N->Kids[0]);
      return AbsVal::con(0);
    case Op::Push:
    case Op::Ret: {
      AbsVal V = evalAbs(N->Kids[0]);
      if (V.Kind != AbsVal::Con && V.Kind != AbsVal::Mem)
        Unsafe = true;
      return V;
    }
    default:
      Unsafe = true;
      return AbsVal::poison();
    }
  }

  /// Binds one statement; returns true when the safety proof succeeded
  /// (the statement may run live, unguarded).
  bool bindStatement(Node *Stmt, uint64_t Seed, size_t StmtIdx) {
    Rng = Seed ^ (0x9E3779B97F4A7C15ull * (StmtIdx + 1));
    if (!Rng)
      Rng = 1;
    UsedValue.clear();
    UsedAddr.clear();
    LabelNodes.clear();
    BaseMarks.clear();
    AddrRegArr[0] = static_cast<int>(StmtIdx % 3);
    AddrRegArr[1] = static_cast<int>((StmtIdx + 1) % 3);
    bind(Stmt, Mode::Value);
    std::sort(UsedValue.begin(), UsedValue.end());
    std::sort(UsedAddr.begin(), UsedAddr.end());
    resetAbs();
    evalAbs(Stmt);
    return !Unsafe;
  }
};

//===----------------------------------------------------------------------===//
// Program assembly
//===----------------------------------------------------------------------===//

namespace {

/// Push + CallStmt pair calling the print builtin with one long argument
/// (the post-phase-1 call shape all backends expect).
void emitPrint(Program &P, std::vector<Node *> &Body, Node *Val) {
  NodeArena &A = *P.Arena;
  Body.push_back(A.unary(Op::Push, Ty::L, Val));
  Node *Call = A.bin(Op::Call, Ty::L, A.gaddr(P.Syms.intern("print")),
                     nullptr);
  Call->Value = 1;
  Node *CS = A.make(Op::CallStmt, Ty::L);
  CS->Kids[0] = nullptr;
  CS->Kids[1] = Call;
  Body.push_back(CS);
}

/// Widens a byte/word rvalue to long for printing.
Node *widened(NodeArena &A, Node *V) {
  if (sizeClassOf(V->Type) == SizeClass::L)
    return V;
  return A.unary(Op::Conv, Ty::L, V);
}

} // namespace

bool TreeSynth::buildProgram(const std::vector<SynthStmt> &Stmts,
                             uint64_t Seed, Program &Out, SynthReport &R,
                             std::string &Err) {
  NodeArena &A = *Out.Arena;
  Binder B(Out);

  // Globals: three arrays with one shared span, a pointer cell, and two
  // scalars per width. Small cyclic init values keep every derived
  // quantity far from overflow and shift-range trouble.
  auto AddArray = [&](InternedString Sym, Ty ElemTy) {
    GlobalVar G;
    G.Name = Sym;
    G.ElemTy = ElemTy;
    G.Count = ArrSpanBytes / elemBytes(ElemTy);
    for (int I = 0; I < G.Count; ++I)
      G.Init.push_back((I % 8) + 1);
    Out.Globals.push_back(std::move(G));
  };
  AddArray(B.Arr[0], Ty::B);
  AddArray(B.Arr[1], Ty::W);
  AddArray(B.Arr[2], Ty::L);
  auto AddScalar = [&](InternedString Sym, Ty T, int64_t Init) {
    GlobalVar G;
    G.Name = Sym;
    G.ElemTy = T;
    G.Count = 1;
    G.Init.push_back(Init);
    Out.Globals.push_back(std::move(G));
  };
  AddScalar(B.Ptr, Ty::L, 0);
  AddScalar(B.ScalB[0], Ty::B, 3);
  AddScalar(B.ScalB[1], Ty::B, 5);
  AddScalar(B.ScalW[0], Ty::W, 7);
  AddScalar(B.ScalW[1], Ty::W, 9);
  AddScalar(B.ScalL[0], Ty::L, 11);
  AddScalar(B.ScalL[1], Ty::L, 13);

  constexpr size_t StmtsPerFunction = 20;
  const size_t NumFns =
      Stmts.empty() ? 0 : (Stmts.size() + StmtsPerFunction - 1) /
                              StmtsPerFunction;
  size_t Global = 0;
  std::vector<InternedString> FnNames;
  for (size_t FI = 0; FI < NumFns; ++FI) {
    Function F;
    F.Name = Out.Syms.intern(strf("fz_f%zu", FI));
    FnNames.push_back(F.Name);
    F.RegVars = {6, 7, 8, 9, 10, 11};
    std::vector<Node *> &Body = F.Body;

    // The pointer global must hold a real array base before any def_Y
    // addressing runs; Binder::resetAbs assumes fz_ll.
    Body.push_back(A.bin(Op::Assign, Ty::L, A.name(Ty::L, B.Ptr),
                         A.gaddr(B.Arr[2])));

    const size_t End =
        std::min(Stmts.size(), (FI + 1) * StmtsPerFunction);
    for (; Global < End; ++Global) {
      const SynthStmt &S = Stmts[Global];
      Node *Tree = decode(Out, S.Tokens, S.ExpectBlocked, Err);
      if (!Tree)
        return false;
      const bool Safe = B.bindStatement(Tree, Seed, Global);

      // Re-linearization must reproduce the witness sentence exactly —
      // the compile-time coverage the sentence was derived for depends
      // on it. (Blocked witnesses gain filler tokens at the tail.)
      std::vector<std::string> Lin = terminalNames(Tree);
      const size_t CheckLen = S.Tokens.size();
      bool LinOk = Lin.size() >= CheckLen &&
                   (S.ExpectBlocked || Lin.size() == CheckLen);
      for (size_t I = 0; LinOk && I < CheckLen; ++I)
        LinOk = Lin[I] == S.Tokens[I];
      if (!LinOk) {
        std::string Want, Got;
        for (const std::string &T : S.Tokens)
          Want += T + " ";
        for (const std::string &T : Lin)
          Got += T + " ";
        Err = strf("bound tree re-linearizes differently from its witness "
                   "sentence (statement %zu)\n  witness: %s\n  bound:   %s",
                   Global, Want.c_str(), Got.c_str());
        return false;
      }

      // Register initialization precedes the statement (and its guard):
      // bases first, then the tracked value registers.
      for (int Reg : B.UsedAddr) {
        int ArrIdx = Reg == AddrRegs[0] ? B.AddrRegArr[0] : B.AddrRegArr[1];
        Body.push_back(A.bin(Op::Assign, Ty::L, A.dreg(Reg, Ty::L),
                             A.gaddr(B.Arr[ArrIdx])));
      }
      for (int Reg : B.UsedValue) {
        int64_t Init = 0;
        for (size_t I = 0; I < 4; ++I)
          if (ValueRegs[I] == Reg)
            Init = ValueRegInit[I];
        Body.push_back(A.bin(Op::Assign, Ty::L, A.dreg(Reg, Ty::L),
                             A.con(Ty::L, Init)));
      }

      ++R.Statements;
      if (S.ExpectBlocked)
        ++R.ExpectedBlocks;
      if (Safe && !S.ExpectBlocked) {
        ++R.Live;
        Body.push_back(Tree);
        for (Node *L : B.LabelNodes)
          Body.push_back(A.labelDef(L->Sym));
        for (int Reg : B.UsedValue)
          emitPrint(Out, Body, A.dreg(Reg, Ty::L));
      } else {
        // Guard: an always-taken forward branch. The statement still
        // compiles — coverage is recorded at match time — but never runs.
        ++R.Guarded;
        InternedString Skip = Out.freshLabel();
        Body.push_back(A.make(Op::CBranch, Ty::L));
        Body.back()->Kids[0] =
            A.cmp(Cond::EQ, A.con(Ty::L, 1), A.con(Ty::L, 1), Ty::L);
        Body.back()->Kids[1] = A.label(Skip);
        Body.push_back(Tree);
        for (Node *L : B.LabelNodes)
          Body.push_back(A.labelDef(L->Sym));
        Body.push_back(A.labelDef(Skip));
      }
    }

    // Global-state dump: scalars, then the head cell of each array.
    emitPrint(Out, Body, widened(A, A.name(Ty::B, B.ScalB[0])));
    emitPrint(Out, Body, widened(A, A.name(Ty::B, B.ScalB[1])));
    emitPrint(Out, Body, widened(A, A.name(Ty::W, B.ScalW[0])));
    emitPrint(Out, Body, widened(A, A.name(Ty::W, B.ScalW[1])));
    emitPrint(Out, Body, A.name(Ty::L, B.ScalL[0]));
    emitPrint(Out, Body, A.name(Ty::L, B.ScalL[1]));
    emitPrint(Out, Body,
              widened(A, A.unary(Op::Indir, Ty::B, A.gaddr(B.Arr[0]))));
    emitPrint(Out, Body,
              widened(A, A.unary(Op::Indir, Ty::W, A.gaddr(B.Arr[1]))));
    emitPrint(Out, Body, A.unary(Op::Indir, Ty::L, A.gaddr(B.Arr[2])));
    Body.push_back(A.unary(Op::Ret, Ty::L, A.con(Ty::L, 0)));
    Out.Functions.push_back(std::move(F));
  }

  Function Main;
  Main.Name = Out.Syms.intern("main");
  for (InternedString Fn : FnNames) {
    Node *Call = A.bin(Op::Call, Ty::L, A.gaddr(Fn), nullptr);
    Call->Value = 0;
    Node *CS = A.make(Op::CallStmt, Ty::L);
    CS->Kids[0] = nullptr;
    CS->Kids[1] = Call;
    Main.Body.push_back(CS);
  }
  Main.Body.push_back(A.unary(Op::Ret, Ty::L, A.con(Ty::L, 0)));
  Out.Functions.push_back(std::move(Main));
  return true;
}
