//===- Parser.cpp - MiniC parser and IR lowering ------------------------------===//

#include "frontend/Parser.h"
#include "frontend/Lexer.h"
#include "support/Strings.h"

#include <unordered_map>
#include <vector>

using namespace gg;

namespace {

/// A MiniC type: scalar, pointer-to-scalar, or array-of-scalar.
struct CType {
  Ty Base = Ty::L;    ///< value type (pointers are unsigned longs)
  bool IsPtr = false;
  bool IsArray = false;
  Ty Elem = Ty::L;    ///< pointee / element type
  int ArrayCount = 0;
  bool IsVoid = false;

  bool isScalar() const { return !IsPtr && !IsArray && !IsVoid; }
  int elemSize() const { return sizeOfTy(Elem); }

  static CType scalar(Ty T) {
    CType C;
    C.Base = T;
    return C;
  }
  static CType pointer(Ty ElemT) {
    CType C;
    C.Base = Ty::UL;
    C.IsPtr = true;
    C.Elem = ElemT;
    return C;
  }
};

/// An expression during lowering: the tree plus its MiniC type. For
/// lvalues, N is the cell tree itself (Name / Indir / Dreg), directly
/// usable both as a value and as an assignment destination.
struct Value {
  Node *N = nullptr;
  CType T;
  bool IsLValue = false;
};

struct VarInfo {
  enum KindTy { Global, Local, Param, RegVar } Kind = Local;
  CType T;
  InternedString Name; ///< global symbol
  int Offset = 0;      ///< fp offset (Local) or ap offset (Param)
  int Reg = -1;        ///< register number (RegVar)
};

struct FnInfo {
  CType Ret;
  int NumParams = 0;
  bool Defined = false;
};

/// What a token does between two operands, from Tokens.def: a binary
/// operator's precedence (0: none), IR operator and, for Op::Rel, the
/// condition; or an assignment's operator (Assign for '=').
struct InfixRule {
  uint8_t Prec = 0;
  bool IsAssign = false;
  Op O = Op::Const;
  Cond CC = Cond::EQ;
};

constexpr InfixRule InfixRules[] = {
#define TOKEN(Id, Name) {},
#define BINARY(Id, Spelling, Prec, BinOp) {Prec, false, Op::BinOp},
#define RELATIONAL(Id, Spelling, Prec, CC) {Prec, false, Op::Rel, Cond::CC},
#define ASSIGN(Id, Spelling, BinOp) {0, true, Op::BinOp},
#include "frontend/Tokens.def"
};

class ParserImpl {
public:
  ParserImpl(const std::vector<Token> &Toks, Program &Prog,
             DiagnosticSink &Diags)
      : Toks(Toks), Prog(Prog), A(*Prog.Arena), Diags(Diags) {}

  bool run() {
    while (!at(Tok::End) && !Failed)
      parseTopLevel();
    return !Failed && !Diags.hasErrors();
  }

private:
  const std::vector<Token> &Toks;
  Program &Prog;
  NodeArena &A;
  DiagnosticSink &Diags;
  size_t Pos = 0;
  bool Failed = false;

  // Keyed by views into the source, which outlives the parse.
  std::vector<std::unordered_map<std::string_view, VarInfo>> Scopes;
  std::unordered_map<std::string_view, FnInfo> Funcs;
  Function *CurF = nullptr;
  CType CurRet;
  std::vector<InternedString> BreakTargets, ContinueTargets;
  int NextRegVar = RegFirstVar;

  //===--- token plumbing ---------------------------------------------------
  const Token &peek(int Ahead = 0) const {
    size_t I = Pos + Ahead;
    return I < Toks.size() ? Toks[I] : Toks.back();
  }
  bool at(Tok K) const { return peek().Kind == K; }
  int line() const { return peek().Line; }
  const Token &take() { return Toks[Pos < Toks.size() - 1 ? Pos++ : Pos]; }
  bool accept(Tok K) {
    if (!at(K))
      return false;
    take();
    return true;
  }
  void expect(Tok K, const char *Ctx) {
    if (accept(K))
      return;
    error(strf("expected %s %s, found %s", tokName(K), Ctx,
               tokName(peek().Kind)));
  }
  void error(const std::string &Message) {
    if (!Failed)
      Diags.error(Message, line());
    Failed = true;
  }

  //===--- symbols ------------------------------------------------------------
  VarInfo *lookupVar(std::string_view Name) {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
      auto Found = It->find(Name);
      if (Found != It->end())
        return &Found->second;
    }
    return nullptr;
  }

  void declareVar(std::string_view Name, VarInfo Info) {
    if (Scopes.back().count(Name)) {
      error(strf("redefinition of '%.*s'", int(Name.size()), Name.data()));
      return;
    }
    Scopes.back().emplace(Name, Info);
  }

  //===--- types ---------------------------------------------------------------
  bool atTypeStart() const {
    switch (peek().Kind) {
    case Tok::KwInt:
    case Tok::KwChar:
    case Tok::KwShort:
    case Tok::KwUnsigned:
    case Tok::KwVoid:
      return true;
    default:
      return false;
    }
  }

  /// Parses "int", "unsigned char", "char *", "void", ...
  CType parseType() {
    CType C;
    bool Unsigned = accept(Tok::KwUnsigned);
    if (accept(Tok::KwChar))
      C.Base = Unsigned ? Ty::UB : Ty::B;
    else if (accept(Tok::KwShort))
      C.Base = Unsigned ? Ty::UW : Ty::W;
    else if (accept(Tok::KwInt))
      C.Base = Unsigned ? Ty::UL : Ty::L;
    else if (!Unsigned && accept(Tok::KwVoid))
      C.IsVoid = true;
    else if (Unsigned)
      C.Base = Ty::UL; // bare "unsigned"
    else {
      error("expected a type");
      return C;
    }
    if (accept(Tok::Star)) {
      if (C.IsVoid) {
        error("void pointers are not supported");
        return C;
      }
      C = CType::pointer(C.Base);
      if (at(Tok::Star))
        error("multi-level pointers are not supported");
    }
    return C;
  }

  //===--- top level ------------------------------------------------------------
  void parseTopLevel() {
    CType T = parseType();
    if (Failed)
      return;
    if (!at(Tok::Ident)) {
      error("expected an identifier");
      return;
    }
    std::string_view Name = take().Text;
    if (at(Tok::LParen)) {
      parseFunction(T, Name);
      return;
    }
    parseGlobal(T, Name);
  }

  void parseGlobal(CType T, std::string_view Name) {
    if (T.IsVoid) {
      error("variables cannot have type void");
      return;
    }
    GlobalVar G;
    G.Name = Prog.Syms.intern(Name);
    if (Prog.findGlobal(G.Name)) {
      error(strf("redefinition of global '%.*s'", int(Name.size()),
                 Name.data()));
      return;
    }
    CType VarT = T;
    if (accept(Tok::LBracket)) {
      if (!at(Tok::Number)) {
        error("array size must be a constant");
        return;
      }
      int64_t N = take().Value;
      expect(Tok::RBracket, "after array size");
      if (N <= 0 || N > 1 << 20) {
        error("bad array size");
        return;
      }
      if (T.IsPtr) {
        error("arrays of pointers are not supported");
        return;
      }
      VarT.IsArray = true;
      VarT.Elem = T.Base;
      VarT.ArrayCount = static_cast<int>(N);
      VarT.Base = Ty::UL;
      G.ElemTy = T.Base;
      G.Count = static_cast<int>(N);
    } else {
      G.ElemTy = T.IsPtr ? Ty::UL : T.Base;
      G.Count = 1;
    }
    if (accept(Tok::Assign)) {
      if (accept(Tok::LBrace)) {
        do {
          G.Init.push_back(parseConstInit());
        } while (accept(Tok::Comma) && !at(Tok::RBrace));
        expect(Tok::RBrace, "after initializer list");
      } else {
        G.Init.push_back(parseConstInit());
      }
    }
    expect(Tok::Semi, "after global declaration");
    Prog.Globals.push_back(std::move(G));
    // Record in the global scope for lookup.
    if (Scopes.empty())
      Scopes.emplace_back();
    VarInfo Info;
    Info.Kind = VarInfo::Global;
    Info.T = VarT;
    Info.Name = Prog.Syms.intern(Name);
    Scopes.front().emplace(Name, Info);
  }

  int64_t parseConstInit() {
    bool Negate = accept(Tok::Minus);
    if (!at(Tok::Number)) {
      error("global initializers must be integer constants");
      return 0;
    }
    int64_t V = take().Value;
    return Negate ? -V : V;
  }

  void parseFunction(CType Ret, std::string_view Name) {
    expect(Tok::LParen, "after function name");
    if (Scopes.empty())
      Scopes.emplace_back();

    Function F;
    F.Name = Prog.Syms.intern(Name);
    Scopes.emplace_back(); // parameter scope
    int ParamIndex = 0;
    if (!at(Tok::RParen) && !at(Tok::KwVoid)) {
      do {
        CType PT = parseType();
        if (PT.IsVoid) {
          error("parameters cannot be void");
          break;
        }
        if (!at(Tok::Ident)) {
          error("expected a parameter name");
          break;
        }
        std::string_view PName = take().Text;
        VarInfo Info;
        Info.Kind = VarInfo::Param;
        Info.T = PT;
        Info.Offset = 4 + 4 * ParamIndex;
        declareVar(PName, Info);
        ++ParamIndex;
      } while (accept(Tok::Comma));
    } else {
      accept(Tok::KwVoid);
    }
    expect(Tok::RParen, "after parameters");
    F.NumArgs = ParamIndex;

    auto [It, Inserted] = Funcs.emplace(Name, FnInfo{Ret, ParamIndex, false});
    if (!Inserted &&
        (It->second.NumParams != ParamIndex || It->second.Defined)) {
      error(strf("conflicting or duplicate definition of '%.*s'",
                 int(Name.size()), Name.data()));
    }

    if (accept(Tok::Semi)) { // prototype
      Scopes.pop_back();
      return;
    }
    It->second.Defined = true;

    CurF = &F;
    CurRet = Ret;
    NextRegVar = RegFirstVar;
    parseBlock();
    Scopes.pop_back();
    CurF = nullptr;

    // Guarantee a well-defined return value even when control falls off
    // the end (keeps interpreter and simulator observably identical).
    if (F.Body.empty() || !F.Body.back()->is(Op::Ret)) {
      Node *R = A.make(Op::Ret, Ty::L);
      R->Kids[0] = Ret.IsVoid ? nullptr : A.con(Ty::L, 0);
      F.Body.push_back(R);
    }
    Prog.Functions.push_back(std::move(F));
  }

  //===--- statements --------------------------------------------------------
  void emitStmt(Node *S) { CurF->Body.push_back(S); }
  void emitLabel(InternedString L) { emitStmt(A.labelDef(L)); }
  void emitJump(InternedString L) {
    emitStmt(A.unary(Op::Jump, Ty::L, A.label(L)));
  }
  /// Branch to \p Target when \p CondV is zero/nonzero per \p WhenTrue.
  void emitCondBranch(Value CondV, InternedString Target, bool WhenTrue) {
    Node *Cmp = A.cmp(WhenTrue ? Cond::NE : Cond::EQ, CondV.N,
                      A.con(CondV.N->Type, 0), CondV.N->Type);
    emitStmt(A.bin(Op::CBranch, Ty::L, Cmp, A.label(Target)));
  }

  void parseBlock() {
    expect(Tok::LBrace, "to open a block");
    Scopes.emplace_back();
    while (!at(Tok::RBrace) && !at(Tok::End) && !Failed)
      parseStmt();
    Scopes.pop_back();
    expect(Tok::RBrace, "to close a block");
  }

  void parseStmt() {
    if (Failed)
      return;
    if (at(Tok::LBrace)) {
      parseBlock();
      return;
    }
    if (accept(Tok::Semi))
      return;
    if (at(Tok::KwRegister) || atTypeStart()) {
      parseLocalDecl();
      return;
    }
    if (accept(Tok::KwIf)) {
      parseIf();
      return;
    }
    if (accept(Tok::KwWhile)) {
      parseWhile();
      return;
    }
    if (accept(Tok::KwDo)) {
      parseDoWhile();
      return;
    }
    if (accept(Tok::KwFor)) {
      parseFor();
      return;
    }
    if (accept(Tok::KwSwitch)) {
      parseSwitch();
      return;
    }
    if (accept(Tok::KwBreak)) {
      if (BreakTargets.empty())
        error("'break' outside a loop");
      else
        emitJump(BreakTargets.back());
      expect(Tok::Semi, "after break");
      return;
    }
    if (accept(Tok::KwContinue)) {
      if (ContinueTargets.empty())
        error("'continue' outside a loop");
      else
        emitJump(ContinueTargets.back());
      expect(Tok::Semi, "after continue");
      return;
    }
    if (accept(Tok::KwReturn)) {
      Node *R = A.make(Op::Ret, Ty::L);
      if (!at(Tok::Semi)) {
        if (CurRet.IsVoid)
          error("returning a value from a void function");
        Value V = parseExpr();
        Node *N = V.N;
        if (sizeClassOf(N->Type) != SizeClass::L)
          N = A.unary(Op::Conv, Ty::L, N);
        R->Kids[0] = N;
      } else if (!CurRet.IsVoid) {
        R->Kids[0] = A.con(Ty::L, 0);
      }
      emitStmt(R);
      expect(Tok::Semi, "after return");
      return;
    }

    // Expression statement.
    Value V = parseExpr();
    expect(Tok::Semi, "after expression");
    if (Failed)
      return;
    if (V.N->is(Op::Call)) {
      Node *S = A.make(Op::CallStmt, V.N->Type);
      S->Kids[1] = V.N;
      emitStmt(S);
      return;
    }
    if (V.N->is(Op::Assign) || hasSideEffectsTree(V.N)) {
      emitStmt(V.N);
      return;
    }
    Diags.warning("expression statement has no effect", line());
  }

  static bool hasSideEffectsTree(const Node *N) {
    if (!N)
      return false;
    switch (N->Opcode) {
    case Op::Assign:
    case Op::AssignR:
    case Op::Call:
    case Op::PostInc:
    case Op::PreDec:
      return true;
    default:
      return hasSideEffectsTree(N->left()) || hasSideEffectsTree(N->right());
    }
  }

  void parseLocalDecl() {
    bool Register = accept(Tok::KwRegister);
    CType T = parseType();
    if (T.IsVoid) {
      error("variables cannot have type void");
      return;
    }
    do {
      if (!at(Tok::Ident)) {
        error("expected a variable name");
        return;
      }
      std::string_view Name = take().Text;
      VarInfo Info;
      Info.T = T;
      if (accept(Tok::LBracket)) {
        if (Register) {
          error("register arrays are not supported");
          return;
        }
        if (!at(Tok::Number)) {
          error("array size must be a constant");
          return;
        }
        int64_t N = take().Value;
        expect(Tok::RBracket, "after array size");
        if (N <= 0 || N > 1 << 16 || T.IsPtr) {
          error("bad local array");
          return;
        }
        Info.T.IsArray = true;
        Info.T.Elem = T.Base;
        Info.T.ArrayCount = static_cast<int>(N);
        Info.T.Base = Ty::UL;
        Info.Kind = VarInfo::Local;
        Info.Offset = CurF->allocLocal(static_cast<int>(N) * sizeOfTy(T.Base));
      } else if (Register && sizeClassOf(T.Base) == SizeClass::L &&
                 NextRegVar <= RegLastVar) {
        Info.Kind = VarInfo::RegVar;
        Info.Reg = NextRegVar++;
        CurF->RegVars.push_back(Info.Reg);
      } else {
        Info.Kind = VarInfo::Local;
        Info.Offset = CurF->allocLocal(sizeOfTy(valueTy(T)));
      }
      declareVar(Name, Info);
      if (accept(Tok::Assign)) {
        if (Info.T.IsArray) {
          error("local array initializers are not supported");
          return;
        }
        Value Cell = varCell(Info);
        Value Init = parseAssignExpr();
        emitStmt(makeAssign(Cell, Init));
      }
    } while (accept(Tok::Comma));
    expect(Tok::Semi, "after declaration");
  }

  void parseIf() {
    expect(Tok::LParen, "after if");
    Value C = parseExpr();
    expect(Tok::RParen, "after condition");
    InternedString LElse = Prog.freshLabel();
    emitCondBranch(C, LElse, /*WhenTrue=*/false);
    parseStmt();
    if (accept(Tok::KwElse)) {
      InternedString LEnd = Prog.freshLabel();
      emitJump(LEnd);
      emitLabel(LElse);
      parseStmt();
      emitLabel(LEnd);
    } else {
      emitLabel(LElse);
    }
  }

  void parseWhile() {
    InternedString LCond = Prog.freshLabel(), LEnd = Prog.freshLabel();
    emitLabel(LCond);
    expect(Tok::LParen, "after while");
    Value C = parseExpr();
    expect(Tok::RParen, "after condition");
    emitCondBranch(C, LEnd, /*WhenTrue=*/false);
    BreakTargets.push_back(LEnd);
    ContinueTargets.push_back(LCond);
    parseStmt();
    BreakTargets.pop_back();
    ContinueTargets.pop_back();
    emitJump(LCond);
    emitLabel(LEnd);
  }

  void parseDoWhile() {
    InternedString LBody = Prog.freshLabel(), LCond = Prog.freshLabel(),
                   LEnd = Prog.freshLabel();
    emitLabel(LBody);
    BreakTargets.push_back(LEnd);
    ContinueTargets.push_back(LCond);
    parseStmt();
    BreakTargets.pop_back();
    ContinueTargets.pop_back();
    emitLabel(LCond);
    expect(Tok::KwWhile, "after do body");
    expect(Tok::LParen, "after while");
    Value C = parseExpr();
    expect(Tok::RParen, "after condition");
    expect(Tok::Semi, "after do-while");
    emitCondBranch(C, LBody, /*WhenTrue=*/true);
    emitLabel(LEnd);
  }

  void parseFor() {
    expect(Tok::LParen, "after for");
    Scopes.emplace_back();
    if (!at(Tok::Semi)) {
      if (atTypeStart() || at(Tok::KwRegister)) {
        parseLocalDecl(); // consumes the ';'
      } else {
        emitValueAsStmt(parseExpr());
        expect(Tok::Semi, "after for initializer");
      }
    } else {
      take();
    }
    InternedString LCond = Prog.freshLabel(), LStep = Prog.freshLabel(),
                   LEnd = Prog.freshLabel();
    emitLabel(LCond);
    if (!at(Tok::Semi)) {
      Value C = parseExpr();
      emitCondBranch(C, LEnd, /*WhenTrue=*/false);
    }
    expect(Tok::Semi, "after for condition");
    // Save the step expression tokens by position: parse it later.
    size_t StepStart = Pos;
    int Depth = 0;
    while (!at(Tok::End)) {
      if (at(Tok::LParen))
        ++Depth;
      if (at(Tok::RParen)) {
        if (Depth == 0)
          break;
        --Depth;
      }
      take();
    }
    size_t StepEnd = Pos;
    expect(Tok::RParen, "after for header");
    BreakTargets.push_back(LEnd);
    ContinueTargets.push_back(LStep);
    parseStmt();
    BreakTargets.pop_back();
    ContinueTargets.pop_back();
    emitLabel(LStep);
    if (StepEnd > StepStart) {
      size_t Resume = Pos;
      Pos = StepStart;
      emitValueAsStmt(parseExpr());
      Pos = Resume;
    }
    emitJump(LCond);
    emitLabel(LEnd);
    Scopes.pop_back();
  }

  /// switch lowers to a compare chain (the paper's description omits the
  /// VAX casel instruction, and PCC-era compilers used chains for sparse
  /// cases anyway). Layout: jump to a dispatch block placed after the
  /// bodies, so cases can be discovered in one pass; fall-through comes
  /// free from the label sequence.
  void parseSwitch() {
    expect(Tok::LParen, "after switch");
    Value Scrut = parseExpr();
    expect(Tok::RParen, "after switch expression");

    // Capture the scrutinee once.
    VarInfo Tmp;
    Tmp.Kind = VarInfo::Local;
    Tmp.T = CType::scalar(Ty::L);
    Tmp.Offset = CurF->allocLocal(4);
    Value Cell = varCell(Tmp);
    emitStmt(makeAssign(Cell, Scrut));

    InternedString LDispatch = Prog.freshLabel(), LEnd = Prog.freshLabel();
    emitJump(LDispatch);

    struct CaseArm {
      int64_t Value;
      InternedString Label;
    };
    std::vector<CaseArm> Arms;
    InternedString LDefault;
    bool HasDefault = false;

    expect(Tok::LBrace, "to open the switch body");
    Scopes.emplace_back();
    BreakTargets.push_back(LEnd);
    while (!at(Tok::RBrace) && !at(Tok::End) && !Failed) {
      if (accept(Tok::KwCase)) {
        bool Neg = accept(Tok::Minus);
        if (!at(Tok::Number)) {
          error("case labels must be integer constants");
          break;
        }
        int64_t V = take().Value;
        if (Neg)
          V = -V;
        expect(Tok::Colon, "after case value");
        for (const CaseArm &A : Arms)
          if (A.Value == V)
            error(strf("duplicate case value %lld", (long long)V));
        InternedString L = Prog.freshLabel();
        Arms.push_back({V, L});
        emitLabel(L);
        continue;
      }
      if (accept(Tok::KwDefault)) {
        expect(Tok::Colon, "after default");
        if (HasDefault)
          error("duplicate default label");
        HasDefault = true;
        LDefault = Prog.freshLabel();
        emitLabel(LDefault);
        continue;
      }
      parseStmt();
    }
    BreakTargets.pop_back();
    Scopes.pop_back();
    expect(Tok::RBrace, "to close the switch body");

    emitJump(LEnd);
    emitLabel(LDispatch);
    for (const CaseArm &Arm : Arms) {
      Node *Cmp = A.cmp(Cond::EQ, A.clone(Cell.N),
                        A.con(Ty::L, Arm.Value), Ty::L);
      emitStmt(A.bin(Op::CBranch, Ty::L, Cmp, A.label(Arm.Label)));
    }
    emitJump(HasDefault ? LDefault : LEnd);
    emitLabel(LEnd);
  }

  void emitValueAsStmt(Value V) {
    if (Failed || !V.N)
      return;
    if (V.N->is(Op::Call)) {
      Node *S = A.make(Op::CallStmt, V.N->Type);
      S->Kids[1] = V.N;
      emitStmt(S);
      return;
    }
    if (hasSideEffectsTree(V.N) || V.N->is(Op::Assign))
      emitStmt(V.N);
  }

  //===--- expressions ----------------------------------------------------------
  static CType promote(CType T) {
    if (T.IsArray)
      return CType::pointer(T.Elem);
    if (T.IsPtr)
      return T;
    switch (T.Base) {
    case Ty::B:
    case Ty::W:
    case Ty::UB:
    case Ty::UW:
      return CType::scalar(Ty::L); // integral promotion (value-preserving)
    default:
      return T;
    }
  }

  static CType usualArith(CType X, CType Y) {
    X = promote(X);
    Y = promote(Y);
    if (X.Base == Ty::UL || Y.Base == Ty::UL)
      return CType::scalar(Ty::UL);
    return CType::scalar(Ty::L);
  }

  static Ty valueTy(const CType &T) { return T.IsPtr ? Ty::UL : T.Base; }

  Node *varCellNode(const VarInfo &V) {
    Ty T = valueTy(V.T);
    switch (V.Kind) {
    case VarInfo::Global:
      return A.name(T, V.Name);
    case VarInfo::Local:
      return A.local(T, V.Offset);
    case VarInfo::Param:
      return A.argCell(T, V.Offset);
    case VarInfo::RegVar:
      return A.dreg(V.Reg, T);
    }
    gg_unreachable("bad variable kind");
  }

  Value varCell(const VarInfo &V) {
    Value R;
    R.T = V.T;
    R.IsLValue = !V.T.IsArray;
    if (V.T.IsArray) {
      // Arrays decay to their base address.
      switch (V.Kind) {
      case VarInfo::Global:
        R.N = A.gaddr(V.Name);
        R.N->Type = Ty::UL;
        break;
      case VarInfo::Local:
        R.N = A.bin(Op::Plus, Ty::UL, A.con(Ty::L, V.Offset),
                    A.dreg(RegFP, Ty::L));
        break;
      default:
        error("array parameters are not supported");
        R.N = A.con(Ty::L, 0);
        break;
      }
      R.T = CType::pointer(V.T.Elem);
      R.T.IsArray = true; // remember for indexing shape
      R.T.Elem = V.T.Elem;
      return R;
    }
    R.N = varCellNode(V);
    return R;
  }

  Node *convertForStore(Node *Src, Ty DstTy) {
    if (sizeOfTy(Src->Type) > sizeOfTy(DstTy))
      return A.unary(Op::Conv, DstTy, Src);
    return Src;
  }

  Node *makeAssign(Value Dst, Value Src) {
    if (!Dst.IsLValue) {
      error("assignment to a non-lvalue");
      return A.con(Ty::L, 0);
    }
    Ty DT = Dst.N->Type;
    return A.bin(Op::Assign, DT, Dst.N, convertForStore(Src.N, DT));
  }

  Value parseExpr() {
    Value V = parseAssignExpr();
    while (accept(Tok::Comma)) {
      // Comma operator: left for effect, right as value. Lower by
      // hoisting through an embedded assignment if needed.
      emitValueAsStmt(V);
      V = parseAssignExpr();
    }
    return V;
  }

  Value parseAssignExpr() {
    Value L = parseTernary();
    const InfixRule &Rule = InfixRules[static_cast<int>(peek().Kind)];
    if (!Rule.IsAssign)
      return L;
    take();
    if (Rule.O == Op::Assign) {
      Value R = parseAssignExpr();
      Value Out;
      Out.N = makeAssign(L, R);
      Out.T = L.T;
      return Out;
    }
    // Compound assignment expands to a = a op b (§6.5); the destination
    // is duplicated, so it must be free of side effects.
    if (!L.IsLValue) {
      error("compound assignment to a non-lvalue");
      return L;
    }
    if (hasSideEffectsTree(L.N)) {
      error("compound assignment destination must not have side effects");
      return L;
    }
    Value R = parseAssignExpr();
    Value LCopy;
    LCopy.N = A.clone(L.N);
    LCopy.T = L.T;
    LCopy.IsLValue = true;
    Value Sum = makeBinary(Rule.O, LCopy, R);
    Value Out;
    Out.N = makeAssign(L, Sum);
    Out.T = L.T;
    return Out;
  }

  Value parseTernary() {
    Value C = parseBinary(1);
    if (!accept(Tok::Question))
      return C;
    Value T = parseAssignExpr();
    expect(Tok::Colon, "in conditional expression");
    Value F = parseTernary();
    CType RT = usualArith(T.T, F.T);
    Value Out;
    Out.T = RT;
    Node *Arms = A.bin(Op::Colon, valueTy(RT), T.N, F.N);
    Out.N = A.bin(Op::Select, valueTy(RT), C.N, Arms);
    return Out;
  }

  /// Precedence climbing: parses operators that bind at least as tightly
  /// as \p MinPrec; each level associates to the left.
  Value parseBinary(int MinPrec) {
    Value L = parseUnary();
    while (!Failed) {
      const InfixRule &Rule = InfixRules[static_cast<int>(peek().Kind)];
      if (Rule.Prec < MinPrec)
        return L;
      take();
      Value R = parseBinary(Rule.Prec + 1);
      L = Rule.O == Op::Rel ? makeRelational(Rule.CC, L, R)
                            : makeBinary(Rule.O, L, R);
    }
    return L;
  }

  Value makeBinary(Op O, Value L, Value R) {
    Value Out;
    if (O == Op::AndAnd || O == Op::OrOr) {
      Out.T = CType::scalar(Ty::L);
      Out.N = A.bin(O, Ty::L, L.N, R.N);
      return Out;
    }
    CType LP = promote(L.T), RP = promote(R.T);
    // Pointer arithmetic: scale the integer operand by the element size.
    if (LP.IsPtr || RP.IsPtr) {
      if (O != Op::Plus && O != Op::Minus) {
        error("unsupported pointer arithmetic");
        Out.T = CType::scalar(Ty::L);
        Out.N = A.con(Ty::L, 0);
        return Out;
      }
      if (LP.IsPtr && RP.IsPtr) {
        error("pointer difference is not supported");
        Out.T = CType::scalar(Ty::L);
        Out.N = A.con(Ty::L, 0);
        return Out;
      }
      Value Ptr = LP.IsPtr ? L : R;
      Value Idx = LP.IsPtr ? R : L;
      if (O == Op::Minus && !LP.IsPtr) {
        error("cannot subtract a pointer from an integer");
        Out = Ptr;
        return Out;
      }
      CType PT = LP.IsPtr ? LP : RP;
      Node *Scaled =
          A.bin(Op::Mul, Ty::L, A.con(Ty::L, PT.elemSize()), Idx.N);
      Out.T = PT;
      Out.N = A.bin(O, Ty::UL, Ptr.N, Scaled);
      return Out;
    }
    CType RT = usualArith(L.T, R.T);
    Out.T = RT;
    Out.N = A.bin(O, valueTy(RT), L.N, R.N);
    return Out;
  }

  Value makeRelational(Cond C, Value L, Value R) {
    CType Common = usualArith(L.T, R.T);
    bool Unsigned = Common.Base == Ty::UL || promote(L.T).IsPtr ||
                    promote(R.T).IsPtr;
    if (Unsigned) {
      switch (C) {
      case Cond::LT:
        C = Cond::ULT;
        break;
      case Cond::LE:
        C = Cond::ULE;
        break;
      case Cond::GT:
        C = Cond::UGT;
        break;
      case Cond::GE:
        C = Cond::UGE;
        break;
      default:
        break;
      }
    }
    // Comparison happens at the promoted common width (C's integral
    // promotions): a narrower operand must be explicitly widened, or the
    // comparison instruction would compare at the narrow width where
    // 65535 (unsigned short) and -1 (short) are indistinguishable.
    auto Promote = [&](Node *N) -> Node * {
      if (sizeClassOf(N->Type) != sizeClassOf(valueTy(Common)))
        return A.unary(Op::Conv, valueTy(Common), N);
      return N;
    };
    Value Out;
    Out.T = CType::scalar(Ty::L);
    Out.N = A.rel(C, Ty::L, Promote(L.N), Promote(R.N));
    return Out;
  }

  Value parseUnary() {
    if (accept(Tok::Minus)) {
      Value V = parseUnary();
      CType T = promote(V.T);
      Value Out;
      Out.T = T;
      Out.N = A.unary(Op::Neg, valueTy(T), V.N);
      return Out;
    }
    if (accept(Tok::Tilde)) {
      Value V = parseUnary();
      CType T = promote(V.T);
      Value Out;
      Out.T = T;
      Out.N = A.unary(Op::Com, valueTy(T), V.N);
      return Out;
    }
    if (accept(Tok::Bang)) {
      Value V = parseUnary();
      Value Out;
      Out.T = CType::scalar(Ty::L);
      Out.N = A.unary(Op::Not, Ty::L, V.N);
      return Out;
    }
    if (accept(Tok::Star)) {
      Value V = parseUnary();
      CType T = promote(V.T);
      if (!T.IsPtr) {
        error("dereference of a non-pointer");
        return V;
      }
      Value Out;
      Out.T = CType::scalar(T.Elem);
      Out.N = A.unary(Op::Indir, T.Elem, V.N);
      Out.IsLValue = true;
      return Out;
    }
    if (accept(Tok::Amp)) {
      Value V = parseUnary();
      if (!V.IsLValue) {
        error("address of a non-lvalue");
        return V;
      }
      return addressOf(V);
    }
    if (accept(Tok::PlusPlus))
      return preIncDec(+1);
    if (accept(Tok::MinusMinus))
      return preIncDec(-1);
    return parsePostfix();
  }

  Value addressOf(Value V) {
    Value Out;
    Out.T = CType::pointer(V.N->Type);
    switch (V.N->Opcode) {
    case Op::Name: {
      Node *G = A.gaddr(V.N->Sym);
      G->Type = Ty::UL;
      Out.N = G;
      return Out;
    }
    case Op::Indir:
      Out.N = V.N->left();
      return Out;
    case Op::Dreg:
      error("cannot take the address of a register variable");
      Out.N = A.con(Ty::L, 0);
      return Out;
    default:
      error("cannot take this address");
      Out.N = A.con(Ty::L, 0);
      return Out;
    }
  }

  Value preIncDec(int Sign) {
    Value V = parseUnary();
    return incDecCommon(V, Sign, /*IsPost=*/false);
  }

  Value incDecCommon(Value V, int Sign, bool IsPost) {
    if (!V.IsLValue) {
      error("++/-- requires an lvalue");
      return V;
    }
    if (hasSideEffectsTree(V.N)) {
      error("++/-- destination must not have side effects");
      return V;
    }
    int64_t Amount = V.T.IsPtr ? V.T.elemSize() : 1;
    Ty T = V.N->Type;
    Value Out;
    Out.T = V.T;
    if (IsPost) {
      Out.N = A.bin(Op::PostInc, T, V.N, A.con(Ty::L, Amount * Sign));
      return Out;
    }
    if (Sign < 0) {
      // Prefix decrement maps to the PreDec operator: on a dedicated
      // register under an Indir this is the VAX autodecrement mode -(rN)
      // ("postfix increment or prefix decrement", §6.1).
      Out.N = A.bin(Op::PreDec, T, V.N, A.con(Ty::L, Amount));
      return Out;
    }
    // Pre-increment has no hardware mode: an embedded assignment.
    Node *Sum = A.bin(Op::Plus, T, A.clone(V.N), A.con(T, Amount));
    Out.N = A.bin(Op::Assign, T, V.N, Sum);
    return Out;
  }

  Value parsePostfix() {
    Value V = parsePrimary();
    while (!Failed) {
      if (accept(Tok::LBracket)) {
        Value Idx = parseExpr();
        expect(Tok::RBracket, "after index");
        V = makeIndex(V, Idx);
        continue;
      }
      if (accept(Tok::PlusPlus)) {
        V = incDecCommon(V, +1, /*IsPost=*/true);
        continue;
      }
      if (accept(Tok::MinusMinus)) {
        V = incDecCommon(V, -1, /*IsPost=*/true);
        continue;
      }
      return V;
    }
    return V;
  }

  /// a[i]: the tree shapes here are chosen to match the description's
  /// indexed addressing patterns (dxabs / dxdisp / dxreg).
  Value makeIndex(Value Base, Value Idx) {
    CType BT = promote(Base.T);
    if (!BT.IsPtr) {
      error("indexing a non-pointer");
      return Base;
    }
    Node *Scaled =
        A.bin(Op::Mul, Ty::L, A.con(Ty::L, BT.elemSize()), Idx.N);
    Node *Addr = A.bin(Op::Plus, Ty::UL, Base.N, Scaled);
    Value Out;
    Out.T = CType::scalar(BT.Elem);
    Out.N = A.unary(Op::Indir, BT.Elem, Addr);
    Out.IsLValue = true;
    return Out;
  }

  Value parsePrimary() {
    if (at(Tok::Number)) {
      const Token &T = take();
      Value V;
      V.T = CType::scalar(Ty::L);
      V.N = A.con(Ty::L, T.Value);
      return V;
    }
    if (accept(Tok::LParen)) {
      // Cast or parenthesized expression.
      if (atTypeStart()) {
        CType T = parseType();
        expect(Tok::RParen, "after cast type");
        Value V = parseUnary();
        Value Out;
        Out.T = T;
        Ty Target = valueTy(T);
        if (sizeOfTy(V.N->Type) != sizeOfTy(Target)) {
          Out.N = A.unary(Op::Conv, Target, V.N);
        } else {
          // Same width: a signedness reinterpretation. The node's type
          // drives downstream semantics (comparisons, division), so
          // retype it in place — expression nodes have a single use.
          V.N->Type = Target;
          Out.N = V.N;
        }
        return Out;
      }
      Value V = parseExpr();
      expect(Tok::RParen, "after expression");
      return V;
    }
    if (at(Tok::Ident)) {
      const Token &T = take();
      if (at(Tok::LParen))
        return parseCall(T.Text);
      VarInfo *V = lookupVar(T.Text);
      if (!V) {
        error(strf("use of undeclared identifier '%.*s'", int(T.Text.size()),
                   T.Text.data()));
        Value Bad;
        Bad.T = CType::scalar(Ty::L);
        Bad.N = A.con(Ty::L, 0);
        return Bad;
      }
      return varCell(*V);
    }
    error(strf("unexpected token %s in expression", tokName(peek().Kind)));
    Value Bad;
    Bad.T = CType::scalar(Ty::L);
    Bad.N = A.con(Ty::L, 0);
    return Bad;
  }

  Value parseCall(std::string_view Name) {
    expect(Tok::LParen, "in call");
    std::vector<Node *> Args;
    if (!at(Tok::RParen)) {
      do {
        Args.push_back(parseAssignExpr().N);
      } while (accept(Tok::Comma));
    }
    expect(Tok::RParen, "after call arguments");

    bool Builtin = Name == "print" || Name == "printc";
    if (!Builtin) {
      auto It = Funcs.find(Name);
      if (It == Funcs.end()) {
        error(strf("call to undeclared function '%.*s'", int(Name.size()),
                   Name.data()));
      } else if (It->second.NumParams != static_cast<int>(Args.size())) {
        error(strf("'%.*s' expects %d argument(s), got %zu", int(Name.size()),
                   Name.data(), It->second.NumParams, Args.size()));
      }
    } else if (Args.size() != 1) {
      error(strf("'%.*s' expects exactly one argument", int(Name.size()),
                 Name.data()));
    }

    Node *Chain = nullptr;
    for (size_t I = Args.size(); I-- > 0;)
      Chain = A.bin(Op::Arg, Ty::L, Args[I], Chain);
    Value Out;
    Out.T = CType::scalar(Ty::L);
    if (!Builtin) {
      auto It = Funcs.find(Name);
      if (It != Funcs.end() && !It->second.Ret.IsVoid)
        Out.T = It->second.Ret;
    }
    Out.N = A.bin(Op::Call, valueTy(Out.T), A.gaddr(Prog.Syms.intern(Name)),
                  Chain);
    return Out;
  }
};

} // namespace

bool gg::compileMiniC(std::string_view Source, Program &Prog,
                      DiagnosticSink &Diags) {
  std::vector<Token> Tokens;
  if (!lexMiniC(Source, Tokens, Diags))
    return false;
  ParserImpl P(Tokens, Prog, Diags);
  return P.run();
}
