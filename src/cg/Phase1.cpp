//===- Phase1.cpp - phase 1 tree transformation ------------------------------===//

#include "cg/Transform.h"
#include "ir/Fold.h"
#include "support/Error.h"
#include "support/Trace.h"

#include <algorithm>

using namespace gg;

namespace {

/// True if evaluating the subtree has observable side effects (possible
/// post-1a: register autoincrement/autodecrement only).
bool hasSideEffects(const Node *N) {
  if (!N)
    return false;
  switch (N->Opcode) {
  case Op::PostInc:
  case Op::PreDec:
  case Op::Call:
  case Op::Assign:
  case Op::AssignR:
    return true;
  default:
    break;
  }
  return hasSideEffects(N->left()) || hasSideEffects(N->right());
}

bool isBoolOp(const Node *N) {
  switch (N->Opcode) {
  case Op::AndAnd:
  case Op::OrOr:
  case Op::Not:
  case Op::Rel:
  case Op::Select:
    return true;
  default:
    return false;
  }
}

bool isConstLike(const Node *N) {
  return N->is(Op::Const) || N->is(Op::Gaddr);
}

/// The register need of \p N given \p KidNeed(K), the need of its kid K
/// (0 for an absent kid): the one formula behind registerNeed and the
/// needs phase 1c records. It asks only for the kids it reads.
template <typename KidNeedFn> int needOf(const Node *N, KidNeedFn KidNeed) {
  switch (N->Opcode) {
  case Op::Const:
  case Op::Name:
  case Op::Gaddr:
  case Op::Dreg:
  case Op::Label:
    return 0;
  case Op::Indir: {
    // Addresses that fold into hardware addressing modes (absolute,
    // displacement off a dedicated register) need no register at all; a
    // computed address needs whatever its computation needs.
    const Node *Addr = N->left();
    if (Addr->is(Op::Dreg) || Addr->is(Op::Gaddr))
      return 0;
    if (Addr->is(Op::Plus) && Addr->left()->is(Op::Const) &&
        Addr->right()->is(Op::Dreg))
      return 0;
    return KidNeed(0);
  }
  case Op::Neg:
  case Op::Com:
  case Op::Conv:
    return std::max(1, KidNeed(0));
  case Op::Assign:
  case Op::AssignR:
  case Op::Cmp:
  case Op::CBranch:
    return std::max(KidNeed(0), KidNeed(1));
  default: {
    if (opArity(N->Opcode) != 2)
      return std::max(1, KidNeed(0));
    const int L = KidNeed(0);
    const int R = KidNeed(1);
    const int Need = L == R ? L + 1 : std::max(L, R);
    return std::max(Need, 1);
  }
  }
}

/// Records \p N's need from its kids' recorded needs.
void noteNeed(Node *N) {
  N->Need = static_cast<uint8_t>(needOf(N, [N](int K) {
    return N->Kids[K] ? static_cast<int>(N->Kids[K]->Need) : 0;
  }));
}

/// Records the need of every node under \p N, bottom-up, changing
/// nothing else.
void noteNeeds(Node *N) {
  if (!N)
    return;
  noteNeeds(N->Kids[0]);
  noteNeeds(N->Kids[1]);
  noteNeed(N);
}

class Phase1 {
public:
  Phase1(Program &P, Function &F, const TransformOptions &Opts,
         TransformStats &Stats)
      : P(P), F(F), Opts(Opts), A(*P.Arena), Stats(Stats) {}

  void run() {
    std::vector<Node *> Original = std::move(F.Body);
    F.Body.clear();
    for (Node *S : Original)
      rewriteStmt(S);
    // 1b and 1c run per produced statement; 1c's spill prevention may
    // insert further statements, so work over a fresh list again.
    std::vector<Node *> AfterA = std::move(Out);
    Out.clear();
    for (Node *S : AfterA) {
      S = canonStmt(S);
      if (Opts.Reorder)
        orderStmt(S);
      if (Opts.PreventSpills)
        preventSpills(S);
      Out.push_back(S);
    }
    F.Body = std::move(Out);
  }

private:
  Program &P;
  Function &F;
  TransformOptions Opts;
  NodeArena &A;
  std::vector<Node *> Out;
  TransformStats &Stats;

  void emit(Node *S) { Out.push_back(S); }

  /// A fresh memory temporary of type \p T (a compiler-generated local).
  Node *newTemp(Ty T) { return A.local(T, F.allocLocal(4)); }

  /// True when re-reading the tree later is guaranteed to produce the
  /// same value regardless of intervening side effects (pure constants).
  static bool isImmutableValue(const Node *N) {
    switch (N->Opcode) {
    case Op::Const:
    case Op::Gaddr:
    case Op::Label:
      return true;
    case Op::Plus: // address arithmetic over constants and frame regs
      return isImmutableValue(N->left()) && isImmutableValue(N->right());
    case Op::Dreg:
      // fp/ap never change mid-function; register variables can.
      return N->Reg == RegFP || N->Reg == RegAP;
    default:
      return false;
    }
  }

  /// Evaluation-order repair: \p Mark is the statement position recorded
  /// *after* \p Earlier was rewritten. If statements were hoisted past it
  /// (a later operand contained a call or embedded assignment), the
  /// already-ordered read must be saved to a temporary inserted at the
  /// mark, or the hoisted side effects would be observed too early.
  Node *orderGuard(Node *Earlier, size_t Mark) {
    if (Out.size() == Mark || isImmutableValue(Earlier))
      return Earlier;
    Node *Tmp = newTemp(Earlier->Type);
    Out.insert(Out.begin() + Mark,
               A.bin(Op::Assign, Earlier->Type, Tmp, Earlier));
    return A.clone(Tmp);
  }

  //===--------------------------------------------------------------------===
  // Phase 1a: explicit control flow and call factoring
  //===--------------------------------------------------------------------===

  void rewriteStmt(Node *S) {
    switch (S->Opcode) {
    case Op::LabelDef:
    case Op::Jump:
      emit(S);
      return;
    case Op::Ret:
      if (S->left())
        S->Kids[0] = value(S->left());
      emit(S);
      return;
    case Op::CBranch: {
      Node *Cmp = S->left();
      assert(Cmp->is(Op::Cmp) && "CBranch without Cmp");
      // Decompose boolean operators in "e <cc> 0" conditions into explicit
      // tests and branches (the reason this phase exists).
      if ((Cmp->CC == Cond::NE || Cmp->CC == Cond::EQ) &&
          isBoolOp(Cmp->left()) && Cmp->right()->isConst(0)) {
        ++Stats.CondBranchRewrites;
        condJump(Cmp->left(), S->right()->Sym, Cmp->CC == Cond::NE);
        return;
      }
      Cmp->Kids[0] = value(Cmp->left());
      size_t Mark = Out.size();
      Cmp->Kids[1] = value(Cmp->right());
      Cmp->Kids[0] = orderGuard(Cmp->Kids[0], Mark);
      emit(S);
      return;
    }
    case Op::CallStmt: {
      Node *Dest = S->left() ? lvalue(S->left()) : nullptr;
      // Already in post-1a shape (argument chain gone, count carried on
      // the Call node): pass through. Re-factoring would find no chain
      // and zero the count while the caller's Push statements survive.
      if (!S->right()->right()) {
        S->Kids[0] = Dest;
        emit(S);
        return;
      }
      emitCall(S->right(), Dest);
      return;
    }
    case Op::Assign: {
      Node *Dst = lvalue(S->left());
      // Assign a boolean expression directly: branches write the
      // destination, avoiding a temporary.
      if (isBoolOp(S->right())) {
        boolInto(captureDestAddress(Dst), S->right());
        return;
      }
      size_t Mark = Out.size();
      S->Kids[0] = Dst;
      S->Kids[1] = value(S->right());
      guardDestAddress(S, Mark);
      emit(S);
      return;
    }
    case Op::Push: // may appear when phase 1 reruns over transformed code
      S->Kids[0] = value(S->left());
      emit(S);
      return;
    default:
      // Bare expression statement: keep it only for its side effects.
      if (hasSideEffects(S)) {
        Node *V = value(S);
        if (hasSideEffects(V))
          emit(A.bin(Op::Assign, V->Type, newTemp(V->Type), V));
        (void)V;
      }
      return;
    }
  }

  /// Captures a destination's address into a temporary *now* so that
  /// statements emitted for the source cannot perturb it. Used before
  /// boolInto, whose branch structure always executes after the hoists.
  Node *captureDestAddress(Node *Dst) {
    if (!Dst->is(Op::Indir) || isImmutableValue(Dst->left()))
      return Dst;
    Node *Tmp = newTemp(Ty::UL);
    emit(A.bin(Op::Assign, Ty::UL, Tmp, Dst->left()));
    Dst->Kids[0] = A.clone(Tmp);
    return Dst;
  }

  /// If rewriting the source hoisted statements past \p Mark, the
  /// destination address of \p AssignNode (evaluated before the source)
  /// must be captured first.
  void guardDestAddress(Node *AssignNode, size_t Mark) {
    Node *Dst = AssignNode->left();
    if (Out.size() == Mark || !Dst->is(Op::Indir) ||
        isImmutableValue(Dst->left()))
      return;
    Node *Tmp = newTemp(Ty::UL);
    Out.insert(Out.begin() + Mark,
               A.bin(Op::Assign, Ty::UL, Tmp, Dst->left()));
    Dst->Kids[0] = A.clone(Tmp);
  }

  /// Rewrites an lvalue tree (address expressions inside it are values).
  Node *lvalue(Node *N) {
    switch (N->Opcode) {
    case Op::Name:
    case Op::Dreg:
      return N;
    case Op::Indir:
      N->Kids[0] = value(N->left());
      return N;
    default:
      gg_unreachable("malformed lvalue tree");
    }
  }

  /// Rewrites a value tree bottom-up; emits hoisted statements.
  Node *value(Node *N) {
    if (!N)
      return nullptr;
    switch (N->Opcode) {
    case Op::AndAnd:
    case Op::OrOr:
    case Op::Not:
    case Op::Rel:
    case Op::Select: {
      ++Stats.BoolValueRewrites;
      Node *Tmp = newTemp(N->Type);
      boolInto(Tmp, N);
      return A.clone(Tmp);
    }
    case Op::Call: {
      Node *Tmp = newTemp(N->Type);
      emitCall(N, Tmp);
      return A.clone(Tmp);
    }
    case Op::Assign: {
      // Embedded assignment: hoist, value is the destination cell.
      Node *Dst = lvalue(N->left());
      if (isBoolOp(N->right())) {
        Dst = captureDestAddress(Dst);
        boolInto(Dst, N->right());
        return A.clone(Dst);
      }
      size_t Mark = Out.size();
      N->Kids[0] = Dst;
      N->Kids[1] = value(N->right());
      guardDestAddress(N, Mark);
      emit(N);
      return A.clone(N->Kids[0]);
    }
    case Op::PostInc:
    case Op::PreDec: {
      Node *Lv = lvalue(N->left());
      N->Kids[1] = value(N->right());
      if (Lv->is(Op::Dreg)) {
        // Register autoincrement survives to the matcher (§6.1).
        N->Kids[0] = Lv;
        return N;
      }
      // Retype the (long) amount constant to the cell's type so the
      // expanded Plus/Minus has consistently typed operands.
      Node *Amount = N->right();
      if (Amount->is(Op::Const) && Amount->Type != N->Type)
        Amount = A.con(N->Type, Amount->Value);
      if (N->is(Op::PostInc)) {
        Node *Tmp = newTemp(N->Type);
        emit(A.bin(Op::Assign, N->Type, Tmp, A.clone(Lv)));
        emit(A.bin(Op::Assign, N->Type, Lv,
                   A.bin(Op::Plus, N->Type, A.clone(Lv), Amount)));
        return A.clone(Tmp);
      }
      emit(A.bin(Op::Assign, N->Type, Lv,
                 A.bin(Op::Minus, N->Type, A.clone(Lv), Amount)));
      return A.clone(Lv);
    }
    case Op::Colon:
    case Op::Arg:
      gg_unreachable("structural node reached value rewriting");
    default:
      if (N->left()) {
        N->Kids[0] = value(N->left());
        size_t Mark = Out.size();
        if (N->right()) {
          N->Kids[1] = value(N->right());
          // Preserve left-to-right evaluation order across hoisting.
          N->Kids[0] = orderGuard(N->Kids[0], Mark);
        }
      }
      return N;
    }
  }

  /// Factors one call: Push statements (first argument pushed last) and a
  /// CallStmt whose Call node carries the argument count.
  void emitCall(Node *CallNode, Node *Dest) {
    assert(CallNode->is(Op::Call));
    ++Stats.CallsFactored;
    std::vector<Node *> Args;
    for (Node *Chain = CallNode->right(); Chain; Chain = Chain->right())
      Args.push_back(Chain->left());

    // Rewrite argument expressions in source order, then push in reverse.
    // If any argument has side effects of its own, every mutable argument
    // is evaluated into a temporary at its source position so the
    // reversed pushes cannot observe reordered effects.
    bool AnyEffects = false;
    for (Node *Arg : Args)
      AnyEffects |= hasSideEffects(Arg);

    std::vector<Node *> Values;
    for (Node *Arg : Args) {
      Node *V = value(Arg);
      if (sizeClassOf(V->Type) != SizeClass::L)
        V = A.unary(Op::Conv, Ty::L, V);
      if ((AnyEffects || hasSideEffects(V)) && !isImmutableValue(V)) {
        Node *Tmp = newTemp(Ty::L);
        emit(A.bin(Op::Assign, Ty::L, Tmp, V));
        V = A.clone(Tmp);
      }
      Values.push_back(V);
    }
    for (size_t I = Values.size(); I-- > 0;)
      emit(A.unary(Op::Push, Ty::L, Values[I]));

    CallNode->Kids[1] = nullptr;
    CallNode->Value = static_cast<int64_t>(Values.size());
    Node *S = A.make(Op::CallStmt, CallNode->Type);
    S->Kids[0] = Dest;
    S->Kids[1] = CallNode;
    emit(S);
  }

  /// Lowers a boolean expression into an assignment of 0/1 (or of the
  /// selection arms) to \p Dst.
  void boolInto(Node *Dst, Node *E) {
    if (E->is(Op::Select)) {
      Node *Arms = E->right();
      assert(Arms->is(Op::Colon) && "Select without Colon");
      InternedString LElse = P.freshLabel(), LEnd = P.freshLabel();
      condJump(E->left(), LElse, /*JumpIfTrue=*/false);
      assignTo(Dst, Arms->left(), E->Type);
      emit(A.unary(Op::Jump, Ty::L, A.label(LEnd)));
      emit(A.labelDef(LElse));
      assignTo(Dst, Arms->right(), E->Type);
      emit(A.labelDef(LEnd));
      return;
    }
    InternedString LFalse = P.freshLabel(), LEnd = P.freshLabel();
    condJump(E, LFalse, /*JumpIfTrue=*/false);
    emit(A.bin(Op::Assign, Dst->Type, Dst, A.con(Dst->Type, 1)));
    emit(A.unary(Op::Jump, Ty::L, A.label(LEnd)));
    emit(A.labelDef(LFalse));
    emit(A.bin(Op::Assign, Dst->Type, A.clone(Dst), A.con(Dst->Type, 0)));
    emit(A.labelDef(LEnd));
  }

  void assignTo(Node *Dst, Node *E, Ty T) {
    if (isBoolOp(E)) {
      boolInto(Dst, E);
      return;
    }
    emit(A.bin(Op::Assign, T, A.clone(Dst), value(E)));
  }

  /// Emits branches so control reaches \p Target iff E's truth equals
  /// \p JumpIfTrue.
  void condJump(Node *E, InternedString Target, bool JumpIfTrue) {
    switch (E->Opcode) {
    case Op::AndAnd:
      if (JumpIfTrue) {
        InternedString LSkip = P.freshLabel();
        condJump(E->left(), LSkip, false);
        condJump(E->right(), Target, true);
        emit(A.labelDef(LSkip));
      } else {
        condJump(E->left(), Target, false);
        condJump(E->right(), Target, false);
      }
      return;
    case Op::OrOr:
      if (JumpIfTrue) {
        condJump(E->left(), Target, true);
        condJump(E->right(), Target, true);
      } else {
        InternedString LSkip = P.freshLabel();
        condJump(E->left(), LSkip, true);
        condJump(E->right(), Target, false);
        emit(A.labelDef(LSkip));
      }
      return;
    case Op::Not:
      condJump(E->left(), Target, !JumpIfTrue);
      return;
    case Op::Rel: {
      Node *L = value(E->left());
      size_t Mark = Out.size();
      Node *R = value(E->right());
      L = orderGuard(L, Mark);
      Ty CmpTy = sizeOfTy(L->Type) >= sizeOfTy(R->Type) ? L->Type : R->Type;
      Cond C = JumpIfTrue ? E->CC : negateCond(E->CC);
      Node *Cmp = A.cmp(C, L, R, CmpTy);
      Node *Br = A.bin(Op::CBranch, Ty::L, Cmp, A.label(Target));
      emit(Br);
      return;
    }
    default: {
      Node *V = value(E);
      Node *Cmp = A.cmp(JumpIfTrue ? Cond::NE : Cond::EQ, V,
                        A.con(V->Type, 0), V->Type);
      emit(A.bin(Op::CBranch, Ty::L, Cmp, A.label(Target)));
      return;
    }
    }
  }

  //===--------------------------------------------------------------------===
  // Phase 1b: operator expansion and commutative canonicalization
  //===--------------------------------------------------------------------===

  Node *canonStmt(Node *S) {
    switch (S->Opcode) {
    case Op::Assign:
    case Op::AssignR:
      S->Kids[0] = canon(S->Kids[0]);
      S->Kids[1] = canon(S->Kids[1]);
      return S;
    case Op::CBranch:
      S->left()->Kids[0] = canon(S->left()->Kids[0]);
      S->left()->Kids[1] = canon(S->left()->Kids[1]);
      return S;
    case Op::Ret:
    case Op::Push:
      if (S->left())
        S->Kids[0] = canon(S->left());
      return S;
    case Op::CallStmt:
      if (S->left())
        S->Kids[0] = canon(S->left());
      return S;
    default:
      return S;
    }
  }

  Node *canon(Node *N) {
    if (!N)
      return nullptr;
    if (N->left())
      N->Kids[0] = canon(N->left());
    if (N->right())
      N->Kids[1] = canon(N->right());

    Ty T = N->Type;
    Node *L = N->left(), *R = N->right();

    // Unary constant folding.
    if (opArity(N->Opcode) == 1 && L && L->is(Op::Const)) {
      if (std::optional<int64_t> V = foldUnaryOp(N->Opcode, T, L->Value)) {
        ++Stats.ConstantsFolded;
        return A.con(T, *V);
      }
    }

    if (opArity(N->Opcode) != 2 || N->is(Op::Assign) || N->is(Op::AssignR) ||
        N->is(Op::PostInc) || N->is(Op::PreDec) || N->is(Op::Arg) ||
        N->is(Op::Call))
      return N;

    // Binary constant folding (division by zero stays for runtime).
    if (L->is(Op::Const) && R->is(Op::Const)) {
      if (std::optional<int64_t> V =
              foldBinaryOp(N->Opcode, T, L->Value, R->Value)) {
        ++Stats.ConstantsFolded;
        return A.con(T, *V);
      }
    }

    // Subtraction of a constant becomes addition of its negative (§5.1.2).
    if (N->is(Op::Minus) && R->is(Op::Const)) {
      ++Stats.Canonicalizations;
      N = A.bin(Op::Plus, T, L, A.con(T, -R->Value));
      L = N->left();
      R = N->right();
    }

    // Left shift by a constant becomes multiplication by a power of two.
    if (N->is(Op::Lsh) && R->is(Op::Const) && R->Value >= 0 &&
        R->Value <= 30) {
      ++Stats.Canonicalizations;
      N = A.bin(Op::Mul, T, L, A.con(T, int64_t(1) << R->Value));
      L = N->left();
      R = N->right();
    }

    if (N->is(Op::Plus)) {
      // Fold address arithmetic on globals into the Gaddr offset.
      if (L->is(Op::Gaddr) && R->is(Op::Const)) {
        Node *G = A.gaddr(L->Sym);
        G->Value = L->Value + R->Value;
        return G;
      }
      if (L->is(Op::Const) && R->is(Op::Gaddr)) {
        Node *G = A.gaddr(R->Sym);
        G->Value = R->Value + L->Value;
        return G;
      }
    }

    // Reassociate to float constants outward: (c + x) + y -> c + (x + y).
    // This restores the "con + (base + index)" shape the displacement-
    // indexed addressing patterns expect.
    if (N->is(Op::Plus) && L->is(Op::Plus) && L->left()->is(Op::Const) &&
        !R->is(Op::Const)) {
      ++Stats.Canonicalizations;
      Node *Inner = A.bin(Op::Plus, T, L->right(), R);
      N = A.bin(Op::Plus, T, L->left(), canon(Inner));
      L = N->left();
      R = N->right();
    }

    if (isCommutativeOp(N->Opcode)) {
      // Constants to the left (§5.1.2).
      if (isConstLike(R) && !isConstLike(L)) {
        ++Stats.Canonicalizations;
        std::swap(N->Kids[0], N->Kids[1]);
        L = N->left();
        R = N->right();
      }
      // Merge nested constant additions: c1 + (c2 + x) -> (c1+c2) + x.
      if (N->is(Op::Plus) && L->is(Op::Const) && R->is(Op::Plus) &&
          R->left()->is(Op::Const)) {
        if (std::optional<int64_t> V =
                foldBinaryOp(Op::Plus, T, L->Value, R->left()->Value)) {
          ++Stats.ConstantsFolded;
          return A.bin(Op::Plus, T, A.con(T, *V), R->right());
        }
      }
    }

    // Identity simplifications (only on side-effect-free operands, and
    // only when the operand has the node's width — implicit widening of a
    // narrower operand must stay explicit in the tree's type).
    if (L->is(Op::Const)) {
      int64_t C = L->Value;
      bool RPure = !hasSideEffects(R);
      bool SameWidth = sizeClassOf(R->Type) == sizeClassOf(T);
      if (N->is(Op::Plus) && C == 0 && SameWidth)
        return R;
      if (N->is(Op::Mul) && C == 1 && SameWidth)
        return R;
      if (N->is(Op::Mul) && C == 0 && RPure) {
        ++Stats.ConstantsFolded;
        return A.con(T, 0);
      }
      if (N->is(Op::Or) && C == 0 && SameWidth)
        return R;
      if (N->is(Op::Xor) && C == 0 && SameWidth)
        return R;
      if (N->is(Op::And) && C == 0 && RPure) {
        ++Stats.ConstantsFolded;
        return A.con(T, 0);
      }
      if (N->is(Op::And) && SameWidth &&
          truncateToTy(C, T) == truncateToTy(-1, T))
        return R;
    }
    return N;
  }

  //===--------------------------------------------------------------------===
  // Phase 1c: evaluation ordering and spill prevention
  //===--------------------------------------------------------------------===

  /// Orders \p S's subtrees and records every node's register need.
  void orderStmt(Node *S) {
    switch (S->Opcode) {
    case Op::Assign: {
      const int L = order(S->Kids[0], /*InAddress=*/false);
      const int R = order(S->Kids[1], false);
      // The assignment itself: evaluate the bigger side first. Assignment
      // is not commutative, so this needs the reverse operator (§5.1.3).
      if (Opts.ReverseOps && R > L && S->left()->Need >= 1) {
        ++Stats.ReverseOpsUsed;
        S->Opcode = Op::AssignR;
        std::swap(S->Kids[0], S->Kids[1]);
      }
      break;
    }
    case Op::CBranch: {
      Node *Cmp = S->left();
      const int L = order(Cmp->Kids[0], false);
      const int R = order(Cmp->Kids[1], false);
      if (R > L && !isConstLike(Cmp->left())) {
        ++Stats.SubtreesSwapped;
        std::swap(Cmp->Kids[0], Cmp->Kids[1]);
        Cmp->CC = swapCond(Cmp->CC);
      }
      noteNeed(Cmp);
      noteNeeds(S->Kids[1]);
      break;
    }
    case Op::Ret:
    case Op::Push:
      order(S->Kids[0], false);
      break;
    default:
      noteNeeds(S);
      return;
    }
    noteNeed(S);
  }

  /// Orders \p N's subtrees bottom-up, records each node's register need
  /// and returns \p N's node count (what Node::treeSize() would), so each
  /// size comparison costs nothing extra. Swapping operands keeps a
  /// subtree's size and need.
  int order(Node *N, bool InAddress) {
    if (!N)
      return 0;
    const int Size = orderKids(N, InAddress);
    noteNeed(N);
    return Size;
  }

  /// order() short of \p N's own need: orders \p N's kids, swaps them
  /// when the right one is bigger, and returns \p N's node count.
  int orderKids(Node *N, bool InAddress) {
    if (N->is(Op::Indir)) {
      // Addressing subtrees keep their canonical shapes so the indexing
      // patterns still match; reordering there would only trade an
      // addressing mode for explicit arithmetic.
      return 1 + order(N->Kids[0], /*InAddress=*/true);
    }
    const int L = order(N->Kids[0], InAddress);
    const int R = order(N->Kids[1], InAddress);
    const int Size = 1 + L + R;
    if (InAddress || opArity(N->Opcode) != 2)
      return Size;
    switch (N->Opcode) {
    case Op::Plus:
    case Op::Mul:
    case Op::And:
    case Op::Or:
    case Op::Xor: {
      if (R > L && !isConstLike(N->left())) {
        ++Stats.SubtreesSwapped;
        std::swap(N->Kids[0], N->Kids[1]);
      }
      return Size;
    }
    case Op::Minus:
    case Op::Div:
    case Op::Mod:
    case Op::Lsh:
    case Op::Rsh: {
      if (Opts.ReverseOps && R > L && !isConstLike(N->left())) {
        ++Stats.ReverseOpsUsed;
        N->Opcode = reverseOp(N->Opcode);
        std::swap(N->Kids[0], N->Kids[1]);
      }
      return Size;
    }
    default:
      return Size;
    }
  }

  /// Splits register-hungry subtrees with explicit stores to temporaries
  /// so that "the code selector will never run out of registers" (§5.1.3).
  /// Reads the needs orderStmt recorded, and records them itself when
  /// phase 1c does not reorder or a split changed the statement.
  void preventSpills(Node *S) {
    const int Budget = 4; // headroom below the 6 allocatable registers
    if (!Opts.Reorder)
      noteNeeds(S);
    for (int Guard = 0; Guard < 16; ++Guard) {
      Node **Worst = nullptr;
      findSplit(S, Worst, Budget);
      if (!Worst)
        return;
      ++Stats.SpillSplits;
      Node *Sub = *Worst;
      Node *Tmp = newTemp(Sub->Type);
      Out.push_back(A.bin(Op::Assign, Sub->Type, Tmp, Sub));
      *Worst = A.clone(Tmp);
      noteNeeds(S);
    }
  }

  /// Finds a deep splittable subtree when the statement exceeds the
  /// register budget.
  void findSplit(Node *S, Node **&Worst, int Budget) {
    if (S->Need <= Budget + 1)
      return;
    // Walk down the larger-need child until both children fit; hoist the
    // larger one.
    Node **Cur = nullptr;
    Node *N = S;
    while (true) {
      Node **Bigger = nullptr;
      int Best = -1;
      for (Node *&Kid : N->Kids) {
        if (!Kid || isStmtOp(Kid->Opcode))
          continue;
        const int Need = Kid->Need;
        if (Need > Best) {
          Best = Need;
          Bigger = &Kid;
        }
      }
      if (!Bigger || Best < 2)
        break;
      if (Best <= Budget && !hasSideEffects(*Bigger) &&
          !(*Bigger)->is(Op::Dreg)) {
        Cur = Bigger;
        break;
      }
      N = *Bigger;
    }
    Worst = Cur;
  }
};

} // namespace

int gg::registerNeed(const Node *N) {
  if (!N)
    return 0;
  return needOf(N, [N](int K) { return registerNeed(N->Kids[K]); });
}

void gg::runPhase1(Program &P, Function &F, const TransformOptions &Opts,
                   TransformStats &Stats) {
  TraceSpan Span("cg.phase1");
  Phase1(P, F, Opts, Stats).run();
}
