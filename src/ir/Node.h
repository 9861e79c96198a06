//===- Node.h - expression tree nodes ---------------------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Expression-tree nodes in the style of the Portable C Compiler's
/// intermediate representation: a forest of typed binary trees interspersed
/// with statement-level nodes (labels, branches, calls, returns). Nodes are
/// bump-allocated in a NodeArena owned by the enclosing Program.
///
//===----------------------------------------------------------------------===//

#ifndef GG_IR_NODE_H
#define GG_IR_NODE_H

#include "ir/Type.h"
#include "support/Interner.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <type_traits>

namespace gg {

/// IR operator, one per row of Ops.def (the paper's Figure 1 vocabulary).
enum class Op : uint8_t {
#define GG_OP(Name, Str, Arity, Flags) Name,
#include "ir/Ops.def"
};

enum OpFlags : unsigned {
  OF_Leaf = 1u << 0,        ///< arity 0
  OF_LValue = 1u << 1,      ///< can denote a memory/register cell
  OF_Commutative = 1u << 2, ///< operands may be exchanged freely
  OF_Rewritten = 1u << 3,   ///< eliminated by phase 1a (never reaches matcher)
  OF_Reverse = 1u << 4,     ///< phase-1c reverse form (children swapped)
  OF_Stmt = 1u << 5,        ///< statement-level node
};

/// Number of children (0, 1 or 2) for \p O.
int opArity(Op O);

/// Spelling used in linearized dumps and grammar terminal names.
const char *opName(Op O);

/// Flag word for \p O (see OpFlags).
unsigned opFlags(Op O);

inline bool isLeafOp(Op O) { return opFlags(O) & OF_Leaf; }
inline bool isStmtOp(Op O) { return opFlags(O) & OF_Stmt; }
inline bool isCommutativeOp(Op O) { return opFlags(O) & OF_Commutative; }
inline bool isRewrittenOp(Op O) { return opFlags(O) & OF_Rewritten; }
inline bool isReverseOp(Op O) { return opFlags(O) & OF_Reverse; }

/// For a reverse form (MinusR...), the underlying forward operator; for a
/// forward operator with a reverse form, its reverse. Asserts otherwise.
Op reverseOp(Op O);
bool hasReverseForm(Op O);

/// Well-known VAX register numbers, following the PCC conventions the paper
/// adopts: r0-r5 are allocatable scratch registers, r6-r11 are register
/// variables (dedicated), r12=ap, r13=fp, r14=sp, r15=pc.
enum : int {
  RegR0 = 0,
  RegFirstAlloc = 0,
  RegLastAlloc = 5,
  RegFirstVar = 6,
  RegLastVar = 11,
  RegAP = 12,
  RegFP = 13,
  RegSP = 14,
  RegPC = 15,
  NumRegs = 16,
};

/// Returns the assembler spelling of register \p R ("r0".."r11", "ap", ...).
const char *regName(int R);

/// One node of an expression tree.
///
/// The fields other than the operator are a union in spirit: Value is
/// meaningful for Const, Sym for Name/Gaddr/Label/LabelDef, Reg for Dreg,
/// and CC for Cmp/Rel. Children are owned by the arena, never by the node.
class Node {
public:
  Op Opcode = Op::Const;
  Ty Type = Ty::L;
  Cond CC = Cond::EQ;
  /// Phase 1c's register need (registerNeed), recorded bottom-up as it
  /// orders a statement. A need is at most log2 of the subtree's node
  /// count plus one, so a byte of padding holds it.
  uint8_t Need = 0;
  int32_t Reg = -1;
  int64_t Value = 0;
  InternedString Sym;
  Node *Kids[2] = {nullptr, nullptr};

  Node *left() const { return Kids[0]; }
  Node *right() const { return Kids[1]; }

  bool is(Op O) const { return Opcode == O; }
  bool isConst(int64_t V) const { return Opcode == Op::Const && Value == V; }

  /// Number of nodes in this subtree (phase 1c computes the same sizes
  /// bottom-up as it orders a statement).
  int treeSize() const;
};

static_assert(sizeof(Node) == 40, "Node's need byte must stay in padding");
static_assert(std::is_trivially_destructible_v<Node>,
              "arena chunks are freed without running node destructors");

/// Bump allocator for nodes; pointers remain valid for the arena's lifetime.
///
/// Nodes live in chunks of raw storage, each node placement-constructed
/// as it is made. The first chunk holds FirstChunkNodes and each next one
/// twice its predecessor, up to MaxChunkNodes, so an arena that holds a
/// couple of trees costs one small allocation and a large program a few
/// dozen. An arena that makes no node allocates nothing.
///
/// Arenas are byte-budgeted for the request-quarantine layer (and the
/// `oom-arena` fault): exceeding the cap never returns null — allocation
/// always yields a valid node, and a sticky exhausted() flag is set
/// instead. The budget counts nodes in use, not reserved chunk storage,
/// so a cap trips on the same node whatever the chunk sizes. Callers (the
/// frontend between statements, the code generator between trees and
/// phases) poll the flag at coarse granularity and degrade structurally,
/// so the hot construction paths stay free of null-checks. The
/// construction-time default cap comes from the global fault injector;
/// the compile server tightens it per request via setLimitBytes.
class NodeArena {
public:
  static constexpr size_t FirstChunkNodes = 64;
  static constexpr size_t MaxChunkNodes = 2048;

  NodeArena(); ///< applies the oom-arena fault cap, if configured
  ~NodeArena();
  NodeArena(const NodeArena &) = delete;
  NodeArena &operator=(const NodeArena &) = delete;

  Node *make(Op O, Ty T) {
    if (Next == End)
      grow();
    Node *N = new (Next++) Node;
    N->Opcode = O;
    N->Type = T;
    ++Count;
    if (MaxBytes && Count * sizeof(Node) > MaxBytes)
      noteExhausted();
    return N;
  }

  Node *con(Ty T, int64_t V) {
    Node *N = make(Op::Const, T);
    N->Value = truncateToTy(V, T);
    return N;
  }

  Node *name(Ty T, InternedString Sym) {
    Node *N = make(Op::Name, T);
    N->Sym = Sym;
    return N;
  }

  Node *gaddr(InternedString Sym) {
    Node *N = make(Op::Gaddr, Ty::L);
    N->Sym = Sym;
    return N;
  }

  Node *dreg(int Reg, Ty T = Ty::L) {
    Node *N = make(Op::Dreg, T);
    N->Reg = Reg;
    return N;
  }

  Node *label(InternedString Sym) {
    Node *N = make(Op::Label, Ty::L);
    N->Sym = Sym;
    return N;
  }

  Node *labelDef(InternedString Sym) {
    Node *N = make(Op::LabelDef, Ty::L);
    N->Sym = Sym;
    return N;
  }

  Node *unary(Op O, Ty T, Node *Kid) {
    assert(opArity(O) == 1 && "not a unary operator");
    Node *N = make(O, T);
    N->Kids[0] = Kid;
    return N;
  }

  Node *bin(Op O, Ty T, Node *L, Node *R) {
    assert(opArity(O) == 2 && "not a binary operator");
    Node *N = make(O, T);
    N->Kids[0] = L;
    N->Kids[1] = R;
    return N;
  }

  Node *cmp(Cond C, Node *L, Node *R, Ty OperandTy) {
    Node *N = bin(Op::Cmp, OperandTy, L, R);
    N->CC = C;
    return N;
  }

  Node *rel(Cond C, Ty ResultTy, Node *L, Node *R) {
    Node *N = bin(Op::Rel, ResultTy, L, R);
    N->CC = C;
    return N;
  }

  /// Builds the canonical "local variable" shape the paper's appendix uses:
  /// Indir_t(Plus_l(Const_l(offset), Dreg_l(fp))).
  Node *local(Ty T, int64_t FpOffset) {
    Node *Addr =
        bin(Op::Plus, Ty::L, con(Ty::L, FpOffset), dreg(RegFP, Ty::L));
    return unary(Op::Indir, T, Addr);
  }

  /// Argument cell: Indir_t(Plus_l(Const_l(offset), Dreg_l(ap))).
  Node *argCell(Ty T, int64_t ApOffset) {
    Node *Addr =
        bin(Op::Plus, Ty::L, con(Ty::L, ApOffset), dreg(RegAP, Ty::L));
    return unary(Op::Indir, T, Addr);
  }

  /// Deep-copies \p N (and its children) into this arena.
  Node *clone(const Node *N);

  /// Nodes made so far.
  size_t size() const { return Count; }

  /// Bytes of the nodes made so far (the budgeted quantity).
  size_t bytes() const { return Count * sizeof(Node); }

  /// Tightens the byte cap (0 = unlimited). Only ever lowers the
  /// effective limit when a fault cap is already active.
  void setLimitBytes(size_t Bytes) {
    if (Bytes && (!MaxBytes || Bytes < MaxBytes))
      MaxBytes = Bytes;
  }

  /// Sticky: true once any allocation exceeded the cap. The arena stays
  /// usable (allocation never fails); consumers abandon the enclosing
  /// tree/phase when they see the flag.
  bool exhausted() const { return Exhausted; }

private:
  /// Heads each chunk; the chunk's nodes follow it.
  struct Chunk {
    Chunk *Prev;
    size_t Nodes;
  };
  static_assert(sizeof(Chunk) % alignof(Node) == 0);

  Chunk *Last = nullptr;  ///< newest chunk, linked to the older ones
  Node *Next = nullptr;   ///< next unused node slot in Last
  Node *End = nullptr;    ///< one past Last's slots
  size_t Count = 0;       ///< nodes made
  size_t MaxBytes = 0;    ///< 0 = unlimited
  bool Exhausted = false; ///< sticky cap-exceeded flag

  void grow();          ///< starts the next chunk
  void noteExhausted(); ///< sets the flag, counts fault.arena_exhaustions
};

/// Renders \p N in the linearized prefix form used throughout the paper,
/// e.g. "Assign_l Name_l(a) Plus_l Const_b(27) ...".
std::string printLinear(const Node *N, const Interner &Syms);

/// Renders \p N as an indented tree, one node per line.
std::string printTree(const Node *N, const Interner &Syms);

/// Structural equality of two trees (all attributes and children).
bool treeEquals(const Node *A, const Node *B);

} // namespace gg

#endif // GG_IR_NODE_H
