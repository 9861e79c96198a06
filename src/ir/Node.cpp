//===- Node.cpp - expression tree nodes -----------------------------------===//

#include "ir/Node.h"
#include "support/Error.h"
#include "support/FaultInject.h"
#include "support/Metrics.h"
#include "support/Strings.h"

#include <algorithm>

using namespace gg;

NodeArena::NodeArena() {
  // The oom-arena fault caps every arena in the process at construction;
  // request budgets can only tighten this further (setLimitBytes).
  int64_t Cap = faultInject().arenaCapBytes();
  if (Cap >= 0)
    MaxBytes = static_cast<size_t>(Cap);
}

NodeArena::~NodeArena() {
  while (Last) {
    Chunk *Prev = Last->Prev;
    ::operator delete(Last);
    Last = Prev;
  }
}

void NodeArena::grow() {
  const size_t Nodes =
      Last ? std::min(Last->Nodes * 2, MaxChunkNodes) : FirstChunkNodes;
  void *Raw = ::operator new(sizeof(Chunk) + Nodes * sizeof(Node));
  Last = new (Raw) Chunk{Last, Nodes};
  Next = reinterpret_cast<Node *>(Last + 1);
  End = Next + Nodes;
}

void NodeArena::noteExhausted() {
  if (Exhausted)
    return;
  Exhausted = true;
  ++counter(Metric::FaultArenaExhaustions);
}

namespace {
struct OpInfo {
  const char *Name;
  int Arity;
  unsigned Flags;
};

constexpr OpInfo OpTable[] = {
#define GG_OP(Name, Str, Arity, Flags) {Str, Arity, Flags},
#include "ir/Ops.def"
};
} // namespace

int gg::opArity(Op O) { return OpTable[static_cast<int>(O)].Arity; }
const char *gg::opName(Op O) { return OpTable[static_cast<int>(O)].Name; }
unsigned gg::opFlags(Op O) { return OpTable[static_cast<int>(O)].Flags; }

bool gg::hasReverseForm(Op O) {
  switch (O) {
  case Op::Minus:
  case Op::Div:
  case Op::Mod:
  case Op::Lsh:
  case Op::Rsh:
  case Op::Assign:
    return true;
  default:
    return false;
  }
}

Op gg::reverseOp(Op O) {
  switch (O) {
  case Op::Minus:
    return Op::MinusR;
  case Op::Div:
    return Op::DivR;
  case Op::Mod:
    return Op::ModR;
  case Op::Lsh:
    return Op::LshR;
  case Op::Rsh:
    return Op::RshR;
  case Op::Assign:
    return Op::AssignR;
  case Op::MinusR:
    return Op::Minus;
  case Op::DivR:
    return Op::Div;
  case Op::ModR:
    return Op::Mod;
  case Op::LshR:
    return Op::Lsh;
  case Op::RshR:
    return Op::Rsh;
  case Op::AssignR:
    return Op::Assign;
  default:
    gg_unreachable("operator has no reverse form");
  }
}

const char *gg::regName(int R) {
  static const char *const Names[NumRegs] = {
      "r0", "r1", "r2",  "r3", "r4", "r5", "r6", "r7",
      "r8", "r9", "r10", "r11", "ap", "fp", "sp", "pc"};
  assert(R >= 0 && R < NumRegs && "bad register number");
  return Names[R];
}

int Node::treeSize() const {
  int N = 1;
  for (const Node *Kid : Kids)
    if (Kid)
      N += Kid->treeSize();
  return N;
}

Node *NodeArena::clone(const Node *N) {
  if (!N)
    return nullptr;
  Node *Copy = make(N->Opcode, N->Type);
  Copy->CC = N->CC;
  Copy->Reg = N->Reg;
  Copy->Value = N->Value;
  Copy->Sym = N->Sym;
  Copy->Kids[0] = clone(N->Kids[0]);
  Copy->Kids[1] = clone(N->Kids[1]);
  return Copy;
}

namespace {
void printNodeLabel(const Node *N, const Interner &Syms, std::string &Out) {
  Out += opName(N->Opcode);
  // Statement operators and Label are untyped in dumps; expressions carry
  // their type suffix, matching the paper's Appendix notation.
  if (!isStmtOp(N->Opcode) && N->Opcode != Op::Label) {
    Out += '_';
    Out += tyName(N->Type);
  }
  switch (N->Opcode) {
  case Op::Const:
    Out += strf("(%lld)", static_cast<long long>(N->Value));
    break;
  case Op::Name:
  case Op::Gaddr:
  case Op::Label:
  case Op::LabelDef:
    Out += strf("(%s)", Syms.text(N->Sym).c_str());
    break;
  case Op::Dreg:
    Out += strf("(%s)", regName(N->Reg));
    break;
  case Op::Cmp:
  case Op::Rel:
  case Op::CBranch:
    Out += strf("(%s)", condName(N->CC));
    break;
  default:
    break;
  }
}

void printLinearRec(const Node *N, const Interner &Syms, std::string &Out) {
  if (!N)
    return;
  if (!Out.empty())
    Out += ' ';
  printNodeLabel(N, Syms, Out);
  for (const Node *Kid : N->Kids)
    printLinearRec(Kid, Syms, Out);
}

void printTreeRec(const Node *N, const Interner &Syms, int Depth,
                  std::string &Out) {
  if (!N)
    return;
  Out.append(static_cast<size_t>(Depth) * 2, ' ');
  printNodeLabel(N, Syms, Out);
  Out += '\n';
  for (const Node *Kid : N->Kids)
    printTreeRec(Kid, Syms, Depth + 1, Out);
}
} // namespace

std::string gg::printLinear(const Node *N, const Interner &Syms) {
  std::string Out;
  printLinearRec(N, Syms, Out);
  return Out;
}

std::string gg::printTree(const Node *N, const Interner &Syms) {
  std::string Out;
  printTreeRec(N, Syms, 0, Out);
  return Out;
}

bool gg::treeEquals(const Node *A, const Node *B) {
  if (A == B)
    return true;
  if (!A || !B)
    return false;
  if (A->Opcode != B->Opcode || A->Type != B->Type || A->CC != B->CC ||
      A->Reg != B->Reg || A->Value != B->Value || A->Sym != B->Sym)
    return false;
  return treeEquals(A->Kids[0], B->Kids[0]) &&
         treeEquals(A->Kids[1], B->Kids[1]);
}
