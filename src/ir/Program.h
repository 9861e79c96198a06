//===- Program.h - IR program containers ------------------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Program is the unit handed from the front end to a code generator:
/// global variables plus functions, each function a forest of statement
/// trees (the PCC "forest of expression trees interspersed with
/// target-specific instructions"). The Program owns the node arena and the
/// symbol interner used by every tree in it.
///
//===----------------------------------------------------------------------===//

#ifndef GG_IR_PROGRAM_H
#define GG_IR_PROGRAM_H

#include "ir/Node.h"
#include "support/Interner.h"

#include <charconv>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

namespace gg {

/// A global variable definition.
struct GlobalVar {
  InternedString Name;
  Ty ElemTy = Ty::L;
  int Count = 1; ///< number of elements (>1 for arrays)
  std::vector<int64_t> Init; ///< initial element values; zero-filled if short
};

/// One function: metadata plus its statement forest.
struct Function {
  InternedString Name;
  int NumArgs = 0;
  /// Bytes of local-variable frame below fp (positive size; locals live at
  /// negative fp offsets -4, -8, ... -FrameSize).
  int FrameSize = 0;
  /// Register variables used (r6..r11); informs prologue generation.
  std::vector<int> RegVars;
  /// Statement trees in execution order.
  std::vector<Node *> Body;

  /// Allocates a fresh aligned local slot of \p Bytes, growing the frame.
  /// Returns the (negative) fp offset. Used by front end and phase 1.
  int allocLocal(int Bytes) {
    int Aligned = (Bytes + 3) & ~3;
    FrameSize += Aligned;
    return -FrameSize;
  }
};

/// A whole compilation unit.
struct Program {
  Program() : Arena(std::make_unique<NodeArena>()) {}

  Interner Syms;
  std::unique_ptr<NodeArena> Arena;
  std::vector<GlobalVar> Globals;
  std::vector<Function> Functions;

  Function *findFunction(std::string_view Name) {
    for (Function &F : Functions)
      if (Syms.text(F.Name) == Name)
        return &F;
    return nullptr;
  }

  const GlobalVar *findGlobal(InternedString Name) const {
    for (const GlobalVar &G : Globals)
      if (G.Name == Name)
        return &G;
    return nullptr;
  }

  /// Returns a label symbol guaranteed fresh within this program.
  InternedString freshLabel() {
    char Buf[16] = {'L', '$'};
    char *End = std::to_chars(Buf + 2, std::end(Buf), ++LabelCounter).ptr;
    return Syms.intern(std::string_view(Buf, End - Buf));
  }

private:
  unsigned LabelCounter = 0;
};

} // namespace gg

#endif // GG_IR_PROGRAM_H
