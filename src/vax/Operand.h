//===- Operand.h - VAX addressing-mode descriptors --------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantic operand descriptors: the attribute each encapsulating
/// reduction "condenses" (paper section 5.2). An Operand captures one VAX
/// addressing mode; appendOperand() is the hand-written addressing-mode
/// format table of phase 4 (section 5.4).
///
//===----------------------------------------------------------------------===//

#ifndef GG_VAX_OPERAND_H
#define GG_VAX_OPERAND_H

#include "ir/Node.h"
#include "support/Interner.h"

#include <string>

namespace gg {

/// VAX addressing modes this code generator uses.
enum class AMode : uint8_t {
  None,    ///< empty / not yet set
  Reg,     ///< rN
  Imm,     ///< $literal
  ImmSym,  ///< $name (address constant)
  Abs,     ///< name+disp (direct global reference)
  Disp,    ///< disp(rN), printed (rN) when disp == 0
  DispDef, ///< *disp(rN) — displacement deferred
  AbsDef,  ///< *name — absolute deferred
  Indexed, ///< base[rX]; base is Abs or Disp per Sym/Base fields
  AutoInc, ///< (rN)+
  AutoDec, ///< -(rN)
  LabelRef ///< branch target
};

/// One operand descriptor. The members are ordered so it packs into 24
/// bytes: instruction records hold four of them inline.
struct Operand {
  AMode Mode = AMode::None;
  Ty Type = Ty::L;       ///< access type of the cell / value
  /// This operand's register was spilled to a virtual register; Base/Disp
  /// now address the spill cell and the value must be reloaded before use.
  bool Spilled = false;
  /// This operand denotes a dedicated register *location* (Dreg leaf),
  /// not a value the register manager allocated; spilling and relocation
  /// must never rewrite it.
  bool DregRef = false;
  int Base = -1;         ///< base register (Disp/DispDef/Reg/AutoInc/AutoDec)
  int Index = -1;        ///< index register (Indexed)
  InternedString Sym;    ///< symbol (Abs/AbsDef/ImmSym/LabelRef/indexed-abs)
  int64_t Disp = 0;      ///< displacement or immediate value

  bool isReg() const { return Mode == AMode::Reg; }
  bool isImm() const { return Mode == AMode::Imm; }
  bool isMemory() const {
    switch (Mode) {
    case AMode::Abs:
    case AMode::Disp:
    case AMode::DispDef:
    case AMode::AbsDef:
    case AMode::Indexed:
    case AMode::AutoInc:
    case AMode::AutoDec:
      return true;
    default:
      return false;
    }
  }

  static Operand reg(int R, Ty T) {
    Operand O;
    O.Mode = AMode::Reg;
    O.Base = R;
    O.Type = T;
    return O;
  }
  static Operand imm(int64_t V, Ty T) {
    Operand O;
    O.Mode = AMode::Imm;
    O.Disp = V;
    O.Type = T;
    return O;
  }
  static Operand immSym(InternedString S) {
    Operand O;
    O.Mode = AMode::ImmSym;
    O.Sym = S;
    O.Type = Ty::L;
    return O;
  }
  static Operand abs(InternedString S, Ty T, int64_t Off = 0) {
    Operand O;
    O.Mode = AMode::Abs;
    O.Sym = S;
    O.Disp = Off;
    O.Type = T;
    return O;
  }
  static Operand disp(int BaseReg, int64_t D, Ty T) {
    Operand O;
    O.Mode = AMode::Disp;
    O.Base = BaseReg;
    O.Disp = D;
    O.Type = T;
    return O;
  }
  static Operand labelRef(InternedString S) {
    Operand O;
    O.Mode = AMode::LabelRef;
    O.Sym = S;
    return O;
  }

  /// True when two operands denote the same location (used by the binding
  /// idiom recognizer, §5.3.2).
  bool sameLocation(const Operand &O) const {
    return Mode == O.Mode && Base == O.Base && Index == O.Index &&
           Disp == O.Disp && Sym == O.Sym;
  }
};

static_assert(sizeof(Operand) == 24, "Operand no longer packs");

/// Appends \p O to \p Out in UNIX VAX assembler syntax: the phase-4
/// addressing-mode format table, one case per mode.
void appendOperand(std::string &Out, const Operand &O, const Interner &Syms);

/// \p O as its own string.
inline std::string formatOperand(const Operand &O, const Interner &Syms) {
  std::string Out;
  appendOperand(Out, O, Syms);
  return Out;
}

} // namespace gg

#endif // GG_VAX_OPERAND_H
