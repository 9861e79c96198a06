//===- Operand.cpp - VAX addressing-mode descriptors ------------------------===//

#include "vax/Operand.h"
#include "support/Error.h"

#include <charconv>

using namespace gg;

namespace {

void appendInt(std::string &Out, int64_t V) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

/// name, or name+disp when the displacement is nonzero (name+-4 when it
/// is negative, as the assembler reads it).
void appendSym(std::string &Out, const Operand &O, const Interner &Syms) {
  Out += Syms.text(O.Sym);
  if (O.Disp) {
    Out += '+';
    appendInt(Out, O.Disp);
  }
}

/// (rN)
void appendRegDef(std::string &Out, int Reg) {
  Out += '(';
  Out += regName(Reg);
  Out += ')';
}

} // namespace

void gg::appendOperand(std::string &Out, const Operand &O,
                       const Interner &Syms) {
  switch (O.Mode) {
  case AMode::None:
    gg_unreachable("formatting an empty operand");
  case AMode::Reg:
    Out += regName(O.Base);
    return;
  case AMode::Imm:
    Out += '$';
    appendInt(Out, O.Disp);
    return;
  case AMode::ImmSym:
    Out += '$';
    appendSym(Out, O, Syms);
    return;
  case AMode::Abs:
    appendSym(Out, O, Syms);
    return;
  case AMode::Disp:
    // A symbolic displacement is the address of a global used as the
    // offset from a register (e.g. a Gaddr folded into a disp pattern).
    if (!O.Sym.isEmpty())
      appendSym(Out, O, Syms);
    else if (O.Disp)
      appendInt(Out, O.Disp);
    appendRegDef(Out, O.Base);
    return;
  case AMode::DispDef:
    Out += '*';
    appendInt(Out, O.Disp);
    appendRegDef(Out, O.Base);
    return;
  case AMode::AbsDef:
    Out += '*';
    appendSym(Out, O, Syms);
    return;
  case AMode::Indexed:
    if (!O.Sym.isEmpty()) {
      appendSym(Out, O, Syms);
    } else if (O.Base < 0) {
      // Absolute indexed (a constant folded into the basis with no base
      // register, e.g. Indir(Plus(con, Mul(scale, reg)))): disp[rX].
      appendInt(Out, O.Disp);
    } else {
      if (O.Disp)
        appendInt(Out, O.Disp);
      appendRegDef(Out, O.Base);
    }
    Out += '[';
    Out += regName(O.Index);
    Out += ']';
    return;
  case AMode::AutoInc:
    appendRegDef(Out, O.Base);
    Out += '+';
    return;
  case AMode::AutoDec:
    Out += '-';
    appendRegDef(Out, O.Base);
    return;
  case AMode::LabelRef:
    Out += Syms.text(O.Sym);
    return;
  }
  gg_unreachable("bad addressing mode");
}
