//===- Emitter.cpp - assembly output buffer ---------------------------------===//

#include "vax/Emitter.h"
#include "support/Phase.h"
#include "support/Stats.h"

using namespace gg;

void AsmEmitter::inst(const std::string &Opcode,
                      const std::vector<Operand> &Ops) {
  PhaseScope PS(Phase::Emit);
  std::vector<std::string> Texts;
  Texts.reserve(Ops.size());
  for (const Operand &O : Ops)
    Texts.push_back(formatOperand(O, Syms));
  appendInst(Opcode, Texts);
}

void AsmEmitter::instRaw(const std::string &Opcode,
                         const std::vector<std::string> &Ops) {
  PhaseScope PS(Phase::Emit);
  appendInst(Opcode, Ops);
}

void AsmEmitter::appendInst(const std::string &Opcode,
                            const std::vector<std::string> &Ops) {
  std::string Line = "\t" + Opcode;
  for (size_t I = 0; I < Ops.size(); ++I) {
    Line += I ? "," : "\t";
    Line += Ops[I];
  }
  if (Explain && !Context.empty()) {
    Line += "\t# ";
    Line += Context;
  }
  Lines.push_back(std::move(Line));
  ++NumInsts;
  static auto &Insts = stats().counter("emit.instructions");
  ++Insts;
}

void AsmEmitter::label(InternedString Name) { labelText(Syms.text(Name)); }

void AsmEmitter::labelText(const std::string &Name) {
  Lines.push_back(Name + ":");
}

void AsmEmitter::directive(const std::string &Text) {
  Lines.push_back("\t" + Text);
}

void AsmEmitter::comment(const std::string &Text) {
  Lines.push_back("# " + Text);
}

std::string AsmEmitter::text() const {
  PhaseScope PS(Phase::Emit);
  std::string Out;
  for (const std::string &Line : Lines) {
    Out += Line;
    Out += '\n';
  }
  return Out;
}
