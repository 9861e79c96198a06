//===- Emitter.cpp - instruction records and their rendering --------------===//

#include "vax/Emitter.h"
#include "mdl/Grammar.h"
#include "support/Phase.h"

#include <algorithm>
#include <cassert>

using namespace gg;

namespace {
const char *const RuntimeRoutines[] = {"__udiv", "__urem"};
} // namespace

void AsmEmitter::inst(Spelling Op, std::initializer_list<Operand> Ops) {
  assert(Ops.size() <= AsmRecord::MaxOps && "too many operands");
  AsmRecord &R = Records.emplace_back();
  R.K = AsmRecord::Kind::Inst;
  R.NumOps = static_cast<uint8_t>(Ops.size());
  R.Op = Op;
  R.Production = Explained ? Production : -1;
  std::copy(Ops.begin(), Ops.end(), R.Ops);
}

void AsmEmitter::label(InternedString Name) {
  AsmRecord &R = Records.emplace_back();
  R.K = AsmRecord::Kind::Label;
  R.Label = Name;
}

void AsmEmitter::directive(std::string_view Text) {
  AsmRecord &R = Records.emplace_back();
  R.K = AsmRecord::Kind::Directive;
  R.TextBegin = static_cast<uint32_t>(Pool.size());
  Pool += Text;
  R.TextEnd = static_cast<uint32_t>(Pool.size());
}

void AsmEmitter::render(std::string &Out) {
  PhaseScope PS(Phase::Emit);
  for (const AsmRecord &R : Records) {
    switch (R.K) {
    case AsmRecord::Kind::Blank:
      break;
    case AsmRecord::Kind::Label:
      Out += Syms.text(R.Label);
      Out += ':';
      break;
    case AsmRecord::Kind::Directive:
      Out += '\t';
      Out.append(Pool, R.TextBegin, R.TextEnd - R.TextBegin);
      break;
    case AsmRecord::Kind::Inst:
      Out += '\t';
      Out += R.Op.view();
      for (size_t I = 0; I < R.NumOps; ++I) {
        Out += I ? ',' : '\t';
        appendOperand(Out, R.Ops[I], Syms);
      }
      if (R.Production >= 0) {
        Out += "\t# ";
        Out += renderProduction(*Explained, Explained->prod(R.Production));
      }
      ++NumInsts;
      break;
    }
    Out += '\n';
  }
  NumLines += Records.size();
  Records.clear();
  Pool.clear();
}

void gg::internRuntimeRoutines(Interner &Syms) {
  for (const char *Name : RuntimeRoutines)
    Syms.intern(Name);
}

Operand gg::runtimeRoutine(const Interner &Syms, const char *Name) {
  InternedString Sym = Syms.find(Name);
  assert(!Sym.isEmpty() && "runtime routine not interned before codegen");
  return Operand::labelRef(Sym);
}
