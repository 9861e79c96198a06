//===- Emitter.h - instruction records and their rendering ------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hand-off between instruction generation (phase 3) and output
/// (phase 4). Phase 3 appends one compact record per line: an instruction
/// as selected (its spelling and its operand descriptors), a label, a
/// directive or a blank line. Phase 4 renders a function's records once,
/// into one text buffer, in one Phase::Emit scope (support/Phase.h): each
/// operand goes through the addressing-mode format routine
/// (appendOperand). Between the two, the peephole pass rewrites the
/// records and the prologue's frame size is patched into its operand.
///
/// In explain mode each instruction record keeps the production whose
/// semantic action emitted it (set via setProduction() by the replay
/// loop); rendering annotates the line with it, turning the output into a
/// self-describing record of which pattern matched what.
///
//===----------------------------------------------------------------------===//

#ifndef GG_VAX_EMITTER_H
#define GG_VAX_EMITTER_H

#include "support/Interner.h"
#include "vax/InstrTable.h"
#include "vax/Operand.h"

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace gg {

class Grammar;

/// One line of output as phase 3 selected it.
struct AsmRecord {
  enum class Kind : uint8_t { Blank, Inst, Label, Directive };
  /// The widest instruction emitted: extzv pos,size,base,dst.
  static constexpr size_t MaxOps = 4;

  Kind K = Kind::Blank;
  uint8_t NumOps = 0;
  Spelling Op;             ///< Inst: the mnemonic
  int32_t Production = -1; ///< Inst: explain mode's production, else -1
  InternedString Label;    ///< Label: its name
  uint32_t TextBegin = 0;  ///< Directive: its text in the emitter's pool
  uint32_t TextEnd = 0;
  Operand Ops[MaxOps];

  bool isInst() const { return K == Kind::Inst; }
};

/// A function's (or a module header's) records until they are rendered.
class AsmEmitter {
public:
  explicit AsmEmitter(const Interner &Syms) : Syms(Syms) {}

  /// Records "\topcode\top1,op2,...".
  void inst(Spelling Op, std::initializer_list<Operand> Ops);
  void label(InternedString Name);
  void directive(std::string_view Text);
  void blank() { Records.emplace_back(); }

  /// The records not yet rendered, for rewriting in place: the peephole
  /// pass and the prologue's frame-size patch.
  std::vector<AsmRecord> &records() { return Records; }

  /// A position in the record stream; rollback() discards everything
  /// recorded after the mark. The degradation ladder uses this to drop the
  /// partial output of a tree whose match or replay failed before
  /// splicing in the fallback generator's code.
  struct Mark {
    size_t NumRecords = 0;
    size_t PoolSize = 0;
  };
  Mark mark() const { return {Records.size(), Pool.size()}; }
  void rollback(const Mark &M) {
    Records.resize(M.NumRecords);
    Pool.resize(M.PoolSize);
  }

  /// Appends the text of every record to \p Out, one line each, in one
  /// Phase::Emit scope; then drops the records, keeping their storage for
  /// the next function.
  void render(std::string &Out);

  /// Instructions and lines rendered so far.
  size_t instructionCount() const { return NumInsts; }
  size_t lineCount() const { return NumLines; }

  /// Explain mode: instructions recorded while a production is set carry
  /// it, and render with its text from \p G. Null turns explain off.
  void setExplain(const Grammar *G) { Explained = G; }
  void setProduction(int32_t Id) { Production = Id; }
  void clearProduction() { Production = -1; }

  const Interner &interner() const { return Syms; }

private:
  const Interner &Syms;
  const Grammar *Explained = nullptr;
  int32_t Production = -1;
  std::vector<AsmRecord> Records;
  std::string Pool; ///< directive text
  size_t NumInsts = 0;
  size_t NumLines = 0;
};

/// The runtime-library routines the generated code calls: unsigned divide
/// and remainder, "known not to modify any registers" (paper §5.3.2).
/// Each backend interns them before generating code, so a worker names
/// them by lookup and never writes the program's interner.
void internRuntimeRoutines(Interner &Syms);

/// A branch-target operand naming runtime routine \p Name ("__udiv").
Operand runtimeRoutine(const Interner &Syms, const char *Name);

} // namespace gg

#endif // GG_VAX_EMITTER_H
