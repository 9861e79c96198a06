//===- Emitter.h - assembly output buffer -----------------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Collects generated assembly text (phase 4 output). Tracks instruction
/// counts for the code-quality experiments. Formatting and rendering run
/// in Phase::Emit scopes (support/Phase.h), so phase 4 is reported apart
/// from the replay or PCC fallback it is interleaved with.
///
/// In explain mode each instruction line is annotated with the grammar
/// production whose semantic action emitted it (set via setContext() by
/// the replay loop), turning the output into a self-describing record of
/// which pattern matched what.
///
//===----------------------------------------------------------------------===//

#ifndef GG_VAX_EMITTER_H
#define GG_VAX_EMITTER_H

#include "support/Interner.h"
#include "vax/Operand.h"

#include <string>
#include <vector>

namespace gg {

/// An append-only assembly buffer.
class AsmEmitter {
public:
  explicit AsmEmitter(const Interner &Syms) : Syms(Syms) {}

  /// Emits "\topcode\top1,op2,...".
  void inst(const std::string &Opcode, const std::vector<Operand> &Ops);

  /// Emits an instruction with pre-formatted operand text.
  void instRaw(const std::string &Opcode,
               const std::vector<std::string> &Ops);

  void label(InternedString Name);
  void labelText(const std::string &Name);
  void directive(const std::string &Text);
  void comment(const std::string &Text);
  void blank() { Lines.push_back(""); }

  const std::vector<std::string> &lines() const { return Lines; }

  /// Replaces a previously emitted line (prologue frame-size patching).
  void patchLine(size_t Index, const std::string &Text) {
    Lines[Index] = Text;
  }

  /// Mutable access for whole-stream rewriting (the peephole optimizer).
  std::vector<std::string> &linesMutable() { return Lines; }
  size_t instructionCount() const { return NumInsts; }
  size_t lineCount() const { return Lines.size(); }

  /// A position in the output stream; rollback() discards everything
  /// emitted after the mark. The degradation ladder uses this to drop the
  /// partial output of a tree whose match or replay failed before
  /// splicing in the fallback generator's code.
  struct Mark {
    size_t NumLines = 0;
    size_t NumInsts = 0;
  };
  Mark mark() const { return {Lines.size(), NumInsts}; }
  void rollback(const Mark &M) {
    Lines.resize(M.NumLines);
    NumInsts = M.NumInsts;
  }

  /// Makes room for \p NumLines lines in all, so appends up to that size
  /// move no earlier line.
  void reserve(size_t NumLines) { Lines.reserve(NumLines); }

  /// Splices another emitter's whole output onto the end of this one,
  /// consuming it. The parallel code generator compiles each function into
  /// a private buffer and stitches the buffers in source order, so output
  /// is byte-identical to the single-threaded stream at any thread count.
  void append(AsmEmitter &&Other) {
    Lines.insert(Lines.end(),
                 std::make_move_iterator(Other.Lines.begin()),
                 std::make_move_iterator(Other.Lines.end()));
    NumInsts += Other.NumInsts;
    Other.Lines.clear();
    Other.NumInsts = 0;
  }

  /// The full assembly text.
  std::string text() const;

  /// Explain mode: annotate each instruction with the production that
  /// reduced it. The context string is set by the instruction generator
  /// around each emitting reduction and cleared between statements.
  void setExplain(bool On) { Explain = On; }
  bool explain() const { return Explain; }
  void setContext(std::string Text) { Context = std::move(Text); }
  void clearContext() { Context.clear(); }

  const Interner &interner() const { return Syms; }

private:
  const Interner &Syms;
  std::vector<std::string> Lines;
  size_t NumInsts = 0;
  bool Explain = false;
  std::string Context;

  void appendInst(const std::string &Opcode,
                  const std::vector<std::string> &Ops);
};

} // namespace gg

#endif // GG_VAX_EMITTER_H
