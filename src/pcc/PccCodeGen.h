//===- PccCodeGen.h - hand-coded baseline code generator --------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The comparison baseline: a traditional hand-coded tree-walking code
/// generator in the style of PCC's second pass — a large switch over
/// operators with ad hoc addressing-mode folding, a simple accumulator
/// discipline and a couple of classic idioms (clr, inc/dec, tst).
///
/// Both backends share the front end and the target-independent phase-1a
/// lowering, so the experiments isolate the instruction-selection
/// mechanism: table-driven pattern matching vs. hand-written case
/// analysis. The baseline deliberately folds only the simple addressing
/// modes (register, immediate, absolute, displacement); it does not use
/// indexed, deferred or autoincrement modes, memory-destination
/// three-address forms, or conversion-fused moves — the paper found the
/// pattern matcher's code "as good or better in almost all cases".
///
//===----------------------------------------------------------------------===//

#ifndef GG_PCC_PCCCODEGEN_H
#define GG_PCC_PCCCODEGEN_H

#include "cg/Transform.h"
#include "ir/Program.h"
#include "support/Error.h"

#include <cstddef>
#include <string>

namespace gg {

class AsmEmitter;

/// Statistics for one baseline compilation.
struct PccStats {
  double Seconds = 0; ///< phase-clock seconds, final render included
  size_t Instructions = 0;
  TransformStats Transform; ///< phase-1a rewrites
  size_t AsmLines = 0;
  size_t StatementTrees = 0;
};

/// Compiles IR programs to VAX assembly by direct tree walking.
class PccCodeGenerator {
public:
  /// Compiles \p Prog, appending assembly to \p Asm; false + \p Err on an
  /// unsupported construct (a baseline bug). Failures accumulate in a
  /// DiagnosticSink internally; \p Err is its rendering.
  bool compile(Program &Prog, std::string &Asm, std::string &Err);

  const PccStats &stats() const { return Stats; }

private:
  PccStats Stats;
};

/// Generates code for ONE statement tree of \p F through the baseline,
/// appending to \p Emit — the degradation ladder's per-tree fallback when
/// the table-driven path hits a syntactic block. \p S must already be
/// phase-1 lowered (the baseline walker handles the GG pipeline's
/// canonicalizations: reverse ops, AssignR, PostInc/PreDec, Conv).
/// Register-hungry subtrees and embedded library calls are split into
/// temporaries exactly as the whole-function baseline does; frame cells
/// come from \p F so the caller's prologue patching covers them. Returns
/// false with diagnostics in \p Diags on an unsupported construct,
/// emitting nothing in that case. \p Arena overrides the node arena for
/// splitter temporaries (null = the program's own); parallel compile
/// workers pass a private arena so concurrent recoveries never contend on
/// the shared one.
bool pccGenStatement(Program &P, Function &F, Node *S, AsmEmitter &Emit,
                     DiagnosticSink &Diags, NodeArena *Arena = nullptr);

} // namespace gg

#endif // GG_PCC_PCCCODEGEN_H
