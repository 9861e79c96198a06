//===- Peephole.h - assembly-level peephole optimizer -----------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's section 6.1 and 9 future work: "We are examining ... the
/// interface between our method for table-driven code generation and
/// peephole optimization" (citing Davidson/Fraser-style optimizers).
/// This is the simple syntactic half of that program — a window
/// optimizer over the instruction records of one function:
///
///   * branch-to-next-instruction elimination,
///   * conditional-branch inversion over an unconditional branch
///     (jCC L1; brw L2; L1: -> j!CC L2; L1:),
///   * branch-chain collapsing (a branch to an unconditional branch
///     retargets to the final destination),
///   * unreachable code removal after an unconditional branch.
///
/// Explain mode's annotations change none of these rewrites. An inverted
/// branch loses its annotation (no production emitted it); a retargeted
/// one keeps its production's.
///
/// The data-flow-dependent half (autoincrement discovery, condition-code
/// reuse across instructions) stays in the code generator proper, as the
/// paper's generator did.
///
//===----------------------------------------------------------------------===//

#ifndef GG_CG_PEEPHOLE_H
#define GG_CG_PEEPHOLE_H

#include "vax/Emitter.h"

#include <vector>

namespace gg {

/// Counters for the ablation bench.
struct PeepholeStats {
  unsigned BranchToNextRemoved = 0;
  unsigned BranchesInverted = 0;
  unsigned ChainsCollapsed = 0;
  unsigned UnreachableRemoved = 0;

  PeepholeStats &operator+=(const PeepholeStats &O) {
    BranchToNextRemoved += O.BranchToNextRemoved;
    BranchesInverted += O.BranchesInverted;
    ChainsCollapsed += O.ChainsCollapsed;
    UnreachableRemoved += O.UnreachableRemoved;
    return *this;
  }
  friend bool operator==(const PeepholeStats &,
                         const PeepholeStats &) = default;

  unsigned total() const {
    return BranchToNextRemoved + BranchesInverted + ChainsCollapsed +
           UnreachableRemoved;
  }
};

/// Optimizes one function's instruction records in place, before they are
/// rendered. Iterates to a fixpoint (bounded). Labels are never removed.
PeepholeStats runPeephole(std::vector<AsmRecord> &Records);

} // namespace gg

#endif // GG_CG_PEEPHOLE_H
