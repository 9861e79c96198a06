//===- Transform.h - phase 1 tree transformation ----------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Phase 1 of the code generator (paper section 5.1): tree transformation
/// before pattern matching.
///
///  * 1a — explicit control flow: short-circuit operators, relational
///    values, selection operators and logical negation become explicit
///    tests and branches; function calls are factored out of expressions
///    into Push + CallStmt sequences assigning compiler temporaries;
///    embedded assignments and non-register autoincrements are hoisted.
///  * 1b — operator expansion and commutative canonicalization: constant
///    folding, shift-by-constant to multiply, subtract-constant to
///    add-negative, constants forced to the left child of commutative
///    operators, Gaddr offset folding.
///  * 1c — evaluation ordering: the larger subtree of a binary operator
///    is moved to the left (swapping for commutative operators,
///    substituting a reverse operator otherwise), and expressions whose
///    Sethi-Ullman register need exceeds the allocatable bank are split
///    with explicit stores to temporaries to prevent spills.
///
//===----------------------------------------------------------------------===//

#ifndef GG_CG_TRANSFORM_H
#define GG_CG_TRANSFORM_H

#include "ir/Program.h"

namespace gg {

/// Ablation knobs for experiments E2 and E10.
struct TransformOptions {
  bool ReverseOps = true;    ///< 1c may substitute reverse operators
  bool Reorder = true;       ///< 1c subtree reordering at all
  bool PreventSpills = true; ///< 1c explicit stores for spill-prone trees
  bool RawTrees = false;     ///< skip phase 1 entirely: trees reach the
                             ///< matcher exactly as built (grammar fuzzing)
};

/// Counters for the transformation experiments.
struct TransformStats {
  unsigned CondBranchRewrites = 0;
  unsigned BoolValueRewrites = 0;
  unsigned CallsFactored = 0;
  unsigned ConstantsFolded = 0;
  unsigned Canonicalizations = 0;
  unsigned SubtreesSwapped = 0;
  unsigned ReverseOpsUsed = 0;
  unsigned SpillSplits = 0;
};

/// Runs phases 1a, 1b and 1c over \p F in place (new statement forest),
/// adding its rewrite counts into \p Stats.
void runPhase1(Program &P, Function &F, const TransformOptions &Opts,
               TransformStats &Stats);

/// Sethi-Ullman-style register-need estimate (memory leaves need no
/// register; operators need at least 1), computed recursively. Phase 1c's
/// spill prevention reads the same need from Node::Need, recorded as it
/// orders each statement; the PCC baseline calls this.
int registerNeed(const Node *N);

} // namespace gg

#endif // GG_CG_TRANSFORM_H
