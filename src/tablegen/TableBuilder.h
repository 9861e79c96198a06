//===- TableBuilder.h - SLR(1) table construction ---------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The table constructor (paper section 3.2): an SLR(1)-style generator
/// that disambiguates the highly ambiguous machine grammar by favoring a
/// shift in shift/reduce conflicts and the longest rule in reduce/reduce
/// conflicts (maximal munch). It detects chain-rule loops and reports
/// potential syntactic blocks (resolved in the description by hand-written
/// bridge productions, §6.2.2).
///
/// Two construction algorithms are provided behind BuildOptions::Optimized.
/// They produce identical tables; the naive one mirrors the original CGGWS
/// implementation whose runs "took over two memory-intensive hours", the
/// optimized one the authors' improved algorithms ("now takes ten
/// minutes") — experiment E4.
///
//===----------------------------------------------------------------------===//

#ifndef GG_TABLEGEN_TABLEBUILDER_H
#define GG_TABLEGEN_TABLEBUILDER_H

#include "mdl/Grammar.h"
#include "tablegen/LRTables.h"

#include <functional>
#include <string>
#include <vector>

namespace gg {

/// Options controlling table construction.
struct BuildOptions {
  /// Use hashed state lookup, indexed closures and bitset FIRST/FOLLOW.
  bool Optimized = true;
  /// Classifies terminals for the syntactic-block check; terminals mapped
  /// to 0 are exempt. Two terminals with the same non-zero category are
  /// assumed interchangeable in well-formed input (uniform replacement).
  std::function<uint32_t(std::string_view)> TerminalCategory;
};

/// A resolved shift/reduce conflict (informational).
struct ShiftReduceConflict {
  int State = 0;
  SymId Term = -1;
  int ReduceProd = -1;
};

/// A resolved reduce/reduce conflict (informational).
struct ReduceReduceConflict {
  int State = 0;
  SymId Term = -1;
  std::vector<int> Prods; ///< all candidates
  int Chosen = -1;
  bool Dynamic = false; ///< tie among longest rules: decided at match time
};

/// A cycle of chain productions (would loop the matcher; fatal).
struct ChainLoop {
  std::vector<SymId> Cycle; ///< non-terminals forming the cycle
};

/// A potential syntactic block: terminal Term has an error action in
/// State although a same-category terminal is viable there.
struct PotentialBlock {
  int State = 0;
  SymId Term = -1;
  SymId Witness = -1; ///< the same-category terminal that is viable
};

/// Everything the table constructor produces.
struct BuildResult {
  bool Ok = false;
  std::string Error;
  LRTables Tables;
  /// Per-state accessing symbol: the grammar symbol whose transition
  /// created the state (every state except 0 has exactly one). Lets
  /// reports name a bare state number — "state 17 (after Plus_l)" — when
  /// listing never-visited states; -1 for the start state.
  std::vector<SymId> StateAccessSym;
  std::vector<ShiftReduceConflict> SRConflicts;
  std::vector<ReduceReduceConflict> RRConflicts;
  std::vector<ChainLoop> ChainLoops;
  std::vector<PotentialBlock> Blocks;
  size_t NumItemSets = 0; ///< == Tables.NumStates
  size_t TotalItems = 0;  ///< sum of closure sizes over all states
  double Seconds = 0;     ///< wall-clock construction time
};

/// Builds SLR(1) tables for \p G (which must be frozen and validated).
BuildResult buildTables(const Grammar &G, const BuildOptions &Opts = {});

/// Renders a human-readable conflict/diagnostic report (used by the
/// describe_machine workstation tool).
std::string renderBuildReport(const Grammar &G, const BuildResult &R);

} // namespace gg

#endif // GG_TABLEGEN_TABLEBUILDER_H
