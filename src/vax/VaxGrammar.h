//===- VaxGrammar.h - the VAX machine description ---------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the VAX machine description grammar: the generic (pre-
/// replication) spec text and its expansion. Options subset the
/// description for the paper's ablations: reverse operators (experiment
/// E2, §5.1.3) and the number of replicated machine types (E9, §6.4).
///
//===----------------------------------------------------------------------===//

#ifndef GG_VAX_VAXGRAMMAR_H
#define GG_VAX_VAXGRAMMAR_H

#include "mdl/Grammar.h"
#include "mdl/SpecParser.h"

#include <string>

namespace gg {

/// Controls which parts of the description are generated.
struct VaxGrammarOptions {
  /// Include the reverse binary operators introduced by phase 1c
  /// (§5.1.3: +25% grammar, +60% tables in the paper).
  bool ReverseOps = true;
  /// Number of machine size classes replicated: 1 = {l}, 2 = {w,l},
  /// 3 = {b,w,l}. The long forms always exist (addresses are longs).
  int NumSizes = 3;
};

/// Renders the generic machine description spec text.
std::string vaxSpecText(const VaxGrammarOptions &Opts = {});

/// Parses and expands the description into \p Spec and \p G (frozen).
/// Returns false (with diagnostics) on internal description errors.
bool buildVaxGrammar(Grammar &G, MdSpec &Spec, DiagnosticSink &Diags,
                     const VaxGrammarOptions &Opts = {});

/// As above, from description text in vaxSpecText()'s format.
bool buildVaxGrammar(Grammar &G, MdSpec &Spec, DiagnosticSink &Diags,
                     const std::string &SpecText);

/// Terminal-category function for the syntactic-block check: operator
/// terminals of equal arity and result size class share a category; leaf
/// and special terminals are exempt (category 0).
uint32_t vaxTerminalCategory(std::string_view TermName);

} // namespace gg

#endif // GG_VAX_VAXGRAMMAR_H
