//===- VaxTarget.h - bundled VAX tables and matcher -------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bundles the static per-target artifacts: the expanded grammar, the
/// constructed parse tables (packed), a matcher over them and every
/// production's decoded semantic action. These are "used once for each
/// target machine" (paper section 3) and shared by every compilation.
///
//===----------------------------------------------------------------------===//

#ifndef GG_VAX_VAXTARGET_H
#define GG_VAX_VAXTARGET_H

#include "match/Matcher.h"
#include "mdl/SpecParser.h"
#include "tablegen/Packing.h"
#include "tablegen/TableBuilder.h"
#include "vax/VaxGrammar.h"
#include "vax/VaxSemantics.h"

#include <memory>
#include <string>

namespace gg {

/// Immutable per-target state; create once, compile many programs.
class VaxTarget {
public:
  /// Builds grammar + tables + matcher. Returns null and sets \p Err on
  /// description errors. \p TableOpts chooses the construction algorithm
  /// (experiment E4); the block-check category function is installed
  /// automatically. \p MatchOpts tunes the matcher (stack-depth cap).
  static std::unique_ptr<VaxTarget>
  create(std::string &Err, const VaxGrammarOptions &GrammarOpts = {},
         BuildOptions TableOpts = {}, MatcherOptions MatchOpts = {});

  /// As create(), from description text in vaxSpecText()'s format; tests
  /// edit that text to give the semantic routines a tag they lack.
  static std::unique_ptr<VaxTarget>
  createFromSpec(std::string &Err, const std::string &SpecText,
                 BuildOptions TableOpts = {}, MatcherOptions MatchOpts = {});

  const Grammar &grammar() const { return G; }
  const MdSpec &spec() const { return Spec; }
  const BuildResult &build() const { return Build; }
  const PackedTables &packed() const { return Packed; }
  const Matcher &matcher() const { return *M; }
  /// Per production id: its semantic tag, decoded once at creation.
  const std::vector<SemAction> &semActions() const { return Sem; }

  /// Grammar/tables identity (hex digest) embedded in `gg-coverage-v1`
  /// artifacts; gg-report matches it before naming ids from a rebuilt
  /// target.
  static std::string fingerprint(const Grammar &G, const PackedTables &T);

private:
  VaxTarget() = default;
  Grammar G;
  MdSpec Spec;
  BuildResult Build;
  PackedTables Packed;
  std::unique_ptr<Matcher> M;
  std::vector<SemAction> Sem;
};

} // namespace gg

#endif // GG_VAX_VAXTARGET_H
