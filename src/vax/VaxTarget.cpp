//===- VaxTarget.cpp - bundled VAX tables and matcher ------------------------===//

#include "vax/VaxTarget.h"
#include "support/Strings.h"
#include "support/TableEvents.h"
#include "support/Trace.h"
#include "vax/InstrTable.h"

using namespace gg;

/// FNV-1a over the expanded grammar and table shape: two targets with the
/// same fingerprint index productions/states identically, so gg-report
/// can trust a freshly built target's names for the ids in an artifact.
std::string VaxTarget::fingerprint(const Grammar &G, const PackedTables &T) {
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](std::string_view S) {
    for (char C : S) {
      H ^= static_cast<unsigned char>(C);
      H *= 1099511628211ull;
    }
    H ^= 0xff;
    H *= 1099511628211ull;
  };
  Mix(strf("%zu/%d/%d/%zu", G.numProductions(), T.numStates(), T.numTerms(),
           T.numDynPoints()));
  for (const Production &P : G.productions()) {
    Mix(G.symbolName(P.Lhs));
    for (SymId S : P.Rhs)
      Mix(G.symbolName(S));
    Mix(P.SemTag);
  }
  return strf("%016llx", static_cast<unsigned long long>(H));
}

std::unique_ptr<VaxTarget>
VaxTarget::create(std::string &Err, const VaxGrammarOptions &GrammarOpts,
                  BuildOptions TableOpts, MatcherOptions MatchOpts) {
  return createFromSpec(Err, vaxSpecText(GrammarOpts), TableOpts, MatchOpts);
}

std::unique_ptr<VaxTarget>
VaxTarget::createFromSpec(std::string &Err, const std::string &SpecText,
                          BuildOptions TableOpts, MatcherOptions MatchOpts) {
  TraceSpan Span("target.create");
  std::unique_ptr<VaxTarget> T(new VaxTarget());
  DiagnosticSink Diags;
  {
    TraceSpan GrammarSpan("target.grammar");
    if (!buildVaxGrammar(T->G, T->Spec, Diags, SpecText)) {
      Err = "VAX description error:\n" + Diags.renderAll();
      return nullptr;
    }
  }
  if (!TableOpts.TerminalCategory)
    TableOpts.TerminalCategory = vaxTerminalCategory;
  T->Build = buildTables(T->G, TableOpts);
  if (!T->Build.Ok) {
    Err = strf("VAX table construction failed: %s", T->Build.Error.c_str());
    return nullptr;
  }
  T->Packed = PackedTables::pack(T->Build.Tables);
  T->M = std::make_unique<Matcher>(T->G, T->Packed, MatchOpts);
  T->Sem = decodeSemActions(T->G);
  spellings(); // compose every sized spelling before any worker replays
  // Size the table-event registry while target construction is still
  // serial: the tables' dimensions, the instruction-table rows by name,
  // and the identity embedded in every gg-coverage-v1 / gg-profile-v1
  // artifact.
  TableShape Shape{T->G.numProductions(),
                   static_cast<size_t>(T->Packed.numStates()),
                   T->Packed.numDynPoints(), {}, fingerprint(T->G, T->Packed)};
  for (size_t I = 0; I < numClusters(); ++I)
    Shape.Rows.push_back(clusterAt(I).Tag);
  tableEvents().sizeTables(Shape);
  return T;
}
