//===- LRDriver.cpp - the table-driven shift/reduce loop ------------------===//

#include "match/LRDriver.h"

#include <cassert>

using namespace gg;

static std::vector<std::string> terminalNamesOf(const Grammar &G) {
  assert(G.isFrozen() && "the LR driver requires a frozen grammar");
  std::vector<std::string> Names(G.terminals().size());
  for (SymId S : G.terminals())
    Names[G.termIndex(S)] = G.symbolName(S);
  return Names;
}

LRDriver::LRDriver(const Grammar &G, const PackedTables &T,
                   size_t MaxStackDepth)
    : G(G), T(T), MaxStackDepth(MaxStackDepth),
      EofIdx(G.termIndex(G.eofSymbol())), TermNames(terminalNamesOf(G)),
      Terms(TermNames) {
  for (size_t I = 0; I < TermNames.size(); ++I)
    TermIndex.emplace(TermNames[I], static_cast<int>(I));
  Shapes.reserve(G.numProductions());
  for (const Production &P : G.productions())
    Shapes.push_back({static_cast<uint32_t>(P.Rhs.size()), G.ntIndex(P.Lhs)});

  // Every edge into a state carries the symbol before the dot in its
  // kernel items, so a state stack spells its viable prefix.
  EntrySym.assign(T.numStates(), -1);
  for (int S = 0; S < T.numStates(); ++S) {
    for (int TI = 0; TI < T.numTerms(); ++TI)
      if (const Action A = T.actionAt(S, TI); A.Kind == ActionType::Shift)
        EntrySym[A.Target] = G.terminals()[TI];
    for (int NI = 0; NI < T.numNonterms(); ++NI)
      if (const int Goto = T.gotoAt(S, NI); Goto >= 0)
        EntrySym[Goto] = G.nonterminals()[NI];
  }
}

std::vector<std::string> LRDriver::viablePrefix(const LRConfig &Cfg) const {
  std::vector<std::string> Names;
  for (size_t I = 1; I < Cfg.Stack.size(); ++I)
    Names.push_back(G.symbolName(EntrySym[Cfg.Stack[I]]));
  return Names;
}

std::vector<std::string> LRDriver::shiftableTerms(int State) const {
  std::vector<std::string> Names;
  for (int TI = 0; TI < T.numTerms(); ++TI)
    if (T.actionAt(State, TI).Kind != ActionType::Error)
      Names.push_back(TermNames[TI]);
  return Names;
}
