//===- GrammarWalk.h - witness search over grammar and automaton -*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Derives *witness sentences* from the machine grammar and its SLR
/// automaton: token sequences whose simulated parse provably reduces a
/// chosen production, visits a chosen state, or consults a chosen
/// dynamic-tie point. This is the generative half of the
/// grammar-aware fuzzer — in the spirit of Samuelsson's example-based
/// LR-table mining, but run in reverse: instead of observing which table
/// entries a corpus uses, it *constructs* a corpus from the table entries
/// themselves.
///
/// Machinery:
///  * k-best shortest terminal yields per nonterminal (beamed fixpoint);
///  * Dijkstra over the automaton's shift/goto graph (goto edges cost the
///    minimum yield of their nonterminal) with alternate-predecessor
///    variants, realized into token prefixes;
///  * a guided depth-first completion search over LRDriver
///    configurations (ordered by precomputed distance-to-accept, memoized
///    by stack hash) that extends any viable prefix to an accepted
///    sentence;
///  * validation of every candidate by a simulated parse — the search
///    *proposes*, the simulation *proves*.
///
/// Simulated parses run the Matcher's own LRDriver under the observers
/// below, which touch no registry: coverage is enable-only, and millions
/// of simulated prefixes must not pollute the final corpus's artifact.
///
/// Everything is deterministic: no clocks, no global RNG — variant
/// selection is an explicit counter.
///
//===----------------------------------------------------------------------===//

#ifndef GG_FUZZ_GRAMMARWALK_H
#define GG_FUZZ_GRAMMARWALK_H

#include "match/LRDriver.h"

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

namespace gg {

/// Records nothing; stops a reduction cascade that no longer makes
/// progress down the stack. A legitimate cascade runs at most one
/// unit-production chain between two new lows; a unit cycle in corrupt
/// tables would reduce forever without consuming input.
struct CascadeGuard : LRObserver {
  static constexpr size_t MaxStall = 4096;
  size_t Low = SIZE_MAX; ///< lowest stack depth of the current cascade
  size_t Stall = 0;      ///< reductions since the cascade last hit a new low

  bool stop(const LRConfig &) { return Stall >= MaxStall; }
  void shifted(const LRConfig &, int, int) {
    Low = SIZE_MAX;
    Stall = 0;
  }
  void reduced(const LRConfig &Cfg, int, int) {
    if (Cfg.Stack.size() < Low) {
      Low = Cfg.Stack.size();
      Stall = 0;
    } else {
      ++Stall;
    }
  }
};

/// Everything one simulated parse observed, in event order: what the
/// coverage registry would record for the same token sequence. (Why a
/// parse blocked is the Matcher's BlockReport to tell: same driver.)
struct SimTrace : CascadeGuard {
  bool Accepted = false;
  std::vector<int> Reduces;  ///< production ids, in reduction order
  std::vector<int> States;   ///< states visited (entry 0, shifts, gotos)
  std::vector<std::pair<int, int>> DynConsults; ///< (state, termIdx)
  size_t Steps = 0;          ///< shift + reduce count

  void shifted(const LRConfig &Cfg, int State, int TermIdx) {
    CascadeGuard::shifted(Cfg, State, TermIdx);
    States.push_back(Cfg.top());
    ++Steps;
  }
  /// Records the consult before the goto lookup, as the Matcher does, so
  /// a consult counts even when the default reduction then strands.
  void reducing(const LRConfig &, int State, int TermIdx, int Prod,
                bool Tie) {
    if (Tie)
      DynConsults.emplace_back(State, TermIdx);
    Reduces.push_back(Prod);
    ++Steps;
  }
  void reduced(const LRConfig &Cfg, int State, int Prod) {
    CascadeGuard::reduced(Cfg, State, Prod);
    States.push_back(Cfg.top());
  }
};

class GrammarWalk {
public:
  explicit GrammarWalk(const LRDriver &D);

  const LRDriver &driver() const { return D; }
  const Grammar &grammar() const { return G; }

  /// Whole-sentence simulation from the initial configuration, by dense
  /// terminal index. Records the entry visit of state 0 like the Matcher.
  SimTrace simulate(const std::vector<int> &TermIdxs) const;
  /// Whole-sentence simulation by terminal name; an unknown name blocks.
  SimTrace simulateNames(const std::vector<std::string> &Tokens) const;

  /// K-best shortest terminal yields (dense term indices) for the dense
  /// nonterminal index \p NtIdx; empty when the nonterminal derives no
  /// terminal string.
  const std::vector<std::vector<int>> &yields(int NtIdx) const {
    return Yields[NtIdx];
  }

  /// All (state, termIdx) pairs whose action is Reduce with \p ProdId as
  /// the static default target — the only sites the pipeline can ever
  /// reduce this production at (ties always take the default).
  const std::vector<std::pair<int, int>> &reduceSites(int ProdId) const {
    return Sites[ProdId];
  }

  /// Productions that are nowhere the default Reduce target: statically
  /// shadowed by a longer or earlier rule at every completing site. The
  /// pipeline can never reduce these; they are reported, not hunted.
  const std::vector<int> &shadowedProductions() const { return Shadowed; }

  /// Productions whose every reduce site sits in a state the pipeline can
  /// never enter (see reachableStates) — *dynamically* shadowed: the raw
  /// automaton reaches them, the tie defaults never do. Disjoint from
  /// shadowedProductions().
  const std::vector<int> &dynamicallyShadowedProductions() const {
    return ShadowedDyn;
  }

  /// Per-state reachability under the tie defaults: a sound fixpoint
  /// refinement of raw automaton reachability. A goto edge is traversable
  /// only if some un-shadowed production of its nonterminal has a default
  /// reduce site at the state its right-hand side leads to; states fed
  /// exclusively by untraversable gotos are dead, and productions whose
  /// sites all die become shadowed in turn (iterated to fixpoint).
  /// Optimistic where exact stack context would be needed, so a state
  /// marked unreachable truly is; a state marked reachable might not be.
  const std::vector<char> &reachableStates() const { return StateReachable; }

  /// Every dynamic-tie point in the tables, sorted.
  const std::vector<std::pair<int, int>> &dynPoints() const {
    return DynPoints;
  }

  /// Finds an accepted sentence whose simulated parse reduces \p ProdId /
  /// visits \p State / consults the dyn point (\p State, \p TermIdx).
  /// Returns false when the bounded search fails. \p Out is only written
  /// on success.
  bool witnessForProduction(int ProdId, std::vector<int> &Out);
  bool witnessForState(int State, std::vector<int> &Out);
  bool witnessForDynPoint(int State, int TermIdx, std::vector<int> &Out);

  /// For dyn points whose default reduction strands on a missing goto in
  /// every reachable context, no *accepted* sentence can consult them —
  /// but a deliberately blocked parse still records the consult before it
  /// blocks (the Matcher notes the dyn point ahead of the goto lookup).
  /// Returns a token sequence whose simulation consults the point and
  /// then blocks; the caller arity-completes it into a well-formed tree
  /// and lets the pipeline's PCC fallback carry the program.
  bool blockedWitnessForDynPoint(int State, int TermIdx,
                                 std::vector<int> &Out);

  /// A derivation context for a nonterminal A: token sequences Pre, Post
  /// with start =>* Pre A Post. Embedding an expansion of A between them
  /// yields a complete sentence that *derives through* A — the top-down
  /// complement to the bottom-up automaton-path search.
  struct Context {
    std::vector<int> Pre, Post;
  };

  /// Derivation contexts for the dense nonterminal index; exposed for
  /// diagnostics.
  const std::vector<Context> &contexts(int NtIdx) const {
    return Contexts[NtIdx];
  }

  /// Bounded best-first completion of \p Prefix (which must simulate
  /// without blocking) to an accepted sentence. Exposed for the fuzzer's
  /// target-production mode.
  bool completeSentence(const std::vector<int> &Prefix,
                        std::vector<int> &Out);

  /// Extra acceptance predicate for candidate witnesses: (tokens,
  /// partial). The grammar accepts sentences no statement tree ever
  /// linearizes to (e.g. a Cvt terminal over an operand of the wrong
  /// source type — chain productions widen silently), and such a
  /// sentence is useless as a witness: the Matcher only parses real
  /// linearizations. The fuzzer installs a decode/re-linearize
  /// round-trip here; candidates that fail are skipped and the search
  /// keeps looking.
  using WitnessFilter = std::function<bool(const std::vector<int> &, bool)>;
  void setFilter(WitnessFilter F) { Filter = std::move(F); }

private:
  /// Realizes the \p Variant-th alternate path from state 0 to \p State
  /// into a token prefix (yield-expanding goto edges). Returns false when
  /// the variant space is exhausted.
  bool realizePathTo(int State, uint64_t Variant, std::vector<int> &Toks);

  /// Guided DFS from \p Cfg; appends tokens to \p Suffix. \p NodeBudget
  /// counts down across the whole search.
  bool completeFrom(LRConfig Cfg, std::vector<int> &Suffix,
                    int Depth, int &NodeBudget,
                    std::unordered_map<uint64_t, int> &Seen);

  /// Shared driver: enumerate path variants to (State [, +Term]), check
  /// \p Satisfied on the full simulated sentence.
  template <typename Pred>
  bool witnessAt(int State, int FeedTerm, Pred Satisfied,
                 std::vector<int> &Out);

  bool passes(const std::vector<int> &Toks, bool Partial) const {
    return !Filter || Filter(Toks, Partial);
  }

  const LRDriver &D;
  const Grammar &G;
  const PackedTables &T;
  WitnessFilter Filter;

  std::vector<std::vector<std::vector<int>>> Yields; ///< per dense NT idx

  std::vector<std::vector<Context>> Contexts; ///< per dense NT idx
  std::vector<std::vector<std::pair<int, int>>> Sites; ///< per prod id
  std::vector<int> Shadowed;
  std::vector<int> ShadowedDyn;
  std::vector<char> StateReachable;
  std::vector<std::pair<int, int>> DynPoints;

  /// Automaton path data: best distance from state 0 and up to three
  /// strictly-descending predecessor options per state.
  struct PredOpt {
    int Pred;
    bool IsTerm;
    int SymIdx; ///< dense term idx or dense NT idx
  };
  std::vector<int64_t> DistFromStart;
  std::vector<std::vector<PredOpt>> Preds;
  std::vector<int> DistToAccept; ///< shift-edge count heuristic

  /// Completion memo: stack hash -> accepted suffix.
  std::unordered_map<uint64_t, std::vector<int>> CompletionMemo;
};

} // namespace gg

#endif // GG_FUZZ_GRAMMARWALK_H
