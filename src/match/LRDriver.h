//===- LRDriver.h - the table-driven shift/reduce loop ----------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one LR driver over the packed SLR tables (paper section 3.3). It
/// owns the action lookup, the reduce/goto, the parse-stack depth cap and
/// the grammar's terminal maps: the node -> index TerminalMap linearize()
/// uses on the code generator's path, and the name -> index map the
/// fuzzer and tests use. advance() feeds one terminal (every
/// reduction it triggers, then the shift); finish() feeds end of input.
/// Each step is constant time: the packed lookups are a mask test and a
/// popcount (tablegen/Packing.h), and each production's length and goto
/// column are resolved once, at construction. A caller can hand the state
/// stack's storage from one parse to the next (start(Buffer)), so a parse
/// need not allocate.
/// What a parse records is up to the observer the calls are instantiated
/// with: the Matcher's builds steps, block reports and telemetry; the
/// fuzzer's record simulated parses without touching any registry.
/// Deferred reduce/reduce ties are reported to the observer (the Tie bit
/// of the packed action entry) and always take the table's static
/// default, the Reduce target.
///
//===----------------------------------------------------------------------===//

#ifndef GG_MATCH_LRDRIVER_H
#define GG_MATCH_LRDRIVER_H

#include "ir/Linearize.h"
#include "mdl/Grammar.h"
#include "tablegen/Packing.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace gg {

/// Why a parse stopped short of Accept.
enum class BlockCause : uint8_t {
  NoAction,        ///< no action for (state, lookahead): a description gap
  UnknownTerminal, ///< the input token is not a grammar terminal at all
  MissingGoto,     ///< no goto after a reduce, or a reduce deeper than the
                   ///< stack (corrupt or stale tables)
  DepthCap,        ///< the configured parse-stack depth cap was exceeded
  Budget           ///< the request's RequestBudget stopped the parse
                   ///< (reported by the Matcher's stop hook)
};

/// A parser configuration: the LR state stack and the depth it may not
/// exceed. Copyable, so a search can fork a parse.
struct LRConfig {
  /// Starts in state 0, on \p Buffer's storage: a caller that hands the
  /// stack back between parses reuses one allocation.
  explicit LRConfig(size_t DepthCap, std::vector<int> &&Buffer = {})
      : Stack(std::move(Buffer)), DepthCap(DepthCap) {
    Stack.assign(1, 0);
  }
  std::vector<int> Stack; ///< states, bottom (state 0) to top
  size_t DepthCap;
  int top() const { return Stack.back(); }
};

enum class LRStatus : uint8_t { Shifted, Accepted, Blocked };

/// Base for driver observers; every hook is a no-op. An observer derives
/// from it and hides the hooks it needs (advance() is a template on the
/// observer, so the calls resolve statically). Hooks see the configuration
/// after the event; State is the state that acted.
struct LRObserver {
  /// Called before every action; true ends the parse as Blocked.
  bool stop(const LRConfig &) { return false; }
  void shifted(const LRConfig &, int /*State*/, int /*TermIdx*/) {}
  /// Before the pop. Tie: (State, TermIdx) is a deferred reduce/reduce tie.
  void reducing(const LRConfig &, int /*State*/, int /*TermIdx*/,
                int /*Prod*/, bool /*Tie*/) {}
  /// After the goto push.
  void reduced(const LRConfig &, int /*State*/, int /*Prod*/) {}
  /// Prod is the stranded reduction for MissingGoto, -1 otherwise.
  void blocked(BlockCause, const LRConfig &, int /*TermIdx*/, int /*Prod*/) {}
};

/// The shift/reduce driver bound to one grammar and its packed tables.
/// Immutable after construction; safe to share across threads.
class LRDriver {
public:
  LRDriver(const Grammar &G, const PackedTables &T, size_t MaxStackDepth);

  /// A fresh configuration, capped at the driver's MaxStackDepth, with its
  /// stack on \p Buffer's storage.
  LRConfig start(std::vector<int> &&Buffer = {}) const {
    return LRConfig(MaxStackDepth, std::move(Buffer));
  }
  size_t maxStackDepth() const { return MaxStackDepth; }

  /// Dense index for a terminal name; -1 if the grammar lacks it. Off the
  /// code generator's path, which linearizes through termMap().
  int termIndexFor(const std::string &Name) const {
    auto It = TermIndex.find(Name);
    return It == TermIndex.end() ? -1 : It->second;
  }
  const std::string &termName(int TermIdx) const { return TermNames[TermIdx]; }
  /// The grammar's node -> terminal index map, for linearize().
  const TerminalMap &termMap() const { return Terms; }
  int eofIndex() const { return EofIdx; }
  int numTerms() const { return T.numTerms(); }

  /// Grammar symbols on the stack of \p Cfg, bottom to top.
  std::vector<std::string> viablePrefix(const LRConfig &Cfg) const;
  /// Terminals for which \p State has an action.
  std::vector<std::string> shiftableTerms(int State) const;

  const Grammar &grammar() const { return G; }
  const PackedTables &tables() const { return T; }

  /// Feeds \p TermIdx: every reduction it triggers, then the shift.
  /// Blocked leaves \p Cfg unusable.
  template <typename Obs>
  LRStatus advance(LRConfig &Cfg, int TermIdx, Obs &O) const;

  /// Feeds end of input.
  template <typename Obs> LRStatus finish(LRConfig &Cfg, Obs &O) const {
    return advance(Cfg, EofIdx, O);
  }

private:
  /// What a reduce by one production needs: how many states it pops and
  /// the goto column of its left-hand side.
  struct ReduceShape {
    uint32_t RhsLen;
    int32_t LhsNt;
  };

  const Grammar &G;
  const PackedTables &T;
  size_t MaxStackDepth;
  int EofIdx;
  std::vector<ReduceShape> Shapes; ///< per production
  std::vector<std::string> TermNames; ///< dense index -> name
  std::unordered_map<std::string, int> TermIndex;
  TerminalMap Terms;
  std::vector<SymId> EntrySym; ///< per state: symbol it is entered on
};

template <typename Obs>
LRStatus LRDriver::advance(LRConfig &Cfg, int TermIdx, Obs &O) const {
  // The top state stays in a register from one reduce to the next.
  int State = Cfg.top();
  while (true) {
    if (O.stop(Cfg))
      return LRStatus::Blocked;
    if (static_cast<unsigned>(TermIdx) >=
        static_cast<unsigned>(T.numTerms())) {
      O.blocked(BlockCause::UnknownTerminal, Cfg, TermIdx, -1);
      return LRStatus::Blocked;
    }
    // Pathological input (or an injected fault) must degrade into a
    // reportable block, not unbounded growth.
    if (Cfg.Stack.size() > Cfg.DepthCap) {
      O.blocked(BlockCause::DepthCap, Cfg, TermIdx, -1);
      return LRStatus::Blocked;
    }

    const Action A = T.actionAt(State, TermIdx);
    switch (A.Kind) {
    case ActionType::Shift:
      Cfg.Stack.push_back(A.Target);
      O.shifted(Cfg, State, TermIdx);
      return LRStatus::Shifted;

    case ActionType::Accept:
      return LRStatus::Accepted;

    case ActionType::Error:
      // A parse error on well-formed input is a syntactic block (§6.2.2):
      // the machine description cannot continue this viable prefix.
      O.blocked(BlockCause::NoAction, Cfg, TermIdx, -1);
      return LRStatus::Blocked;

    case ActionType::Reduce: {
      const int Prod = A.Target;
      O.reducing(Cfg, State, TermIdx, Prod, A.Tie);
      const ReduceShape P = Shapes[Prod];
      int GotoState = -1;
      if (Cfg.Stack.size() > P.RhsLen) {
        Cfg.Stack.resize(Cfg.Stack.size() - P.RhsLen);
        GotoState = T.gotoAt(Cfg.top(), P.LhsNt);
      }
      if (GotoState < 0) {
        O.blocked(BlockCause::MissingGoto, Cfg, TermIdx, Prod);
        return LRStatus::Blocked;
      }
      Cfg.Stack.push_back(GotoState);
      O.reduced(Cfg, State, Prod);
      State = GotoState;
      break;
    }
    }
  }
}

} // namespace gg

#endif // GG_MATCH_LRDRIVER_H
