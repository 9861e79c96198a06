//===- Matcher.cpp - instruction pattern matcher ---------------------------===//

#include "match/Matcher.h"
#include "support/Metrics.h"
#include "support/Strings.h"
#include "support/TableEvents.h"

#include <algorithm>

using namespace gg;

Matcher::Matcher(const Grammar &G, const PackedTables &T, MatcherOptions Opts)
    : D(G, T, Opts.MaxStackDepth) {}

std::string BlockReport::render() const {
  // Joins up to \p Cap names; real grammars have dozens of shiftable
  // terminals per state and the rendering must stay one line.
  auto Join = [](const std::vector<std::string> &Names, size_t Cap) {
    std::string Out;
    for (size_t I = 0; I < Names.size() && I < Cap; ++I) {
      if (I)
        Out += ' ';
      Out += Names[I];
    }
    if (Names.size() > Cap)
      Out += strf(" ...(%zu more)", Names.size() - Cap);
    return Out;
  };

  std::string Msg;
  switch (Why) {
  case Cause::UnknownTerminal:
    Msg = strf("no terminal symbol '%s' in the machine description (token %zu)",
               Lookahead.c_str(), TokenPos);
    break;
  case Cause::MissingGoto:
    Msg = strf("internal error: missing goto for '%s' in state %d "
               "(token %zu)",
               Lookahead.c_str(), State, TokenPos);
    break;
  case Cause::DepthCap:
    Msg = strf("syntactic block: parse stack depth %zu exceeded the cap in "
               "state %d at token %zu ('%s')",
               StackDepth, State, TokenPos, Lookahead.c_str());
    break;
  case Cause::NoAction:
    Msg = strf("syntactic block in state %d at token %zu ('%s')", State,
               TokenPos, Lookahead.c_str());
    break;
  case Cause::Budget:
    Msg = strf("request budget exhausted (%s) in state %d at token %zu",
               budgetStopName(BudgetWhy), State, TokenPos);
    break;
  }
  if (!ViablePrefix.empty())
    Msg += strf("; viable prefix: %s", Join(ViablePrefix, 12).c_str());
  if (!ShiftableTerms.empty())
    Msg += strf("; shiftable here: %s", Join(ShiftableTerms, 8).c_str());
  return Msg;
}

namespace {

/// Everything matchNext() does beyond the parse: records the MatchStep
/// sequence, polls the request budget, builds the BlockReport, and charges
/// the table events and the result's tally.
struct MatchObserver : LRObserver {
  MatchObserver(const LRDriver &D, std::span<const LinToken> Input,
                MatchResult &R)
      : D(D), Input(Input), Budget(R.Batch.Budget), R(R),
        StepBase(R.Steps.size()) {}

  /// Steps of this tree so far.
  size_t steps() const { return R.Steps.size() - StepBase; }

  /// Cooperative quarantine poll (docs/server.md): cancellation, the
  /// wall-clock deadline and the step budget, every BudgetPollMask+1 steps
  /// so a runaway parse aborts promptly without putting a clock read on
  /// every iteration.
  bool stop(const LRConfig &Cfg) {
    if (!Budget || (steps() & BudgetPollMask) != 0 ||
        !Budget->shouldStop(steps()))
      return false;
    ++R.Tally.BudgetStops;
    blocked(BlockCause::Budget, Cfg, -1, -1);
    return true;
  }

  void shifted(const LRConfig &Cfg, int State, int) {
    ++Shifts;
    R.Steps.push_back({MatchStep::Shift, static_cast<int>(Pos), -1});
    MaxDepth = std::max(MaxDepth, Cfg.Stack.size());
    ++Pos;
    if (Armed)
      stepped(Cfg, State, -1);
  }

  void reducing(const LRConfig &, int State, int TermIdx, int Prod,
                bool Tie) {
    ++Reduces;
    Ties += Tie;
    if (!Armed)
      return;
    Ev.noteReduce(Prod);
    TieTs = LastTs;
    if (Tie) {
      // A longest-rule tie the table constructor deferred to match time
      // (§3.2); its share of the time lands on the dyn point, the rest of
      // the reduce stays with the production and state in reduced().
      if (Profiling)
        TieTs = TableEventRegistry::now(ProfTB);
      Ev.noteTie(State, TermIdx, Prod, TieTs - LastTs);
    }
  }

  void reduced(const LRConfig &Cfg, int State, int Prod) {
    R.Steps.push_back({MatchStep::Reduce, -1, Prod});
    MaxDepth = std::max(MaxDepth, Cfg.Stack.size());
    if (Armed)
      stepped(Cfg, State, Prod);
  }

  /// Counts a step that acted in \p State and pushed Cfg.top(); profiling
  /// charges it the time since the previous step, and a reduce (\p Prod)
  /// the time since its tie charge.
  void stepped(const LRConfig &Cfg, int State, int Prod) {
    Top = Cfg.top();
    uint64_t Ticks = 0;
    if (Profiling) {
      uint64_t Now = TableEventRegistry::now(ProfTB);
      if (Prod >= 0)
        Ev.chargeReduce(Prod, Now - TieTs);
      Ticks = Now - LastTs;
      LastTs = Now;
    }
    Ev.noteStep(State, Ticks);
  }

  /// Fails the match with a structured report; Error is the rendering of
  /// Block so string-matching consumers keep working.
  void blocked(BlockCause Why, const LRConfig &Cfg, int, int Prod) {
    if (Why == BlockCause::DepthCap)
      ++R.Tally.CapHits;
    BlockReport B;
    B.Why = Why;
    if (Why == BlockCause::Budget)
      B.BudgetWhy = Budget->Stopped.load(std::memory_order_relaxed);
    B.State = Cfg.top();
    B.TokenPos = Pos;
    B.StackDepth = Cfg.Stack.size();
    // A missing goto strands the reduced nonterminal: corrupt or stale
    // tables, not a description gap.
    B.Lookahead = Why == BlockCause::MissingGoto
                      ? D.grammar().symbolName(D.grammar().prod(Prod).Lhs)
                  : Pos < Input.size() ? lookaheadName(Input[Pos])
                                       : D.termName(D.eofIndex());
    B.ViablePrefix = D.viablePrefix(Cfg);
    B.ShiftableTerms = D.shiftableTerms(B.State);
    R.Error = B.render();
    R.Block = std::move(B);
  }

  /// A token's terminal name; a node the grammar has no terminal for is
  /// named by the linearizer's rules (an UnknownTerminal block).
  std::string lookaheadName(const LinToken &Tok) const {
    if (Tok.Term >= 0)
      return D.termName(Tok.Term);
    return Tok.N ? terminalName(Tok.N) : "?";
  }

  /// Per-tree bookkeeping, on every exit path: the tree's counts go to
  /// the result's tally and its steps to the request budget.
  void finish() {
    MatchTally &T = R.Tally;
    ++T.Trees;
    T.Shifts += Shifts;
    T.Reduces += Reduces;
    T.Ties += Ties;
    T.Blocks += !R.Ok;
    T.Depth.record(MaxDepth);
    T.Tokens.record(Input.size());
    T.Steps.record(steps());
    if (Budget)
      Budget->StepsUsed.fetch_add(steps(), std::memory_order_relaxed);
    if (Armed)
      Ev.noteFinalState(Top);
  }

  const LRDriver &D;
  std::span<const LinToken> Input;
  RequestBudget *Budget;
  MatchResult &R;
  const size_t StepBase; ///< R.Steps.size() before this tree
  size_t Pos = 0;
  size_t MaxDepth = 1;
  uint64_t Shifts = 0, Reduces = 0, Ties = 0;

  // Table events are read once per batch (Matcher::begin). Armed, every
  // step counts its acting state, every reduce its production, and the
  // tree its final state (support/TableEvents.h). Profiling also charges
  // each step's timestamp delta (since the previous step's end, or the
  // tree's start) to the acting state — a complete projection: the sum
  // over states is the whole matcher loop. Reduce steps additionally
  // charge the production, and a deferred reduce/reduce tie charges its
  // share to the (state, terminal) dyn point.
  TableEventRegistry &Ev = tableEvents();
  const bool Armed = R.Batch.Armed;
  const bool Profiling = R.Batch.Profiling;
  const ProfileTimebase ProfTB = R.Batch.Timebase;
  uint64_t LastTs = Profiling ? TableEventRegistry::now(ProfTB) : 0;
  int Top = 0; ///< the state the last step pushed
  uint64_t TieTs = 0; ///< end of the current reduce's tie charge
};

} // namespace

void MatchTally::publish() {
  if (!Trees)
    return;
  publishMetrics<MetricWhen::Tally>(*this);
  *this = MatchTally();
}

void Matcher::begin(MatchResult &R, RequestBudget *Budget) const {
  R.Steps.clear();
  MatchBatch &B = R.Batch;
  B.Budget = Budget;
  // The request's effective stack cap: the budget may only tighten the
  // matcher's own configured cap, never widen it.
  B.DepthCap = D.maxStackDepth();
  if (Budget && Budget->MaxStackDepth && Budget->MaxStackDepth < B.DepthCap)
    B.DepthCap = Budget->MaxStackDepth;
  const TableEventRegistry &Ev = tableEvents();
  B.Armed = Ev.armed();
  B.Profiling = B.Armed && Ev.profiling();
  B.Timebase = B.Profiling ? Ev.timebase() : ProfileTimebase::Cycles;
}

void Matcher::matchNext(std::span<const LinToken> Input,
                        MatchResult &R) const {
  R.Ok = false;
  R.Error.clear();
  R.Block.reset();
  MatchObserver Obs(D, Input, R);
  LRConfig Cfg(R.Batch.DepthCap, std::move(R.StateStack));

  LRStatus St = LRStatus::Shifted;
  while (St == LRStatus::Shifted && Obs.Pos < Input.size())
    St = D.advance(Cfg, Input[Obs.Pos].Term, Obs);
  while (St == LRStatus::Shifted)
    St = D.finish(Cfg, Obs);
  R.Ok = St == LRStatus::Accepted;
  R.StateStack = std::move(Cfg.Stack);
  Obs.finish();
}

std::string gg::renderTrace(const Grammar &G, std::span<const LinToken> Input,
                            std::span<const MatchStep> Steps,
                            const std::string &Error, const Interner &Syms) {
  std::string Out;
  for (const MatchStep &S : Steps) {
    if (S.Kind == MatchStep::Shift) {
      const LinToken &Tok = Input[S.TokenIndex];
      Out += strf("shift   %s",
                  G.symbolName(G.terminals()[Tok.Term]).c_str());
      if (Tok.N) {
        switch (Tok.N->Opcode) {
        case Op::Const:
          Out += strf(" (%lld)", static_cast<long long>(Tok.N->Value));
          break;
        case Op::Name:
        case Op::Gaddr:
        case Op::Label:
          Out += strf(" (%s)", Syms.text(Tok.N->Sym).c_str());
          break;
        case Op::Dreg:
          Out += strf(" (%s)", regName(Tok.N->Reg));
          break;
        case Op::Cmp:
          Out += strf(" (%s)", condName(Tok.N->CC));
          break;
        default:
          break;
        }
      }
      Out += '\n';
      continue;
    }
    const Production &P = G.prod(S.ProdId);
    Out += strf("reduce  %s <-", G.symbolName(P.Lhs).c_str());
    for (SymId Sym : P.Rhs)
      Out += strf(" %s", G.symbolName(Sym).c_str());
    Out += strf("   [%s%s%s]", actionKindName(P.Kind),
                P.SemTag.empty() ? "" : " ", P.SemTag.c_str());
    Out += '\n';
  }
  Out += Error.empty() ? "accept\n" : strf("error: %s\n", Error.c_str());
  return Out;
}
