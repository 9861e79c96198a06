//===- GrammarWalk.cpp - witness search over grammar and automaton --------===//

#include "fuzz/GrammarWalk.h"

#include <algorithm>
#include <queue>

using namespace gg;

namespace {

constexpr size_t KBest = 4;       ///< yield variants kept per nonterminal
constexpr size_t MaxYieldLen = 28;
constexpr uint64_t MaxPathVariants = 64;
constexpr int CompletionNodeBudget = 20000;
constexpr int CompletionDepthCap = 48;
constexpr size_t CompletionBeam = 24;

/// Sort by (length, lexicographic), dedup, then keep *every* length-1
/// yield plus the K best others. Single-token yields are leaf terminals
/// (registers, the special constants) — each is a distinct operand shape,
/// and dropping one can make whole production families unwitnessable:
/// constant operands get stolen by con-specialized rules, so e.g. the
/// scaled-index productions only ever reduce with a register yield in the
/// pool. Deterministic.
void pruneKBest(std::vector<std::vector<int>> &Seqs) {
  std::sort(Seqs.begin(), Seqs.end(),
            [](const std::vector<int> &A, const std::vector<int> &B) {
              if (A.size() != B.size())
                return A.size() < B.size();
              return A < B;
            });
  Seqs.erase(std::unique(Seqs.begin(), Seqs.end()), Seqs.end());
  size_t Unit = 0;
  while (Unit < Seqs.size() && Seqs[Unit].size() <= 1)
    ++Unit;
  if (Seqs.size() <= Unit + KBest)
    return;
  // Among the longer yields, prefer one per distinct leading terminal
  // (shortest first): operand *shape* diversity matters more than raw
  // shortness — e.g. a conversion-rooted yield must survive a crowd of
  // equally short memory-rooted ones for the cvt productions to ever be
  // expanded.
  std::vector<std::vector<int>> Kept(Seqs.begin(), Seqs.begin() + Unit);
  std::vector<char> Used(Seqs.size() - Unit, 0);
  std::vector<int> SeenLead;
  for (size_t I = Unit; I < Seqs.size() && Kept.size() < Unit + KBest; ++I) {
    const int Lead = Seqs[I].front();
    if (std::find(SeenLead.begin(), SeenLead.end(), Lead) != SeenLead.end())
      continue;
    SeenLead.push_back(Lead);
    Used[I - Unit] = 1;
    Kept.push_back(Seqs[I]);
  }
  for (size_t I = Unit; I < Seqs.size() && Kept.size() < Unit + KBest; ++I)
    if (!Used[I - Unit])
      Kept.push_back(Seqs[I]);
  std::sort(Kept.begin(), Kept.end(),
            [](const std::vector<int> &A, const std::vector<int> &B) {
              if (A.size() != B.size())
                return A.size() < B.size();
              return A < B;
            });
  Seqs = std::move(Kept);
}

uint64_t hashStack(const std::vector<int> &Stack) {
  uint64_t H = 1469598103934665603ull; // FNV-1a
  for (int S : Stack) {
    H ^= static_cast<uint64_t>(static_cast<uint32_t>(S));
    H *= 1099511628211ull;
  }
  return H;
}

} // namespace

SimTrace GrammarWalk::simulate(const std::vector<int> &TermIdxs) const {
  SimTrace Trace;
  Trace.States.push_back(0); // the Matcher notes the entry visit of state 0
  LRConfig Cfg = D.start();
  for (int TI : TermIdxs)
    if (D.advance(Cfg, TI, Trace) != LRStatus::Shifted)
      return Trace;
  Trace.Accepted = D.finish(Cfg, Trace) == LRStatus::Accepted;
  return Trace;
}

SimTrace
GrammarWalk::simulateNames(const std::vector<std::string> &Tokens) const {
  std::vector<int> Idxs;
  Idxs.reserve(Tokens.size());
  for (const std::string &Tok : Tokens) {
    Idxs.push_back(D.termIndexFor(Tok));
    if (Idxs.back() < 0)
      return SimTrace();
  }
  return simulate(Idxs);
}

GrammarWalk::GrammarWalk(const LRDriver &D)
    : D(D), G(D.grammar()), T(D.tables()) {
  const std::vector<SymId> &NTs = G.nonterminals();
  const int NumNT = static_cast<int>(NTs.size());
  const int NumStates = T.numStates();
  const int NumTerms = T.numTerms();
  const int EofIdx = D.eofIndex();

  // --- k-best shortest yields per nonterminal (beamed fixpoint) ---------
  Yields.assign(NumNT, {});
  bool Changed = true;
  for (int Round = 0; Changed && Round < 64; ++Round) {
    Changed = false;
    for (const Production &P : G.productions()) {
      std::vector<std::vector<int>> Combos{{}};
      bool Derivable = true;
      for (SymId S : P.Rhs) {
        if (G.isTerminal(S)) {
          for (std::vector<int> &C : Combos)
            C.push_back(G.termIndex(S));
          continue;
        }
        const std::vector<std::vector<int>> &Opts = Yields[G.ntIndex(S)];
        if (Opts.empty()) {
          Derivable = false;
          break;
        }
        std::vector<std::vector<int>> Next;
        for (const std::vector<int> &C : Combos)
          for (const std::vector<int> &O : Opts) {
            if (C.size() + O.size() > MaxYieldLen)
              continue;
            std::vector<int> N2 = C;
            N2.insert(N2.end(), O.begin(), O.end());
            Next.push_back(std::move(N2));
          }
        pruneKBest(Next);
        if (Next.empty()) {
          Derivable = false;
          break;
        }
        Combos = std::move(Next);
      }
      if (!Derivable)
        continue;
      int A = G.ntIndex(P.Lhs);
      std::vector<std::vector<int>> Merged = Yields[A];
      Merged.insert(Merged.end(), Combos.begin(), Combos.end());
      pruneKBest(Merged);
      if (Merged != Yields[A]) {
        Yields[A] = std::move(Merged);
        Changed = true;
      }
    }
  }

  // --- k-best derivation contexts per nonterminal -----------------------
  // Dual fixpoint to the yields: contexts flow *down* the productions
  // (from the start symbol into each right-hand-side nonterminal), with
  // sibling symbols realized by their shortest yields.
  constexpr size_t KCtx = 8;
  constexpr size_t MaxCtxLen = 40;
  Contexts.assign(NumNT, {});
  Contexts[G.ntIndex(G.start())].push_back({});
  auto pruneCtx = [](std::vector<Context> &Cs) {
    std::sort(Cs.begin(), Cs.end(), [](const Context &A, const Context &B) {
      const size_t LA = A.Pre.size() + A.Post.size();
      const size_t LB = B.Pre.size() + B.Post.size();
      if (LA != LB)
        return LA < LB;
      if (A.Pre != B.Pre)
        return A.Pre < B.Pre;
      return A.Post < B.Post;
    });
    Cs.erase(std::unique(Cs.begin(), Cs.end(),
                         [](const Context &A, const Context &B) {
                           return A.Pre == B.Pre && A.Post == B.Post;
                         }),
             Cs.end());
    if (Cs.size() > KCtx)
      Cs.resize(KCtx);
  };
  Changed = true;
  for (int Round = 0; Changed && Round < 64; ++Round) {
    Changed = false;
    for (const Production &P : G.productions()) {
      const std::vector<Context> &Outer = Contexts[G.ntIndex(P.Lhs)];
      if (Outer.empty())
        continue;
      for (size_t I = 0; I < P.Rhs.size(); ++I) {
        if (G.isTerminal(P.Rhs[I]))
          continue;
        // Realize the siblings by their shortest yields.
        std::vector<int> Mid[2]; // before / after position I
        bool Derivable = true;
        for (size_t J = 0; J < P.Rhs.size() && Derivable; ++J) {
          if (J == I)
            continue;
          std::vector<int> &Dst = Mid[J > I];
          SymId S = P.Rhs[J];
          if (G.isTerminal(S)) {
            Dst.push_back(G.termIndex(S));
            continue;
          }
          const std::vector<std::vector<int>> &Ys = Yields[G.ntIndex(S)];
          if (Ys.empty()) {
            Derivable = false;
            break;
          }
          Dst.insert(Dst.end(), Ys.front().begin(), Ys.front().end());
        }
        if (!Derivable)
          continue;
        const int Inner = G.ntIndex(P.Rhs[I]);
        std::vector<Context> Merged = Contexts[Inner];
        for (const Context &Cx : Outer) {
          Context N;
          N.Pre = Cx.Pre;
          N.Pre.insert(N.Pre.end(), Mid[0].begin(), Mid[0].end());
          N.Post = Mid[1];
          N.Post.insert(N.Post.end(), Cx.Post.begin(), Cx.Post.end());
          if (N.Pre.size() + N.Post.size() > MaxCtxLen)
            continue;
          Merged.push_back(std::move(N));
        }
        pruneCtx(Merged);
        bool Same = Merged.size() == Contexts[Inner].size();
        for (size_t K = 0; Same && K < Merged.size(); ++K)
          Same = Merged[K].Pre == Contexts[Inner][K].Pre &&
                 Merged[K].Post == Contexts[Inner][K].Post;
        if (!Same) {
          Contexts[Inner] = std::move(Merged);
          Changed = true;
        }
      }
    }
  }

  // --- table scan: reduce sites, dyn points, automaton edges ------------
  Sites.assign(G.numProductions(), {});
  struct Edge {
    int To;
    int64_t Cost;
    bool IsTerm;
    int SymIdx;
  };
  std::vector<std::vector<Edge>> Out(NumStates);
  std::vector<bool> Accepting(NumStates, false);
  for (int S = 0; S < NumStates; ++S) {
    for (int TI = 0; TI < NumTerms; ++TI) {
      Action A = T.actionAt(S, TI);
      switch (A.Kind) {
      case ActionType::Shift:
        Out[S].push_back({A.Target, 1, true, TI});
        break;
      case ActionType::Reduce:
        Sites[A.Target].emplace_back(S, TI);
        break;
      case ActionType::Accept:
        if (TI == EofIdx)
          Accepting[S] = true;
        break;
      case ActionType::Error:
        break;
      }
      if (A.Tie)
        DynPoints.emplace_back(S, TI);
    }
    for (int NI = 0; NI < NumNT; ++NI) {
      int32_t To = T.gotoAt(S, NI);
      if (To < 0 || Yields[NI].empty())
        continue;
      Out[S].push_back(
          {To, static_cast<int64_t>(Yields[NI].front().size()), false, NI});
    }
  }
  std::sort(DynPoints.begin(), DynPoints.end());
  for (int P = 0; P < static_cast<int>(G.numProductions()); ++P)
    if (Sites[P].empty())
      Shadowed.push_back(P);

  // --- reachability refinement under the tie defaults -------------------
  // Raw automaton reachability over-approximates what the shipped
  // pipeline can do: a goto edge S --A--> D is only ever taken when some
  // production A <- rhs actually *reduces* with S underneath, and under
  // the tie defaults a reduction only happens where the tables' default
  // action says Reduce. Walk each production's right-hand side from S
  // (shift edges for terminals, goto edges for nonterminals — optimistic
  // on nested gotos, which keeps unreachability claims sound) and demand
  // a default reduce site at the state it lands in. States fed only by
  // infeasible gotos are unreachable; productions whose every site lies
  // in an unreachable state can never reduce and are *dynamically*
  // shadowed, which can kill further gotos — iterate to fixpoint.
  //
  // On the VAX tables this proves the loadcon alternative of the
  // duplicate-RHS pair reg_w <- con_w dead: at every state that gotos
  // into its one reduce state, the Const_w shift lands where the
  // reduce/reduce default folds the constant the other way.
  {
    const size_t NumProds = G.numProductions();
    std::vector<char> Dead(NumProds, 0);
    for (int P : Shadowed)
      Dead[P] = 1;
    auto rhsEndState = [&](int From, const Production &P) -> int {
      int Cur = From;
      for (SymId S : P.Rhs) {
        if (G.isTerminal(S)) {
          Action A = T.actionAt(Cur, G.termIndex(S));
          if (A.Kind != ActionType::Shift)
            return -1;
          Cur = A.Target;
        } else {
          int32_t D = T.gotoAt(Cur, G.ntIndex(S));
          if (D < 0)
            return -1;
          Cur = D;
        }
      }
      return Cur;
    };
    for (;;) {
      StateReachable.assign(NumStates, 0);
      StateReachable[0] = 1;
      std::vector<int> Work{0};
      while (!Work.empty()) {
        const int S = Work.back();
        Work.pop_back();
        for (int TI = 0; TI < NumTerms; ++TI) {
          Action A = T.actionAt(S, TI);
          if (A.Kind == ActionType::Shift && !StateReachable[A.Target]) {
            StateReachable[A.Target] = 1;
            Work.push_back(A.Target);
          }
        }
        for (int NI = 0; NI < NumNT; ++NI) {
          const int32_t D = T.gotoAt(S, NI);
          if (D < 0 || StateReachable[D])
            continue;
          bool Feasible = false;
          for (int P : G.prodsFor(NTs[NI])) {
            if (Dead[P])
              continue;
            const int R = rhsEndState(S, G.prod(P));
            if (R < 0)
              continue;
            for (const auto &[SiteState, SiteTerm] : Sites[P]) {
              (void)SiteTerm;
              if (SiteState == R) {
                Feasible = true;
                break;
              }
            }
            if (Feasible)
              break;
          }
          if (Feasible) {
            StateReachable[D] = 1;
            Work.push_back(D);
          }
        }
      }
      bool Grew = false;
      for (size_t P = 0; P < NumProds; ++P) {
        if (Dead[P])
          continue;
        bool AnyLive = false;
        for (const auto &[SiteState, SiteTerm] : Sites[P]) {
          (void)SiteTerm;
          if (StateReachable[SiteState]) {
            AnyLive = true;
            break;
          }
        }
        if (!AnyLive) {
          Dead[P] = 1;
          ShadowedDyn.push_back(static_cast<int>(P));
          Grew = true;
        }
      }
      if (!Grew)
        break;
    }
    std::sort(ShadowedDyn.begin(), ShadowedDyn.end());
  }

  // --- Dijkstra from state 0; alternate strictly-descending preds -------
  constexpr int64_t Inf = INT64_MAX / 4;
  DistFromStart.assign(NumStates, Inf);
  DistFromStart[0] = 0;
  using QE = std::pair<int64_t, int>;
  std::priority_queue<QE, std::vector<QE>, std::greater<QE>> Q;
  Q.push({0, 0});
  while (!Q.empty()) {
    auto [D, S] = Q.top();
    Q.pop();
    if (D != DistFromStart[S])
      continue;
    for (const Edge &E : Out[S])
      if (D + E.Cost < DistFromStart[E.To]) {
        DistFromStart[E.To] = D + E.Cost;
        Q.push({D + E.Cost, E.To});
      }
  }
  Preds.assign(NumStates, {});
  for (int S = 0; S < NumStates; ++S) {
    if (DistFromStart[S] >= Inf)
      continue;
    for (const Edge &E : Out[S]) {
      // Only predecessors with strictly smaller distance: path
      // reconstruction must terminate for every variant choice.
      if (DistFromStart[E.To] >= Inf || DistFromStart[S] >= DistFromStart[E.To])
        continue;
      Preds[E.To].push_back({S, E.IsTerm, E.SymIdx});
    }
  }
  for (std::vector<PredOpt> &Opts : Preds) {
    // Tight (shortest) predecessors first, then by id for determinism.
    std::sort(Opts.begin(), Opts.end(),
              [&](const PredOpt &A, const PredOpt &B) {
                if (DistFromStart[A.Pred] != DistFromStart[B.Pred])
                  return DistFromStart[A.Pred] < DistFromStart[B.Pred];
                if (A.Pred != B.Pred)
                  return A.Pred < B.Pred;
                if (A.IsTerm != B.IsTerm)
                  return A.IsTerm > B.IsTerm;
                return A.SymIdx < B.SymIdx;
              });
    if (Opts.size() > 3)
      Opts.resize(3);
  }

  // --- distance-to-accept ordering heuristic (shift edges cost 1) -------
  std::vector<std::vector<std::pair<int, int>>> RevEdges(NumStates);
  for (int S = 0; S < NumStates; ++S)
    for (const Edge &E : Out[S])
      RevEdges[E.To].emplace_back(S, E.IsTerm ? 1 : 0);
  DistToAccept.assign(NumStates, INT32_MAX / 4);
  std::priority_queue<QE, std::vector<QE>, std::greater<QE>> RQ;
  for (int S = 0; S < NumStates; ++S)
    if (Accepting[S]) {
      DistToAccept[S] = 0;
      RQ.push({0, S});
    }
  while (!RQ.empty()) {
    auto [D, S] = RQ.top();
    RQ.pop();
    if (D != DistToAccept[S])
      continue;
    for (auto [P, C] : RevEdges[S])
      if (D + C < DistToAccept[P]) {
        DistToAccept[P] = static_cast<int>(D + C);
        RQ.push({static_cast<int64_t>(DistToAccept[P]), P});
      }
  }
}

bool GrammarWalk::realizePathTo(int State, uint64_t Variant,
                                std::vector<int> &Toks) {
  Toks.clear();
  if (State < 0 || State >= static_cast<int>(DistFromStart.size()) ||
      DistFromStart[State] >= INT64_MAX / 8)
    return false;
  // Reconstruct the hop list back to state 0, spending the variant
  // counter as a mixed-radix number over predecessor choices.
  std::vector<PredOpt> Hops;
  int Cur = State;
  while (Cur != 0) {
    const std::vector<PredOpt> &Opts = Preds[Cur];
    if (Opts.empty())
      return false;
    const PredOpt &O = Opts[Variant % Opts.size()];
    Variant /= Opts.size();
    Hops.push_back(O);
    Cur = O.Pred;
  }
  std::reverse(Hops.begin(), Hops.end());
  for (const PredOpt &H : Hops) {
    if (H.IsTerm) {
      Toks.push_back(H.SymIdx);
      continue;
    }
    const std::vector<std::vector<int>> &Ys = Yields[H.SymIdx];
    if (Ys.empty())
      return false;
    const std::vector<int> &Y = Ys[Variant % Ys.size()];
    Variant /= Ys.size();
    Toks.insert(Toks.end(), Y.begin(), Y.end());
  }
  // A leftover counter means the variant space is exhausted; signalling
  // false here terminates the caller's enumeration.
  return Variant == 0;
}

bool GrammarWalk::completeFrom(LRConfig Cfg, std::vector<int> &Suffix,
                               int Depth, int &NodeBudget,
                               std::unordered_map<uint64_t, int> &Seen) {
  const uint64_t H = hashStack(Cfg.Stack);
  if (auto It = CompletionMemo.find(H); It != CompletionMemo.end()) {
    // The parser is a pure function of (stack, remaining input): any
    // accepted suffix for this stack is accepted here too.
    Suffix.insert(Suffix.end(), It->second.begin(), It->second.end());
    return true;
  }
  if (--NodeBudget < 0 || Depth > CompletionDepthCap)
    return false;
  if (!Seen.emplace(H, 1).second)
    return false;

  {
    LRConfig End = Cfg;
    CascadeGuard Guard;
    if (D.finish(End, Guard) == LRStatus::Accepted) {
      CompletionMemo.emplace(H, std::vector<int>{});
      return true;
    }
  }

  struct Cand {
    int Dist;
    int Term;
    LRConfig Cfg;
  };
  std::vector<Cand> Cands;
  for (int TI = 0; TI < D.numTerms(); ++TI) {
    if (TI == D.eofIndex())
      continue;
    LRConfig Next = Cfg;
    CascadeGuard Guard;
    if (D.advance(Next, TI, Guard) != LRStatus::Shifted)
      continue;
    Cands.push_back({DistToAccept[Next.top()], TI, std::move(Next)});
  }
  std::sort(Cands.begin(), Cands.end(), [](const Cand &A, const Cand &B) {
    if (A.Dist != B.Dist)
      return A.Dist < B.Dist;
    return A.Term < B.Term;
  });
  if (Cands.size() > CompletionBeam)
    Cands.erase(Cands.begin() + CompletionBeam, Cands.end());

  const size_t EntryLen = Suffix.size();
  for (Cand &C : Cands) {
    Suffix.push_back(C.Term);
    if (completeFrom(std::move(C.Cfg), Suffix, Depth + 1, NodeBudget, Seen)) {
      CompletionMemo.emplace(
          H, std::vector<int>(Suffix.begin() + EntryLen, Suffix.end()));
      return true;
    }
    Suffix.resize(EntryLen);
  }
  return false;
}

bool GrammarWalk::completeSentence(const std::vector<int> &Prefix,
                                   std::vector<int> &Out) {
  LRConfig Cfg = D.start();
  CascadeGuard Guard;
  for (int TI : Prefix)
    if (D.advance(Cfg, TI, Guard) != LRStatus::Shifted)
      return false;
  std::vector<int> Suffix;
  int Budget = CompletionNodeBudget;
  std::unordered_map<uint64_t, int> Seen;
  if (!completeFrom(std::move(Cfg), Suffix, 0, Budget, Seen))
    return false;
  Out = Prefix;
  Out.insert(Out.end(), Suffix.begin(), Suffix.end());
  return true;
}

template <typename Pred>
bool GrammarWalk::witnessAt(int State, int FeedTerm, Pred Satisfied,
                            std::vector<int> &Out) {
  std::vector<int> Prefix;
  for (uint64_t V = 0; V < MaxPathVariants; ++V) {
    if (!realizePathTo(State, V, Prefix))
      break; // variant space exhausted
    if (FeedTerm >= 0)
      Prefix.push_back(FeedTerm);
    std::vector<int> Full;
    if (completeSentence(Prefix, Full)) {
      SimTrace Trace = simulate(Full);
      if (Trace.Accepted && Satisfied(Trace) && passes(Full, false)) {
        Out = std::move(Full);
        return true;
      }
    }
    if (FeedTerm >= 0)
      Prefix.pop_back();
  }
  return false;
}

bool GrammarWalk::witnessForProduction(int ProdId, std::vector<int> &Out) {
  // Top-down first: expand exactly this production's right-hand side
  // inside a derivation context of its left-hand side. The parse of the
  // result usually reduces the production at the intended spot (the
  // simulation below proves it; a default tie or a specialized longer
  // rule can still steal the reduction, in which case we fall through to
  // the automaton-path search).
  const Production &P = G.prod(ProdId);
  const std::vector<Context> &Cxs = Contexts[G.ntIndex(P.Lhs)];
  for (const Context &Cx : Cxs) {
    for (uint64_t V = 0; V < 512; ++V) {
      std::vector<int> Toks = Cx.Pre;
      uint64_t Var = V;
      bool Derivable = true;
      for (SymId S : P.Rhs) {
        if (G.isTerminal(S)) {
          Toks.push_back(G.termIndex(S));
          continue;
        }
        const std::vector<std::vector<int>> &Ys = Yields[G.ntIndex(S)];
        if (Ys.empty()) {
          Derivable = false;
          break;
        }
        const std::vector<int> &Y = Ys[Var % Ys.size()];
        Var /= Ys.size();
        Toks.insert(Toks.end(), Y.begin(), Y.end());
      }
      if (!Derivable || Var != 0) // unexpandable, or variants exhausted
        break;
      Toks.insert(Toks.end(), Cx.Post.begin(), Cx.Post.end());
      SimTrace Tr = simulate(Toks);
      if (Tr.Accepted &&
          std::find(Tr.Reduces.begin(), Tr.Reduces.end(), ProdId) !=
              Tr.Reduces.end() &&
          passes(Toks, false)) {
        Out = std::move(Toks);
        return true;
      }
    }
  }

  // Order candidate sites nearest-first; a handful is almost always
  // enough, and every site is provably the only kind of place this
  // production can reduce.
  std::vector<std::pair<int, int>> Ordered = Sites[ProdId];
  std::sort(Ordered.begin(), Ordered.end(),
            [&](const std::pair<int, int> &A, const std::pair<int, int> &B) {
              if (DistFromStart[A.first] != DistFromStart[B.first])
                return DistFromStart[A.first] < DistFromStart[B.first];
              return A < B;
            });
  if (Ordered.size() > 8)
    Ordered.resize(8);
  for (auto [S, TI] : Ordered)
    if (witnessAt(S, TI,
                  [&](const SimTrace &Tr) {
                    return std::find(Tr.Reduces.begin(), Tr.Reduces.end(),
                                     ProdId) != Tr.Reduces.end();
                  },
                  Out))
      return true;
  return false;
}

bool GrammarWalk::witnessForState(int State, std::vector<int> &Out) {
  return witnessAt(State, -1,
                   [&](const SimTrace &Tr) {
                     return std::find(Tr.States.begin(), Tr.States.end(),
                                      State) != Tr.States.end();
                   },
                   Out);
}

bool GrammarWalk::witnessForDynPoint(int State, int TermIdx,
                                     std::vector<int> &Out) {
  const std::pair<int, int> Want{State, TermIdx};
  auto Consulted = [&](const SimTrace &Tr) {
    return std::find(Tr.DynConsults.begin(), Tr.DynConsults.end(), Want) !=
           Tr.DynConsults.end();
  };
  // An end-of-input consult can't be reached by feeding EOF as a shift
  // token: the sentence must simply *end* so that the final reduce
  // cascade passes \p State under the EOF lookahead. The completion
  // search tries finish() first, so a path parked right before the goto
  // into \p State ends the sentence exactly there.
  if (TermIdx == D.eofIndex())
    return witnessAt(State, -1, Consulted, Out);
  return witnessAt(State, TermIdx, Consulted, Out);
}

bool GrammarWalk::blockedWitnessForDynPoint(int State, int TermIdx,
                                            std::vector<int> &Out) {
  const std::pair<int, int> Want{State, TermIdx};
  std::vector<int> Prefix;
  for (uint64_t V = 0; V < MaxPathVariants; ++V) {
    if (!realizePathTo(State, V, Prefix))
      break;
    Prefix.push_back(TermIdx);
    SimTrace Trace = simulate(Prefix);
    if (std::find(Trace.DynConsults.begin(), Trace.DynConsults.end(), Want) !=
            Trace.DynConsults.end() &&
        passes(Prefix, true)) {
      Out = std::move(Prefix);
      return true;
    }
    Prefix.pop_back();
  }
  return false;
}
