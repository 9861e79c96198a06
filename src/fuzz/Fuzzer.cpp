//===- Fuzzer.cpp - grammar-aware differential fuzzing driver -------------===//

#include "fuzz/Fuzzer.h"
#include "cg/CodeGenerator.h"
#include "ir/Interp.h"
#include "ir/Linearize.h"
#include "match/Matcher.h"
#include "pcc/PccCodeGen.h"
#include "support/Strings.h"
#include "support/ThreadPool.h"
#include "vaxsim/Simulator.h"

#include <algorithm>
#include <optional>
#include <set>

using namespace gg;

namespace {

/// Per-program seed: decorrelates neighboring programs while staying a
/// pure function of (run seed, program index).
uint64_t programSeed(uint64_t Seed, size_t Index) {
  uint64_t S = Seed ^ (0x9E3779B97F4A7C15ull * (Index + 1));
  S ^= S << 13;
  S ^= S >> 7;
  S ^= S << 17;
  return S ? S : 1;
}

/// Clips oracle output for failure messages: full dumps belong in the
/// reproducer, not the verdict line.
std::string clip(const std::string &S) {
  if (S.size() <= 160)
    return S;
  return S.substr(0, 160) + strf("... (%zu bytes)", S.size());
}

std::string describeMismatch(const char *Who, const InterpResult &Ref,
                             const std::string &Out, int64_t Ret) {
  if (Out != Ref.Output) {
    size_t I = 0;
    while (I < Out.size() && I < Ref.Output.size() &&
           Out[I] == Ref.Output[I])
      ++I;
    return strf("%s/interp output mismatch at byte %zu:\n  interp: %s\n  "
                "%s: %s",
                Who, I, clip(Ref.Output).c_str(), Who, clip(Out).c_str());
  }
  if (Ret != Ref.ReturnValue)
    return strf("%s/interp return mismatch: interp %lld, %s %lld", Who,
                static_cast<long long>(Ref.ReturnValue), Who,
                static_cast<long long>(Ret));
  return "";
}

/// Decodes \p Toks into a statement tree (\p Partial fills open operand
/// slots) and returns the tree's whole linearization, if it starts with
/// exactly \p Toks: the candidate is tree-faithful.
std::optional<std::vector<std::string>>
relinearize(const LRDriver &D, TreeSynth &Synth, const std::vector<int> &Toks,
            bool Partial) {
  std::vector<std::string> Names;
  Names.reserve(Toks.size());
  for (int I : Toks)
    Names.push_back(D.termName(I));
  Program Scratch;
  std::string Err;
  Node *Tree = Synth.decode(Scratch, Names, Partial, Err);
  if (!Tree)
    return std::nullopt;
  std::vector<std::string> Lin = terminalNames(Tree);
  if (Lin.size() < Names.size() ||
      !std::equal(Names.begin(), Names.end(), Lin.begin()))
    return std::nullopt;
  return Lin;
}

} // namespace

Fuzzer::Fuzzer(const VaxTarget &Target)
    : Target(Target), Walk(Target.matcher().driver()) {
  // Witness candidates must be tree-faithful: decodable into a statement
  // tree whose re-linearization reproduces the candidate tokens. The
  // grammar alone is looser than the tree language (chain productions
  // accept e.g. a byte constant under a word-source Cvt terminal), and
  // the Matcher only ever parses real linearizations.
  Walk.setFilter([this](const std::vector<int> &Toks, bool Partial) {
    return relinearize(Walk.driver(), Synth, Toks, Partial).has_value();
  });
}

std::vector<SynthStmt> Fuzzer::plan(const FuzzOptions &Opts,
                                    FuzzPlanStats &PS) {
  const Grammar &G = Target.grammar();
  const PackedTables &T = Target.packed();
  const size_t NumProds = G.numProductions();
  PS = FuzzPlanStats{};
  PS.Productions = NumProds;
  PS.States = static_cast<size_t>(T.numStates());
  PS.DynPoints = Walk.dynPoints().size();
  PS.ShadowedProductions = Walk.shadowedProductions();
  PS.DynShadowedProductions = Walk.dynamicallyShadowedProductions();
  const std::vector<char> &Reachable = Walk.reachableStates();
  for (size_t S = 0; S < PS.States; ++S)
    if (!Reachable[S])
      PS.UnreachableStates.push_back(static_cast<int>(S));
  for (const auto &D : Walk.dynPoints())
    if (!Reachable[D.first])
      PS.UnreachableDynPoints.push_back(D);

  std::vector<char> ProdCov(NumProds, 0);
  std::vector<char> StateCov(PS.States, 0);
  std::set<std::pair<int, int>> DynCov;
  std::vector<SynthStmt> Out;

  auto absorb = [&](const SimTrace &Tr) {
    for (int P : Tr.Reduces)
      if (P >= 0 && P < static_cast<int>(NumProds))
        ProdCov[P] = 1;
    for (int S : Tr.States)
      if (S >= 0 && S < static_cast<int>(PS.States))
        StateCov[S] = 1;
    for (const auto &D : Tr.DynConsults)
      DynCov.insert(D);
  };
  // Every witness is arity-completed into a whole statement tree before
  // anything is recorded: coverage and the blocked/accepted verdict must
  // be measured on the linearization the Matcher will actually parse,
  // and filler leaves can carry a blocked prefix past its block point.
  // A witness whose tokens would overrun a complete tree can never be a
  // statement — the decode rejects it and the target stays uncovered.
  auto add = [&](const std::vector<int> &Toks, bool Partial) -> bool {
    std::optional<std::vector<std::string>> Lin =
        relinearize(Walk.driver(), Synth, Toks, Partial);
    if (!Lin)
      return false;
    SynthStmt S;
    S.Tokens = std::move(*Lin);
    SimTrace Tr = Walk.simulateNames(S.Tokens);
    absorb(Tr);
    S.ExpectBlocked = !Tr.Accepted;
    Out.push_back(std::move(S));
    return true;
  };

  std::vector<char> IsShadowed(NumProds, 0);
  for (int P : PS.ShadowedProductions)
    IsShadowed[P] = 1;
  for (int P : PS.DynShadowedProductions)
    IsShadowed[P] = 1;

  if (Opts.TargetProduction >= 0) {
    // Target-production mode: a handful of witnesses all reducing the
    // requested production, nothing else planned.
    if (Opts.TargetProduction < static_cast<int>(NumProds) &&
        !IsShadowed[Opts.TargetProduction]) {
      std::vector<int> W;
      if (!Walk.witnessForProduction(Opts.TargetProduction, W) ||
          !add(W, false))
        PS.UnwitnessedProductions.push_back(Opts.TargetProduction);
    } else {
      PS.UnwitnessedProductions.push_back(Opts.TargetProduction);
    }
  } else {
    for (size_t P = 0; P < NumProds; ++P) {
      if (IsShadowed[P] || ProdCov[P])
        continue;
      std::vector<int> W;
      if (Walk.witnessForProduction(static_cast<int>(P), W))
        add(W, false);
    }
    for (size_t S = 0; S < PS.States; ++S) {
      if (StateCov[S] || !Reachable[S])
        continue;
      std::vector<int> W;
      if (Walk.witnessForState(static_cast<int>(S), W))
        add(W, false);
    }
    for (const auto &[S, TI] : Walk.dynPoints()) {
      if (DynCov.count({S, TI}) || !Reachable[S])
        continue;
      std::vector<int> W;
      if (Walk.witnessForDynPoint(S, TI, W))
        add(W, false);
      else if (Walk.blockedWitnessForDynPoint(S, TI, W))
        add(W, true);
    }

    // Splice sweep: whatever the path search missed is hunted from the
    // corpus itself. Every prefix cut of every planned statement parks
    // the parser in some configuration, and advancing one terminal from
    // a parked configuration discovers every consult a single extra
    // token can make — including mid-cascade dyn points no realized
    // automaton path survives to. Cuts with open operand slots extend
    // into decodable (blocked-witness) statements. After each advance an
    // end-of-input probe on a copy catches the consults only the final
    // reduce cascade makes. A point hit solely past the end of a
    // complete statement (extra token at zero pending) or solely at
    // end-of-input with slots still open (EOF probe at nonzero pending)
    // is consultable by no whole-statement linearization — stranded.
    std::set<std::pair<int, int>> Remaining;
    for (const auto &D : Walk.dynPoints())
      if (!DynCov.count(D) && Reachable[D.first])
        Remaining.insert(D);
    std::set<std::pair<int, int>> StrandedHits;
    const LRDriver &LR = Walk.driver();
    std::set<std::vector<int>> SeenStacks;
    const size_t CorpusEnd = Out.size(); // splices are not re-spliced
    for (size_t WI = 0; WI < CorpusEnd && !Remaining.empty(); ++WI) {
      const std::vector<std::string> Names = Out[WI].Tokens;
      std::vector<int> Idx;
      Idx.reserve(Names.size());
      for (const std::string &N : Names)
        Idx.push_back(LR.termIndexFor(N));
      LRConfig Cfg = LR.start();
      CascadeGuard Guard;
      std::vector<std::string> Prefix;
      for (size_t K = 0; K < Idx.size() && !Remaining.empty(); ++K) {
        if (LR.advance(Cfg, Idx[K], Guard) != LRStatus::Shifted)
          break;
        Prefix.push_back(Names[K]);
        if (!SeenStacks.insert(Cfg.Stack).second)
          continue;
        const int Pending = Synth.pendingAfter(Prefix);
        for (int TI = 0; TI < LR.numTerms() && !Remaining.empty(); ++TI) {
          if (TI == LR.eofIndex())
            continue;
          LRConfig C2 = Cfg;
          SimTrace Tr;
          const bool Advanced = LR.advance(C2, TI, Tr) == LRStatus::Shifted;
          bool Hit = false;
          for (const auto &D : Tr.DynConsults)
            Hit = Hit || Remaining.count(D);
          // End-of-input probe: consults made under the $end lookahead
          // only exist in the final reduce cascade, which the advance
          // above never runs. TokPending tells which kind of sentence
          // the probe models — a finished statement (a real witness) or
          // a truncated one no tree linearizes to (strand evidence).
          SimTrace FTr;
          bool FinHit = false;
          if (Advanced) {
            LRConfig C3 = C2;
            LR.finish(C3, FTr);
            for (const auto &D : FTr.DynConsults)
              FinHit = FinHit || Remaining.count(D);
          }
          if (!Hit && !FinHit)
            continue;
          std::vector<int> W(Idx.begin(), Idx.begin() + K + 1);
          W.push_back(TI);
          std::vector<std::string> ExtNames = Prefix;
          ExtNames.push_back(LR.termName(TI));
          const int TokPending = Synth.pendingAfter(ExtNames);
          bool Claimed = false;
          if (TokPending == 0) {
            // The extra token *finishes* the tree: a whole-statement
            // witness whose full replay in add() absorbs the advance
            // and cascade consults alike.
            Claimed = add(W, false);
          } else if (Pending > 0 && Hit) {
            // Open slots remain and the consult fires while tokens
            // still flow: a decodable blocked witness carries it.
            Claimed = add(W, true);
          }
          if (Claimed)
            for (auto It = Remaining.begin(); It != Remaining.end();)
              It = DynCov.count(*It) ? Remaining.erase(It) : ++It;
          if (Pending == 0 && Hit)
            for (const auto &D : Tr.DynConsults)
              if (Remaining.count(D))
                StrandedHits.insert(D); // extra-token mode
          if (TokPending != 0 && FinHit)
            for (const auto &D : FTr.DynConsults)
              if (Remaining.count(D))
                StrandedHits.insert(D); // early-EOF mode
        }
      }
    }
    for (const auto &D : StrandedHits)
      if (Remaining.count(D))
        PS.StrandedDynPoints.push_back(D);

    // Gap lists are computed from the *final* coverage sets: a target
    // whose direct search failed usually gets covered incidentally by a
    // later witness, and only what nothing covered is a real gap.
    std::set<std::pair<int, int>> IsStranded(PS.StrandedDynPoints.begin(),
                                             PS.StrandedDynPoints.end());
    for (size_t P = 0; P < NumProds; ++P)
      if (!IsShadowed[P] && !ProdCov[P])
        PS.UnwitnessedProductions.push_back(static_cast<int>(P));
    for (size_t S = 0; S < PS.States; ++S)
      if (!StateCov[S] && Reachable[S])
        PS.UnwitnessedStates.push_back(static_cast<int>(S));
    for (const auto &D : Walk.dynPoints())
      if (!DynCov.count(D) && !IsStranded.count(D) && Reachable[D.first])
        PS.UnwitnessedDynPoints.push_back(D);
  }

  for (const SynthStmt &S : Out)
    if (S.ExpectBlocked)
      ++PS.BlockedWitnesses;
  PS.WitnessedProductions =
      static_cast<size_t>(std::count(ProdCov.begin(), ProdCov.end(), 1));
  PS.WitnessedStates =
      static_cast<size_t>(std::count(StateCov.begin(), StateCov.end(), 1));
  PS.WitnessedDynPoints = DynCov.size();
  return Out;
}

std::string Fuzzer::verdict(const std::vector<SynthStmt> &Stmts,
                            uint64_t Seed, SynthReport &Rep) {
  std::string Err;

  // Oracle 1: the IR interpreter — semantic ground truth. Each oracle
  // gets its own freshly synthesized program (identical by determinism)
  // so no backend sees another's tree mutations.
  Program PI;
  Rep = SynthReport{};
  if (!Synth.buildProgram(Stmts, Seed, PI, Rep, Err))
    return "synth: " + Err;
  InterpResult Ref = interpret(PI);
  if (!Ref.Ok)
    return "interp: " + Ref.Error;

  // Oracle 2: the table-driven backend on raw trees + the VAX simulator.
  Program PG;
  SynthReport RG;
  if (!Synth.buildProgram(Stmts, Seed, PG, RG, Err))
    return "synth(gg): " + Err;
  CodeGenOptions GOpts;
  GOpts.Transform.RawTrees = true;
  std::string GGAsm;
  GGCodeGenerator GG(Target, GOpts);
  if (!GG.compile(PG, GGAsm, Err))
    return "gg compile: " + Err;
  if (GG.stats().BlockedTrees != RG.ExpectedBlocks)
    return strf("blocked-tree prediction broken: matcher blocked %zu "
                "tree(s), simulator predicted %zu",
                GG.stats().BlockedTrees, RG.ExpectedBlocks);
  SimResult GGRun = assembleAndRun(GGAsm);
  if (!GGRun.Ok)
    return "gg sim: " + GGRun.Error;
  if (std::string M =
          describeMismatch("gg", Ref, GGRun.Output, GGRun.ReturnValue);
      !M.empty())
    return M;

  // Oracle 3: the hand-coded baseline + the VAX simulator. Skipped for
  // batches holding probed-incompilable statements (embedded-assignment
  // shapes the baseline refuses by design): those run as two-oracle
  // programs, interpreter vs table-driven backend.
  for (const SynthStmt &S : Stmts)
    if (!S.PccOk)
      return "";
  Program PP;
  SynthReport RP;
  if (!Synth.buildProgram(Stmts, Seed, PP, RP, Err))
    return "synth(pcc): " + Err;
  PccCodeGenerator Pcc;
  std::string PccAsm;
  if (!Pcc.compile(PP, PccAsm, Err))
    return "pcc compile: " + Err;
  SimResult PccRun = assembleAndRun(PccAsm);
  if (!PccRun.Ok)
    return "pcc sim: " + PccRun.Error;
  if (std::string M =
          describeMismatch("pcc", Ref, PccRun.Output, PccRun.ReturnValue);
      !M.empty())
    return M;
  return "";
}

bool Fuzzer::pccCanCompile(const SynthStmt &S, uint64_t Seed) {
  Program P;
  SynthReport Rep;
  std::string Err;
  std::vector<SynthStmt> One{S};
  if (!Synth.buildProgram(One, Seed, P, Rep, Err))
    return false;
  PccCodeGenerator Pcc;
  std::string Asm;
  return Pcc.compile(P, Asm, Err);
}

std::string Fuzzer::parseOnlyVerdict(const SynthStmt &S, uint64_t) {
  Program P;
  std::string Err;
  Node *Tree = Synth.decode(P, S.Tokens, /*AllowPartial=*/true, Err);
  if (!Tree)
    return "parse-only decode: " + Err;
  const MatchResult MR = Target.matcher().match(
      linearize(Tree, Target.matcher().driver().termMap()));
  if (MR.Ok)
    return strf("parse-only: the real matcher accepted a witness the "
                "table simulator predicted would block: %s",
                printLinear(Tree, P.Syms).c_str());
  if (MR.Block && MR.Block->Why != BlockReport::Cause::NoAction)
    return strf("parse-only: matcher blocked for the wrong reason "
                "(expected a description gap): %s",
                MR.Error.c_str());
  return "";
}

std::vector<SynthStmt> Fuzzer::shrink(const std::vector<SynthStmt> &Stmts,
                                      uint64_t Seed) {
  std::vector<SynthStmt> Cur = Stmts;
  SynthReport Rep;
  if (verdict(Cur, Seed, Rep).empty())
    return Cur; // not reproducible in isolation; keep everything
  size_t Budget = 200;
  for (size_t Win = std::max<size_t>(1, Cur.size() / 2); Win >= 1;
       Win = Win / 2) {
    bool Progress = false;
    size_t Start = 0;
    while (Start < Cur.size() && Budget > 0) {
      if (Cur.size() <= 1)
        break;
      const size_t End = std::min(Cur.size(), Start + Win);
      std::vector<SynthStmt> Cand;
      Cand.reserve(Cur.size() - (End - Start));
      Cand.insert(Cand.end(), Cur.begin(), Cur.begin() + Start);
      Cand.insert(Cand.end(), Cur.begin() + End, Cur.end());
      if (Cand.empty()) {
        Start += Win;
        continue;
      }
      --Budget;
      if (!verdict(Cand, Seed, Rep).empty()) {
        Cur = std::move(Cand); // still fails without the window: keep cut
        Progress = true;       // retry the same Start against new content
      } else {
        Start += Win;
      }
    }
    if (Win == 1 && !Progress)
      break;
    if (Budget == 0)
      break;
  }
  return Cur;
}

FuzzResult Fuzzer::run(const FuzzOptions &Opts) {
  FuzzResult R;
  std::vector<SynthStmt> Corpus = plan(Opts, R.Plan);

  ParallelOptions PO;
  PO.Threads = Opts.Threads;

  // Oracle bucketing: probe every witness against the real baseline, then
  // route it to the strongest oracle set that can judge it. The grammar
  // accepts shapes no backend should compile (assignments into constants,
  // Label operands) — demanding a three-way run for those would report
  // the baseline's correct refusal as a differential failure.
  parallelFor(Corpus.size(), PO, [&](size_t I) {
    Corpus[I].PccOk = pccCanCompile(Corpus[I], Opts.Seed);
  });
  std::vector<SynthStmt> Runnable, Exempt, ParseOnly;
  for (SynthStmt &S : Corpus) {
    if (S.PccOk)
      Runnable.push_back(std::move(S)); // three oracles
    else if (S.ExpectBlocked)
      ParseOnly.push_back(std::move(S)); // real matcher must block
    else
      Exempt.push_back(std::move(S)); // interp + table-driven backend
  }
  R.ParseOnlyStatements = ParseOnly.size();
  R.PccExemptStatements = Exempt.size();

  const size_t Per = std::max<size_t>(1, Opts.StmtsPerProgram);
  std::vector<std::vector<SynthStmt>> Batches;
  auto appendBatches = [&](std::vector<SynthStmt> &List) {
    const size_t N = List.empty() ? 0 : (List.size() + Per - 1) / Per;
    for (size_t I = 0; I < N; ++I) {
      const size_t Begin = I * Per;
      const size_t End = std::min(List.size(), Begin + Per);
      Batches.emplace_back(std::make_move_iterator(List.begin() + Begin),
                           std::make_move_iterator(List.begin() + End));
    }
  };
  appendBatches(Runnable);
  appendBatches(Exempt);
  if (Opts.MaxPrograms && Batches.size() > Opts.MaxPrograms) {
    // The last allowed program absorbs the overflow so a MaxPrograms cap
    // never silently drops coverage targets. (If the merge pulls in an
    // exempt statement, the whole batch downgrades to two oracles.)
    for (size_t I = Opts.MaxPrograms; I < Batches.size(); ++I)
      for (SynthStmt &S : Batches[I])
        Batches[Opts.MaxPrograms - 1].push_back(std::move(S));
    Batches.resize(Opts.MaxPrograms);
  }
  const size_t NumProg = Batches.size();

  std::vector<std::string> Details(NumProg);
  std::vector<SynthReport> Reps(NumProg);
  parallelFor(NumProg, PO, [&](size_t I) {
    Details[I] = verdict(Batches[I], programSeed(Opts.Seed, I), Reps[I]);
  });

  // The compile-contract leg: witnesses no backend can compile still pin
  // the matcher's behavior at their toxic dyn points.
  std::vector<std::string> ParseDetails(ParseOnly.size());
  parallelFor(ParseOnly.size(), PO, [&](size_t I) {
    ParseDetails[I] = parseOnlyVerdict(ParseOnly[I], Opts.Seed);
  });
  for (size_t I = 0; I < ParseOnly.size(); ++I) {
    if (ParseDetails[I].empty())
      continue;
    FuzzFailure F;
    F.ProgramIndex = NumProg + I;
    F.Seed = Opts.Seed;
    F.Detail = ParseDetails[I];
    F.Reproducer = {ParseOnly[I]};
    R.Failures.push_back(std::move(F));
  }

  R.Programs = NumProg;
  for (size_t I = 0; I < NumProg; ++I) {
    R.Statements += Reps[I].Statements;
    R.Live += Reps[I].Live;
    R.Guarded += Reps[I].Guarded;
    R.ExpectedBlocks += Reps[I].ExpectedBlocks;
    if (Details[I].empty())
      continue;
    FuzzFailure F;
    F.ProgramIndex = I;
    F.Seed = programSeed(Opts.Seed, I);
    F.Detail = Details[I];
    F.Reproducer = Opts.Shrink ? shrink(Batches[I], F.Seed) : Batches[I];
    R.Failures.push_back(std::move(F));
  }
  return R;
}
