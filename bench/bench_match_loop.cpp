//===- bench_match_loop.cpp - the matcher loop against the bare table walk -===//
//
// Section 8: "the time spent manipulating and unpacking the description
// tables". Prints nanoseconds per matcher step over the token streams of
// generateLargeProgram(seeds 1-12, 10 functions) after phase 1, for two
// loops over the same tokens:
//
//   * Matcher::matchNext, one batch per function, as the code generator
//     runs it (step records, budget poll, block reports, tally);
//   * a bare LRDriver walk whose observer only records the steps.
//
// Each figure is the minimum over repetitions. It prints time only: it is
// not a baseline, and no test gates on it.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "ir/Linearize.h"

#include <algorithm>
#include <chrono>

using namespace gg;

namespace {

/// One function's trees: their tokens in one buffer, and where each tree
/// ends in it.
struct FunctionTokens {
  std::vector<LinToken> Tokens;
  std::vector<size_t> Ends;
};

/// Linearizes every statement tree the code generator would match: each
/// statement but labels and jumps, with a Ret or call result as its
/// "r0 := e" / "x := r0" copy tree.
std::vector<FunctionTokens> tokenStreams(Program &P, NodeArena &Copies) {
  const TerminalMap &Terms = ggbench::target().matcher().driver().termMap();
  std::vector<FunctionTokens> Out;
  for (Function &F : P.Functions) {
    TransformStats Stats;
    runPhase1(P, F, TransformOptions(), Stats);
    FunctionTokens FT;
    for (Node *S : F.Body) {
      Node *Tree = S;
      switch (S->Opcode) {
      case Op::LabelDef:
      case Op::Jump:
        continue;
      case Op::Ret:
        if (!S->left())
          continue;
        Tree = Copies.bin(Op::Assign, Ty::L, Copies.dreg(RegR0, Ty::L),
                          S->left());
        break;
      case Op::CallStmt:
        if (!S->left())
          continue;
        Tree = Copies.bin(Op::Assign, S->left()->Type, S->left(),
                          Copies.dreg(RegR0, Ty::L));
        break;
      default:
        break;
      }
      linearize(Tree, Terms, FT.Tokens);
      FT.Ends.push_back(FT.Tokens.size());
    }
    Out.push_back(std::move(FT));
  }
  return Out;
}

/// The walk's only bookkeeping: one record per step.
struct StepObserver : LRObserver {
  std::vector<MatchStep> &Steps;
  int Pos = 0;
  explicit StepObserver(std::vector<MatchStep> &Steps) : Steps(Steps) {}
  void shifted(const LRConfig &, int, int) {
    Steps.push_back({MatchStep::Shift, Pos++, -1});
  }
  void reduced(const LRConfig &, int, int Prod) {
    Steps.push_back({MatchStep::Reduce, -1, Prod});
  }
};

/// Matches every function as one batch; returns the steps taken.
[[gnu::noinline]] size_t
matcherLoop(const Matcher &M, const std::vector<FunctionTokens> &Streams,
            MatchResult &R) {
  size_t Steps = 0;
  for (const FunctionTokens &FT : Streams) {
    M.begin(R);
    R.Steps.reserve(FT.Tokens.size() * 3);
    size_t Begin = 0;
    for (size_t End : FT.Ends) {
      M.matchNext(std::span<const LinToken>(FT.Tokens).subspan(Begin,
                                                               End - Begin),
                  R);
      Begin = End;
    }
    Steps += R.Steps.size();
    R.Tally.publish();
  }
  return Steps;
}

/// The same tokens through LRDriver::advance alone.
[[gnu::noinline]] size_t
bareLoop(const LRDriver &D, const std::vector<FunctionTokens> &Streams,
         std::vector<MatchStep> &Steps, std::vector<int> &Stack) {
  size_t Total = 0;
  for (const FunctionTokens &FT : Streams) {
    Steps.clear();
    Steps.reserve(FT.Tokens.size() * 3);
    size_t Begin = 0;
    for (size_t End : FT.Ends) {
      StepObserver Obs(Steps);
      LRConfig Cfg = D.start(std::move(Stack));
      LRStatus St = LRStatus::Shifted;
      for (size_t I = Begin; St == LRStatus::Shifted && I < End; ++I)
        St = D.advance(Cfg, FT.Tokens[I].Term, Obs);
      while (St == LRStatus::Shifted)
        St = D.finish(Cfg, Obs);
      Stack = std::move(Cfg.Stack);
      Begin = End;
    }
    Total += Steps.size();
  }
  return Total;
}

/// The minimum over \p Reps runs of \p Run, in nanoseconds.
template <typename Fn> double minNs(int Reps, Fn Run) {
  double Best = 1e300;
  for (int I = 0; I < Reps; ++I) {
    const auto T0 = std::chrono::steady_clock::now();
    Run();
    const auto T1 = std::chrono::steady_clock::now();
    Best = std::min(
        Best, std::chrono::duration<double, std::nano>(T1 - T0).count());
  }
  return Best;
}

} // namespace

int main(int argc, char **) {
  if (argc > 1) {
    fprintf(stderr, "usage: bench_match_loop (takes no options)\n");
    return 2;
  }
  ggbench::header("E1", "matcher loop against the bare table walk",
                  "the generator spends much of its time unpacking tables");

  std::vector<std::unique_ptr<Program>> Programs;
  NodeArena Copies;
  std::vector<FunctionTokens> Streams;
  size_t Trees = 0, Tokens = 0;
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    Programs.push_back(std::make_unique<Program>());
    ggbench::mustParse(generateLargeProgram(Seed, 10), *Programs.back());
    for (FunctionTokens &FT : tokenStreams(*Programs.back(), Copies)) {
      Trees += FT.Ends.size();
      Tokens += FT.Tokens.size();
      Streams.push_back(std::move(FT));
    }
  }

  const Matcher &M = ggbench::target().matcher();
  constexpr int Reps = 40;
  MatchResult R;
  size_t Steps = matcherLoop(M, Streams, R);
  const double MatchNs = minNs(Reps, [&] { matcherLoop(M, Streams, R); });
  std::vector<MatchStep> BareSteps;
  std::vector<int> Stack;
  const size_t WalkSteps = bareLoop(M.driver(), Streams, BareSteps, Stack);
  const double BareNs = minNs(
      Reps, [&] { bareLoop(M.driver(), Streams, BareSteps, Stack); });
  if (WalkSteps != Steps) {
    fprintf(stderr, "the walks disagree: %zu steps against %zu\n", WalkSteps,
            Steps);
    return 1;
  }

  printf("%zu trees, %zu tokens, %zu steps; minimum of %d runs\n\n", Trees,
         Tokens, Steps, Reps);
  printf("%-28s %10s %10s\n", "loop", "ms", "ns/step");
  printf("%-28s %10.3f %10.2f\n", "Matcher::matchNext", MatchNs / 1e6,
         MatchNs / static_cast<double>(Steps));
  printf("%-28s %10.3f %10.2f\n", "bare LRDriver::advance", BareNs / 1e6,
         BareNs / static_cast<double>(Steps));
  return 0;
}
