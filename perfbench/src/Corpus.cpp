//===- Corpus.cpp - seeded inputs, the oracle gate, timed compiles --------===//

#include "Bench.h"

#include "frontend/Parser.h"
#include "ir/Interp.h"
#include "pcc/PccCodeGen.h"
#include "vaxsim/Simulator.h"
#include "workload/ProgramGen.h"

#include <algorithm>
#include <atomic>
#include <thread>

using namespace pb;

namespace {

/// splitmix64: derives the generator seeds from the workload seed.
uint64_t mix(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

/// Interpreter statement budget for a corpus program. The gate simulates
/// every program on both backends, so long-running programs are redrawn;
/// compile cost, which is what the benchmark times, does not depend on
/// how long a program runs. Large programs loop over their arrays, and
/// about a third of them finish within this budget.
uint64_t maxInterpSteps(Shape S) {
  return S == Shape::Large ? 4'000'000 : 200'000;
}

/// Simulator budget: generous against the interpreter's (one IR
/// statement is a handful of VAX instructions).
constexpr uint64_t MaxSimSteps = 400'000'000;

/// Runs \p Fn(I) for every I in [0, N) on up to four threads. Set-up
/// only: the oracles are slow, and the measured phases never overlap it.
template <typename FnT> void forEachParallel(size_t N, FnT Fn) {
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < N;)
      Fn(I);
  };
  unsigned Threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < Threads; ++T)
    Pool.emplace_back(Work);
  Work();
  for (std::thread &T : Pool)
    T.join();
}

} // namespace

Corpus pb::makeCorpus(Shape S, size_t Count, uint64_t Seed) {
  Corpus C;
  C.Kind = S;
  uint64_t State = Seed * 2 + (S == Shape::Large ? 1 : 0);
  // Candidates are drawn in a fixed order and judged in parallel batches;
  // the first Count that pass, in draw order, make the corpus.
  constexpr size_t Batch = 8;
  while (C.Inputs.size() < Count) {
    std::vector<std::string> Cand(Batch);
    for (std::string &Source : Cand) {
      uint64_t R = mix(State);
      if (S == Shape::Large) {
        Source = gg::generateLargeProgram(R, 10);
      } else {
        gg::GenOptions O;
        O.Functions = static_cast<int>(R % 3);
        O.StmtsPerFunction = 1 + static_cast<int>((R >> 8) % 6);
        Source = gg::generateProgram(R, O);
      }
    }
    std::vector<char> Keep(Batch, 0);
    forEachParallel(Batch, [&](size_t I) {
      gg::Program P;
      gg::DiagnosticSink D;
      Keep[I] = gg::compileMiniC(Cand[I], P, D) &&
                gg::interpret(P, "main", maxInterpSteps(S)).Ok;
    });
    for (size_t I = 0; I < Batch && C.Inputs.size() < Count; ++I) {
      if (!Keep[I])
        continue;
      C.Bytes += Cand[I].size();
      C.Inputs.push_back({std::move(Cand[I])});
    }
  }
  return C;
}

bool pb::compileGG(const gg::VaxTarget &T, const std::string &Source,
                   std::string &Asm, gg::CodeGenStats &Stats,
                   CompileTimes &Ts, std::string &Err, uint64_t SpinNs) {
  bool Ok = false;
  Ts.Start = nowNs();
  {
    gg::Program P;
    gg::DiagnosticSink D;
    if (!gg::compileMiniC(Source, P, D)) {
      Err = D.renderAll();
      return false;
    }
    Ts.FrontendEnd = nowNs();
    gg::CodeGenOptions Opts;
    Opts.Parallel.Threads = 1;
    gg::GGCodeGenerator CG(T, Opts);
    Ts.BackendStart = nowNs();
    Ok = CG.compile(P, Asm, Err);
    if (SpinNs)
      spinNs(SpinNs);
    Ts.BackendEnd = nowNs();
    Stats = CG.stats();
  }
  Ts.End = nowNs();
  return Ok;
}

bool pb::compilePcc(const std::string &Source, std::string &Asm,
                    CompileTimes &Ts, std::string &Err) {
  bool Ok = false;
  Ts.Start = nowNs();
  {
    gg::Program P;
    gg::DiagnosticSink D;
    if (!gg::compileMiniC(Source, P, D)) {
      Err = D.renderAll();
      return false;
    }
    Ts.FrontendEnd = nowNs();
    gg::PccCodeGenerator CG;
    Ts.BackendStart = nowNs();
    Ok = CG.compile(P, Asm, Err);
    Ts.BackendEnd = nowNs();
  }
  Ts.End = nowNs();
  return Ok;
}

/// Checks one program against the three oracles and fills in its
/// references; returns an empty string or what went wrong.
static std::string gateOne(Input &In, Shape S, const gg::VaxTarget &T) {
  gg::Program P;
  gg::DiagnosticSink D;
  if (!gg::compileMiniC(In.Source, P, D))
    return "frontend rejected it: " + D.renderAll();
  gg::InterpResult Ref = gg::interpret(P, "main", maxInterpSteps(S));
  if (!Ref.Ok)
    return "interpreter: " + Ref.Error;

  std::string GG[2], Pcc[2], Err;
  gg::CodeGenStats Stats;
  CompileTimes Ts;
  for (int K = 0; K < 2; ++K) {
    if (!compileGG(T, In.Source, GG[K], Stats, Ts, Err))
      return "GG compile: " + Err;
    if (!compilePcc(In.Source, Pcc[K], Ts, Err))
      return "PCC compile: " + Err;
  }
  if (GG[0] != GG[1] || Pcc[0] != Pcc[1])
    return "two compiles of the same source differ";

  for (int Backend = 0; Backend < 2; ++Backend) {
    gg::SimResult R =
        gg::assembleAndRun(Backend ? Pcc[0] : GG[0], "main", MaxSimSteps);
    std::string Name = Backend ? "PCC" : "GG";
    if (!R.Ok)
      return Name + " simulation: " + R.Error;
    if (R.Output != Ref.Output || R.ReturnValue != Ref.ReturnValue)
      return Name + " output disagrees with the interpreter";
    (Backend ? In.PccCycles : In.GGCycles) = R.Cycles;
  }
  In.GGHash = hashBytes(GG[0]);
  In.PccHash = hashBytes(Pcc[0]);
  In.GGInsts = Stats.Instructions;
  return "";
}

bool pb::gateCorpus(Corpus &C, const gg::VaxTarget &T, std::string &Why) {
  std::vector<std::string> Errors(C.Inputs.size());
  forEachParallel(C.Inputs.size(), [&](size_t I) {
    Errors[I] = gateOne(C.Inputs[I], C.Kind, T);
  });
  for (size_t I = 0; I < Errors.size(); ++I)
    if (!Errors[I].empty()) {
      Why = "corpus program " + std::to_string(I) + ": " + Errors[I];
      return false;
    }
  return true;
}
