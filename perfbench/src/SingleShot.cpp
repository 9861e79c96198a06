//===- SingleShot.cpp - interleaved GG / PCC compile passes ---------------===//
//
// The paper's section 8 experiment: the same sources through the table-
// driven generator and the hand-coded baseline. GG and PCC alternate
// which goes first from file to file and pass to pass, so drift in the
// host lands on both sides of the ratio. Reference bursts between files
// give each pass its host scale (see referenceBurst).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>

using namespace pb;

/// Least measured work between two reference bursts.
constexpr uint64_t BurstEveryNs = 40'000'000;

SingleShotResult pb::runSingleShot(const gg::VaxTarget &T, const Corpus &C,
                                   double Seconds, bool TraceMode,
                                   double InjectPct, SpanLog &Log) {
  SingleShotResult R;
  const uint64_t Start = nowNs();
  const uint64_t Deadline = Start + static_cast<uint64_t>(Seconds * 1e9);
  std::vector<uint64_t> SpinNs(C.Inputs.size(), 0);
  uint64_t NextId = 1;
  uint64_t LastPassNs = 0;

  for (int Pass = 0;; ++Pass) {
    // Whole passes only: start one only if it should end in time, but
    // always record at least three.
    uint64_t Now = nowNs();
    if (Pass > 3 && Now + LastPassNs > Deadline)
      break;
    const bool Warmup = Pass == 0;
    const bool Traced = TraceMode && Pass % 2 == 0 && !Warmup;
    double GGS = 0, PccS = 0, RefS = 0;
    int Bursts = 0;
    gg::CodeGenStats PassStats;
    const uint64_t PassStart = nowNs();
    uint64_t LastBurst = PassStart;

    for (size_t I = 0; I < C.Inputs.size(); ++I) {
      const Input &In = C.Inputs[I];
      for (int Leg = 0; Leg < 2; ++Leg) {
        const bool IsGG = (Leg + I + Pass) % 2 == 0;
        std::string Asm, Err;
        gg::CodeGenStats S;
        CompileTimes Ts;
        ++R.Attempted;
        bool Ok = IsGG ? compileGG(T, In.Source, Asm, S, Ts, Err, SpinNs[I])
                       : compilePcc(In.Source, Asm, Ts, Err);
        if (!Ok || hashBytes(Asm) != (IsGG ? In.GGHash : In.PccHash)) {
          ++R.Failed;
          fprintf(stderr, "perfbench: %s output of program %zu %s\n",
                  IsGG ? "GG" : "PCC", I,
                  Ok ? "differs from its reference" : Err.c_str());
        }
        double Dur = seconds(Ts.End - Ts.Start);
        (IsGG ? GGS : PccS) += Dur;
        if (IsGG) {
          if (Warmup && InjectPct > 0)
            SpinNs[I] = static_cast<uint64_t>(
                InjectPct / 100 * static_cast<double>(Ts.End - Ts.Start));
          PassStats.StatementTrees += S.StatementTrees;
          PassStats.RecoveredTrees += S.RecoveredTrees;
          PassStats.MatcherTokens += S.MatcherTokens;
          PassStats.MatcherSteps += S.MatcherSteps;
          PassStats.Instructions += S.Instructions;
          PassStats.AsmLines += S.AsmLines;
          PassStats.Regs.Spills += S.Regs.Spills;
          PassStats.Idioms.BindingApplied += S.Idioms.BindingApplied;
          PassStats.Idioms.RangeApplied += S.Idioms.RangeApplied;
        }
        if (!Traced)
          continue;

        uint64_t Id = NextId++;
        int32_t Root = Log.add(IsGG ? "compile.gg" : "compile.pcc", Id,
                               Ts.Start, Ts.End, -1, 0);
        Log.add("frontend", Id, Ts.Start, Ts.FrontendEnd, Root, 0);
        Log.add(IsGG ? "cg" : "pcc", Id, Ts.BackendStart, Ts.BackendEnd,
                Root, 0);
        R.FrontendS += seconds(Ts.FrontendEnd - Ts.Start);
        R.FrontendBytes += static_cast<double>(In.Source.size());
        double BackendS = seconds(Ts.BackendEnd - Ts.BackendStart);
        if (IsGG) {
          R.CgS += BackendS;
          R.TransformS += S.TransformSeconds;
          R.MatchS += S.MatchSeconds;
          R.InstrGenS += S.InstrGenSeconds;
          R.EmitS += S.EmitSeconds;
          R.Tokens += static_cast<double>(S.MatcherTokens);
          R.Steps += static_cast<double>(S.MatcherSteps);
        } else {
          R.PccS += BackendS;
          R.PccBytes += static_cast<double>(In.Source.size());
        }
      }
      if (nowNs() - LastBurst >= BurstEveryNs || I + 1 == C.Inputs.size()) {
        RefS += referenceBurst();
        ++Bursts;
        LastBurst = nowNs();
      }
    }
    LastPassNs = nowNs() - PassStart;
    if (Warmup) {
      R.PassStats = PassStats;
      continue;
    }
    if (PassStats.MatcherSteps != R.PassStats.MatcherSteps ||
        PassStats.Instructions != R.PassStats.Instructions) {
      ++R.Failed;
      fprintf(stderr, "perfbench: pass %d counts differ from pass 0\n", Pass);
    }
    const double Scale = hostScale(RefS / Bursts);
    R.Scales.push_back(Scale);
    if (Traced) {
      R.TracedGGPassS.push_back(GGS * Scale);
    } else {
      R.GGPassS.push_back(GGS * Scale);
      R.PccPassS.push_back(PccS * Scale);
    }
  }
  return R;
}
