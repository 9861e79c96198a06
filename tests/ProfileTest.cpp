//===- ProfileTest.cpp - hot-path cost profiler tests -------------------------===//
//
// Covers the gg-profile-v1 pipeline end to end: registry gating
// (off-by-default records nothing), spec parsing, artifact serialization
// and merging through support/Json, the perf-unavailable fallback, and
// the determinism contract — under the steps timebase the artifact for a
// given input is byte-identical at any worker count.
//
// The registry is process-global; ctest runs each TEST in its own process
// (gtest_discover_tests), so every test starts from the default-off state.
//
//===----------------------------------------------------------------------===//

#include "cg/CodeGenerator.h"
#include "frontend/Parser.h"
#include "pcc/PccCodeGen.h"
#include "support/Json.h"
#include "support/Phase.h"
#include "support/Profile.h"
#include "vax/VaxTarget.h"
#include "workload/ProgramGen.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

using namespace gg;

namespace {

TEST(ProfileSpec, ParsesModesAndTimebases) {
  ProfileMode M;
  ProfileTimebase TB;
  std::string Err;
  ASSERT_TRUE(parseProfileSpec("off", M, TB, Err)) << Err;
  EXPECT_EQ(M, ProfileMode::Off);
  EXPECT_EQ(TB, ProfileTimebase::Cycles);
  ASSERT_TRUE(parseProfileSpec("instr", M, TB, Err)) << Err;
  EXPECT_EQ(M, ProfileMode::Instr);
  ASSERT_TRUE(parseProfileSpec("perf", M, TB, Err)) << Err;
  EXPECT_EQ(M, ProfileMode::Perf);
  ASSERT_TRUE(parseProfileSpec("instr,steps", M, TB, Err)) << Err;
  EXPECT_EQ(M, ProfileMode::Instr);
  EXPECT_EQ(TB, ProfileTimebase::Steps);
  ASSERT_TRUE(parseProfileSpec("instr,cycles", M, TB, Err)) << Err;
  EXPECT_EQ(TB, ProfileTimebase::Cycles);

  EXPECT_FALSE(parseProfileSpec("bogus", M, TB, Err));
  EXPECT_NE(Err.find("bogus"), std::string::npos) << Err;
  EXPECT_FALSE(parseProfileSpec("instr,bogus", M, TB, Err));
  EXPECT_FALSE(parseProfileSpec("", M, TB, Err));
}

TEST(ProfileRegistry, OffByDefaultAndStepsAreDeterministic) {
  ProfileRegistry &R = profile();
  EXPECT_FALSE(R.instrEnabled());
  EXPECT_FALSE(R.perfEnabled());

  // Phase scopes cost nothing and record nothing while off.
  { PhaseScope S(Phase::Match); }
  R.noteCompile();
  ProfileSnapshot Off = R.snapshot();
  EXPECT_TRUE(Off.Phases.empty());
  EXPECT_EQ(Off.Compiles, 0u);

  R.configure(ProfileMode::Instr, ProfileTimebase::Steps);
  EXPECT_TRUE(R.instrEnabled());
  EXPECT_FALSE(R.perfEnabled());
  // A steps-timebase scope charges exactly one virtual tick.
  { PhaseScope S(Phase::Match); }
  // Wall-only scopes (cg.total) no-op under steps.
  { PhaseScope S(Phase::Total); }
  ProfileSnapshot On = R.snapshot();
  ASSERT_EQ(On.Phases.count("cg.match"), 1u);
  EXPECT_EQ(On.Phases["cg.match"].Cell.Ticks, 1u);
  EXPECT_EQ(On.Phases["cg.match"].Cell.Events, 1u);
  EXPECT_EQ(On.Phases.count("cg.total"), 0u);
  EXPECT_EQ(On.TicksPerSecond, 0.0) << "steps ticks are unitless";
}

TEST(ProfileRegistry, ChargesAndResetKeepsShape) {
  ProfileRegistry &R = profile();
  R.configure(ProfileMode::Instr, ProfileTimebase::Steps);
  R.sizeGrammar(8, 16);
  R.setFingerprint("deadbeef00000000");
  R.chargeState(3, 10);
  R.chargeState(3, 5);
  R.chargeProd(2, 7);
  R.chargeDyn(4, 1, 9);
  R.chargeState(-1, 99);     // dropped, not fatal
  R.chargeState(1 << 20, 1); // dropped
  R.noteCompile();

  ProfileSnapshot S = R.snapshot();
  EXPECT_EQ(S.States[3].Ticks, 15u);
  EXPECT_EQ(S.States[3].Events, 2u);
  EXPECT_EQ(S.Prods[2].Ticks, 7u);
  EXPECT_EQ((S.Dyn[{4, 1}].Ticks), 9u);
  EXPECT_EQ((S.Dyn[{4, 1}].Events), 1u);
  EXPECT_EQ(S.States.size(), 1u) << "out-of-range charges must be dropped";
  EXPECT_EQ(S.Compiles, 1u);
  EXPECT_EQ(S.NumProds, 8u);
  EXPECT_EQ(S.NumStates, 16u);
  EXPECT_EQ(S.Fingerprint, "deadbeef00000000");

  R.reset();
  ProfileSnapshot Z = R.snapshot();
  EXPECT_TRUE(Z.States.empty());
  EXPECT_TRUE(Z.Prods.empty());
  EXPECT_TRUE(Z.Dyn.empty());
  EXPECT_TRUE(Z.Phases.empty());
  EXPECT_EQ(Z.Compiles, 0u);
  EXPECT_EQ(Z.NumProds, 8u) << "sizes survive reset";
  EXPECT_EQ(Z.Fingerprint, "deadbeef00000000");
}

TEST(ProfileSnapshot, JsonRoundTrip) {
  ProfileSnapshot S;
  S.Fingerprint = "0123456789abcdef";
  S.Mode = ProfileMode::Perf;
  S.Timebase = ProfileTimebase::Cycles;
  S.TicksPerSecond = 2.5e9;
  S.PerfAvailable = true;
  S.Compiles = 3;
  S.NumProds = 100;
  S.NumStates = 200;
  S.Phases["cg.match"].Cell = {1000, 10};
  S.Phases["cg.match"].Hw = {5000, 12000, 40, 7, 22};
  S.Phases["cg.total"].Cell = {2000, 3};
  S.States[0] = {5, 1};
  S.States[130] = {77, 9}; // second table region
  S.Prods[12] = {33, 4};
  S.Dyn[{4, 1}] = {9, 2};

  std::string Err;
  ProfileSnapshot Back;
  ASSERT_TRUE(Back.parse(S.toJson(), Err)) << Err;
  EXPECT_EQ(Back.Fingerprint, S.Fingerprint);
  EXPECT_EQ(Back.Mode, ProfileMode::Perf);
  EXPECT_EQ(Back.Timebase, ProfileTimebase::Cycles);
  EXPECT_EQ(Back.TicksPerSecond, S.TicksPerSecond);
  EXPECT_TRUE(Back.PerfAvailable);
  EXPECT_EQ(Back.Compiles, 3u);
  EXPECT_EQ(Back.NumProds, 100u);
  EXPECT_EQ(Back.Phases["cg.match"].Hw.Instructions, 12000u);
  EXPECT_EQ(Back.States[130].Ticks, 77u);
  EXPECT_EQ((Back.Dyn[{4, 1}].Events), 2u);
  // Derived regions reflect the per-state buckets.
  std::map<int, ProfCell> Regions = Back.regions();
  EXPECT_EQ(Regions[0].Ticks, 5u);
  EXPECT_EQ(Regions[2].Ticks, 77u);
  // And the round-trip is a fixed point at the byte level (regions are
  // emitted but re-derived, never parsed).
  EXPECT_EQ(Back.toJson(), S.toJson());
  EXPECT_NE(S.toJson().find("\"regions\""), std::string::npos);
}

TEST(ProfileSnapshot, ParseRejectsJunk) {
  ProfileSnapshot S;
  std::string Err;
  EXPECT_FALSE(S.parse("{}", Err));
  EXPECT_FALSE(S.parse("{\"schema\":\"gg-coverage-v1\"}", Err));
  EXPECT_FALSE(S.parse("not json", Err));
  EXPECT_FALSE(S.parse("{\"schema\":\"gg-profile-v1\",\"shape\":{},"
                       "\"phases\":{},\"states\":{\"xyz\":{}},"
                       "\"productions\":{},\"dyn\":{}}",
                       Err))
      << "non-numeric state key must be rejected";
  EXPECT_FALSE(S.parse("{\"schema\":\"gg-profile-v1\",\"shape\":{},"
                       "\"phases\":{},\"states\":{},\"productions\":{},"
                       "\"dyn\":{\"nocolon\":{}}}",
                       Err));
}

TEST(ProfileSnapshot, MergeSumsAndChecksIdentity) {
  ProfileSnapshot A, B;
  A.Fingerprint = B.Fingerprint = "feedface00000000";
  A.NumProds = B.NumProds = 10;
  A.Timebase = B.Timebase = ProfileTimebase::Cycles;
  A.Compiles = 1;
  B.Compiles = 2;
  A.Phases["cg.match"].Cell = {10, 1};
  B.Phases["cg.match"].Cell = {20, 2};
  B.Phases["cg.match"].Hw.Cycles = 500;
  A.States[1] = {5, 1};
  B.States[1] = {7, 2};
  B.Prods[2] = {1, 1};
  B.Dyn[{0, 0}] = {4, 1};
  B.PerfAvailable = true;

  std::string Err;
  ASSERT_TRUE(A.merge(B, Err)) << Err;
  EXPECT_EQ(A.Compiles, 3u);
  EXPECT_EQ(A.Phases["cg.match"].Cell.Ticks, 30u);
  EXPECT_EQ(A.Phases["cg.match"].Hw.Cycles, 500u);
  EXPECT_EQ(A.States[1].Ticks, 12u);
  EXPECT_EQ(A.States[1].Events, 3u);
  EXPECT_EQ(A.Prods[2].Ticks, 1u);
  EXPECT_TRUE(A.PerfAvailable);

  ProfileSnapshot Foreign;
  Foreign.Fingerprint = "0000000000000001";
  EXPECT_FALSE(A.merge(Foreign, Err));
  EXPECT_NE(Err.find("fingerprint"), std::string::npos) << Err;

  ProfileSnapshot WrongShape;
  WrongShape.Fingerprint = A.Fingerprint;
  WrongShape.NumProds = 11;
  EXPECT_FALSE(A.merge(WrongShape, Err));

  // Cycles and steps ticks live in different units; summing them would
  // produce nonsense.
  ProfileSnapshot WrongTb;
  WrongTb.Fingerprint = A.Fingerprint;
  WrongTb.NumProds = A.NumProds;
  WrongTb.Timebase = ProfileTimebase::Steps;
  WrongTb.Compiles = 1;
  EXPECT_FALSE(A.merge(WrongTb, Err));
  EXPECT_NE(Err.find("timebase"), std::string::npos) << Err;
}

TEST(ProfileRegistry, PerfUnavailableFallsBackGracefully) {
  ProfileRegistry &R = profile();
  R.forcePerfUnavailableForTests(true);
  R.configure(ProfileMode::Perf, ProfileTimebase::Steps);
  { PhaseScope S(Phase::Match); }
  EXPECT_FALSE(R.perfAvailable());
  ProfileSnapshot S = R.snapshot();
  ASSERT_EQ(S.Phases.count("cg.match"), 1u);
  EXPECT_EQ(S.Phases["cg.match"].Cell.Ticks, 1u)
      << "instr timing must survive the perf fallback";
  EXPECT_FALSE(S.Phases["cg.match"].Hw.any());
  EXPECT_FALSE(S.PerfAvailable);
  EXPECT_NE(S.toJson().find("\"perf_available\":false"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The pipeline contract against real compiles.
//===----------------------------------------------------------------------===//

std::unique_ptr<VaxTarget> mustTarget() {
  std::string Err;
  std::unique_ptr<VaxTarget> T = VaxTarget::create(Err);
  EXPECT_TRUE(T) << Err;
  return T;
}

void compileOne(const VaxTarget &Target, const char *Source, int Threads = 0) {
  Program P;
  DiagnosticSink Diags;
  ASSERT_TRUE(compileMiniC(Source, P, Diags)) << Diags.renderAll();
  CodeGenOptions Opts;
  if (Threads)
    Opts.Parallel.Threads = Threads;
  GGCodeGenerator CG(Target, Opts);
  std::string Asm, Err;
  ASSERT_TRUE(CG.compile(P, Asm, Err)) << Err;
}

constexpr const char *kProgram =
    "int main() { int i; int s; s = 0;"
    " for (i = 0; i < 9; i = i + 1) s = s + i * i;"
    " print(s); return s; }";

TEST(ProfilePipeline, OffRecordsNothing) {
  // Explicitly disarm and zero: under ctest every TEST is its own
  // process, but the sanitizer legs run several tests in one process and
  // the registry is process-global.
  profile().configure(ProfileMode::Off);
  profile().reset();
  std::unique_ptr<VaxTarget> Target = mustTarget();
  compileOne(*Target, kProgram);
  ProfileSnapshot S = profile().snapshot();
  EXPECT_TRUE(S.Phases.empty()) << "profiling off must record nothing";
  EXPECT_TRUE(S.States.empty());
  EXPECT_TRUE(S.Prods.empty());
  EXPECT_EQ(S.Compiles, 0u);
}

TEST(ProfilePipeline, RealCompileAttributesCost) {
  std::unique_ptr<VaxTarget> Target = mustTarget();
  profile().configure(ProfileMode::Instr, ProfileTimebase::Cycles);
  profile().reset();
  compileOne(*Target, kProgram);

  ProfileSnapshot S = profile().snapshot();
  EXPECT_EQ(S.Compiles, 1u);
  EXPECT_EQ(S.NumProds, Target->grammar().numProductions());
  EXPECT_EQ(S.Fingerprint,
            VaxTarget::fingerprint(Target->grammar(), Target->packed()));
  EXPECT_FALSE(S.States.empty()) << "matcher states must attract cost";
  EXPECT_FALSE(S.Prods.empty()) << "reductions must attract cost";
  for (const char *Phase :
       {"cg.transform", "cg.linearize", "cg.match", "cg.replay", "cg.stitch",
        "cg.total"})
    EXPECT_EQ(S.Phases.count(Phase), 1u) << Phase;
  EXPECT_GT(S.TicksPerSecond, 0.0);
  // The matcher attribution is a complete projection of the match phase:
  // per-state charges land inside the cg.match scopes.
  uint64_t StateTicks = 0;
  for (const auto &[Id, C] : S.States)
    StateTicks += C.Ticks;
  EXPECT_GT(StateTicks, 0u);
  EXPECT_LE(StateTicks, S.Phases["cg.total"].Cell.Ticks);
  // The artifact itself is valid gg-profile-v1.
  std::string Err;
  ProfileSnapshot Back;
  ASSERT_TRUE(Back.parse(S.toJson(), Err)) << Err;
  EXPECT_EQ(Back.toJson(), S.toJson());
}

TEST(ProfilePipeline, PccCompileChargesItsPhase) {
  std::unique_ptr<VaxTarget> Target = mustTarget();
  profile().configure(ProfileMode::Instr, ProfileTimebase::Steps);
  profile().reset();
  Program P;
  DiagnosticSink Diags;
  ASSERT_TRUE(compileMiniC(kProgram, P, Diags));
  PccCodeGenerator CG;
  std::string Asm, Err;
  ASSERT_TRUE(CG.compile(P, Asm, Err)) << Err;
  ProfileSnapshot S = profile().snapshot();
  ASSERT_EQ(S.Phases.count("pcc.compile"), 1u);
  EXPECT_EQ(S.Phases["pcc.compile"].Cell.Events, 1u);
}

std::string compileCorpusAndSnapshot(const VaxTarget &Target, int Threads) {
  profile().reset();
  for (int Case = 0; Case < 6; ++Case) {
    GenOptions GOpts;
    GOpts.Functions = 4 + Case % 3;
    GOpts.StmtsPerFunction = 6 + Case % 5;
    Program P;
    DiagnosticSink Diags;
    std::string Source = generateProgram(0xD1FF0000u + Case, GOpts);
    EXPECT_TRUE(compileMiniC(Source, P, Diags)) << Diags.renderAll();
    CodeGenOptions Opts;
    Opts.Parallel.Threads = Threads;
    GGCodeGenerator CG(Target, Opts);
    std::string Asm, Err;
    EXPECT_TRUE(CG.compile(P, Asm, Err)) << Err;
  }
  return profile().toJson();
}

TEST(ProfilePipeline, StepsArtifactIdenticalAcrossWorkerCounts) {
  std::unique_ptr<VaxTarget> Target = mustTarget();
  profile().configure(ProfileMode::Instr, ProfileTimebase::Steps);

  std::string Baseline = compileCorpusAndSnapshot(*Target, 1);
  ASSERT_NE(Baseline.find("\"states\":{\""), std::string::npos)
      << "corpus compile recorded nothing";
  ASSERT_NE(Baseline.find("\"timebase\":\"steps\""), std::string::npos);
  for (int Threads : {2, 4, 8})
    EXPECT_EQ(compileCorpusAndSnapshot(*Target, Threads), Baseline)
        << "profile artifact drifted at --threads=" << Threads;
}

TEST(ProfilePipeline, CyclesBucketKeysIdenticalAcrossWorkerCounts) {
  // Under the cycles timebase the tick *values* are hardware noise, but
  // which buckets exist is still a property of the input alone.
  std::unique_ptr<VaxTarget> Target = mustTarget();
  profile().configure(ProfileMode::Instr, ProfileTimebase::Cycles);

  auto Keys = [&](int Threads) {
    compileCorpusAndSnapshot(*Target, Threads);
    ProfileSnapshot S = profile().snapshot();
    std::string Out;
    for (const auto &[Name, P] : S.Phases)
      Out += Name + ";";
    Out += "|";
    for (const auto &[Id, C] : S.States)
      Out += std::to_string(Id) + ":" + std::to_string(C.Events) + ";";
    Out += "|";
    for (const auto &[Id, C] : S.Prods)
      Out += std::to_string(Id) + ":" + std::to_string(C.Events) + ";";
    return Out;
  };
  std::string Baseline = Keys(1);
  for (int Threads : {2, 4})
    EXPECT_EQ(Keys(Threads), Baseline)
        << "bucket keys drifted at --threads=" << Threads;
}

} // namespace
