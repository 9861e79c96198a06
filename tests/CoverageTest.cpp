//===- CoverageTest.cpp - table coverage profiler tests -----------------------===//
//
// Covers the gg-coverage-v1 pipeline end to end: the table-event
// registry's coverage side (the CoverageRegistry suite: off-by-default,
// sharded counters, out-of-range safety), artifact serialization and
// merging, and the determinism contract — the artifact for a given input
// is byte-identical at any worker count, and whether or not the profile
// is armed beside it.
//
// The registry is process-global; ctest runs each TEST in its own process
// (gtest_discover_tests), so every test starts from the default-off state.
//
//===----------------------------------------------------------------------===//

#include "cg/CodeGenerator.h"
#include "frontend/Parser.h"
#include "support/FaultInject.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/TableEvents.h"
#include "vax/VaxTarget.h"
#include "workload/ProgramGen.h"

#include "TerminalMapCheck.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace gg;

namespace {

/// Compiles a small loop with the table-driven generator.
void compileLoop(const VaxTarget &Target) {
  Program P;
  DiagnosticSink Diags;
  ASSERT_TRUE(compileMiniC("int main() { int i; int s; s = 0;"
                           " for (i = 0; i < 9; i = i + 1) s = s + i * i;"
                           " print(s); return s; }",
                           P, Diags));
  GGCodeGenerator CG(Target);
  std::string Asm, Err;
  ASSERT_TRUE(CG.compile(P, Asm, Err)) << Err;
}

TEST(CoverageRegistry, OffByDefaultThenRecords) {
  std::string Err;
  std::unique_ptr<VaxTarget> Target = VaxTarget::create(Err);
  ASSERT_TRUE(Target) << Err;
  TableEventRegistry &R = tableEvents();
  EXPECT_FALSE(R.armed());
  compileLoop(*Target);
  R.noteCompile();
  CoverageSnapshot Off = R.coverageSnapshot();
  EXPECT_TRUE(Off.ProdHits.empty()) << "recording while disarmed";
  EXPECT_TRUE(Off.StateHits.empty());
  EXPECT_TRUE(Off.RowHits.empty());
  EXPECT_TRUE(Off.Dyn.empty());
  EXPECT_EQ(Off.Compiles, 0u);

  R.armCoverage();
  EXPECT_TRUE(R.armed());
  EXPECT_FALSE(R.profiling()) << "coverage alone does not profile";
  R.noteReduce(1);
  R.noteReduce(1);
  R.noteStep(2, 0);
  R.noteFinalState(5);
  R.noteTie(3, 0, 1, 0);
  R.noteCompile();
  CoverageSnapshot On = R.coverageSnapshot();
  EXPECT_EQ(On.ProdHits[1], 2u);
  EXPECT_EQ(On.StateHits[2], 1u);
  EXPECT_EQ(On.StateHits[5], 1u) << "a tree's final state is a visit";
  EXPECT_EQ((On.Dyn[{3, 0}].Hits), 1u);
  EXPECT_EQ((On.Dyn[{3, 0}].Chosen[1]), 1u);
  EXPECT_EQ(On.Compiles, 1u);
  EXPECT_EQ(On.NumProds, Target->grammar().numProductions());
  EXPECT_EQ(On.NumDynPoints, Target->packed().numDynPoints());
}

TEST(CoverageRegistry, OutOfRangeIdsAreDroppedNotFatal) {
  TableEventRegistry &R = tableEvents();
  R.armCoverage();
  R.sizeTables({4, 4, 0, {}, ""});
  R.reset(); // counter sizes are grow-only and process-global; start clean
  R.noteReduce(-1);
  R.noteReduce(1 << 20);
  R.noteStep(-7, 0);
  R.noteStep(1 << 20, 0);
  R.noteFinalState(-1);
  R.noteFinalState(1 << 20);
  R.noteRow(1 << 20);
  CoverageSnapshot S = R.coverageSnapshot();
  EXPECT_TRUE(S.ProdHits.empty());
  EXPECT_TRUE(S.StateHits.empty());
  EXPECT_TRUE(S.RowHits.empty());
}

TEST(CoverageRegistry, ResetZeroesHitsAndKeepsShape) {
  TableEventRegistry &R = tableEvents();
  R.armCoverage();
  R.sizeTables({8, 8, 4, {"mov", "add"}, "deadbeef00000000"});
  R.noteReduce(3);
  R.noteFinalState(3);
  R.noteRow(0);
  R.noteTie(1, 1, 3, 0);
  R.noteCompile();
  // The registry is process-global and its sizes only grow, so an earlier
  // test in this process may have left larger tables: compare the shape
  // with itself across the reset, not with the sizes given above.
  const CoverageSnapshot Shape = R.coverageSnapshot();
  R.reset();
  CoverageSnapshot S = R.coverageSnapshot();
  EXPECT_TRUE(S.ProdHits.empty());
  EXPECT_TRUE(S.StateHits.empty());
  EXPECT_TRUE(S.RowHits.empty());
  EXPECT_TRUE(S.Dyn.empty());
  EXPECT_EQ(S.Compiles, 0u);
  EXPECT_EQ(S.NumProds, Shape.NumProds) << "sizes survive reset";
  EXPECT_EQ(S.NumRows, Shape.NumRows);
  EXPECT_EQ(S.Fingerprint, "deadbeef00000000");
  EXPECT_GE(S.NumProds, 8u);
  EXPECT_GE(S.NumRows, 2u);
}

TEST(CoverageRegistry, ShardsSumExactlyUnderContention) {
  TableEventRegistry &R = tableEvents();
  R.armCoverage();
  R.sizeTables({4, 4, 0, {}, ""});
  R.reset();
  constexpr int Threads = 8, PerThread = 20000;
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&R] {
      for (int I = 0; I < PerThread; ++I) {
        R.noteReduce(2);
        R.chargeReduce(2, 3);
        R.noteStep(I & 3, 1);
        if ((I & 7) == 0)
          R.noteFinalState(I & 3);
      }
    });
  for (std::thread &T : Pool)
    T.join();
  const uint64_t Total = uint64_t(Threads) * PerThread;
  CoverageSnapshot S = R.coverageSnapshot();
  EXPECT_EQ(S.ProdHits[2], Total);
  uint64_t StateTotal = 0;
  for (const auto &[Id, H] : S.StateHits)
    StateTotal += H;
  EXPECT_EQ(StateTotal, Total + Total / 8);
  ProfileSnapshot P = R.profileSnapshot();
  EXPECT_EQ(P.Prods[2].Ticks, 3 * Total);
  EXPECT_EQ(P.Prods[2].Events, Total);
  uint64_t StateTicks = 0, StateEvents = 0;
  for (const auto &[Id, C] : P.States) {
    StateTicks += C.Ticks;
    StateEvents += C.Events;
  }
  EXPECT_EQ(StateTicks, Total);
  EXPECT_EQ(StateEvents, Total) << "final states are coverage-only";
}

TEST(CoverageSnapshot, JsonRoundTrip) {
  CoverageSnapshot S;
  S.Fingerprint = "0123456789abcdef";
  S.Compiles = 7;
  S.NumProds = 100;
  S.NumStates = 200;
  S.NumDynPoints = 50;
  S.NumRows = 3;
  S.ProdHits = {{2, 10}, {99, 1}};
  S.StateHits = {{0, 5}, {13, 2}};
  S.Dyn[{4, 1}].Hits = 3;
  S.Dyn[{4, 1}].Chosen = {{2, 2}, {5, 1}};
  S.RowHits = {{"add", 4}, {"mov", 9}};

  std::string Err;
  CoverageSnapshot Back;
  ASSERT_TRUE(Back.parse(S.toJson(), Err)) << Err;
  EXPECT_EQ(Back.Fingerprint, S.Fingerprint);
  EXPECT_EQ(Back.Compiles, S.Compiles);
  EXPECT_EQ(Back.NumProds, S.NumProds);
  EXPECT_EQ(Back.NumStates, S.NumStates);
  EXPECT_EQ(Back.NumDynPoints, S.NumDynPoints);
  EXPECT_EQ(Back.NumRows, S.NumRows);
  EXPECT_EQ(Back.ProdHits, S.ProdHits);
  EXPECT_EQ(Back.StateHits, S.StateHits);
  EXPECT_EQ(Back.RowHits, S.RowHits);
  ASSERT_EQ(Back.Dyn.size(), 1u);
  EXPECT_EQ((Back.Dyn[{4, 1}].Hits), 3u);
  EXPECT_EQ((Back.Dyn[{4, 1}].Chosen), (S.Dyn[{4, 1}].Chosen));
  // And the round-trip is a fixed point at the byte level.
  EXPECT_EQ(Back.toJson(), S.toJson());
}

TEST(CoverageSnapshot, ParseRejectsJunk) {
  CoverageSnapshot S;
  std::string Err;
  EXPECT_FALSE(S.parse("{}", Err));
  EXPECT_FALSE(S.parse("{\"schema\":\"gg-stats-v1\"}", Err));
  EXPECT_FALSE(S.parse("not json", Err));
  EXPECT_FALSE(S.parse("{\"schema\":\"gg-coverage-v1\",\"shape\":{},"
                       "\"productions\":{\"xyz\":1},\"states\":{},"
                       "\"dyn\":{},\"instr_rows\":{}}",
                       Err))
      << "non-numeric production key must be rejected";
  // 2^32 + 1 overflows an int id; it must not alias production 1.
  EXPECT_FALSE(S.parse("{\"schema\":\"gg-coverage-v1\",\"shape\":{},"
                       "\"productions\":{\"4294967297\":7},\"states\":{},"
                       "\"dyn\":{},\"instr_rows\":{}}",
                       Err))
      << "overflowing production key must be rejected";
  EXPECT_NE(Err.find("4294967297"), std::string::npos) << Err;
  EXPECT_FALSE(S.parse("{\"schema\":\"gg-coverage-v1\",\"shape\":{},"
                       "\"productions\":{},\"states\":{},"
                       "\"dyn\":{\"1:99999999999\":{}},\"instr_rows\":{}}",
                       Err))
      << "overflowing dyn terminal must be rejected";
}

TEST(CoverageSnapshot, MergeSumsAndChecksIdentity) {
  CoverageSnapshot A, B;
  A.Fingerprint = B.Fingerprint = "feedface00000000";
  A.NumProds = B.NumProds = 10;
  A.Compiles = 1;
  B.Compiles = 2;
  A.ProdHits = {{1, 5}};
  B.ProdHits = {{1, 7}, {2, 1}};
  A.Dyn[{0, 0}].Hits = 1;
  A.Dyn[{0, 0}].Chosen[3] = 1;
  B.Dyn[{0, 0}].Hits = 2;
  B.Dyn[{0, 0}].Chosen[3] = 2;
  B.RowHits["mov"] = 4;

  std::string Err;
  ASSERT_TRUE(A.merge(B, Err)) << Err;
  EXPECT_EQ(A.Compiles, 3u);
  EXPECT_EQ(A.ProdHits[1], 12u);
  EXPECT_EQ(A.ProdHits[2], 1u);
  EXPECT_EQ((A.Dyn[{0, 0}].Hits), 3u);
  EXPECT_EQ((A.Dyn[{0, 0}].Chosen[3]), 3u);
  EXPECT_EQ(A.RowHits["mov"], 4u);

  CoverageSnapshot Foreign;
  Foreign.Fingerprint = "0000000000000001";
  EXPECT_FALSE(A.merge(Foreign, Err));
  EXPECT_NE(Err.find("fingerprint"), std::string::npos) << Err;

  CoverageSnapshot WrongShape;
  WrongShape.Fingerprint = A.Fingerprint;
  WrongShape.NumProds = 11;
  EXPECT_FALSE(A.merge(WrongShape, Err));
}

//===----------------------------------------------------------------------===//
// The pipeline contract: real compiles record, and the artifact is a
// property of the input alone — byte-identical at any worker count.
//===----------------------------------------------------------------------===//

std::string compileCorpusAndSnapshot(const VaxTarget &Target, int Threads) {
  tableEvents().reset();
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
  return tableEvents().coverageSnapshot().toJson();
}

TEST(CoveragePipeline, RealCompileRecordsEverything) {
  std::string Err;
  std::unique_ptr<VaxTarget> Target = VaxTarget::create(Err);
  ASSERT_TRUE(Target) << Err;
  tableEvents().armCoverage();
  compileLoop(*Target);

  CoverageSnapshot S = tableEvents().coverageSnapshot();
  EXPECT_EQ(S.Compiles, 1u);
  EXPECT_EQ(S.NumProds, Target->grammar().numProductions());
  EXPECT_FALSE(S.ProdHits.empty());
  EXPECT_FALSE(S.StateHits.empty());
  EXPECT_FALSE(S.RowHits.empty()) << "semantic actions must record rows";
  EXPECT_EQ(S.Fingerprint,
            VaxTarget::fingerprint(Target->grammar(), Target->packed()));
  // The artifact itself is valid gg-coverage-v1.
  CoverageSnapshot Back;
  ASSERT_TRUE(Back.parse(S.toJson(), Err)) << Err;
  EXPECT_EQ(Back.toJson(), S.toJson());
}

TEST(CoveragePipeline, ArtifactIdenticalAcrossWorkerCounts) {
  std::string Err;
  std::unique_ptr<VaxTarget> Target = VaxTarget::create(Err);
  ASSERT_TRUE(Target) << Err;
  tableEvents().armCoverage();

  std::string Baseline = compileCorpusAndSnapshot(*Target, 1);
  ASSERT_NE(Baseline.find("\"productions\":{\""), std::string::npos)
      << "corpus compile recorded nothing";
  for (int Threads : {2, 4, 8})
    EXPECT_EQ(compileCorpusAndSnapshot(*Target, Threads), Baseline)
        << "coverage artifact drifted at --threads=" << Threads;
}

//===----------------------------------------------------------------------===//
// One registry behind both artifacts: arming the profile beside coverage
// changes neither artifact, and the counts they share agree.
//===----------------------------------------------------------------------===//

struct Artifacts {
  std::string Coverage, Profile;
  uint64_t Trees = 0, Steps = 0; ///< trees and steps the matcher ran
};

/// Compiles a multi-function program at \p Threads with every third tree
/// truncated (NoAction blocks, regenerated by PCC), then matches one more
/// NoAction sentence and one sentence stopped by its step budget.
Artifacts recordRun(const VaxTarget &Target, int Threads) {
  tableEvents().reset();
  StatsRegistry &Reg = stats();
  std::atomic<uint64_t> &Trees = Reg.counter("match.trees");
  std::atomic<uint64_t> &Shifts = Reg.counter("match.shifts");
  std::atomic<uint64_t> &Reduces = Reg.counter("match.reduces");
  std::atomic<uint64_t> &Blocks = Reg.counter("match.syntactic_blocks");
  const uint64_t Trees0 = Trees, Steps0 = Shifts + Reduces, Blocks0 = Blocks;

  std::string Err;
  EXPECT_TRUE(faultInject().configure("truncate-input=3", Err)) << Err;
  GenOptions GOpts;
  GOpts.Functions = 5;
  GOpts.StmtsPerFunction = 8;
  Program P;
  DiagnosticSink Diags;
  EXPECT_TRUE(compileMiniC(generateProgram(0x7AB1E5u, GOpts), P, Diags))
      << Diags.renderAll();
  CodeGenOptions Opts;
  Opts.Parallel.Threads = Threads;
  GGCodeGenerator CG(Target, Opts);
  std::string Asm;
  EXPECT_TRUE(CG.compile(P, Asm, Err)) << Err;
  faultInject().reset();
  EXPECT_GT(CG.stats().BlockedTrees, 0u) << "no tree was truncated";

  const LRDriver &D = Target.matcher().driver();
  const std::vector<LinToken> TwoPlus{tokenFor(D, "Plus_l"),
                                      tokenFor(D, "Plus_l")};
  MatchResult NoAction = Target.matcher().match(TwoPlus);
  EXPECT_EQ(NoAction.Block->Why, BlockReport::Cause::NoAction);
  std::vector<LinToken> Deep{tokenFor(D, "Assign_l"), tokenFor(D, "Dreg_l")};
  for (int I = 0; I < 200; ++I) {
    Deep.push_back(tokenFor(D, "Plus_l"));
    Deep.push_back(tokenFor(D, "Dreg_l"));
  }
  Deep.push_back(tokenFor(D, "Dreg_l"));
  RequestBudget Budget;
  Budget.MaxSteps = 1;
  MatchResult Stopped = Target.matcher().match(Deep, &Budget);
  EXPECT_EQ(Stopped.Block->Why, BlockReport::Cause::Budget);

  EXPECT_GT(Blocks - Blocks0, 2u);
  return {tableEvents().coverageSnapshot().toJson(),
          tableEvents().profileSnapshot().toJson(), Trees - Trees0,
          Shifts + Reduces - Steps0};
}

TEST(CoveragePipeline, ArmingTheProfileTooChangesNeitherArtifact) {
  std::string Err;
  std::unique_ptr<VaxTarget> Target = VaxTarget::create(Err);
  ASSERT_TRUE(Target) << Err;
  TableEventRegistry &R = tableEvents();
  for (int Threads : {1, 4}) {
    SCOPED_TRACE(Threads);
    // Coverage cannot be disarmed, so the profile-only run comes first.
    R.configureProfile(ProfileMode::Instr, ProfileTimebase::Steps);
    const Artifacts ProfileOnly = recordRun(*Target, Threads);
    R.configureProfile(ProfileMode::Off);
    R.armCoverage();
    const Artifacts CoverageOnly = recordRun(*Target, Threads);
    R.configureProfile(ProfileMode::Instr, ProfileTimebase::Steps);
    const Artifacts Both = recordRun(*Target, Threads);
    R.configureProfile(ProfileMode::Off);
    EXPECT_EQ(Both.Coverage, CoverageOnly.Coverage);
    EXPECT_EQ(Both.Profile, ProfileOnly.Profile);

    CoverageSnapshot Cov;
    ProfileSnapshot Prof;
    ASSERT_TRUE(Cov.parse(Both.Coverage, Err)) << Err;
    ASSERT_TRUE(Prof.parse(Both.Profile, Err)) << Err;
    ASSERT_FALSE(Cov.Dyn.empty()) << "no dynamic tie was hit";
    ASSERT_EQ(Cov.ProdHits.size(), Prof.Prods.size());
    for (const auto &[Id, Hits] : Cov.ProdHits)
      EXPECT_EQ(Prof.Prods[Id].Events, Hits) << "production " << Id;
    ASSERT_EQ(Cov.Dyn.size(), Prof.Dyn.size());
    for (const auto &[Key, P] : Cov.Dyn)
      EXPECT_EQ(Prof.Dyn[Key].Events, P.Hits);
    // A state's profile events are the steps acting in it; its visits
    // add one per tree that ended in it.
    uint64_t Visits = 0, Acting = 0;
    for (const auto &[Id, Hits] : Cov.StateHits) {
      EXPECT_GE(Hits, Prof.States[Id].Events) << "state " << Id;
      Visits += Hits;
    }
    for (const auto &[Id, C] : Prof.States)
      Acting += C.Events;
    EXPECT_EQ(Acting, Both.Steps);
    EXPECT_EQ(Visits, Both.Steps + Both.Trees);
  }
}

} // namespace
