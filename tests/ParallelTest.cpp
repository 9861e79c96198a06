//===- ParallelTest.cpp - parallel code generation determinism -----------------===//
//
// The parallel compilation pipeline's contract: compiling a module on N
// pool workers produces byte-identical assembly, identical simulator
// behavior and identical recovery telemetry for every N. Also covers the
// ThreadPool primitive itself (full index coverage, worker resolution,
// chunking).
//
//===----------------------------------------------------------------------===//

#include "MatcherInputs.h"
#include "cg/CodeGenerator.h"
#include "frontend/Parser.h"
#include "support/Deadline.h"
#include "support/FaultInject.h"
#include "support/Stats.h"
#include "support/Strings.h"
#include "support/ThreadPool.h"
#include "vaxsim/Simulator.h"
#include "workload/ProgramGen.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <vector>

using namespace gg;

namespace {

const VaxTarget &sharedTarget() {
  static std::unique_ptr<VaxTarget> T = [] {
    std::string Err;
    std::unique_ptr<VaxTarget> P = VaxTarget::create(Err);
    if (!P)
      abort();
    return P;
  }();
  return *T;
}

/// Restores the all-off fault default when a test scope exits, so the
/// process-global injector never leaks config into later tests.
struct FaultGuard {
  FaultGuard() { faultInject().reset(); }
  ~FaultGuard() { faultInject().reset(); }
};

/// A module with enough functions of uneven size that chunk dealing and
/// stealing actually distribute work.
const char *MultiFnSource = R"(
int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
int gcd(int a, int b) { while (b != 0) { int t = b; b = a % b; a = t; } return a; }
int sum3(int a, int b, int c) { return a + b + c; }
int poly(int x) { return x * x * x - 2 * x * x + 7 * x - 4; }
int twice(int x) { return x + x; }
int main() {
  int acc = 0;
  int i = 0;
  while (i < 8) { acc = acc + fib(i) + poly(i); i = i + 1; }
  print(acc);
  print(gcd(462, 1071));
  print(sum3(acc, twice(5), 3));
  return acc % 100;
}
)";

/// Compiles \p Source with the given thread count; fault config active at
/// call time applies. The target is created fresh per call so table-build
/// faults (drop-prod) take effect.
bool compileAt(int Threads, const std::string &Source, std::string &Asm,
               CodeGenStats *OutStats = nullptr,
               std::string *OutDiags = nullptr) {
  std::string Err;
  std::unique_ptr<VaxTarget> Target = VaxTarget::create(Err);
  EXPECT_NE(Target, nullptr) << Err;
  Program P;
  DiagnosticSink D;
  EXPECT_TRUE(compileMiniC(Source, P, D)) << D.renderAll();
  CodeGenOptions Opts;
  Opts.Parallel.Threads = Threads;
  GGCodeGenerator CG(*Target, Opts);
  bool Ok = CG.compile(P, Asm, Err);
  EXPECT_TRUE(Ok) << Err;
  if (OutStats)
    *OutStats = CG.stats();
  if (OutDiags)
    *OutDiags = CG.diagnostics().renderAll();
  return Ok;
}

//===----------------------------------------------------------------------===//
// ThreadPool primitive
//===----------------------------------------------------------------------===//

TEST(ThreadPool, ResolvesWorkerCounts) {
  EXPECT_EQ(resolveWorkerCount(1, 100), 1u);
  EXPECT_EQ(resolveWorkerCount(4, 100), 4u);
  EXPECT_EQ(resolveWorkerCount(4, 2), 2u) << "never more workers than items";
  EXPECT_EQ(resolveWorkerCount(7, 0), 1u);
  EXPECT_GE(resolveWorkerCount(0, 100), 1u) << "0 = hardware concurrency";
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (int Threads : {1, 2, 4, 8}) {
    const size_t N = 37;
    std::vector<std::atomic<int>> Hits(N);
    ParallelOptions Opts;
    Opts.Threads = Threads;
    PoolRunStats S =
        parallelFor(N, Opts, [&](size_t I) { Hits[I].fetch_add(1); });
    for (size_t I = 0; I < N; ++I)
      EXPECT_EQ(Hits[I].load(), 1)
          << "index " << I << " threads=" << Threads;
    EXPECT_EQ(S.Workers, resolveWorkerCount(Threads, N));
    EXPECT_EQ(S.Tasks, N);
  }
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ParallelOptions Opts;
  Opts.Threads = 4;
  PoolRunStats S = parallelFor(0, Opts, [](size_t) { FAIL(); });
  EXPECT_EQ(S.Workers, 0u);
  EXPECT_EQ(S.Tasks, 0u);
}

//===----------------------------------------------------------------------===//
// Parallel code generation determinism
//===----------------------------------------------------------------------===//

TEST(Parallel, ByteIdenticalAsmAcrossThreadCounts) {
  std::string Serial;
  ASSERT_TRUE(compileAt(1, MultiFnSource, Serial));
  ASSERT_FALSE(Serial.empty());
  for (int Threads : {2, 4, 8}) {
    std::string Asm;
    CodeGenStats Stats;
    ASSERT_TRUE(compileAt(Threads, MultiFnSource, Asm, &Stats));
    EXPECT_EQ(Serial, Asm) << "assembly diverged at threads=" << Threads;
    EXPECT_GE(Stats.Parallel.Workers, 2u);
  }
}

TEST(Parallel, SimulatorBehaviorIdenticalAcrossThreadCounts) {
  std::string Serial;
  ASSERT_TRUE(compileAt(1, MultiFnSource, Serial));
  SimResult Base = assembleAndRun(Serial);
  ASSERT_TRUE(Base.Ok) << Base.Error;
  for (int Threads : {2, 8}) {
    std::string Asm;
    ASSERT_TRUE(compileAt(Threads, MultiFnSource, Asm));
    SimResult R = assembleAndRun(Asm);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(Base.Output, R.Output) << "threads=" << Threads;
    EXPECT_EQ(Base.ReturnValue, R.ReturnValue) << "threads=" << Threads;
    EXPECT_EQ(Base.Instructions, R.Instructions) << "threads=" << Threads;
  }
}

TEST(Parallel, GeneratedProgramsIdenticalAcrossThreadCounts) {
  // Wider structural variety than the hand-written module: generated
  // programs exercise calls, globals, loops and recovery-free paths.
  for (int Case = 0; Case < 10; ++Case) {
    uint64_t Seed = 0x9A11E100u + static_cast<uint64_t>(Case);
    GenOptions GOpts;
    GOpts.Functions = 5;
    GOpts.StmtsPerFunction = 6;
    std::string Source = generateProgram(Seed, GOpts);
    std::string Serial;
    ASSERT_TRUE(compileAt(1, Source, Serial)) << "seed " << Seed;
    for (int Threads : {4}) {
      std::string Asm;
      ASSERT_TRUE(compileAt(Threads, Source, Asm)) << "seed " << Seed;
      EXPECT_EQ(Serial, Asm) << "seed " << Seed << " threads=" << Threads;
    }
  }
}

TEST(Parallel, PeepholeAndExplainIdenticalAcrossThreadCounts) {
  // Both run in the workers: each function's records are rewritten by the
  // peephole pass and rendered with their annotations before the stitch.
  std::vector<std::string> Sources = {MultiFnSource};
  for (uint64_t Seed = 1; Seed <= 3; ++Seed)
    Sources.push_back(generateLargeProgram(Seed, 6));
  unsigned Rewrites = 0;
  for (const std::string &Source : Sources) {
    auto Compile = [&](int Threads, std::string &Asm, CodeGenStats &Stats) {
      Program P;
      DiagnosticSink D;
      ASSERT_TRUE(compileMiniC(Source, P, D)) << D.renderAll();
      CodeGenOptions Opts;
      Opts.Peephole = true;
      Opts.Explain = true;
      Opts.Parallel.Threads = Threads;
      GGCodeGenerator CG(sharedTarget(), Opts);
      std::string Err;
      ASSERT_TRUE(CG.compile(P, Asm, Err)) << Err;
      Stats = CG.stats();
    };
    std::string Serial;
    CodeGenStats SerialStats;
    Compile(1, Serial, SerialStats);
    ASSERT_NE(Serial.find("\t# P"), std::string::npos);
    Rewrites += SerialStats.Peephole.total();
    for (int Threads : {2, 4, 8}) {
      std::string Asm;
      CodeGenStats Stats;
      Compile(Threads, Asm, Stats);
      EXPECT_EQ(Serial, Asm) << "threads=" << Threads;
      EXPECT_TRUE(Stats.Peephole == SerialStats.Peephole)
          << "peephole rewrites differ at threads=" << Threads;
      EXPECT_EQ(Stats.Instructions, SerialStats.Instructions);
      EXPECT_EQ(Stats.AsmLines, SerialStats.AsmLines);
    }
  }
  EXPECT_GT(Rewrites, 0u) << "the corpus must give the pass work";
}

TEST(Parallel, RecoveryCountersIdenticalAcrossThreadCounts) {
  // Drop the call-argument production so every call-bearing tree blocks
  // and recovers through the PCC fallback, inside pool workers.
  FaultGuard Guard;
  std::string Err;
  ASSERT_TRUE(faultInject().configure("drop-prod=push_l", Err)) << Err;

  // Every count a compile publishes, per function (cg.*, idiom.*, regs.*,
  // match.*) or per compile (phase1.*, emit.*), is a property of the
  // input, not of how functions are dealt to workers: the whole stats map
  // matches at every thread count. Only the pool's own cg.parallel.*
  // counters may differ; values are seconds.
  auto CompileCounting = [&](int Threads, std::string &Asm,
                             CodeGenStats &Stats, std::string &Diags) {
    stats().reset();
    EXPECT_TRUE(compileAt(Threads, MultiFnSource, Asm, &Stats, &Diags));
    std::map<std::string, std::string> Map;
    for (const auto &[Name, C] : stats().counters())
      if (Name.rfind("cg.parallel.", 0) != 0)
        Map[Name] = std::to_string(C.load());
    for (const auto &[Name, H] : stats().histograms()) {
      std::string &Text = Map[Name];
      Text = strf("n=%llu sum=%llu min=%llu max=%llu",
                  static_cast<unsigned long long>(H.count()),
                  static_cast<unsigned long long>(H.sum()),
                  static_cast<unsigned long long>(H.min()),
                  static_cast<unsigned long long>(H.max()));
      for (int W = 0; W <= 64; ++W)
        Text += strf(" %llu", static_cast<unsigned long long>(H.bucket(W)));
    }
    return Map;
  };

  std::string SerialAsm, SerialDiags;
  CodeGenStats SerialStats;
  const std::map<std::string, std::string> Serial =
      CompileCounting(1, SerialAsm, SerialStats, SerialDiags);
  ASSERT_GE(SerialStats.BlockedTrees, 1u)
      << "fault did not trigger; the test is vacuous";
  EXPECT_EQ(SerialStats.BlockedTrees, SerialStats.RecoveredTrees);
  EXPECT_GE(std::stoull(Serial.at("match.syntactic_blocks")),
            SerialStats.BlockedTrees);
  for (const char *Key : {"match.shifts", "cg.recovered_trees",
                          "idiom.range_applied", "regs.allocations",
                          "phase1.calls_factored", "emit.instructions"})
    EXPECT_NE(Serial.at(Key), "0") << Key << " counted nothing";
  for (const char *Key : {"regs.live", "match.stack_depth",
                          "match.tokens_per_tree", "match.steps_per_tree"})
    EXPECT_NE(Serial.at(Key).rfind("n=0 ", 0), 0u)
        << Key << " recorded nothing";

  for (int Threads : {2, 4, 8}) {
    std::string Asm, Diags;
    CodeGenStats Stats;
    const std::map<std::string, std::string> Map =
        CompileCounting(Threads, Asm, Stats, Diags);
    EXPECT_EQ(SerialStats.BlockedTrees, Stats.BlockedTrees)
        << "threads=" << Threads;
    EXPECT_EQ(SerialStats.RecoveredTrees, Stats.RecoveredTrees)
        << "threads=" << Threads;
    EXPECT_EQ(Serial.size(), Map.size()) << "threads=" << Threads;
    for (const auto &[Key, Text] : Serial) {
      auto It = Map.find(Key);
      ASSERT_NE(It, Map.end()) << Key << " missing at threads=" << Threads;
      EXPECT_EQ(Text, It->second) << Key << " at threads=" << Threads;
    }
    EXPECT_EQ(SerialAsm, Asm)
        << "recovered output diverged at threads=" << Threads;
    EXPECT_EQ(SerialDiags, Diags)
        << "diagnostics order diverged at threads=" << Threads;
    SimResult R = assembleAndRun(Asm);
    ASSERT_TRUE(R.Ok) << R.Error;
  }
}

TEST(Parallel, TruncateInputOrdinalsIndependentOfScheduling) {
  // truncate-input selects every Nth tree by a global ordinal; the
  // reserved per-function ordinal blocks must make the selection — and so
  // the recovered output — identical at any thread count.
  std::string Serial;
  CodeGenStats SerialStats;
  {
    FaultGuard Guard;
    std::string Err;
    ASSERT_TRUE(faultInject().configure("truncate-input=3", Err)) << Err;
    ASSERT_TRUE(compileAt(1, MultiFnSource, Serial, &SerialStats));
  }
  ASSERT_GE(SerialStats.BlockedTrees, 1u);
  for (int Threads : {2, 8}) {
    FaultGuard Guard;
    std::string Err;
    ASSERT_TRUE(faultInject().configure("truncate-input=3", Err)) << Err;
    std::string Asm;
    CodeGenStats Stats;
    ASSERT_TRUE(compileAt(Threads, MultiFnSource, Asm, &Stats));
    EXPECT_EQ(SerialStats.BlockedTrees, Stats.BlockedTrees)
        << "threads=" << Threads;
    EXPECT_EQ(Serial, Asm) << "threads=" << Threads;
  }
}

TEST(Parallel, TraceTextIdenticalAcrossThreadCounts) {
  std::string Err;
  auto TraceAt = [&](int Threads) {
    Program P;
    DiagnosticSink D;
    EXPECT_TRUE(compileMiniC(MultiFnSource, P, D)) << D.renderAll();
    CodeGenOptions Opts;
    Opts.Trace = true;
    Opts.Parallel.Threads = Threads;
    GGCodeGenerator CG(sharedTarget(), Opts);
    std::string Asm;
    EXPECT_TRUE(CG.compile(P, Asm, Err)) << Err;
    return CG.trace();
  };
  std::string Serial = TraceAt(1);
  ASSERT_FALSE(Serial.empty());
  EXPECT_EQ(Serial, TraceAt(4)) << "shift/reduce trace order diverged";
}

//===----------------------------------------------------------------------===//
// The matcher's per-function tally
//===----------------------------------------------------------------------===//

/// The registry's nonzero match.* counters and histograms, rendered whole.
std::string matchTelemetry() {
  std::string Out;
  for (const auto &[Name, V] : stats().counters())
    if (Name.rfind("match.", 0) == 0 && V.load())
      Out += strf("%s=%llu\n", Name.c_str(),
                  static_cast<unsigned long long>(V.load()));
  for (const auto &[Name, H] : stats().histograms()) {
    if (Name.rfind("match.", 0) != 0 || !H.count())
      continue;
    Out += strf("%s n=%llu sum=%llu min=%llu max=%llu", Name.c_str(),
                static_cast<unsigned long long>(H.count()),
                static_cast<unsigned long long>(H.sum()),
                static_cast<unsigned long long>(H.min()),
                static_cast<unsigned long long>(H.max()));
    for (int W = 0; W <= 64; ++W)
      if (H.bucket(W))
        Out += strf(" %d:%llu", W, static_cast<unsigned long long>(H.bucket(W)));
    Out += '\n';
  }
  return Out;
}

/// Compiles \p Source on \p Target with \p Opts from a zeroed registry;
/// returns whether the compile succeeded.
bool compileFromZero(const VaxTarget &Target, const std::string &Source,
                     const CodeGenOptions &Opts) {
  Program P;
  DiagnosticSink D;
  EXPECT_TRUE(compileMiniC(Source, P, D)) << D.renderAll();
  GGCodeGenerator CG(Target, Opts);
  std::string Asm, Err;
  stats().reset();
  return CG.compile(P, Asm, Err);
}

TEST(MatchTally, CompilePublishesWhatPerTreeMatchesCount) {
  // Each function publishes its trees' counts once; the registry must end
  // up exactly where matching the same trees one at a time through the
  // value-returning match() (which publishes per tree) puts it.
  GenOptions GOpts;
  GOpts.Functions = 6;
  GOpts.StmtsPerFunction = 8;
  const std::string Sources[] = {MultiFnSource,
                                 generateProgram(0x7A11E5u, GOpts)};
  const Matcher &M = sharedTarget().matcher();
  for (const std::string &Source : Sources) {
    Program ForMatch;
    DiagnosticSink D;
    ASSERT_TRUE(compileMiniC(Source, ForMatch, D)) << D.renderAll();
    const std::vector<std::vector<LinToken>> Inputs =
        matcherInputs(ForMatch, M.driver().termMap());
    stats().reset();
    for (const std::vector<LinToken> &Input : Inputs)
      ASSERT_TRUE(M.match(Input).Ok);
    const std::string PerTree = matchTelemetry();
    ASSERT_NE(PerTree.find(strf("match.trees=%zu\n", Inputs.size())),
              std::string::npos)
        << PerTree;

    for (int Threads : {1, 4}) {
      CodeGenOptions Opts;
      Opts.Parallel.Threads = Threads;
      ASSERT_TRUE(compileFromZero(sharedTarget(), Source, Opts));
      EXPECT_EQ(PerTree, matchTelemetry()) << "threads=" << Threads;
    }
  }
}

TEST(MatchTally, BudgetStoppedFunctionStillPublishes) {
  // The budget stops a long tree midway and fails its function; that tree
  // and the trees before it are still counted.
  std::string Long = "a";
  for (int I = 0; I < 300; ++I)
    Long += " + a";
  const std::string Source = "int f(int a) { int b = a + 1; return b; }\n"
                             "int g(int a) { int b = a; return " +
                             Long + "; }\n";
  for (int Threads : {1, 4}) {
    RequestBudget Budget;
    Budget.MaxSteps = 600;
    CodeGenOptions Opts;
    Opts.Parallel.Threads = Threads;
    Opts.Budget = &Budget;
    EXPECT_FALSE(compileFromZero(sharedTarget(), Source, Opts));
    const uint64_t Stops = stats().counter("match.budget_stops");
    if (Threads == 1) {
      EXPECT_EQ(Stops, 1u);
    } else {
      EXPECT_GE(Stops, 1u);
    }
    EXPECT_EQ(stats().counter("match.syntactic_blocks").load(), Stops);
    EXPECT_GT(stats().counter("match.trees"), Stops);
    EXPECT_EQ(stats().histogram("match.steps_per_tree").count(),
              stats().counter("match.trees").load());
  }
}

TEST(MatchTally, BlockedFunctionWithoutRecoverStillPublishes) {
  // Without Recover, the first blocked tree fails its function; every
  // function still runs, so the totals are the same at any thread count.
  FaultGuard Guard;
  std::string Err;
  ASSERT_TRUE(faultInject().configure("drop-prod=push_l", Err)) << Err;
  std::unique_ptr<VaxTarget> Target = VaxTarget::create(Err);
  ASSERT_NE(Target, nullptr) << Err;
  std::string Serial;
  for (int Threads : {1, 4}) {
    CodeGenOptions Opts;
    Opts.Parallel.Threads = Threads;
    Opts.Recover = false;
    EXPECT_FALSE(compileFromZero(*Target, MultiFnSource, Opts));
    EXPECT_GE(stats().counter("match.syntactic_blocks"), 1u);
    EXPECT_EQ(stats().histogram("match.tokens_per_tree").count(),
              stats().counter("match.trees").load());
    if (Threads == 1)
      Serial = matchTelemetry();
    else
      EXPECT_EQ(Serial, matchTelemetry());
  }
}

} // namespace
