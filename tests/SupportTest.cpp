//===- SupportTest.cpp - support library unit tests ---------------------------===//

#include "support/CliOptions.h"
#include "support/Error.h"
#include "support/Interner.h"
#include "support/Json.h"
#include "support/Phase.h"
#include "support/Stats.h"
#include "support/Strings.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace gg;

namespace {

TEST(Strings, Strf) {
  EXPECT_EQ(strf("%d + %d = %d", 1, 2, 3), "1 + 2 = 3");
  EXPECT_EQ(strf("%s", ""), "");
  EXPECT_EQ(strf("%-4sx", "ab"), "ab  x");
  // Long output must not truncate.
  std::string Long(500, 'q');
  EXPECT_EQ(strf("%s", Long.c_str()).size(), 500u);
}

TEST(Strings, SplitString) {
  auto F = splitString("a,b,,c", ',');
  ASSERT_EQ(F.size(), 4u);
  EXPECT_EQ(F[0], "a");
  EXPECT_EQ(F[2], "");
  EXPECT_EQ(F[3], "c");
  EXPECT_EQ(splitString("", ',').size(), 1u);
  EXPECT_EQ(splitString("x", ',').size(), 1u);
}

TEST(Strings, SplitWhitespace) {
  auto F = splitWhitespace("  foo \t bar\nbaz  ");
  ASSERT_EQ(F.size(), 3u);
  EXPECT_EQ(F[0], "foo");
  EXPECT_EQ(F[1], "bar");
  EXPECT_EQ(F[2], "baz");
  EXPECT_TRUE(splitWhitespace("   ").empty());
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
  EXPECT_EQ(trim("ab"), "ab");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(startsWith("movzbl", "movz"));
  EXPECT_FALSE(startsWith("mo", "movz"));
  EXPECT_TRUE(endsWith("addl3", "l3"));
  EXPECT_FALSE(endsWith("a", "l3"));
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(parseInt("42").value(), 42);
  EXPECT_EQ(parseInt("-17").value(), -17);
  EXPECT_EQ(parseInt("0x10").value(), 16);
  EXPECT_FALSE(parseInt("").has_value());
  EXPECT_FALSE(parseInt("12x").has_value());
  EXPECT_FALSE(parseInt("--3").has_value());
}

TEST(Strings, JoinStrings) {
  EXPECT_EQ(joinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(joinStrings({}, ","), "");
  EXPECT_EQ(joinStrings({"only"}, ","), "only");
}

TEST(InternerTest, StableIdsAndRoundTrip) {
  Interner I;
  InternedString A = I.intern("alpha");
  InternedString B = I.intern("beta");
  InternedString A2 = I.intern("alpha");
  EXPECT_EQ(A, A2);
  EXPECT_NE(A, B);
  EXPECT_EQ(I.text(A), "alpha");
  EXPECT_EQ(I.text(B), "beta");
  EXPECT_FALSE(A.isEmpty());
  EXPECT_TRUE(InternedString().isEmpty());
}

TEST(InternerTest, ManyStringsSurviveRehash) {
  Interner I;
  std::vector<InternedString> Handles;
  for (int K = 0; K < 1000; ++K)
    Handles.push_back(I.intern("sym" + std::to_string(K)));
  for (int K = 0; K < 1000; ++K)
    EXPECT_EQ(I.text(Handles[K]), "sym" + std::to_string(K));
}

TEST(DiagnosticsTest, CountsAndRendering) {
  DiagnosticSink D;
  EXPECT_FALSE(D.hasErrors());
  D.warning("looks odd", 3);
  EXPECT_FALSE(D.hasErrors());
  D.error("broken", 7);
  D.note("context");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.errors(), 1u);
  std::string All = D.renderAll();
  EXPECT_NE(All.find("line 3: warning: looks odd"), std::string::npos);
  EXPECT_NE(All.find("line 7: error: broken"), std::string::npos);
  EXPECT_NE(All.find("note: context"), std::string::npos);
}

/// Busy-waits \p Seconds on the shared clock.
void spinFor(double Seconds) {
  const MonoClock::time_point Start = MonoClock::now();
  while (monoSeconds(Start, MonoClock::now()) < Seconds) {
  }
}

/// Seconds since \p Start on the phase clock's own timebase, so a wall
/// interval and the self times inside it are converted at the same rate.
double secondsSince(uint64_t Start) {
  return static_cast<double>(profTicks() - Start) / profTicksPerSecond();
}

double sumOf(const PhaseTimes &T) {
  double Sum = 0;
  for (double S : T.Seconds)
    Sum += S;
  return Sum;
}

TEST(PhaseScope, NestedSelfTimesSumToOuterInterval) {
  PhaseTimes T;
  const uint64_t Start = profTicks();
  {
    PhaseAccount Account(T);
    PhaseScope Stitch(Phase::Stitch);
    spinFor(0.002);
    {
      PhaseScope Emit(Phase::Emit);
      spinFor(0.002);
    }
    spinFor(0.002);
  }
  const double Wall = secondsSince(Start);
  // Each transition closes one interval and opens the next at the same
  // instant, so the self times tile the outer scope: never more than the
  // wall time around it, never less than the time spent spinning.
  EXPECT_GE(T[Phase::Stitch], 0.004);
  EXPECT_GE(T[Phase::Emit], 0.002);
  EXPECT_EQ(sumOf(T), T[Phase::Stitch] + T[Phase::Emit]);
  EXPECT_LE(sumOf(T), Wall);
}

TEST(PhaseScope, EmitInFallbackChargedToEmitOnly) {
  PhaseTimes T;
  const uint64_t Start = profTicks();
  {
    PhaseAccount Account(T);
    PhaseScope Fallback(Phase::Fallback);
    spinFor(0.001);
    {
      PhaseScope Emit(Phase::Emit);
      spinFor(0.02);
    }
    spinFor(0.001);
  }
  const double Wall = secondsSince(Start);
  EXPECT_GE(T[Phase::Emit], 0.02);
  EXPECT_GE(T[Phase::Fallback], 0.002);
  // Charging the emit time to Fallback as well would push the sum ~20ms
  // past the wall time.
  EXPECT_LE(T[Phase::Fallback] + T[Phase::Emit], Wall);
}

TEST(PhaseScope, AccountStartsOutsideEveryPhase) {
  // A pool task run inline on the compiling thread gets its own account
  // and does not inherit (or charge) the caller's phase.
  PhaseTimes Outer, Task;
  {
    PhaseAccount A(Outer);
    PhaseScope Total(Phase::Total);
    {
      PhaseAccount B(Task);
      spinFor(0.002);
      PhaseScope Emit(Phase::Emit);
      spinFor(0.001);
    }
    spinFor(0.001);
  }
  EXPECT_EQ(Task[Phase::Total], 0.0);
  EXPECT_GE(Task[Phase::Emit], 0.001);
  EXPECT_EQ(sumOf(Task), Task[Phase::Emit]);
  EXPECT_EQ(Outer[Phase::Emit], 0.0);
  EXPECT_GE(Outer[Phase::Total], 0.001);
  EXPECT_EQ(sumOf(Outer), Outer[Phase::Total]);
}

TEST(PhaseScope, ThreadsKeepSeparateClocks) {
  // The phase clock is per thread: concurrent workers nest scopes freely
  // and each account sees only its own thread's phases.
  constexpr int Threads = 8;
  PhaseTimes Times[Threads];
  std::vector<std::thread> Pool;
  for (int I = 0; I < Threads; ++I)
    Pool.emplace_back([&Times, I] {
      PhaseAccount Account(Times[I]);
      for (int Round = 0; Round < 200; ++Round) {
        PhaseScope Linearize(Phase::Linearize);
        PhaseScope Emit(Phase::Emit);
      }
      PhaseScope Own(I % 2 ? Phase::Total : Phase::PccCompile);
      spinFor(0.001);
    });
  for (std::thread &T : Pool)
    T.join();
  for (int I = 0; I < Threads; ++I) {
    const Phase Own = I % 2 ? Phase::Total : Phase::PccCompile;
    const Phase Other = I % 2 ? Phase::PccCompile : Phase::Total;
    EXPECT_GE(Times[I][Own], 0.001) << I;
    EXPECT_EQ(Times[I][Other], 0.0) << I;
  }
}

TEST(StatsThreading, OneCounterHammeredFromEightThreads) {
  // Parallel compile workers bump shared registry counters concurrently;
  // every increment must land. 8 threads x 10000 increments, through a
  // mix of the pre-registered reference (the hot-path pattern) and fresh
  // name lookups racing against registration of other keys.
  StatsRegistry R;
  std::atomic<uint64_t> &Hot = R.counter("hammer.hot");
  constexpr int Threads = 8, PerThread = 10000;
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (int I = 0; I < PerThread; ++I) {
        ++Hot;
        R.counter("hammer.looked_up") += 2;
        if (I % 1000 == 0)
          R.counter(strf("hammer.reg.%d.%d", T, I)); // racing registration
        R.value("hammer.val") += 1.0;
        R.histogram("hammer.hist").record(static_cast<uint64_t>(I));
      }
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(R.counter("hammer.hot"),
            static_cast<uint64_t>(Threads) * PerThread);
  EXPECT_EQ(R.counter("hammer.looked_up"),
            static_cast<uint64_t>(Threads) * PerThread * 2);
  EXPECT_EQ(R.value("hammer.val").load(),
            static_cast<double>(Threads) * PerThread);
  EXPECT_EQ(R.histogram("hammer.hist").count(),
            static_cast<uint64_t>(Threads) * PerThread);
  EXPECT_EQ(R.histogram("hammer.hist").min(), 0u);
  EXPECT_EQ(R.histogram("hammer.hist").max(),
            static_cast<uint64_t>(PerThread - 1));
}

//===----------------------------------------------------------------------===//
// Json: the reader behind gg-report and the coverage merge path.
//===----------------------------------------------------------------------===//

TEST(Json, ParsesScalarsAndContainers) {
  JsonValue V;
  std::string Err;
  ASSERT_TRUE(parseJson(
      R"({"n":42,"neg":-1.5,"e":2e3,"s":"hi","t":true,"f":false,"z":null,)"
      R"("arr":[1,2,3],"obj":{"k":"v"}})",
      V, Err))
      << Err;
  ASSERT_TRUE(V.isObject());
  EXPECT_EQ(V.find("n")->asU64(), 42u);
  EXPECT_DOUBLE_EQ(V.find("neg")->asDouble(), -1.5);
  EXPECT_DOUBLE_EQ(V.find("e")->asDouble(), 2000.0);
  EXPECT_EQ(V.find("s")->Str, "hi");
  EXPECT_TRUE(V.find("t")->B);
  EXPECT_FALSE(V.find("f")->B);
  EXPECT_EQ(V.find("z")->K, JsonValue::Null);
  ASSERT_TRUE(V.find("arr")->isArray());
  EXPECT_EQ(V.find("arr")->Arr.size(), 3u);
  EXPECT_DOUBLE_EQ(V.find("arr")->Arr[1].Num, 2.0);
  EXPECT_EQ(V.find("obj")->find("k")->Str, "v");
  EXPECT_EQ(V.find("missing"), nullptr);
  EXPECT_DOUBLE_EQ(V.numberOr("n"), 42.0);
  EXPECT_DOUBLE_EQ(V.numberOr("missing", 7.0), 7.0);
}

TEST(Json, StringEscapes) {
  JsonValue V;
  std::string Err;
  ASSERT_TRUE(parseJson(R"({"k":"a\"b\\c\/d\n\tA"})", V, Err)) << Err;
  EXPECT_EQ(V.find("k")->Str, "a\"b\\c/d\n\tA");
}

TEST(Json, ReportsErrorsWithByteOffset) {
  JsonValue V;
  std::string Err;
  EXPECT_FALSE(parseJson("{\"k\":}", V, Err));
  EXPECT_NE(Err.find("5"), std::string::npos) << Err;
  EXPECT_FALSE(parseJson("", V, Err));
  EXPECT_FALSE(parseJson("[1,2", V, Err));
  EXPECT_FALSE(parseJson("{\"a\":1} junk", V, Err))
      << "trailing garbage must be rejected";
  EXPECT_FALSE(parseJson("{'a':1}", V, Err));
}

TEST(Json, DepthLimitStopsRunawayNesting) {
  std::string Deep(100, '[');
  JsonValue V;
  std::string Err;
  EXPECT_FALSE(parseJson(Deep, V, Err));
  EXPECT_NE(Err.find("deep"), std::string::npos) << Err;
  // 32 levels is comfortably inside the limit.
  std::string Ok = std::string(32, '[') + "1" + std::string(32, ']');
  EXPECT_TRUE(parseJson(Ok, V, Err)) << Err;
}

TEST(Json, DepthCapBoundaryIsExact) {
  // The cap is 64 nested containers: exactly at the cap parses, one
  // frame deeper is rejected — off-by-one drift here would either break
  // legitimate artifacts or re-open the stack-exhaustion hole.
  auto nest = [](int N) {
    return std::string(N, '[') + "1" + std::string(N, ']');
  };
  JsonValue V;
  std::string Err;
  EXPECT_TRUE(parseJson(nest(64), V, Err)) << Err;
  EXPECT_FALSE(parseJson(nest(65), V, Err));
  EXPECT_NE(Err.find("deep"), std::string::npos) << Err;
  // Mixed object/array nesting charges the same depth accounting.
  std::string Mixed;
  for (int I = 0; I < 32; ++I)
    Mixed += "{\"k\":[";
  Mixed += "1";
  for (int I = 0; I < 32; ++I)
    Mixed += "]}";
  EXPECT_TRUE(parseJson(Mixed, V, Err)) << Err;
}

TEST(Json, LoneSurrogatesDegradeToReplacement) {
  // The repo's writers only emit ASCII; the reader's contract for \u is
  // "never crash, never emit mojibake": any non-ASCII code unit —
  // including a lone UTF-16 surrogate half — becomes '?'.
  JsonValue V;
  std::string Err;
  ASSERT_TRUE(parseJson(R"({"k":"a\uD800b"})", V, Err)) << Err;
  EXPECT_EQ(V.find("k")->Str, "a?b");
  ASSERT_TRUE(parseJson(R"({"k":"\uDC00"})", V, Err)) << Err; // low half
  EXPECT_EQ(V.find("k")->Str, "?");
  // A full escaped surrogate pair degrades to two replacement characters.
  ASSERT_TRUE(parseJson("{\"k\":\"\\uD83D\\uDE00\"}", V, Err)) << Err;
  EXPECT_EQ(V.find("k")->Str, "??");
  EXPECT_FALSE(parseJson(R"({"k":"\uD8)", V, Err)); // truncated escape
  EXPECT_FALSE(parseJson(R"({"k":"\uZZZZ"})", V, Err)); // bad hex digit
}

TEST(Json, TrailingGarbageVariants) {
  JsonValue V;
  std::string Err;
  EXPECT_FALSE(parseJson("[1] [2]", V, Err));
  EXPECT_FALSE(parseJson("1 1", V, Err));
  EXPECT_FALSE(parseJson("{}{", V, Err));
  EXPECT_FALSE(parseJson("null,", V, Err));
  // Pure trailing whitespace is not garbage.
  EXPECT_TRUE(parseJson("{\"a\":1}  \n\t ", V, Err)) << Err;
}

TEST(CliOptions, ParsesSharedOptions) {
  CommonDriverOptions O;
  EXPECT_EQ(parseCommonDriverOption("--threads=4", O), CliParse::Ok);
  EXPECT_EQ(O.Threads, 4);
  EXPECT_EQ(parseCommonDriverOption("--stats-json=-", O), CliParse::Ok);
  EXPECT_EQ(O.StatsJsonPath, "-");
  EXPECT_EQ(parseCommonDriverOption("--coverage-json=c.json", O),
            CliParse::Ok);
  EXPECT_EQ(O.CoverageJsonPath, "c.json");
  EXPECT_EQ(parseCommonDriverOption("--profile=instr,steps", O),
            CliParse::Ok);
  EXPECT_TRUE(O.ProfileGiven);
  // Driver-specific flags are not consumed here.
  EXPECT_EQ(parseCommonDriverOption("--backend=gg", O), CliParse::NotMine);
  EXPECT_EQ(parseCommonDriverOption("plain-arg", O), CliParse::NotMine);
}

TEST(CliOptions, RejectsBadValues) {
  CommonDriverOptions O;
  EXPECT_EQ(parseCommonDriverOption("--threads=abc", O), CliParse::Bad);
  EXPECT_EQ(parseCommonDriverOption("--threads=-1", O), CliParse::Bad);
  EXPECT_EQ(parseCommonDriverOption("--threads=257", O), CliParse::Bad);
  EXPECT_EQ(parseCommonDriverOption("--threads=4x", O), CliParse::Bad);
  EXPECT_EQ(parseCommonDriverOption("--profile=bogus", O), CliParse::Bad);
  EXPECT_EQ(parseCommonDriverOption("--profile=instr,bogus", O),
            CliParse::Bad);
  EXPECT_EQ(parseCommonDriverOption("--fault=definitely-not-a-spec", O),
            CliParse::Bad);
  // A rejected option must leave previously parsed state untouched.
  EXPECT_EQ(O.Threads, -1);
}

TEST(CliOptions, WriteTextReportsUnwritablePaths) {
  EXPECT_FALSE(
      writeTextOrStdout("/nonexistent-dir-gg-test/out.txt", "body"));
}

TEST(Json, RoundTripsWriterOutput) {
  // The stats registry is one of the writers gg-report consumes; its
  // output must parse without loss of the keys.
  StatsRegistry R;
  R.counter("a.count") += 3;
  R.value("a.seconds") += 0.25;
  R.histogram("a.hist").record(7);
  JsonValue V;
  std::string Err;
  ASSERT_TRUE(parseJson(R.toJson(), V, Err)) << Err;
  EXPECT_EQ(V.find("schema")->Str, "gg-stats-v1");
  EXPECT_EQ(V.find("counters")->find("a.count")->asU64(), 3u);
  EXPECT_DOUBLE_EQ(V.find("values")->find("a.seconds")->asDouble(), 0.25);
  EXPECT_EQ(V.find("histograms")->find("a.hist")->numberOr("count"), 1.0);
}

} // namespace
