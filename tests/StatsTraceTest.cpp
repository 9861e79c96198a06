//===- StatsTraceTest.cpp - observability layer unit tests --------------------===//
//
// Covers the stats registry (counter/value/histogram semantics, JSON
// well-formedness), the trace recorder (span nesting, Chrome trace_event
// output), and the golden --stats-json schema: the key set the pipeline
// promises must stay stable, because external tooling and the bench
// harness consume it.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInject.h"
#include "support/FlightRecorder.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/Strings.h"
#include "support/Trace.h"

#include "cg/CodeGenerator.h"
#include "frontend/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <map>
#include <sstream>
#include <set>
#include <unistd.h>

using namespace gg;

namespace {

//===----------------------------------------------------------------------===//
// A minimal recursive-descent JSON well-formedness checker. Deliberately
// no third-party dependency: tier-1 must run in the bare container.
//===----------------------------------------------------------------------===//

class JsonChecker {
public:
  explicit JsonChecker(std::string_view Text) : Text(Text) {}

  bool valid() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return Pos == Text.size();
  }

private:
  std::string_view Text;
  size_t Pos = 0;

  char peek() const { return Pos < Text.size() ? Text[Pos] : '\0'; }
  bool eat(char C) {
    if (peek() != C)
      return false;
    ++Pos;
    return true;
  }
  void skipWs() {
    while (Pos < Text.size() && isJsonSpace(Text[Pos]))
      ++Pos;
  }
  static bool isJsonSpace(char C) {
    return C == ' ' || C == '\t' || C == '\n' || C == '\r';
  }

  bool value() {
    switch (peek()) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return false;
    Pos += Word.size();
    return true;
  }

  bool object() {
    if (!eat('{'))
      return false;
    skipWs();
    if (eat('}'))
      return true;
    while (true) {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (!eat(':'))
        return false;
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (eat('}'))
        return true;
      if (!eat(','))
        return false;
    }
  }

  bool array() {
    if (!eat('['))
      return false;
    skipWs();
    if (eat(']'))
      return true;
    while (true) {
      skipWs();
      if (!value())
        return false;
      skipWs();
      if (eat(']'))
        return true;
      if (!eat(','))
        return false;
    }
  }

  bool string() {
    if (!eat('"'))
      return false;
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (static_cast<unsigned char>(C) < 0x20)
        return false; // unescaped control character
      if (C == '\\') {
        if (Pos >= Text.size())
          return false;
        char E = Text[Pos++];
        if (E == 'u') {
          for (int I = 0; I < 4; ++I)
            if (Pos >= Text.size() || !std::isxdigit(static_cast<unsigned char>(Text[Pos++])))
              return false;
        } else if (!strchr("\"\\/bfnrt", E)) {
          return false;
        }
      }
    }
    return false;
  }

  bool number() {
    size_t Start = Pos;
    if (peek() == '-')
      ++Pos;
    while (std::isdigit(static_cast<unsigned char>(peek())))
      ++Pos;
    if (eat('.'))
      while (std::isdigit(static_cast<unsigned char>(peek())))
        ++Pos;
    if (peek() == 'e' || peek() == 'E') {
      ++Pos;
      if (peek() == '+' || peek() == '-')
        ++Pos;
      while (std::isdigit(static_cast<unsigned char>(peek())))
        ++Pos;
    }
    return Pos > Start;
  }
};

bool jsonValid(std::string_view Text) { return JsonChecker(Text).valid(); }

//===----------------------------------------------------------------------===//
// StatsRegistry
//===----------------------------------------------------------------------===//

TEST(Stats, CounterSemantics) {
  StatsRegistry R;
  EXPECT_EQ(R.counter("a.b"), 0u) << "first lookup creates at zero";
  R.counter("a.b") += 3;
  ++R.counter("a.b");
  EXPECT_EQ(R.counter("a.b"), 4u);

  // References are stable across further registration.
  std::atomic<uint64_t> &C = R.counter("a.b");
  for (int I = 0; I < 100; ++I)
    R.counter(strf("filler.%d", I));
  C += 1;
  EXPECT_EQ(R.counter("a.b"), 5u);
}

TEST(Stats, ResetKeepsRegistrations) {
  StatsRegistry R;
  R.counter("x") = 7;
  R.value("y") = 1.5;
  R.histogram("z").record(4);
  R.reset();
  EXPECT_EQ(R.counters().size(), 1u);
  EXPECT_EQ(R.counter("x"), 0u);
  EXPECT_EQ(R.value("y"), 0.0);
  EXPECT_EQ(R.histogram("z").count(), 0u);
  // The JSON key set survives a reset.
  EXPECT_NE(R.toJson().find("\"x\""), std::string::npos);
}

TEST(Stats, HistogramSemantics) {
  LogHistogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 0u);
  EXPECT_EQ(H.mean(), 0.0);

  for (uint64_t V : {0ull, 1ull, 2ull, 3ull, 4ull, 7ull, 8ull, 1024ull})
    H.record(V);
  EXPECT_EQ(H.count(), 8u);
  EXPECT_EQ(H.sum(), 0u + 1 + 2 + 3 + 4 + 7 + 8 + 1024);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 1024u);
  // Log2 bucketing: value 0 -> width 0; 1 -> 1; 2,3 -> 2; 4..7 -> 3;
  // 8 -> 4; 1024 -> 11.
  EXPECT_EQ(H.bucket(0), 1u);
  EXPECT_EQ(H.bucket(1), 1u);
  EXPECT_EQ(H.bucket(2), 2u);
  EXPECT_EQ(H.bucket(3), 2u);
  EXPECT_EQ(H.bucket(4), 1u);
  EXPECT_EQ(H.bucket(11), 1u);
  EXPECT_EQ(LogHistogram::bucketUpper(3), 7u);
}

TEST(Stats, JsonWellFormed) {
  StatsRegistry R;
  R.counter("plain") = 42;
  R.counter("needs \"escaping\"\n") = 1;
  R.value("seconds") = 0.125;
  R.histogram("depth").record(3);
  R.histogram("depth").record(300);
  std::string Json = R.toJson();
  EXPECT_TRUE(jsonValid(Json)) << Json;
  EXPECT_NE(Json.find("\"schema\":\"gg-stats-v1\""), std::string::npos);
  EXPECT_NE(Json.find("\\\"escaping\\\""), std::string::npos);
}

TEST(Stats, JsonEscape) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(jsonEscape(std::string_view("a\x01z", 3)), "a\\u0001z");
}

//===----------------------------------------------------------------------===//
// TraceRecorder
//===----------------------------------------------------------------------===//

/// The named arg of \p E, or -1 when it has none.
int64_t argOf(const TraceEvent &E, std::string_view Key) {
  for (const auto &[K, V] : E.args())
    if (K == Key)
      return V;
  return -1;
}

TEST(Trace, DisabledRecorderRecordsNothing) {
  TraceRecorder R;
  {
    TraceSpan S("ignored", R);
    S.arg("k", 1);
  }
  EXPECT_TRUE(R.events().empty());
}

TEST(Trace, SpanNesting) {
  TraceRecorder R;
  R.enable();
  {
    TraceSpan Outer("outer", R);
    {
      TraceSpan Inner("inner", R);
      TraceSpan Inner2("inner2", R);
    }
    TraceSpan Sibling("sibling", R);
  }
  ASSERT_EQ(R.events().size(), 4u);
  // Events are recorded at destruction: inner2, inner, sibling, outer.
  auto Find = [&](const char *Name) -> const TraceEvent & {
    for (const TraceEvent &E : R.events())
      if (E.name() == Name)
        return E;
    static TraceEvent Missing;
    return Missing;
  };
  EXPECT_EQ(Find("outer").Depth, 0);
  EXPECT_EQ(Find("inner").Depth, 1);
  EXPECT_EQ(Find("inner2").Depth, 2);
  EXPECT_EQ(Find("sibling").Depth, 1);
  // Containment: inner starts no earlier than outer and ends no later.
  const TraceEvent &O = Find("outer"), &I = Find("inner");
  EXPECT_GE(I.StartUs, O.StartUs);
  EXPECT_LE(I.StartUs + I.DurUs, O.StartUs + O.DurUs + 1e-3);
}

TEST(Trace, ChromeJsonWellFormed) {
  TraceRecorder R;
  R.enable();
  {
    TraceSpan S("phase \"one\"", R);
    S.arg("items", 12);
    TraceSpan T("nested", R);
  }
  std::string Json = R.toChromeJson();
  EXPECT_TRUE(jsonValid(Json)) << Json;
  // trace_event essentials: complete events with name/ts/dur/pid/tid.
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(Json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(Json.find("\"args\":{\"items\":12}"), std::string::npos);
  size_t Outer = Json.find("phase \\\"one\\\""), Nested = Json.find("nested");
  ASSERT_NE(Outer, std::string::npos);
  ASSERT_NE(Nested, std::string::npos);
  EXPECT_LT(Outer, Nested) << "events must be in start order, not "
                              "destruction order:\n"
                           << Json;
}

TEST(Trace, ChromeJsonBytesArePinned) {
  TraceRecorder R;
  R.enable();
  // Recorded out of start order, on two threads' tracks.
  auto Record = [&](const char *Name, double StartUs, double DurUs,
                    uint32_t Tid, std::vector<TraceEvent::Arg> Args) {
    TraceEvent E;
    R.enter(E);
    std::strcpy(E.NameBuf, Name);
    E.StartUs = StartUs;
    E.DurUs = DurUs;
    E.Tid = Tid;
    for (const TraceEvent::Arg &A : Args)
      E.ArgBuf[E.NumArgs++] = A;
    R.exit(E);
  };
  Record("cg.function", 12.3456, 1000.5, 2,
         {{"trees", 3}, {"steps", -7}, {"big", int64_t{1} << 40}});
  Record("say \"hi\"\\\n\x01", 0.25, 0, 1, {});
  EXPECT_EQ(R.toChromeJson(),
            "[\n"
            "{\"name\":\"say \\\"hi\\\"\\\\\\n\\u0001\",\"cat\":\"gg\","
            "\"ph\":\"X\",\"ts\":0.250,\"dur\":0.000,\"pid\":1,\"tid\":1},\n"
            "{\"name\":\"cg.function\",\"cat\":\"gg\",\"ph\":\"X\","
            "\"ts\":12.346,\"dur\":1000.500,\"pid\":1,\"tid\":2,"
            "\"args\":{\"trees\":3,\"steps\":-7,\"big\":1099511627776}}\n"
            "]\n");
}

TEST(Trace, RecorderKeepsTheNewestSpans) {
  TraceRecorder R;
  R.enable();
  const size_t Extra = 5;
  for (size_t I = 0; I < TraceRecorder::Capacity + Extra; ++I) {
    TraceSpan S("span", R);
    S.arg("i", static_cast<int64_t>(I));
  }
  ASSERT_EQ(R.events().size(), TraceRecorder::Capacity);
  std::vector<int64_t> Kept;
  for (const TraceEvent &E : R.events())
    Kept.push_back(E.args()[0].Value);
  std::sort(Kept.begin(), Kept.end());
  EXPECT_EQ(Kept.front(), static_cast<int64_t>(Extra));
  EXPECT_EQ(Kept.back(),
            static_cast<int64_t>(TraceRecorder::Capacity + Extra - 1));
  EXPECT_EQ(std::adjacent_find(Kept.begin(), Kept.end()), Kept.end());
  R.clear();
  EXPECT_TRUE(R.events().empty());
}

TEST(Trace, EventsHoldTruncatedNamesAndCappedArgs) {
  TraceRecorder R;
  R.enable();
  const std::string Long(TraceEvent::MaxName + 10, 'n');
  {
    TraceSpan S(Long, R);
    for (size_t I = 0; I < TraceEvent::MaxArgs + 3; ++I)
      S.arg("k", static_cast<int64_t>(I));
  }
  ASSERT_EQ(R.events().size(), 1u);
  const TraceEvent &E = R.events()[0];
  EXPECT_EQ(E.name(), Long.substr(0, TraceEvent::MaxName));
  ASSERT_EQ(E.args().size(), TraceEvent::MaxArgs);
  EXPECT_EQ(E.args().back().Value,
            static_cast<int64_t>(TraceEvent::MaxArgs - 1));
}

//===----------------------------------------------------------------------===//
// Request scopes and the flight recorder
//===----------------------------------------------------------------------===//

TEST(Trace, RequestScopeTagsSpansAndNestsCorrectly) {
  TraceRecorder R;
  R.enable();
  {
    TraceSpan Outside("outside", R);
  }
  {
    RequestScope Scope(314, 2);
    EXPECT_EQ(RequestScope::current().Id, 314u);
    EXPECT_EQ(RequestScope::current().Generation, 2u);
    {
      TraceSpan Tagged("tagged", R);
    }
    // setGeneration patches the active scope in place — the service layer
    // calls it once it has pinned the table snapshot actually serving.
    RequestScope::setGeneration(5);
    {
      TraceSpan Patched("patched", R);
    }
    {
      RequestScope Inner(999, 1);
      EXPECT_EQ(RequestScope::current().Id, 999u);
    }
    // The nested scope restored the outer identity on exit.
    EXPECT_EQ(RequestScope::current().Id, 314u);
    EXPECT_EQ(RequestScope::current().Generation, 5u);
  }
  EXPECT_EQ(RequestScope::current().Id, 0u);

  auto ArgOf = [&](const char *Name, const char *Key) -> int64_t {
    for (const TraceEvent &E : R.events())
      if (E.name() == Name)
        return argOf(E, Key);
    return -1;
  };
  EXPECT_EQ(ArgOf("outside", "req"), -1) << "no scope, no req arg";
  EXPECT_EQ(ArgOf("tagged", "req"), 314);
  EXPECT_EQ(ArgOf("tagged", "gen"), 2);
  EXPECT_EQ(ArgOf("patched", "gen"), 5);
}

TEST(Flight, DumpIsParseableOrderedAndNamesTheRequest) {
  {
    RequestScope Scope(424242, 7);
    flightRecord(FlightKind::Admit, 3);
    flightRecord(FlightKind::Dispatch, 1);
    flightRecord(FlightKind::Respond, 0);
  }
  flightRecord(FlightKind::Drain);
  uint64_t Recorded = flightEventCount();
  EXPECT_GE(Recorded, 4u);

  std::string Path =
      strf("/tmp/gg-flight-unit-%d.json", static_cast<int>(getpid()));
  int Fd = ::open(Path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  ASSERT_GE(Fd, 0);
  flightDumpFd(Fd, "unit-test");
  ::close(Fd);

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::stringstream SS;
  SS << In.rdbuf();
  ::unlink(Path.c_str());
  ASSERT_TRUE(jsonValid(SS.str())) << SS.str();

  JsonValue V;
  std::string Err;
  ASSERT_TRUE(parseJson(SS.str(), V, Err)) << Err;
  const JsonValue *Schema = V.find("schema");
  ASSERT_NE(Schema, nullptr);
  EXPECT_EQ(Schema->Str, "gg-flight-v1");
  const JsonValue *Reason = V.find("reason");
  ASSERT_NE(Reason, nullptr);
  EXPECT_EQ(Reason->Str, "unit-test");
  EXPECT_GE(V.numberOr("recorded"), static_cast<double>(Recorded));
  EXPECT_GE(V.numberOr("recorded"), V.numberOr("retained"));

  const JsonValue *Events = V.find("events");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  // Seq-ordered merge across rings, and the scoped events carry the
  // request identity: admit -> dispatch -> respond for req 424242 in
  // that order, each stamped with generation 7.
  double PrevSeq = -1;
  std::vector<std::string> ReqKinds;
  for (const JsonValue &E : Events->Arr) {
    double Seq = E.numberOr("seq", -1);
    EXPECT_GT(Seq, PrevSeq);
    PrevSeq = Seq;
    if (E.numberOr("req") == 424242) {
      const JsonValue *Kind = E.find("kind");
      ASSERT_NE(Kind, nullptr);
      ReqKinds.push_back(Kind->Str);
      EXPECT_EQ(E.numberOr("gen"), 7);
    }
  }
  ASSERT_EQ(ReqKinds.size(), 3u);
  EXPECT_EQ(ReqKinds[0], "admit");
  EXPECT_EQ(ReqKinds[1], "dispatch");
  EXPECT_EQ(ReqKinds[2], "respond");

  // Kind names are stable dump vocabulary.
  EXPECT_STREQ(flightKindName(FlightKind::WatchdogKill), "watchdog-kill");
  EXPECT_STREQ(flightKindName(FlightKind::Admit), "admit");
  EXPECT_STREQ(flightKindName(FlightKind::CrashSignal), "crash-signal");
}

// A function's trees run phase by phase: one phase-match and one
// phase-replay event per function that has trees, carrying the function's
// tokens and steps, and neither for a function without trees.
TEST(Flight, MatchAndReplayPhasesRecordOncePerFunction) {
  const char *Source = R"(
int sq(int x) { return x * x + 1; }
void nothing() { }
int main() { int a; a = sq(3); nothing(); print(a * 2 + 1); return a; }
)";
  std::string Err;
  std::unique_ptr<VaxTarget> Target = VaxTarget::create(Err);
  ASSERT_TRUE(Target) << Err;
  static uint64_t NextReq = 0xF11E0000; // fresh ids when the test repeats
  const uint64_t Req = ++NextReq;
  Program P;
  DiagnosticSink D;
  ASSERT_TRUE(compileMiniC(Source, P, D)) << D.renderAll();
  GGCodeGenerator CG(*Target);
  TraceRecorder &R = TraceRecorder::global();
  R.clear();
  R.enable();
  {
    RequestScope Scope(Req);
    std::string Asm;
    ASSERT_TRUE(CG.compile(P, Asm, Err)) << Err;
  }
  R.disable();

  // The functions' own tallies, in source order (one worker).
  std::vector<std::string> Want;
  int WithoutTrees = 0;
  for (const TraceEvent &E : R.events()) {
    if (E.name().rfind("cg.function ", 0) != 0)
      continue;
    if (argOf(E, "trees") == 0) {
      ++WithoutTrees;
      continue;
    }
    Want.push_back(strf("phase-match %lld",
                        static_cast<long long>(argOf(E, "tokens"))));
    Want.push_back(strf("phase-replay %lld",
                        static_cast<long long>(argOf(E, "steps"))));
  }
  R.clear();
  EXPECT_EQ(WithoutTrees, 1);
  ASSERT_EQ(Want.size(), 4u);

  std::FILE *F = std::tmpfile();
  ASSERT_NE(F, nullptr);
  flightDumpFd(fileno(F), "unit-test");
  std::rewind(F);
  std::string Text;
  char Buf[4096];
  for (size_t N; (N = std::fread(Buf, 1, sizeof(Buf), F)) > 0;)
    Text.append(Buf, N);
  std::fclose(F);
  JsonValue V;
  ASSERT_TRUE(parseJson(Text, V, Err)) << Err;
  std::vector<std::string> Got;
  for (const JsonValue &E : V.find("events")->Arr) {
    const std::string &Kind = E.find("kind")->Str;
    if (E.numberOr("req") == static_cast<double>(Req) &&
        (Kind == "phase-match" || Kind == "phase-replay"))
      Got.push_back(strf("%s %g", Kind.c_str(), E.numberOr("arg")));
  }
  EXPECT_EQ(Got, Want);
  // The args add up to the compile's matcher totals.
  const auto ArgOf = [](const std::string &Event) {
    return std::stoull(Event.substr(Event.find(' ') + 1));
  };
  EXPECT_EQ(ArgOf(Want[0]) + ArgOf(Want[2]), CG.stats().MatcherTokens);
  EXPECT_EQ(ArgOf(Want[1]) + ArgOf(Want[3]), CG.stats().MatcherSteps);
}

/// Four functions; the truncate-input fault blocks the first tree (the
/// return in a), which the PCC fallback recovers.
const char *FourFunctions = R"(
int a(int x) { return x * 3 + 1; }
int b(int x) { int i; int s; i = 0; s = 0; while (i < x) { s = s + i * i; i = i + 1; } return s; }
int c(int x) { return a(x) + b(x); }
int main() { print(c(6)); return a(1) + b(3); }
)";

/// Compiles FourFunctions at \p Threads with exactly one blocked tree.
CodeGenStats compileWithOneBlockedTree(const VaxTarget &Target, int Threads) {
  std::string Err;
  faultInject().reset();
  EXPECT_TRUE(faultInject().configure("truncate-input=1000", Err)) << Err;
  Program P;
  DiagnosticSink D;
  EXPECT_TRUE(compileMiniC(FourFunctions, P, D)) << D.renderAll();
  CodeGenOptions Opts;
  Opts.Parallel.Threads = Threads;
  GGCodeGenerator CG(Target, Opts);
  std::string Asm;
  EXPECT_TRUE(CG.compile(P, Asm, Err)) << Err;
  faultInject().reset();
  EXPECT_EQ(CG.stats().BlockedTrees, 1u);
  EXPECT_EQ(CG.stats().RecoveredTrees, 1u);
  return CG.stats();
}

// Tracing stops at function granularity: no per-tree spans, one
// cg.fallback span per blocked tree, and each cg.function span carries
// its trees' match tally, which adds up to what reached the registry.
TEST(Trace, FunctionSpansCarryTheMatchTally) {
  std::string Err;
  std::unique_ptr<VaxTarget> Target = VaxTarget::create(Err);
  ASSERT_TRUE(Target) << Err;
  std::atomic<uint64_t> &Trees = stats().counter("match.trees");
  LogHistogram &Steps = stats().histogram("match.steps_per_tree");
  TraceRecorder &R = TraceRecorder::global();
  for (int Threads : {1, 4}) {
    SCOPED_TRACE(Threads);
    const uint64_t Trees0 = Trees, Steps0 = Steps.sum();
    R.clear();
    R.enable();
    compileWithOneBlockedTree(*Target, Threads);
    R.disable();
    int Functions = 0, Fallbacks = 0, FallbackArgs = 0;
    int64_t FnTrees = 0, FnSteps = 0;
    for (const TraceEvent &E : R.events()) {
      EXPECT_NE(E.name(), "match.tree");
      EXPECT_NE(E.name(), "cg.replay");
      Fallbacks += E.name() == "cg.fallback";
      if (E.name().rfind("cg.function ", 0) != 0)
        continue;
      ++Functions;
      FnTrees += argOf(E, "trees");
      FnSteps += argOf(E, "steps");
      EXPECT_GT(argOf(E, "tokens"), 0) << E.name();
      EXPECT_GT(argOf(E, "max_depth"), 0) << E.name();
      EXPECT_GT(argOf(E, "cg.match"), 0) << E.name();
      FallbackArgs += argOf(E, "cg.fallback") > 0;
    }
    EXPECT_EQ(Functions, 4);
    EXPECT_EQ(Fallbacks, 1);
    EXPECT_EQ(FallbackArgs, 1);
    EXPECT_EQ(FnTrees, static_cast<int64_t>(Trees - Trees0));
    EXPECT_EQ(FnSteps, static_cast<int64_t>(Steps.sum() - Steps0));
  }
  R.clear();
}

// The acceptance criterion behind gg-report --trace: one request's span
// structure is a deterministic function of the request, not of the
// worker count. Filtering the trace by the req arg must yield the same
// multiset of spans (names, request identity and the function spans'
// match tallies) at --threads=1 and 4, blocked tree included.
TEST(Trace, RequestSpanStructureIsThreadCountInvariant) {
  std::string Err;
  std::unique_ptr<VaxTarget> Target = VaxTarget::create(Err);
  ASSERT_TRUE(Target) << Err;

  TraceRecorder &R = TraceRecorder::global();
  auto SpansFor = [&](int Threads, uint64_t ReqId) {
    R.clear();
    R.enable();
    {
      RequestScope Scope(ReqId, 3);
      compileWithOneBlockedTree(*Target, Threads);
    }
    R.disable();
    std::vector<std::string> Names;
    for (const TraceEvent &E : R.events()) {
      if (argOf(E, "req") != static_cast<int64_t>(ReqId))
        continue;
      EXPECT_EQ(argOf(E, "gen"), 3) << E.name();
      std::string Span(E.name());
      for (const char *Key : {"trees", "tokens", "steps", "max_depth"})
        if (argOf(E, Key) >= 0)
          Span += strf(" %s=%lld", Key, static_cast<long long>(argOf(E, Key)));
      Names.push_back(Span);
    }
    std::sort(Names.begin(), Names.end());
    return Names;
  };

  std::vector<std::string> Serial = SpansFor(1, 6001);
  std::vector<std::string> Parallel = SpansFor(4, 6002);
  ASSERT_FALSE(Serial.empty());
  // Per-function spans reached the trace from pool workers too.
  auto Has = [&](const char *Prefix) {
    return std::any_of(Serial.begin(), Serial.end(), [&](const auto &N) {
      return N.rfind(Prefix, 0) == 0;
    });
  };
  EXPECT_TRUE(Has("cg.function main trees="));
  EXPECT_TRUE(Has("cg.fallback"));
  EXPECT_EQ(Serial, Parallel)
      << "span structure must not depend on the worker count";

  // Each span carries its thread's ordinal and its depth within that
  // thread, and a 4-thread compile puts the per-function spans on more
  // than one track. The calling thread runs task 0 first and then steals
  // every deque the spawned workers have not reached yet, so a late thread
  // start could leave it all the work: the stall-worker fault holds task 0
  // for 47 ms (seed 20), long enough for the workers to start.
  std::string Big;
  for (int F = 0; F < 8; ++F) {
    Big += strf("int f%d(int x) { int s; s = x;", F);
    for (int I = 0; I < 150; ++I)
      Big += strf(" s = s * %d + x - %d;", I % 7 + 2, I);
    Big += " return s; }\n";
  }
  Big += "int main() { return f0(1) + f7(2); }\n";
  R.clear();
  R.enable();
  {
    struct Disarm {
      ~Disarm() { faultInject().reset(); }
    } Guard;
    ASSERT_TRUE(faultInject().configure("stall-worker=50,seed=20", Err))
        << Err;
    Program P;
    DiagnosticSink D;
    ASSERT_TRUE(compileMiniC(Big, P, D)) << D.renderAll();
    CodeGenOptions Opts;
    Opts.Parallel.Threads = 4;
    GGCodeGenerator CG(*Target, Opts);
    std::string Asm;
    ASSERT_TRUE(CG.compile(P, Asm, Err)) << Err;
  }
  R.disable();
  std::map<uint32_t, std::vector<const TraceEvent *>> ByTid;
  std::set<uint32_t> FunctionTids;
  for (const TraceEvent &E : R.events()) {
    ByTid[E.Tid].push_back(&E);
    if (E.name().rfind("cg.function ", 0) == 0)
      FunctionTids.insert(E.Tid);
  }
  EXPECT_GT(FunctionTids.size(), 1u);
  // Within a thread, a span at depth d sits inside the enclosing span at
  // depth d-1, and spans that do not nest follow one another.
  auto End = [](const TraceEvent *E) { return E->StartUs + E->DurUs; };
  for (auto &[Tid, Spans] : ByTid) {
    std::stable_sort(Spans.begin(), Spans.end(),
                     [](const TraceEvent *A, const TraceEvent *B) {
                       return A->StartUs != B->StartUs
                                  ? A->StartUs < B->StartUs
                                  : A->Depth < B->Depth;
                     });
    std::vector<const TraceEvent *> Open;
    for (const TraceEvent *E : Spans) {
      while (!Open.empty() && End(Open.back()) <= E->StartUs)
        Open.pop_back();
      EXPECT_EQ(E->Depth, static_cast<int>(Open.size()))
          << E->name() << " on tid " << Tid;
      if (!Open.empty()) {
        EXPECT_LE(End(E), End(Open.back()) + 1e-3)
            << E->name() << " escapes " << Open.back()->name();
      }
      Open.push_back(E);
    }
  }
  R.clear();
}

//===----------------------------------------------------------------------===//
// Golden schema: the keys --stats-json promises after a compile.
//===----------------------------------------------------------------------===//

TEST(StatsSchema, PipelineEmitsPromisedKeys) {
  std::string Err;
  std::unique_ptr<VaxTarget> Target = VaxTarget::create(Err);
  ASSERT_TRUE(Target) << Err;

  const char *Source = "int g; int main() { int i; i = 0;"
                       " while (i < 10) { g = g + i; i = i + 1; }"
                       " return g; }";
  Program P;
  DiagnosticSink Diags;
  ASSERT_TRUE(compileMiniC(Source, P, Diags)) << Diags.renderAll();

  stats().reset();
  GGCodeGenerator CG(*Target);
  std::string Asm;
  ASSERT_TRUE(CG.compile(P, Asm, Err)) << Err;

  std::string Json = stats().toJson();
  ASSERT_TRUE(jsonValid(Json)) << Json;

  // The documented gg-stats-v1 schema (docs/observability.md). Keys may
  // be ADDED freely; renaming or dropping any of these is a breaking
  // change for telemetry consumers and must bump the schema tag.
  for (const char *Key :
       {// four Figure-2 phases
        "cg.transform_seconds", "cg.match_seconds", "cg.instrgen_seconds",
        "cg.emit_seconds",
        // table constructor
        "tablegen.states", "tablegen.conflicts.shift_reduce",
        "tablegen.conflicts.reduce_reduce",
        "tablegen.conflicts.reduce_reduce_dynamic", "tablegen.chain_loops",
        "tablegen.packed.bytes",
        // matcher
        "match.trees", "match.shifts", "match.reduces",
        "match.dynamic_ties", "match.syntactic_blocks", "match.stack_depth",
        "match.tokens_per_tree", "match.steps_per_tree",
        // phase 1 / idioms / registers / peephole / emitter
        "phase1.constants_folded", "phase1.reverse_ops_used",
        "idiom.binding_applied", "idiom.range_applied",
        "idiom.cc_tests_elided", "idiom.pseudo_expansions",
        "regs.allocations", "regs.spills", "regs.unspills",
        "peephole.branch_to_next_removed", "peephole.branches_inverted",
        "peephole.chains_collapsed", "peephole.unreachable_removed",
        "emit.instructions", "emit.asm_lines"})
    EXPECT_NE(Json.find(strf("\"%s\"", Key)), std::string::npos)
        << "schema key missing from stats JSON: " << Key;

  // And the telemetry is live, not just registered.
  EXPECT_GT(stats().counter("match.trees"), 0u);
  EXPECT_GT(stats().counter("match.shifts"), 0u);
  EXPECT_GT(stats().histogram("match.stack_depth").count(), 0u);
  EXPECT_GT(stats().counter("emit.instructions"), 0u);
}

TEST(StatsSchema, ExplainModeAnnotatesInstructions) {
  std::string Err;
  std::unique_ptr<VaxTarget> Target = VaxTarget::create(Err);
  ASSERT_TRUE(Target) << Err;

  Program P;
  DiagnosticSink Diags;
  ASSERT_TRUE(compileMiniC("int main() { int x; x = 1 + 2; return x; }", P,
                           Diags));
  CodeGenOptions Opts;
  Opts.Explain = true;
  GGCodeGenerator CG(*Target, Opts);
  std::string Asm;
  ASSERT_TRUE(CG.compile(P, Asm, Err)) << Err;
  // Every production annotation has the "# P<id>: lhs <- rhs" shape.
  EXPECT_NE(Asm.find("\t# P"), std::string::npos) << Asm;
  EXPECT_NE(Asm.find("<-"), std::string::npos);

  // The same program without explain has no annotations.
  GGCodeGenerator Plain(*Target);
  std::string PlainAsm;
  ASSERT_TRUE(Plain.compile(P, PlainAsm, Err)) << Err;
  EXPECT_EQ(PlainAsm.find("\t# P"), std::string::npos);
}

TEST(StatsSchema, EmitSecondsAccountedAndDisjoint) {
  // The second input drops push_l, so every print() argument tree blocks
  // and is regenerated through the PCC fallback: its formatting must be
  // charged to phase 4 only, not to instruction generation as well.
  struct Input {
    const char *Fault;
    const char *Source;
  };
  const Input Inputs[] = {
      {"", "int main() { int i; int s; s = 0; i = 0;"
           " while (i < 100) { s = s + i * i; i = i + 1; }"
           " return s; }"},
      {"drop-prod=push_l", "int main() { int i; int s; s = 0; i = 0;"
                           " while (i < 100) { s = s + i * i; i = i + 1;"
                           " print(s); print(i); }"
                           " return s; }"},
  };
  for (const Input &In : Inputs) {
    SCOPED_TRACE(In.Fault);
    struct ResetFaults {
      ~ResetFaults() { faultInject().reset(); }
    } Reset;
    std::string Err;
    if (*In.Fault) {
      ASSERT_TRUE(faultInject().configure(In.Fault, Err)) << Err;
    }
    std::unique_ptr<VaxTarget> Target = VaxTarget::create(Err);
    ASSERT_TRUE(Target) << Err;

    Program P;
    DiagnosticSink Diags;
    ASSERT_TRUE(compileMiniC(In.Source, P, Diags));
    CodeGenOptions Opts;
    Opts.Parallel.Threads = 1;
    GGCodeGenerator CG(*Target, Opts);
    std::string Asm;
    const uint64_t Start = profTicks();
    ASSERT_TRUE(CG.compile(P, Asm, Err)) << Err;
    const double Wall =
        static_cast<double>(profTicks() - Start) / profTicksPerSecond();
    const CodeGenStats &S = CG.stats();
    EXPECT_EQ(S.RecoveredTrees > 0, *In.Fault != 0);
    // All four Figure-2 phases are accounted, and they are disjoint: each
    // is non-negative, emission actually happened, and together they fit
    // in the wall time of the compile.
    EXPECT_GE(S.TransformSeconds, 0.0);
    EXPECT_GE(S.MatchSeconds, 0.0);
    EXPECT_GE(S.InstrGenSeconds, 0.0);
    EXPECT_GT(S.EmitSeconds, 0.0);
    EXPECT_GT(S.Instructions, 0u);
    EXPECT_LE(S.TransformSeconds + S.MatchSeconds + S.InstrGenSeconds +
                  S.EmitSeconds,
              Wall);
  }
}

} // namespace
