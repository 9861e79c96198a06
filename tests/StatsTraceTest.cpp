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
      if (E.Name == Name)
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
  EXPECT_NE(Json.find("phase \\\"one\\\""), std::string::npos);
}

TEST(Trace, TextRenderingOrderedByStart) {
  TraceRecorder R;
  R.enable();
  {
    TraceSpan A("first", R);
    TraceSpan B("second", R);
  }
  std::string Text = R.toText();
  size_t First = Text.find("first"), Second = Text.find("second");
  ASSERT_NE(First, std::string::npos);
  ASSERT_NE(Second, std::string::npos);
  EXPECT_LT(First, Second) << "text form must be in start order, not "
                              "destruction order:\n"
                           << Text;
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
      if (E.Name == Name)
        for (const auto &A : E.Args)
          if (A.first == Key)
            return A.second;
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

// The acceptance criterion behind gg-report --trace: one request's span
// structure is a deterministic function of the request, not of the
// worker count. Filtering the trace by the req arg must yield the same
// multiset of spans (names and request identity) at --threads=1 and 4.
TEST(Trace, RequestSpanStructureIsThreadCountInvariant) {
  const char *Source = R"(
int a(int x) { return x * 3 + 1; }
int b(int x) { int i; int s; i = 0; s = 0; while (i < x) { s = s + i * i; i = i + 1; } return s; }
int c(int x) { return a(x) + b(x); }
int main() { print(c(6)); return a(1) + b(3); }
)";
  std::string Err;
  std::unique_ptr<VaxTarget> Target = VaxTarget::create(Err);
  ASSERT_TRUE(Target) << Err;

  TraceRecorder &R = TraceRecorder::global();
  auto SpansFor = [&](int Threads, uint64_t ReqId) {
    R.clear();
    R.enable();
    {
      RequestScope Scope(ReqId, 3);
      Program P;
      DiagnosticSink D;
      EXPECT_TRUE(compileMiniC(Source, P, D)) << D.renderAll();
      CodeGenOptions Opts;
      Opts.Parallel.Threads = Threads;
      GGCodeGenerator CG(*Target, Opts);
      std::string Asm;
      EXPECT_TRUE(CG.compile(P, Asm, Err)) << Err;
    }
    R.disable();
    std::vector<std::string> Names;
    for (const TraceEvent &E : R.events()) {
      int64_t Req = -1, Gen = -1;
      for (const auto &A : E.Args) {
        if (A.first == "req")
          Req = A.second;
        else if (A.first == "gen")
          Gen = A.second;
      }
      if (Req != static_cast<int64_t>(ReqId))
        continue;
      EXPECT_EQ(Gen, 3) << E.Name;
      Names.push_back(E.Name);
    }
    std::sort(Names.begin(), Names.end());
    return Names;
  };

  std::vector<std::string> Serial = SpansFor(1, 6001);
  std::vector<std::string> Parallel = SpansFor(4, 6002);
  ASSERT_FALSE(Serial.empty());
  // Per-function spans reached the trace from pool workers too.
  EXPECT_NE(std::find(Serial.begin(), Serial.end(), "cg.function main"),
            Serial.end());
  EXPECT_EQ(Serial, Parallel)
      << "span structure must not depend on the worker count";

  // Each span carries its thread's ordinal and its depth within that
  // thread. A 4-thread compile of functions big enough that the spawned
  // workers start before the caller has drained the queue puts the
  // per-function spans on more than one track.
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
    if (E.Name.rfind("cg.function ", 0) == 0)
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
          << E->Name << " on tid " << Tid;
      if (!Open.empty()) {
        EXPECT_LE(End(E), End(Open.back()) + 1e-3)
            << E->Name << " escapes " << Open.back()->Name;
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
