//===- gg_top.cpp - live compile-server introspection ------------------------===//
//
// In-band `top` for a running `compile_minic --serve=SOCKET` daemon
// (docs/server.md): sends a Status frame, receives the gg-status-v1
// snapshot (docs/observability.md) in the StatusReply, and renders it.
//
//   gg-top --socket=PATH [--once] [--json] [--interval-ms=N] [--count=N]
//
// Default is a TUI-style loop: one rendered screen per interval (2s),
// cleared between refreshes, until interrupted. --once takes a single
// snapshot and exits; --json prints the raw snapshot JSON instead of the
// rendered view (implies one snapshot per line, so `gg-top --json` is a
// machine-pollable stream and `gg-top --once --json` is the scripting
// form check.sh uses). --count=N exits after N snapshots.
//
// Everything arrives over the same Unix socket the compile traffic uses —
// no side channel, so what gg-top sees is exactly what a client behind
// the same queue would see. The Status probe itself is answered from the
// server's input pump without occupying a pool worker, which is what
// makes it usable against a saturated server.
//
// Exit codes follow support/ExitCodes.h: 0 after the requested snapshots,
// 1 when the server cannot be reached, stops answering, or a reply does
// not parse.
//
//===----------------------------------------------------------------------===//

#include "support/Clock.h"
#include "support/ExitCodes.h"
#include "support/Frame.h"
#include "support/Json.h"
#include "support/Strings.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>

using namespace gg;

namespace {

constexpr uint64_t NsPerMs = 1000 * 1000;

struct TopOptions {
  std::string Socket;
  bool Once = false;
  bool Json = false;
  int IntervalMs = 2000;
  int Count = 0; ///< 0 = until interrupted
  int TimeoutMs = 5000;
};

/// Shorter than gg-load's connect backoff: an interactive probe
/// of a dead server should say so quickly.
constexpr ConnectBackoff ProbeBackoff{.Tries = 8, .MaxDelayMs = 500};

/// One polling connection. Reconnects across server restarts so a TUI
/// left running through a supervisor restart picks the new process up.
class Probe {
public:
  explicit Probe(std::string Socket) : Socket(std::move(Socket)) {}

  /// Sends one Status probe and blocks for the matching StatusReply.
  /// Returns the snapshot JSON, or nullopt on timeout/loss/garbage.
  std::optional<std::string> snapshot(int TimeoutMs) {
    if (!Conn.connected() && !Conn.connect(Socket, ProbeBackoff))
      return std::nullopt;
    StatusMsg SM;
    SM.Id = ++ProbeId;
    if (!Conn.send(FrameType::Status, encodeStatus(SM)))
      return std::nullopt;
    const uint64_t Deadline =
        monoNowNs() + static_cast<uint64_t>(TimeoutMs) * NsPerMs;
    Frame F;
    while (Conn.next(F, Deadline) == FrameClient::Read::Frame) {
      if (F.Type != FrameType::StatusReply)
        continue; // a shared connection could carry other traffic
      StatusReplyMsg RM;
      std::string Err;
      if (!decodeStatusReply(F.Payload, RM, Err)) {
        fprintf(stderr, "gg-top: bad StatusReply: %s\n", Err.c_str());
        Conn.close();
        return std::nullopt;
      }
      if (RM.Id != SM.Id)
        continue; // stale reply from an earlier timed-out probe
      return RM.Text;
    }
    return std::nullopt;
  }

private:
  std::string Socket;
  FrameClient Conn;
  uint64_t ProbeId = 0;
};

/// Renders one gg-status-v1 snapshot as a one-screen summary. Unknown or
/// missing fields render as zero/empty — an older gg-top pointed at a
/// newer server keeps working (the schema promise in Frame.h).
bool render(const std::string &Text) {
  JsonValue V;
  std::string Err;
  if (!parseJson(Text, V, Err)) {
    fprintf(stderr, "gg-top: snapshot does not parse: %s\n", Err.c_str());
    return false;
  }
  const JsonValue *Schema = V.find("schema");
  if (!Schema || Schema->Str != "gg-status-v1") {
    fprintf(stderr, "gg-top: unexpected snapshot schema \"%s\"\n",
            Schema ? Schema->Str.c_str() : "");
    return false;
  }
  auto Num = [&](const char *Key) { return V.numberOr(Key); };
  double UpMs = Num("uptime_ms");
  std::string Gen, Fp;
  if (const JsonValue *G = V.find("generation"))
    Gen = strf("%llu", static_cast<unsigned long long>(G->Num));
  if (const JsonValue *F = V.find("fingerprint"))
    Fp = F->Str;

  printf("gg-top  up %.1fs  workers %d  gen %s  %s%s%s\n",
         UpMs / 1000.0, static_cast<int>(Num("workers")),
         Gen.empty() ? "?" : Gen.c_str(), Fp.c_str(),
         Num("draining") ? "  DRAINING" : "",
         Num("reloading") ? "  RELOADING" : "");
  printf("  queue %d  executing %d\n", static_cast<int>(Num("queue_depth")),
         static_cast<int>(Num("executing")));

  if (const JsonValue *W = V.find("window")) {
    printf("  last %.0fs: %d requests (%d ok)  %.1f req/s  "
           "goodput %.1f req/s\n",
           Num("window_ms") / 1000.0, static_cast<int>(W->numberOr("requests")),
           static_cast<int>(W->numberOr("ok")), W->numberOr("rps"),
           W->numberOr("goodput_rps"));
    printf("  latency p50 %.1fms  p90 %.1fms  p99 %.1fms\n",
           W->numberOr("p50_ms"), W->numberOr("p90_ms"), W->numberOr("p99_ms"));
  }

  if (const JsonValue *C = V.find("counters")) {
    printf("  lifetime:");
    int Shown = 0;
    for (const char *Key : {"requests", "ok", "overloaded", "watchdog_kills",
                            "reloads", "drains", "protocol_errors"}) {
      const JsonValue *N = C->find(Key);
      if (!N)
        continue;
      printf("%s %s %llu", Shown++ ? " " : " ", Key,
             static_cast<unsigned long long>(N->Num));
    }
    printf("\n");
  }

  if (const JsonValue *IF = V.find("in_flight")) {
    printf("  in-flight (%zu):\n", IF->Arr.size());
    for (const JsonValue &E : IF->Arr) {
      const JsonValue *Ph = E.find("phase");
      printf("    req %-20llu %8.1fms  %s\n",
             static_cast<unsigned long long>(E.numberOr("id")),
             E.numberOr("age_ms"), Ph ? Ph->Str.c_str() : "?");
    }
  }
  return true;
}

void usage() {
  fprintf(stderr, "usage: gg-top --socket=PATH [--once] [--json] "
                  "[--interval-ms=N] [--count=N] [--timeout-ms=N]\n");
}

} // namespace

int main(int argc, char **argv) {
  ::signal(SIGPIPE, SIG_IGN);
  TopOptions Opt;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A.rfind("--socket=", 0) == 0)
      Opt.Socket = A.substr(9);
    else if (A == "--once")
      Opt.Once = true;
    else if (A == "--json")
      Opt.Json = true;
    else if (A.rfind("--interval-ms=", 0) == 0 ||
             A.rfind("--count=", 0) == 0 || A.rfind("--timeout-ms=", 0) == 0) {
      size_t Eq = A.find('=');
      std::optional<int64_t> N = parseInt(std::string_view(A).substr(Eq + 1));
      if (!N || *N < 1 || *N > 86400000) {
        fprintf(stderr, "gg-top: bad value in %s\n", A.c_str());
        return ExitUsage;
      }
      if (A[2] == 'i')
        Opt.IntervalMs = static_cast<int>(*N);
      else if (A[2] == 'c')
        Opt.Count = static_cast<int>(*N);
      else
        Opt.TimeoutMs = static_cast<int>(*N);
    } else if (A == "--help" || A == "-h") {
      usage();
      return ExitOk;
    } else {
      fprintf(stderr, "gg-top: unknown option %s\n", A.c_str());
      usage();
      return ExitUsage;
    }
  }
  if (Opt.Socket.empty()) {
    usage();
    return ExitUsage;
  }

  Probe Conn(Opt.Socket);
  int Taken = 0;
  const int Want = Opt.Once ? 1 : Opt.Count;
  while (true) {
    std::optional<std::string> Snap = Conn.snapshot(Opt.TimeoutMs);
    if (!Snap) {
      fprintf(stderr, "gg-top: no status reply from %s\n", Opt.Socket.c_str());
      return ExitCompileFailure;
    }
    if (Opt.Json) {
      // One snapshot per line: a pollable NDJSON stream. The server
      // emits the object on one line already, but normalize anyway.
      std::string Line = *Snap;
      Line.erase(std::remove(Line.begin(), Line.end(), '\n'), Line.end());
      printf("%s\n", Line.c_str());
      fflush(stdout);
    } else {
      if (!Opt.Once)
        printf("\033[H\033[2J"); // clear: one screen per refresh
      if (!render(*Snap))
        return ExitCompileFailure;
      fflush(stdout);
    }
    if (Want > 0 && ++Taken >= Want)
      return ExitOk;
    std::this_thread::sleep_for(std::chrono::milliseconds(Opt.IntervalMs));
  }
}
