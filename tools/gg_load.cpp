//===- gg_load.cpp - compile-server load driver -------------------------------===//
//
// Drives a live `compile_minic --serve=SOCKET` daemon (docs/server.md)
// with the deterministic --gen-corpus program population, concurrently,
// and prints throughput, latency percentiles and error-frame counts.
// --bench-json=FILE also writes the run's exact counts (requests, answers
// by kind, sheds, retries, bytes of assembly) as a gg-bench-v1 file; its
// times stay on stdout.
//
//   gg-load --socket=PATH [--spawn=BIN [--serve-arg=ARG]...]
//           [--requests=N] [--clients=K] [--corpus=N] [--crash-every=N]
//           [--timeout-ms=N] [--open-loop=RPS] [--reload-every=N]
//           [--min-generation=N] [--expect-sheds]
//           [--trace-ids=BASE] [--verify] [--bench-json=FILE]
//           [--no-shutdown]
//
// --spawn=BIN forks BIN (compile_minic, or scripts/serve.sh for
// supervisor drills) with --serve=SOCKET plus every --serve-arg, and
// asserts at exit that the process died cleanly — the fault-matrix soak's
// "zero process deaths" check. The wall clock (and the open-loop arrival
// schedule) starts once the spawned server takes a connection, so server
// start-up is not counted. Without --spawn, gg-load connects to an
// already-running server at --socket.
//
// gg-load is also the client half of the crash-only recovery loop: when a
// connection dies mid-request (server crashed; supervisor restarting it),
// the client reconnects with backoff and replays its in-flight request AT
// MOST ONCE — safe because a response is a pure function of the request.
// --crash-every=N injects a Crash frame before every Nth request (the
// server must run with --serve-allow-crash, under scripts/serve.sh).
//
// Overload resilience (the client half of the server's admission
// control): an OVERLOADED frame is honored by sleeping at least the
// server's retry-after hint, grown exponentially across rounds with
// proportional jitter (capped at 2s), then resending — until the
// per-request --timeout-ms budget would be blown, at which point the shed
// is recorded as terminal rather than a give-up. --open-loop=RPS switches from closed-loop (next request after the last
// answer) to a fixed arrival schedule that never adapts to service rate —
// the honest way to measure goodput and shed rate at saturation; open
// loop never retries a shed. --reload-every=N injects a Reload frame
// before every Nth request; --min-generation asserts the table
// generation observed in responses reached N. Responses carry the serving
// table generation, and gg-load asserts it never regresses within one
// connection (a crash restart legally resets it).
//
// Request ids are client-chosen and deterministic: request k carries id
// BASE+k (BASE defaults to 1). --trace-ids=BASE moves the id namespace,
// so several gg-load runs against one server (or one --trace-json trace)
// stay distinguishable — the server threads the client id through its
// spans and flight events, and gg-report --trace joins on it. Latencies
// are also recorded per observed table generation and printed per
// generation, so a reload mid-run shows up as two latency populations
// instead of one smeared tail.
//
// --verify recomputes each program's single-shot assembly in-process
// (same CompileService the server uses) and asserts byte-identical
// payloads for every clean response — responses with blocked or
// recovered trees (i.e. requests an injected fault actually hit) are
// quarantined by the server and skipped here, as are programs whose
// local reference compile is itself fault-afflicted.
//
// Exit codes follow support/ExitCodes.h: 1 on any verify mismatch,
// client give-up, unclean server death, generation regression, unmet
// --min-generation, or --expect-sheds with no shed observed. Requests
// carry no budgets of their own: the server's --serve-deadline-ms,
// --serve-max-steps and --serve-max-arena defaults apply.
//
//===----------------------------------------------------------------------===//

#include "cg/CompileService.h"
#include "support/CliOptions.h"
#include "support/ExitCodes.h"
#include "support/FaultInject.h"
#include "support/Frame.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Strings.h"
#include "workload/ProgramGen.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <poll.h>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace gg;

namespace {

constexpr uint64_t NsPerMs = 1000 * 1000;

struct LoadOptions {
  std::string Socket;
  std::string SpawnBin;
  std::vector<std::string> ServeArgs;
  int Requests = 50;
  int Clients = 4;
  int Corpus = 16;
  int CrashEvery = 0;   ///< inject a Crash frame before every Nth request
  int ReloadEvery = 0;  ///< inject a Reload frame before every Nth request
  int TimeoutMs = 30000; ///< per-request wall budget (send+retries+await)
  int OpenLoopRps = 0;   ///< fixed arrival rate per client thread; 0 = closed
  uint64_t MinGeneration = 0; ///< require the observed generation to reach N
  uint64_t TraceIdBase = 1;   ///< request k carries id BASE+k (--trace-ids=)
  bool ExpectSheds = false;   ///< fail unless at least one OVERLOADED arrived
  bool Verify = false;
  bool Shutdown = true;
  std::string BenchJsonPath;
};

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Connects to the server's Unix socket, retrying with backoff for up to
/// ~10 seconds (the supervisor's restart window). Returns -1 on give-up.
int connectWithRetry(const std::string &Path) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    return -1;
  strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  int DelayMs = 20;
  for (int Try = 0; Try < 24; ++Try) {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return -1;
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0)
      return Fd;
    ::close(Fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(DelayMs));
    DelayMs = std::min(DelayMs * 2, 1000);
  }
  return -1;
}

/// The connection that saw a --spawn'ed server accept: the wall clock
/// starts only then, and the first client to connect takes it over, so
/// the readiness probe adds no connection to the server's count.
std::atomic<int> SpawnedFd{-1};

bool writeAll(int Fd, const char *P, size_t Len) {
  while (Len > 0) {
    ssize_t N = ::write(Fd, P, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

/// Shared tallies across client threads.
struct Tally {
  std::atomic<uint64_t> Ok{0};
  std::atomic<uint64_t> Quarantined{0}; ///< deadline/step/mem/watchdog/protocol
  std::atomic<uint64_t> CompileErrors{0};
  std::atomic<uint64_t> Replays{0};
  std::atomic<uint64_t> GaveUp{0};
  std::atomic<uint64_t> Overloaded{0};      ///< OVERLOADED frames received
  std::atomic<uint64_t> OverloadedFinal{0}; ///< sheds that ended a request
  std::atomic<uint64_t> Retries{0};         ///< resends after a shed
  std::atomic<uint64_t> ReloadAcks{0};      ///< Reloaded frames received
  std::atomic<uint64_t> MaxGeneration{0};
  std::atomic<uint64_t> GenerationRegressions{0};
  std::atomic<uint64_t> VerifyMismatches{0};
  std::atomic<uint64_t> VerifySkipped{0};
  std::atomic<uint64_t> Verified{0};
  std::atomic<uint64_t> StrayResponses{0};
  std::atomic<uint64_t> CrashesInjected{0};
  std::atomic<uint64_t> AsmBytes{0};
  std::mutex LatM;
  std::vector<uint64_t> LatenciesNs;
  /// Latency population per serving table generation (response-stamped).
  /// Generation 0 collects responses that carried no generation stamp
  /// (e.g. protocol errors).
  std::map<uint64_t, std::vector<uint64_t>> LatenciesByGenNs;
};

/// One client connection, reconnecting across server restarts.
class Client {
public:
  enum class Event { Response, Overload, Timeout, Lost };

  Client(const std::string &Socket, Tally &T) : Socket(Socket), T(T) {}
  ~Client() { drop(); }

  bool ensureConnected() {
    if (Fd >= 0)
      return true;
    Fd = SpawnedFd.exchange(-1);
    if (Fd < 0)
      Fd = connectWithRetry(Socket);
    Reader = FrameReader();
    // A crash restart legally resets the server's generation counter, so
    // monotonicity is asserted per connection, not per process.
    LastGen = 0;
    return Fd >= 0;
  }

  void drop() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  }

  bool send(FrameType Type, const std::string &Payload) {
    if (!ensureConnected())
      return false;
    std::string Wire;
    appendFrame(Wire, Type, Payload);
    int ChunkMs = faultInject().slowClientChunkMs();
    if (ChunkMs > 0 && Wire.size() > 64) {
      // slow-client fault: dribble the frame onto the wire in ~16 slices
      // with a pause between each — the server's incremental reader must
      // treat every partial frame as NeedMore, never as corruption.
      ++counter(Metric::FaultSlowClientWrites);
      size_t Step = std::max<size_t>(Wire.size() / 16, 16);
      for (size_t Off = 0; Off < Wire.size(); Off += Step) {
        size_t Len = std::min(Step, Wire.size() - Off);
        if (!writeAll(Fd, Wire.data() + Off, Len)) {
          drop();
          return false;
        }
        if (Off + Len < Wire.size())
          std::this_thread::sleep_for(std::chrono::milliseconds(ChunkMs));
      }
      return true;
    }
    if (!writeAll(Fd, Wire.data(), Wire.size())) {
      drop();
      return false;
    }
    return true;
  }

  /// Blocks (via poll) until one complete frame, the absolute deadline,
  /// or connection loss. Returns 1 with \p F filled, 0 on deadline (the
  /// connection stays usable — open-loop sends continue on it), -1 on
  /// loss. \p DeadlineNs is absolute nowNs() time.
  int pump(uint64_t DeadlineNs, Frame &F) {
    char Chunk[65536];
    while (true) {
      FrameReader::Status S = Reader.next(F);
      if (S == FrameReader::Status::NeedMore) {
        if (Fd < 0)
          return -1;
        uint64_t Now = nowNs();
        if (Now >= DeadlineNs)
          return 0;
        pollfd P{};
        P.fd = Fd;
        P.events = POLLIN;
        uint64_t WaitMs = (DeadlineNs - Now) / NsPerMs + 1;
        int R = ::poll(&P, 1,
                       static_cast<int>(std::min<uint64_t>(WaitMs, 60000)));
        if (R < 0) {
          if (errno == EINTR)
            continue;
          drop();
          return -1;
        }
        if (R == 0)
          continue; // re-check the deadline at the top
        ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
        if (N < 0 && errno == EINTR)
          continue;
        if (N <= 0) {
          drop();
          return -1;
        }
        Reader.feed(Chunk, static_cast<size_t>(N));
        continue;
      }
      if (S == FrameReader::Status::Corrupt)
        continue; // reader already resynced
      return 1;
    }
  }

  /// Closed-loop wait: reads until the Response or Overloaded frame for
  /// \p WantId arrives (counting strays, absorbing Reloaded acks), the
  /// connection dies, or the absolute deadline passes.
  Event awaitEvent(uint64_t WantId, uint64_t DeadlineNs, ResponseMsg &Resp,
                   OverloadMsg &Over) {
    while (true) {
      Frame F;
      int R = pump(DeadlineNs, F);
      if (R == 0)
        return Event::Timeout;
      if (R < 0)
        return Event::Lost;
      std::string Err;
      switch (F.Type) {
      case FrameType::Response:
        if (!decodeResponse(F.Payload, Resp, Err) || Resp.Id != WantId) {
          // Protocol-error responses carry id 0; a late response for a
          // request we already replayed is also possible.
          ++T.StrayResponses;
          break;
        }
        noteGeneration(Resp.Generation);
        return Event::Response;
      case FrameType::Overloaded:
        if (!decodeOverload(F.Payload, Over, Err) || Over.Id != WantId) {
          ++T.StrayResponses;
          break;
        }
        return Event::Overload;
      case FrameType::Reloaded: {
        ReloadedMsg RM;
        if (decodeReloaded(F.Payload, RM, Err)) {
          ++T.ReloadAcks;
          noteGeneration(RM.Generation);
        } else {
          ++T.StrayResponses;
        }
        break;
      }
      default:
        ++T.StrayResponses;
        break;
      }
    }
  }

  /// Records a response's table generation: per-connection monotonicity
  /// (a regression within one connection means the server answered from
  /// an older image after a newer one — a reload-atomicity bug) plus the
  /// process-wide max for --min-generation.
  void noteGeneration(uint64_t G) {
    if (G == 0)
      return;
    if (G < LastGen)
      ++T.GenerationRegressions;
    if (G > LastGen)
      LastGen = G;
    uint64_t Cur = T.MaxGeneration.load(std::memory_order_relaxed);
    while (G > Cur && !T.MaxGeneration.compare_exchange_weak(
                          Cur, G, std::memory_order_relaxed)) {
    }
  }

private:
  std::string Socket;
  Tally &T;
  int Fd = -1;
  uint64_t LastGen = 0;
  FrameReader Reader;
};

/// The local single-shot reference for --verify: assembly per corpus
/// program, or nullopt when the program is unverifiable (the local
/// reference compile was itself hit by an injected fault).
struct VerifyOracle {
  std::vector<std::optional<std::string>> Expected;

  bool build(const std::vector<std::string> &Corpus) {
    std::string Err;
    std::unique_ptr<CompileService> Svc = CompileService::create(Err);
    if (!Svc) {
      fprintf(stderr, "gg-load: --verify reference pipeline failed: %s\n",
              Err.c_str());
      return false;
    }
    Expected.resize(Corpus.size());
    for (size_t I = 0; I < Corpus.size(); ++I) {
      RequestMsg Req;
      Req.Id = I;
      Req.Source = Corpus[I];
      RequestBudget NoLimits;
      HandlerResult R = Svc->compile(Req, NoLimits);
      if (R.Status == ResponseStatus::Ok && R.BlockedTrees == 0)
        Expected[I] = std::move(R.Payload);
    }
    return true;
  }
};

/// Sorts one answered response into the tallies (shared by the closed-
/// and open-loop paths).
void classifyResponse(const ResponseMsg &Resp, size_t ProgIdx, Tally &T,
                      const LoadOptions &Opt, const VerifyOracle &Oracle) {
  switch (Resp.Status) {
  case ResponseStatus::Ok:
    ++T.Ok;
    T.AsmBytes += Resp.Payload.size();
    if (Opt.Verify) {
      if (Resp.BlockedTrees > 0 || Resp.RecoveredTrees > 0 ||
          !Oracle.Expected[ProgIdx]) {
        // A fault actually hit this request (or the local reference):
        // quarantine semantics, nothing to compare.
        ++T.VerifySkipped;
      } else if (Resp.Payload != *Oracle.Expected[ProgIdx]) {
        ++T.VerifyMismatches;
        fprintf(stderr,
                "gg-load: VERIFY MISMATCH request %llu (program %zu): "
                "%zu vs %zu bytes\n",
                static_cast<unsigned long long>(Resp.Id), ProgIdx,
                Resp.Payload.size(), Oracle.Expected[ProgIdx]->size());
      } else {
        ++T.Verified;
      }
    }
    break;
  case ResponseStatus::CompileError:
    ++T.CompileErrors;
    break;
  default:
    ++T.Quarantined;
    break;
  }
}

/// The post-shed sleep: at least the server's retry-after hint, grown
/// exponentially across rounds (x16 cap), with proportional deterministic
/// jitter so a herd of shed clients does not re-arrive in lockstep.
/// Capped at 2s to keep a saturated run's tail bounded.
uint64_t backoffMs(uint32_t RetryAfterMs, uint32_t Round, uint64_t Salt) {
  uint64_t Base = std::max<uint32_t>(RetryAfterMs, 1);
  uint64_t Grown = Base << std::min<uint32_t>(Round, 4);
  uint64_t H = (Salt * 0x9E3779B97F4A7C15ull) ^
               (uint64_t(Round + 1) * 2654435761u);
  uint64_t Jit = H % (Base / 2 + 1);
  return std::min<uint64_t>(Grown + Jit, 2000);
}

void usage() {
  fprintf(stderr,
          "usage: gg-load --socket=PATH [--spawn=BIN [--serve-arg=ARG]...]\n"
          "               [--requests=N] [--clients=K] [--corpus=N]\n"
          "               [--crash-every=N] [--reload-every=N] "
          "[--timeout-ms=N]\n"
          "               [--open-loop=RPS]\n"
          "               [--min-generation=N] [--trace-ids=BASE]\n"
          "               [--expect-sheds] [--verify]\n"
          "               [--bench-json=FILE] [--no-shutdown]\n");
}

bool intFlag(const std::string &A, const char *Prefix, int64_t Min,
             int64_t Max, int64_t &Out, bool &Matched) {
  size_t L = strlen(Prefix);
  Matched = A.rfind(Prefix, 0) == 0;
  if (!Matched)
    return true;
  std::optional<int64_t> N = parseInt(std::string_view(A).substr(L));
  if (!N || *N < Min || *N > Max) {
    fprintf(stderr, "gg-load: bad value in %s\n", A.c_str());
    return false;
  }
  Out = *N;
  return true;
}

} // namespace

int main(int argc, char **argv) {
  ::signal(SIGPIPE, SIG_IGN);
  LoadOptions Opt;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    bool M = false;
    int64_t V = 0;
    if (A.rfind("--socket=", 0) == 0)
      Opt.Socket = A.substr(9);
    else if (A.rfind("--spawn=", 0) == 0)
      Opt.SpawnBin = A.substr(8);
    else if (A.rfind("--serve-arg=", 0) == 0)
      Opt.ServeArgs.push_back(A.substr(12));
    else if (!intFlag(A, "--requests=", 1, 10000000, V, M))
      return ExitUsage;
    else if (M)
      Opt.Requests = static_cast<int>(V);
    else if (!intFlag(A, "--clients=", 1, 256, V, M))
      return ExitUsage;
    else if (M)
      Opt.Clients = static_cast<int>(V);
    else if (!intFlag(A, "--corpus=", 1, 100000, V, M))
      return ExitUsage;
    else if (M)
      Opt.Corpus = static_cast<int>(V);
    else if (!intFlag(A, "--crash-every=", 1, 1000000, V, M))
      return ExitUsage;
    else if (M)
      Opt.CrashEvery = static_cast<int>(V);
    else if (!intFlag(A, "--reload-every=", 1, 1000000, V, M))
      return ExitUsage;
    else if (M)
      Opt.ReloadEvery = static_cast<int>(V);
    else if (!intFlag(A, "--timeout-ms=", 1, 600000, V, M))
      return ExitUsage;
    else if (M)
      Opt.TimeoutMs = static_cast<int>(V);
    else if (!intFlag(A, "--open-loop=", 1, 1000000, V, M))
      return ExitUsage;
    else if (M)
      Opt.OpenLoopRps = static_cast<int>(V);
    else if (!intFlag(A, "--min-generation=", 1, INT64_MAX, V, M))
      return ExitUsage;
    else if (M)
      Opt.MinGeneration = static_cast<uint64_t>(V);
    else if (!intFlag(A, "--trace-ids=", 1, INT64_MAX, V, M))
      return ExitUsage;
    else if (M)
      Opt.TraceIdBase = static_cast<uint64_t>(V);
    else if (A == "--expect-sheds")
      Opt.ExpectSheds = true;
    else if (A == "--verify")
      Opt.Verify = true;
    else if (A == "--no-shutdown")
      Opt.Shutdown = false;
    else if (A.rfind("--bench-json=", 0) == 0)
      Opt.BenchJsonPath = A.substr(13);
    else {
      fprintf(stderr, "gg-load: unknown option %s\n", A.c_str());
      usage();
      return ExitUsage;
    }
  }
  if (Opt.Socket.empty()) {
    usage();
    return ExitUsage;
  }

  // The same deterministic corpus as `compile_minic --gen-corpus=N`, so
  // the server compiles the population the differential tests know.
  std::vector<std::string> Corpus;
  Corpus.reserve(Opt.Corpus);
  for (int Case = 0; Case < Opt.Corpus; ++Case) {
    GenOptions GOpts;
    GOpts.Functions = 4 + Case % 3;
    GOpts.StmtsPerFunction = 6 + Case % 5;
    Corpus.push_back(generateProgram(0xD1FF0000u + Case, GOpts));
  }

  VerifyOracle Oracle;
  if (Opt.Verify && !Oracle.build(Corpus))
    return ExitFatalFault;

  // Spawn the server (or supervisor script) if requested.
  pid_t ServerPid = -1;
  if (!Opt.SpawnBin.empty()) {
    ::unlink(Opt.Socket.c_str());
    ServerPid = fork();
    if (ServerPid < 0) {
      fprintf(stderr, "gg-load: fork: %s\n", strerror(errno));
      return ExitFatalFault;
    }
    if (ServerPid == 0) {
      std::vector<std::string> Args;
      Args.push_back(Opt.SpawnBin);
      Args.push_back("--serve=" + Opt.Socket);
      for (const std::string &Extra : Opt.ServeArgs)
        Args.push_back(Extra);
      std::vector<char *> Argv;
      for (std::string &S : Args)
        Argv.push_back(S.data());
      Argv.push_back(nullptr);
      execv(Argv[0], Argv.data());
      fprintf(stderr, "gg-load: exec %s: %s\n", Opt.SpawnBin.c_str(),
              strerror(errno));
      _exit(ExitFatalFault);
    }
    // Start-up and connectWithRetry's backoff are not serving time.
    SpawnedFd = connectWithRetry(Opt.Socket);
  }

  Tally T;
  std::atomic<int> NextRequest{0};
  // Client-side response timeout: by default generously beyond any server
  // deadline + watchdog grace, so a hit deadline still yields a
  // structured response rather than a client timeout.
  const uint64_t TimeoutNs = static_cast<uint64_t>(Opt.TimeoutMs) * NsPerMs;

  uint64_t WallStart = nowNs();

  // Closed loop: each client thread sends its next request as soon as the
  // previous one resolved; sheds are retried under the retry-after
  // contract inside the per-request timeout budget.
  auto ClosedLoopWorker = [&] {
    Client Conn(Opt.Socket, T);
    std::vector<uint64_t> LocalLat;
    std::map<uint64_t, std::vector<uint64_t>> LocalLatByGen;
    while (true) {
      int Idx = NextRequest.fetch_add(1);
      if (Idx >= Opt.Requests)
        break;
      if (Opt.CrashEvery > 0 && Idx > 0 && Idx % Opt.CrashEvery == 0) {
        // Crash drill: kill the server out from under everyone. The
        // supervisor restarts it; every client reconnects and replays.
        if (Conn.send(FrameType::Crash, ""))
          ++T.CrashesInjected;
        Conn.drop();
      }
      if (Opt.ReloadEvery > 0 && Idx > 0 && Idx % Opt.ReloadEvery == 0) {
        // Reload drill: hot-swap the table image mid-run. The Reloaded
        // ack arrives asynchronously and is absorbed during awaits.
        Conn.send(FrameType::Reload, "");
      }

      RequestMsg Req;
      Req.Id = Opt.TraceIdBase + static_cast<uint64_t>(Idx);
      size_t ProgIdx = static_cast<size_t>(Idx) % Corpus.size();
      Req.Source = Corpus[ProgIdx];
      std::string Payload = encodeRequest(Req);

      // Replay on connection loss: output is a pure function of the
      // request, so replaying the in-flight request reproduces the lost
      // response exactly (at most once per connection epoch). Bounded at
      // 4 connection failures because a freshly-reconnected socket can
      // land in the listen backlog of a server that is already dying —
      // the kernel accepts the connect before the process finishes
      // aborting — so one replay can be burned without a second real
      // crash. Everything (sends, sheds, backoff, awaits) shares one
      // per-request wall budget of --timeout-ms.
      ResponseMsg Resp;
      OverloadMsg Over;
      bool Got = false;
      bool Shed = false;
      uint64_t T0 = nowNs();
      const uint64_t ReqDeadline = T0 + TimeoutNs;
      int ConnFailures = 0;
      uint32_t Round = 0; // shed-retry rounds completed (backoff growth)
      bool NeedSend = true;
      while (!Got && !Shed) {
        if (NeedSend) {
          if (nowNs() >= ReqDeadline)
            break;
          if (!Conn.send(FrameType::Request, Payload)) {
            if (++ConnFailures >= 4)
              break;
            ++T.Replays;
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            continue;
          }
          NeedSend = false;
        }
        Client::Event E = Conn.awaitEvent(Req.Id, ReqDeadline, Resp, Over);
        switch (E) {
        case Client::Event::Response:
          Got = true;
          break;
        case Client::Event::Overload: {
          ++T.Overloaded;
          uint64_t SleepMs = backoffMs(Over.RetryAfterMs, Round, Req.Id);
          ++Round;
          if (nowNs() + SleepMs * NsPerMs >= ReqDeadline) {
            // No budget left to honor the hint: the shed is this
            // request's answer (terminal), not a client give-up.
            Shed = true;
          } else {
            ++T.Retries;
            std::this_thread::sleep_for(std::chrono::milliseconds(SleepMs));
            NeedSend = true;
          }
          break;
        }
        case Client::Event::Timeout:
          // Poison the stream so a late response for this id cannot
          // satisfy the next request.
          Conn.drop();
          goto done;
        case Client::Event::Lost:
          if (++ConnFailures >= 4)
            goto done;
          ++T.Replays;
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          NeedSend = true;
          break;
        }
      }
    done:
      if (Shed) {
        ++T.OverloadedFinal;
        continue;
      }
      if (!Got) {
        ++T.GaveUp;
        continue;
      }
      uint64_t LatNs = nowNs() - T0;
      LocalLat.push_back(LatNs);
      LocalLatByGen[Resp.Generation].push_back(LatNs);
      classifyResponse(Resp, ProgIdx, T, Opt, Oracle);
    }
    std::lock_guard<std::mutex> Lock(T.LatM);
    T.LatenciesNs.insert(T.LatenciesNs.end(), LocalLat.begin(),
                         LocalLat.end());
    for (auto &[Gen, Lats] : LocalLatByGen) {
      std::vector<uint64_t> &Dst = T.LatenciesByGenNs[Gen];
      Dst.insert(Dst.end(), Lats.begin(), Lats.end());
    }
  };

  // Open loop: requests depart on a fixed global schedule (request k at
  // WallStart + k/RPS) no matter how the server is doing — arrival rate
  // never adapts to service rate, which is the honest way to measure
  // goodput and shed rate at saturation. Sheds are terminal: the whole
  // point is to count them, not to smooth them over with retries.
  auto OpenLoopWorker = [&] {
    Client Conn(Opt.Socket, T);
    struct Pending {
      size_t ProgIdx;
      uint64_t SentNs;
    };
    std::map<uint64_t, Pending> Outstanding;
    std::vector<uint64_t> LocalLat;
    std::map<uint64_t, std::vector<uint64_t>> LocalLatByGen;
    const double PeriodNs = 1e9 / Opt.OpenLoopRps;

    auto HandleFrame = [&](const Frame &F) {
      std::string Err;
      if (F.Type == FrameType::Response) {
        ResponseMsg Resp;
        if (!decodeResponse(F.Payload, Resp, Err)) {
          ++T.StrayResponses;
          return;
        }
        Conn.noteGeneration(Resp.Generation);
        auto It = Outstanding.find(Resp.Id);
        if (It == Outstanding.end()) {
          ++T.StrayResponses;
          return;
        }
        uint64_t LatNs = nowNs() - It->second.SentNs;
        LocalLat.push_back(LatNs);
        LocalLatByGen[Resp.Generation].push_back(LatNs);
        classifyResponse(Resp, It->second.ProgIdx, T, Opt, Oracle);
        Outstanding.erase(It);
      } else if (F.Type == FrameType::Overloaded) {
        OverloadMsg Over;
        if (!decodeOverload(F.Payload, Over, Err)) {
          ++T.StrayResponses;
          return;
        }
        auto It = Outstanding.find(Over.Id);
        if (It == Outstanding.end()) {
          ++T.StrayResponses;
          return;
        }
        ++T.Overloaded;
        ++T.OverloadedFinal;
        Outstanding.erase(It);
      } else if (F.Type == FrameType::Reloaded) {
        ReloadedMsg RM;
        if (decodeReloaded(F.Payload, RM, Err)) {
          ++T.ReloadAcks;
          Conn.noteGeneration(RM.Generation);
        } else {
          ++T.StrayResponses;
        }
      } else {
        ++T.StrayResponses;
      }
    };

    auto AbandonOutstanding = [&] {
      T.GaveUp += Outstanding.size();
      Outstanding.clear();
    };

    uint64_t LastSendNs = nowNs();
    bool MoreToSend = true;
    while (true) {
      if (MoreToSend) {
        int Idx = NextRequest.fetch_add(1);
        if (Idx >= Opt.Requests) {
          MoreToSend = false;
          continue;
        }
        uint64_t Due =
            WallStart + static_cast<uint64_t>(Idx * PeriodNs);
        // Drain arrivals until this request's scheduled departure.
        while (true) {
          uint64_t Now = nowNs();
          if (Now >= Due)
            break;
          Frame F;
          int R = Conn.pump(Due, F);
          if (R > 0) {
            HandleFrame(F);
          } else if (R < 0) {
            // Server died: everything outstanding on this connection is
            // lost (open loop never replays). send() below reconnects.
            AbandonOutstanding();
            break;
          } else {
            break; // departure time
          }
        }
        if (Opt.ReloadEvery > 0 && Idx > 0 && Idx % Opt.ReloadEvery == 0)
          Conn.send(FrameType::Reload, "");
        RequestMsg Req;
        Req.Id = Opt.TraceIdBase + static_cast<uint64_t>(Idx);
        size_t ProgIdx = static_cast<size_t>(Idx) % Corpus.size();
        Req.Source = Corpus[ProgIdx];
        if (!Conn.send(FrameType::Request, encodeRequest(Req))) {
          ++T.GaveUp;
          continue;
        }
        Outstanding.emplace(Req.Id, Pending{ProgIdx, nowNs()});
        LastSendNs = nowNs();
      } else {
        if (Outstanding.empty())
          break;
        Frame F;
        int R = Conn.pump(LastSendNs + TimeoutNs, F);
        if (R > 0) {
          HandleFrame(F);
          continue;
        }
        AbandonOutstanding(); // drain timed out or connection died
        break;
      }
    }
    std::lock_guard<std::mutex> Lock(T.LatM);
    T.LatenciesNs.insert(T.LatenciesNs.end(), LocalLat.begin(),
                         LocalLat.end());
    for (auto &[Gen, Lats] : LocalLatByGen) {
      std::vector<uint64_t> &Dst = T.LatenciesByGenNs[Gen];
      Dst.insert(Dst.end(), Lats.begin(), Lats.end());
    }
  };

  std::vector<std::thread> Workers;
  for (int C = 0; C < Opt.Clients; ++C) {
    if (Opt.OpenLoopRps > 0)
      Workers.emplace_back(OpenLoopWorker);
    else
      Workers.emplace_back(ClosedLoopWorker);
  }
  for (std::thread &W : Workers)
    W.join();
  double WallSeconds = static_cast<double>(nowNs() - WallStart) / 1e9;
  if (int Fd = SpawnedFd.exchange(-1); Fd >= 0)
    ::close(Fd);

  // Clean shutdown + death audit.
  bool UncleanDeath = false;
  if (Opt.Shutdown) {
    Client Conn(Opt.Socket, T);
    Conn.send(FrameType::Shutdown, "");
  }
  if (ServerPid > 0) {
    int Status = 0;
    if (waitpid(ServerPid, &Status, 0) == ServerPid) {
      if (WIFSIGNALED(Status)) {
        fprintf(stderr, "gg-load: server died on signal %d\n",
                WTERMSIG(Status));
        UncleanDeath = true;
      } else if (WEXITSTATUS(Status) != 0) {
        fprintf(stderr, "gg-load: server exited %d\n", WEXITSTATUS(Status));
        UncleanDeath = true;
      }
    }
  }

  std::sort(T.LatenciesNs.begin(), T.LatenciesNs.end());
  auto Pct = [&](double P) -> double {
    if (T.LatenciesNs.empty())
      return 0;
    size_t I = static_cast<size_t>(P * (T.LatenciesNs.size() - 1));
    return static_cast<double>(T.LatenciesNs[I]) / 1e9;
  };
  for (auto &[Gen, Lats] : T.LatenciesByGenNs)
    std::sort(Lats.begin(), Lats.end());
  auto GenPct = [](const std::vector<uint64_t> &Lats, double P) -> double {
    if (Lats.empty())
      return 0;
    size_t I = static_cast<size_t>(P * (Lats.size() - 1));
    return static_cast<double>(Lats[I]) / 1e9;
  };

  uint64_t Answered = T.Ok + T.CompileErrors + T.Quarantined;
  printf("gg-load: %d requests, %llu ok, %llu compile-error, "
         "%llu quarantined, %llu replays, %llu gave-up\n",
         Opt.Requests, static_cast<unsigned long long>(T.Ok.load()),
         static_cast<unsigned long long>(T.CompileErrors.load()),
         static_cast<unsigned long long>(T.Quarantined.load()),
         static_cast<unsigned long long>(T.Replays.load()),
         static_cast<unsigned long long>(T.GaveUp.load()));
  printf("gg-load: %llu overloaded (%llu terminal), %llu retries, "
         "%llu reload-acks, generation max %llu (%llu regressions)\n",
         static_cast<unsigned long long>(T.Overloaded.load()),
         static_cast<unsigned long long>(T.OverloadedFinal.load()),
         static_cast<unsigned long long>(T.Retries.load()),
         static_cast<unsigned long long>(T.ReloadAcks.load()),
         static_cast<unsigned long long>(T.MaxGeneration.load()),
         static_cast<unsigned long long>(T.GenerationRegressions.load()));
  printf("gg-load: wall %.3fs, throughput %.1f req/s, goodput %.1f req/s, "
         "latency p50 %.4fs p95 %.4fs p99 %.4fs\n",
         WallSeconds, Answered / std::max(WallSeconds, 1e-9),
         T.Ok.load() / std::max(WallSeconds, 1e-9), Pct(0.50), Pct(0.95),
         Pct(0.99));
  // With a reload mid-run there is one latency population per serving
  // generation; break them out so a slow new image is visible instead of
  // smearing the aggregate tail.
  if (T.LatenciesByGenNs.size() > 1)
    for (const auto &[Gen, Lats] : T.LatenciesByGenNs)
      printf("gg-load: generation %llu: %zu answered, p50 %.4fs p99 %.4fs\n",
             static_cast<unsigned long long>(Gen), Lats.size(),
             GenPct(Lats, 0.50), GenPct(Lats, 0.99));
  if (Opt.Verify)
    printf("gg-load: verified %llu byte-identical, %llu skipped (faulted), "
           "%llu MISMATCHED\n",
           static_cast<unsigned long long>(T.Verified.load()),
           static_cast<unsigned long long>(T.VerifySkipped.load()),
           static_cast<unsigned long long>(T.VerifyMismatches.load()));

  // Exact counts only: a closed-loop run without faults repeats them
  // exactly, so the sentinel compares them for equality.
  if (!Opt.BenchJsonPath.empty() &&
      !writeTextOrStdout(
          Opt.BenchJsonPath,
          benchJson("server_throughput",
                    {{"requests", static_cast<uint64_t>(Opt.Requests)},
                     {"requests_ok", T.Ok},
                     {"compile_errors", T.CompileErrors},
                     {"error_frames", T.Quarantined},
                     {"gave_up", T.GaveUp},
                     {"overloaded", T.Overloaded},
                     {"shed_final", T.OverloadedFinal},
                     {"retries", T.Retries},
                     {"replays", T.Replays},
                     {"reload_acks", T.ReloadAcks},
                     {"max_generation", T.MaxGeneration},
                     {"generation_regressions", T.GenerationRegressions},
                     {"verify_mismatches", T.VerifyMismatches},
                     {"asm_bytes", T.AsmBytes}})))
    return ExitCompileFailure;

  bool Failed = false;
  auto Fail = [&](const char *Why) {
    fprintf(stderr, "gg-load: FAIL: %s\n", Why);
    Failed = true;
  };
  if (UncleanDeath)
    Fail("unclean server death");
  if (T.VerifyMismatches.load() > 0)
    Fail("verify mismatches");
  if (T.GaveUp.load() > 0)
    Fail("client give-ups (lost or unanswered requests)");
  if (T.GenerationRegressions.load() > 0)
    Fail("table generation regressed within a connection");
  if (Opt.MinGeneration > 0 && T.MaxGeneration.load() < Opt.MinGeneration)
    Fail("observed generation never reached --min-generation");
  if (Opt.ExpectSheds && T.Overloaded.load() == 0)
    Fail("--expect-sheds but no OVERLOADED frame arrived");
  return Failed ? ExitCompileFailure : ExitOk;
}
