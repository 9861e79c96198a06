//===- Serve.cpp - closed-loop clients against an in-process server -------===//
//
// The compile server as its users see it: framed requests over a Unix
// socket to a Server whose handler is a CompileService. The benchmark
// owns only the two ends: the client threads, and thin timing wrappers
// around the handler and reloader it injects. Those wrappers are what put
// the server-side timestamps (handler entry and exit) into a request's
// span tree; the spans of one request share its RequestMsg.Id.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "cg/CompileService.h"
#include "support/Frame.h"
#include "support/Server.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <unordered_map>

using namespace pb;
using gg::FrameType;

namespace {

/// Two clients against two workers: each worker can always take the next
/// request, so round trips measure service, not a standing queue, while
/// two compiles still contend for the shared state (global stats atomics,
/// the table-image mutex, the allocator).
constexpr int NumClients = 2;
constexpr int NumWorkers = 2;

/// In trace mode, requests alternate in blocks of this many ids between
/// traced and untraced, so the tracing overhead is measured against an
/// interleaved untraced population.
constexpr uint64_t TraceBlock = 64;

bool tracedId(bool TraceMode, uint64_t Id) {
  return TraceMode && (Id / TraceBlock) % 2 == 1;
}

/// Connects to \p Path, retrying until \p GiveUpNs while the server is
/// still coming up. Returns -1 on give-up.
int connectTo(const std::string &Path, uint64_t GiveUpNs) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    return -1;
  memcpy(Addr.sun_path, Path.data(), Path.size());
  while (true) {
    int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (Fd < 0)
      return -1;
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0)
      return Fd;
    ::close(Fd);
    if (nowNs() > GiveUpNs)
      return -1;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

/// One client connection: framed writes, incremental framed reads.
class Conn {
public:
  explicit Conn(int Fd) : Fd(Fd) {}
  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;

  bool ok() const { return Fd >= 0; }

  bool write(const std::string &Wire) {
    const char *P = Wire.data();
    size_t Len = Wire.size();
    while (Len > 0) {
      ssize_t N = ::write(Fd, P, Len);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      P += N;
      Len -= static_cast<size_t>(N);
    }
    return true;
  }

  bool send(FrameType T, std::string_view Payload = {}) {
    std::string Wire;
    gg::appendFrame(Wire, T, Payload);
    return write(Wire);
  }

  /// Blocks until one complete frame or \p DeadlineNs. \p ParseStartNs is
  /// when the parse that produced the frame began (the frame's bytes were
  /// all in by then).
  bool next(gg::Frame &F, uint64_t &ParseStartNs, uint64_t DeadlineNs) {
    char Chunk[65536];
    while (true) {
      ParseStartNs = nowNs();
      gg::FrameReader::Status S = Reader.next(F);
      if (S == gg::FrameReader::Status::Frame)
        return true;
      if (S == gg::FrameReader::Status::Corrupt)
        return false;
      uint64_t Now = nowNs();
      if (Now >= DeadlineNs)
        return false;
      pollfd P{Fd, POLLIN, 0};
      int R = ::poll(&P, 1, static_cast<int>((DeadlineNs - Now) / 1000000 + 1));
      if (R < 0 && errno == EINTR)
        continue;
      if (R <= 0)
        continue; // the deadline check above ends it
      ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Reader.feed(Chunk, static_cast<size_t>(N));
    }
  }

private:
  int Fd;
  gg::FrameReader Reader;
};

/// State the injected wrappers share with the clients.
struct Probe {
  bool TraceMode = false;
  std::atomic<uint64_t> SpinNs{0}; ///< sensitivity self-check delay
  std::mutex M;
  /// Handler entry/exit per traced request id; guarded by M.
  std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> Handler;
  std::atomic<uint64_t> Reloads{0}, ReloadFailures{0}, ReloadNs{0};
};

/// A CompileService behind a Server serving a Unix socket on its own
/// thread, wired as `compile_minic --serve` wires them.
struct Running {
  std::unique_ptr<gg::CompileService> Svc;
  std::unique_ptr<gg::Server> S;
  std::thread Thread;
  int Rc = -1;

  Running() = default;
  Running(const Running &) = delete;
  Running &operator=(const Running &) = delete;
  ~Running() {
    if (Thread.joinable())
      Thread.join();
  }
};

std::unique_ptr<Running> startServer(Probe &P, const std::string &Path,
                                     std::string &Err) {
  auto R = std::make_unique<Running>();
  R->Svc = gg::CompileService::create(Err);
  if (!R->Svc)
    return nullptr;
  gg::CompileService *Svc = R->Svc.get();
  gg::ServerOptions Opts;
  Opts.Workers = NumWorkers;
  R->S = std::make_unique<gg::Server>(
      [Svc, &P](const gg::RequestMsg &Req, gg::RequestBudget &B) {
        uint64_t In = nowNs();
        gg::HandlerResult Res = Svc->compile(Req, B);
        if (uint64_t Spin = P.SpinNs.load(std::memory_order_relaxed))
          spinNs(Spin);
        uint64_t Out = nowNs();
        if (tracedId(P.TraceMode, Req.Id)) {
          std::lock_guard<std::mutex> Lock(P.M);
          P.Handler[Req.Id] = {In, Out};
        }
        return Res;
      },
      Opts);
  R->S->setReloader([Svc, &P](uint64_t &Gen, std::string &E) {
    uint64_t T0 = nowNs();
    bool Ok = Svc->reload(Gen, E);
    P.ReloadNs += nowNs() - T0;
    ++P.Reloads;
    if (!Ok)
      ++P.ReloadFailures;
    return Ok;
  });
  R->S->setStatusAugmenter(Svc->statusAugmenter());
  Running *Raw = R.get();
  R->Thread = std::thread(
      [Raw, Path] { Raw->Rc = Raw->S->serveUnixSocket(Path); });
  return R;
}

/// Sends Shutdown and waits for the server thread; false unless it
/// exited cleanly.
bool stopServer(Running &R, const std::string &Path) {
  {
    Conn C(connectTo(Path, nowNs() + 10'000'000'000ull));
    if (C.ok())
      C.send(FrameType::Shutdown);
  }
  R.Thread.join();
  return R.Rc == 0;
}

/// Served time is cut into blocks of this length. Between blocks the
/// clients pause (each after its in-flight request) while reference
/// bursts measure the host, so each block's round trips are scaled by the
/// host speed of their own moment. Block 0 warms up and is not recorded.
constexpr double BlockS = 0.25;
constexpr int BurstsPerPause = 3;

/// Round-trip statistics are taken per window of this many blocks (over a
/// thousand requests of serve-small) and reported as the median over
/// windows, so a burst of host load that spans a few windows moves the
/// result less than it would move one pooled percentile.
constexpr int BlocksPerWindow = 4;

/// The pause between blocks, shared by the clients and the pacing thread.
struct Pacer {
  std::mutex M;
  std::condition_variable CV;
  bool Paused = false; ///< guarded by M, as are the rest
  bool Done = false;
  int Parked = 0;      ///< clients waiting out the pause, or finished
  uint32_t Block = 0;
};

struct Sample {
  uint32_t Block;
  bool Traced;
  double RttS; ///< as measured
};

/// Per-client tallies, merged once the client ends.
struct ClientTally {
  uint64_t Attempted = 0, Failed = 0, NonOk = 0;
  std::vector<Sample> Samples;
  double HandlerS = 0, HandlerBytes = 0;
};

/// Mean burst time with one burst on each of NumWorkers threads at once:
/// the served traffic keeps that many cores busy, and neighbours slow a
/// busy pair of cores differently from a single one.
double meanBurstS() {
  double S[BurstsPerPause][NumWorkers] = {};
  for (int I = 0; I < BurstsPerPause; ++I) {
    std::vector<std::thread> Ts;
    for (int W = 0; W < NumWorkers; ++W)
      Ts.emplace_back([&S, I, W] { S[I][W] = referenceBurst(); });
    for (std::thread &T : Ts)
      T.join();
  }
  double Sum = 0;
  for (const auto &Row : S)
    for (double V : Row)
      Sum += V;
  return Sum / (BurstsPerPause * NumWorkers);
}

} // namespace

ServeResult pb::runServed(const Corpus &C, const ServeConfig &Cfg,
                          SpanLog &Log) {
  ::signal(SIGPIPE, SIG_IGN);
  ServeResult Res;
  Probe P;
  P.TraceMode = Cfg.TraceMode;

  // Set-up as the user pays it on each start: CompileService::create
  // (table build plus serializer self-verification) until the socket
  // accepts. The last repeat stays up and serves the measured traffic.
  std::unique_ptr<Running> Srv;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    std::string Err;
    uint64_t T0 = nowNs();
    Srv = startServer(P, Cfg.SocketPath, Err);
    if (!Srv) {
      fprintf(stderr, "perfbench: CompileService::create: %s\n", Err.c_str());
      ++Res.Failed;
      return Res;
    }
    {
      Conn Listening(connectTo(Cfg.SocketPath, T0 + 60'000'000'000ull));
      if (!Listening.ok()) {
        fprintf(stderr, "perfbench: server never listened\n");
        ++Res.Failed;
        stopServer(*Srv, Cfg.SocketPath);
        return Res;
      }
      Res.SetupS.push_back(seconds(nowNs() - T0));
    }
    Res.SetupS.back() *= hostScale(meanBurstS());
    if (Rep + 1 < SetupRepeats && !stopServer(*Srv, Cfg.SocketPath)) {
      fprintf(stderr, "perfbench: server exited uncleanly\n");
      ++Res.Failed;
      return Res;
    }
  }

  const int Blocks = std::max(2, static_cast<int>(Cfg.Seconds / BlockS + 0.5));
  std::atomic<uint64_t> NextReq{0};
  Pacer Pc;
  std::mutex WarmM;
  std::vector<double> WarmupRttS; // guarded by WarmM
  std::mutex TallyM;
  std::vector<ClientTally> Tallies; // guarded by TallyM

  auto Client = [&](uint32_t Tid) {
    ClientTally T;
    Conn Cn(connectTo(Cfg.SocketPath, nowNs() + 10'000'000'000ull));
    uint64_t PendingAcks = 0;
    auto Ack = [&](const gg::Frame &F) {
      gg::ReloadedMsg M;
      std::string Err;
      if (!gg::decodeReloaded(F.Payload, M, Err) || !M.Ok)
        ++T.Failed;
      if (PendingAcks)
        --PendingAcks;
    };
    while (Cn.ok()) {
      uint32_t Block;
      {
        std::unique_lock<std::mutex> Lock(Pc.M);
        if (Pc.Paused) {
          ++Pc.Parked;
          Pc.CV.notify_all();
          Pc.CV.wait(Lock, [&] { return !Pc.Paused; });
          --Pc.Parked;
        }
        if (Pc.Done)
          break;
        Block = Pc.Block;
      }
      const uint64_t K = NextReq.fetch_add(1);
      if (Cfg.ReloadEvery > 0 && K > 0 && K % Cfg.ReloadEvery == 0) {
        ++T.Attempted;
        if (Cn.send(FrameType::Reload))
          ++PendingAcks;
        else
          ++T.Failed;
      }

      const Input &In = C.Inputs[K % C.Inputs.size()];
      const uint64_t Id = K + 1;
      ++T.Attempted;
      const uint64_t T0 = nowNs();
      gg::RequestMsg Req;
      Req.Id = Id;
      Req.Source = In.Source;
      std::string Wire;
      gg::appendFrame(Wire, FrameType::Request, gg::encodeRequest(Req));
      const uint64_t Encoded = nowNs();
      if (!Cn.write(Wire)) {
        ++T.Failed;
        break;
      }

      bool Answered = false, Decoded = false;
      uint64_t ParseStart = 0;
      gg::ResponseMsg Resp;
      while (!Answered) {
        gg::Frame F;
        if (!Cn.next(F, ParseStart, nowNs() + 30'000'000'000ull))
          break;
        if (F.Type == FrameType::Reloaded) {
          Ack(F);
          continue;
        }
        Answered = true;
        std::string Err;
        // Anything but this request's Response (Overloaded, a stray id,
        // an undecodable payload) fails the request.
        Decoded = F.Type == FrameType::Response &&
                  gg::decodeResponse(F.Payload, Resp, Err) && Resp.Id == Id;
      }
      const uint64_t Done = nowNs();
      if (!Answered) {
        ++T.Failed;
        break; // the stream is unusable
      }
      if (Decoded && Resp.Status != gg::ResponseStatus::Ok)
        ++T.NonOk;
      if (!Decoded || Resp.Status != gg::ResponseStatus::Ok ||
          hashBytes(Resp.Payload) != In.GGHash) {
        fprintf(stderr, "perfbench: request %llu failed or its output "
                        "differs from the reference\n",
                static_cast<unsigned long long>(Id));
        ++T.Failed;
        continue;
      }

      const double Rtt = seconds(Done - T0);
      const bool Traced = tracedId(Cfg.TraceMode, Id);
      T.Samples.push_back({Block, Traced, Rtt});
      if (Block == 0) {
        std::lock_guard<std::mutex> Lock(WarmM);
        WarmupRttS.push_back(Rtt);
      }
      if (!Traced)
        continue;
      std::pair<uint64_t, uint64_t> H{0, 0};
      {
        std::lock_guard<std::mutex> Lock(P.M);
        auto It = P.Handler.find(Id);
        if (It != P.Handler.end()) {
          H = It->second;
          P.Handler.erase(It);
        }
      }
      if (!H.first) {
        ++T.Failed; // the handler never saw this id: a broken join
        continue;
      }
      int32_t Root = Log.add("server.rtt", Id, T0, Done, -1, Tid);
      int32_t Wait = Log.add("server.queue_wait", Id, T0, H.first, Root, Tid);
      Log.add("frame.encode", Id, T0, Encoded, Wait, Tid);
      Log.add("server.handler", Id, H.first, H.second, Root, Tid);
      int32_t Back = Log.add("server.respond", Id, H.second, Done, Root, Tid);
      Log.add("frame.decode", Id, ParseStart, Done, Back, Tid);
      T.HandlerS += seconds(H.second - H.first);
      T.HandlerBytes += static_cast<double>(In.Source.size());
    }

    // Every Reload frame must be acknowledged with Ok=1.
    gg::Frame F;
    uint64_t ParseStart = 0;
    const uint64_t AckDeadline = nowNs() + 30'000'000'000ull;
    while (PendingAcks && Cn.next(F, ParseStart, AckDeadline)) {
      if (F.Type == FrameType::Reloaded)
        Ack(F);
      else
        ++T.Failed;
    }
    T.Failed += PendingAcks;
    if (!Cn.ok())
      ++T.Failed;
    {
      std::lock_guard<std::mutex> Lock(TallyM);
      Tallies.push_back(std::move(T));
    }
    std::lock_guard<std::mutex> Lock(Pc.M);
    ++Pc.Parked; // for good
    Pc.CV.notify_all();
  };

  // Pacing: run a block, park the clients, measure the host, repeat.
  std::vector<double> RefS{meanBurstS()}, BlockWallS;
  std::vector<std::thread> Threads;
  for (int I = 0; I < NumClients; ++I)
    Threads.emplace_back(Client, static_cast<uint32_t>(I + 1));
  for (int B = 0; B < Blocks; ++B) {
    const uint64_t BlockStart = nowNs();
    std::this_thread::sleep_until(
        std::chrono::steady_clock::now() +
        std::chrono::nanoseconds(static_cast<uint64_t>(BlockS * 1e9)));
    {
      std::unique_lock<std::mutex> Lock(Pc.M);
      Pc.Paused = true;
      Pc.CV.wait(Lock, [&] { return Pc.Parked == NumClients; });
    }
    BlockWallS.push_back(seconds(nowNs() - BlockStart));
    RefS.push_back(meanBurstS());
    if (B == 0 && Cfg.InjectPct > 0) {
      std::lock_guard<std::mutex> Lock(WarmM);
      P.SpinNs = static_cast<uint64_t>(Cfg.InjectPct / 100 *
                                       median(WarmupRttS) * 1e9);
    }
    {
      std::lock_guard<std::mutex> Lock(Pc.M);
      Pc.Paused = false;
      Pc.Done = B + 1 == Blocks;
      ++Pc.Block;
    }
    Pc.CV.notify_all();
  }
  for (std::thread &Th : Threads)
    Th.join();
  if (!stopServer(*Srv, Cfg.SocketPath)) {
    fprintf(stderr, "perfbench: server exited uncleanly\n");
    ++Res.Failed;
  }

  // A block's scale is the host speed measured on either side of it.
  std::vector<double> Scale(Blocks);
  for (int B = 0; B < Blocks; ++B)
    Scale[B] = hostScale((RefS[B] + RefS[B + 1]) / 2);
  const int Windows = (Blocks - 1 + BlocksPerWindow - 1) / BlocksPerWindow;
  std::vector<std::vector<double>> WindowRttS(Windows);
  std::vector<double> WindowWallS(Windows, 0);
  for (int B = 1; B < Blocks; ++B)
    WindowWallS[(B - 1) / BlocksPerWindow] += BlockWallS[B] * Scale[B];
  for (const ClientTally &T : Tallies) {
    Res.Attempted += T.Attempted;
    Res.Failed += T.Failed;
    Res.NonOk += T.NonOk;
    for (const Sample &S : T.Samples) {
      if (S.Block == 0)
        continue;
      double Rtt = S.RttS * Scale[S.Block];
      WindowRttS[(S.Block - 1) / BlocksPerWindow].push_back(Rtt);
      (S.Traced ? Res.TracedRttS : Res.RttS).push_back(Rtt);
    }
    Res.HandlerS += T.HandlerS;
    Res.HandlerBytes += T.HandlerBytes;
  }
  for (int W = 0; W < Windows; ++W) {
    Res.WindowP50S.push_back(median(WindowRttS[W]));
    Res.WindowP99S.push_back(percentile(WindowRttS[W], 0.99));
    Res.WindowReqPerS.push_back(WindowRttS[W].size() / WindowWallS[W]);
  }
  Res.Scales.assign(Scale.begin() + 1, Scale.end());
  Res.Reloads = P.Reloads.load();
  Res.ReloadS = seconds(P.ReloadNs.load());
  Res.Failed += P.ReloadFailures.load();
  return Res;
}
