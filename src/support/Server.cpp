//===- Server.cpp - fault-isolated compile server -----------------------------===//

#include "support/Server.h"
#include "support/ExitCodes.h"
#include "support/FaultInject.h"
#include "support/FlightRecorder.h"
#include "support/Metrics.h"
#include "support/Phase.h"
#include "support/Strings.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <atomic>
#include <algorithm>
#include <csignal>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace gg;

namespace {

/// Writes all of \p Data to \p Fd, retrying short writes and EINTR.
/// Returns false once the peer is gone (EPIPE/ECONNRESET); SIGPIPE is
/// ignored process-wide while serving.
bool writeAll(int Fd, const char *Data, size_t Len) {
  while (Len > 0) {
    ssize_t N = ::write(Fd, Data, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

/// Signal flags polled by the watchdog thread: a sigaction handler may
/// only touch lock-free atomics, so the actual drain/reload work happens
/// on the next watchdog scan (<= WatchdogIntervalMs later).
std::atomic<bool> SigDrainPending{false};
std::atomic<bool> SigReloadPending{false};

} // namespace

/// One output stream. Workers, the watchdog and the input pump all write
/// responses; the mutex keeps frames atomic on the wire.
struct Server::Conn {
  explicit Conn(int Fd) : Fd(Fd) {}
  int Fd;
  std::mutex WriteM;
  bool Broken = false;

  void writeFrame(FrameType Type, std::string_view Payload) {
    std::string Wire;
    appendFrame(Wire, Type, Payload);
    std::lock_guard<std::mutex> Lock(WriteM);
    if (Broken)
      return;
    if (!writeAll(Fd, Wire.data(), Wire.size()))
      Broken = true; // client gone; its remaining responses are discarded
  }

  void respond(const ResponseMsg &M) {
    writeFrame(FrameType::Response, encodeResponse(M));
  }
};

/// One admitted request. Shared by the queue, the owning worker and the
/// watchdog; Responded arbitrates who publishes the (single) response.
struct Server::Active {
  RequestMsg Req;
  std::shared_ptr<Conn> C;
  RequestBudget Budget;
  std::atomic<bool> Responded{false};
  uint64_t AdmitNs = 0;
  /// The id this request is traced/introspected under: the client's Id
  /// when nonzero, a server-minted one (high bit set) otherwise. The
  /// wire response always echoes the client's Id.
  uint64_t TraceId = 0;

  /// True for the caller that wins the right to respond.
  bool claimResponse() {
    bool Expected = false;
    return Responded.compare_exchange_strong(Expected, true,
                                             std::memory_order_acq_rel);
  }
};

Server::Server(CompileHandler Handler, ServerOptions Opts)
    : Handler(std::move(Handler)), Opts(Opts) {
  // A fresh server dumps the whole server.* schema.
  touchMetrics(MetricGroup::Server);
  counter(Metric::ServerRestarts) += Opts.Generation;
  LatRing = std::make_unique<LatSample[]>(LatRingSize);
  if (::pipe(WakePipe) != 0)
    WakePipe[0] = WakePipe[1] = -1;
}

void Server::recordLatency(uint64_t LatMs, bool Ok) {
  LatSample &S =
      LatRing[LatHead.fetch_add(1, std::memory_order_relaxed) % LatRingSize];
  S.DoneNs.store(0, std::memory_order_release);
  S.LatMs = static_cast<uint32_t>(std::min<uint64_t>(LatMs, 0xffffffffu));
  S.Ok = Ok ? 1 : 0;
  S.DoneNs.store(RequestBudget::nowNs(), std::memory_order_release);
}

std::string Server::statusJson() {
  uint64_t Now = RequestBudget::nowNs();
  constexpr uint64_t WindowNs = 10ull * 1000000000ull;
  // The window never extends before serving started, so RPS on a young
  // server divides by its real lifetime, not the full 10 s.
  uint64_t EffWindow =
      ServeStartNs && Now - ServeStartNs < WindowNs ? Now - ServeStartNs
                                                    : WindowNs;
  if (EffWindow == 0)
    EffWindow = 1;

  size_t Depth = 0;
  bool Draining = false;
  {
    std::lock_guard<std::mutex> Lock(QueueM);
    Depth = Queue.size();
    Draining = Stopping;
  }

  std::string InFlightJson = "[";
  size_t NInFlight = 0;
  {
    std::lock_guard<std::mutex> Lock(ActiveM);
    for (const std::shared_ptr<Active> &A : InFlight) {
      if (A->Responded.load(std::memory_order_acquire))
        continue;
      Phase P = A->Budget.CurPhase.load(std::memory_order_relaxed);
      InFlightJson += strf(
          "%s{\"id\":%llu,\"age_ms\":%llu,\"phase\":\"%s\"}",
          NInFlight ? "," : "",
          static_cast<unsigned long long>(A->TraceId),
          static_cast<unsigned long long>((Now - A->AdmitNs) / 1000000ull),
          phaseShortName(P));
      ++NInFlight;
    }
  }
  InFlightJson += "]";

  // Windowed latency stats from the completion ring.
  std::vector<uint32_t> Lats;
  Lats.reserve(LatRingSize);
  uint64_t WinOk = 0;
  for (size_t I = 0; I < LatRingSize; ++I) {
    uint64_t Done = LatRing[I].DoneNs.load(std::memory_order_acquire);
    if (!Done || Now - Done > EffWindow)
      continue;
    Lats.push_back(LatRing[I].LatMs);
    WinOk += LatRing[I].Ok;
  }
  std::sort(Lats.begin(), Lats.end());
  auto Pct = [&](int P) -> uint64_t {
    if (Lats.empty())
      return 0;
    return Lats[Lats.size() * P / 100 >= Lats.size()
                    ? Lats.size() - 1
                    : Lats.size() * P / 100];
  };
  double WindowS = static_cast<double>(EffWindow) / 1e9;

  std::string Counters = "{";
  bool FirstC = true;
  for (size_t I = 0; I < NumMetrics; ++I) {
    const Metric M = static_cast<Metric>(I);
    if (!inStatusFrame(M))
      continue;
    Counters += strf("%s\"%s\":%llu", FirstC ? "" : ",", metricKey(M) + 7,
                     static_cast<unsigned long long>(counter(M)));
    FirstC = false;
  }
  Counters += "}";

  std::string Extra;
  {
    std::lock_guard<std::mutex> Lock(ReloadM);
    if (Augmenter)
      Extra = Augmenter();
  }

  std::string Out = strf(
      "{\"schema\":\"gg-status-v1\",\"uptime_ms\":%llu,\"workers\":%u,"
      "\"queue_depth\":%llu,\"executing\":%u,\"draining\":%d,"
      "\"reloading\":%d,\"in_flight\":%s,"
      "\"window_ms\":%llu,\"window\":{\"requests\":%llu,\"ok\":%llu,"
      "\"rps\":%.3f,\"goodput_rps\":%.3f,\"p50_ms\":%llu,\"p90_ms\":%llu,"
      "\"p99_ms\":%llu},\"counters\":%s",
      static_cast<unsigned long long>(
          ServeStartNs ? (Now - ServeStartNs) / 1000000ull : 0),
      ResolvedWorkers, static_cast<unsigned long long>(Depth),
      Executing.load(std::memory_order_relaxed), Draining ? 1 : 0,
      ReloadRunning.load(std::memory_order_acquire) ? 1 : 0,
      InFlightJson.c_str(),
      static_cast<unsigned long long>(EffWindow / 1000000ull),
      static_cast<unsigned long long>(Lats.size()),
      static_cast<unsigned long long>(WinOk),
      static_cast<double>(Lats.size()) / WindowS,
      static_cast<double>(WinOk) / WindowS,
      static_cast<unsigned long long>(Pct(50)),
      static_cast<unsigned long long>(Pct(90)),
      static_cast<unsigned long long>(Pct(99)), Counters.c_str());
  if (!Extra.empty()) {
    Out += ',';
    Out += Extra;
  }
  Out += '}';
  return Out;
}

Server::~Server() {
  stopWatchdog();
  joinReloadThread();
  for (int Fd : WakePipe)
    if (Fd >= 0)
      ::close(Fd);
}

void Server::notifySignal(int Sig) {
  if (Sig == SIGHUP)
    SigReloadPending.store(true, std::memory_order_relaxed);
  else
    SigDrainPending.store(true, std::memory_order_relaxed);
}

void Server::wakePumps() {
  // The byte is deliberately never read back: every pumpInput poller —
  // present and future — must see the pipe readable and stop.
  if (WakePipe[1] >= 0)
    (void)writeAll(WakePipe[1], "w", 1);
}

void Server::requestDrain() {
  {
    std::lock_guard<std::mutex> Lock(QueueM);
    if (Stopping)
      return;
    Stopping = true;
    DrainStartNs = RequestBudget::nowNs();
  }
  ++counter(Metric::ServerDrains);
  flightRecord(FlightKind::Drain);
  closeQueue(); // queued work still completes; only admissions stop
  wakePumps();
}

void Server::requestReload() {
  ReloadWanted.store(true, std::memory_order_release);
  WatchdogCV.notify_all();
}

void Server::joinReloadThread() {
  if (ReloadThread.joinable())
    ReloadThread.join();
}

void Server::startWatchdog() {
  WatchdogStop = false;
  Watchdog = std::thread([this] {
    std::unique_lock<std::mutex> Lock(WatchdogM);
    while (!WatchdogStop) {
      WatchdogCV.wait_for(Lock,
                          std::chrono::milliseconds(Opts.WatchdogIntervalMs));
      if (WatchdogStop)
        return;
      Lock.unlock();
      watchdogScan();
      Lock.lock();
    }
  });
}

void Server::stopWatchdog() {
  if (!Watchdog.joinable())
    return;
  {
    std::lock_guard<std::mutex> Lock(WatchdogM);
    WatchdogStop = true;
  }
  WatchdogCV.notify_all();
  Watchdog.join();
}

void Server::watchdogScan() {
  uint64_t Now = RequestBudget::nowNs();
  uint64_t GraceNs = Opts.WatchdogGraceMs * 1000000ull;

  // Operator signals land here: the sigaction handler only sets a flag,
  // the watchdog does the actual lifecycle work on its own thread.
  if (SigDrainPending.exchange(false, std::memory_order_acq_rel))
    requestDrain();
  if (SigReloadPending.exchange(false, std::memory_order_acq_rel))
    requestReload();

  // Launch a requested reload, serializing back-to-back requests: if one
  // is still running, leave the flag set for the next scan.
  if (ReloadWanted.load(std::memory_order_acquire)) {
    if (ReloadRunning.load(std::memory_order_acquire) == false &&
        ReloadWanted.exchange(false, std::memory_order_acq_rel)) {
      joinReloadThread();
      ReloadRunning.store(true, std::memory_order_release);
      ReloadThread = std::thread([this] { runReload(); });
    }
  }

  // A drain past its deadline stops being graceful: shed whatever is
  // still queued and cancel what is executing (cooperatively — the
  // budget poll turns it into a Deadline response within microseconds).
  bool DrainExpired = false;
  std::deque<std::shared_ptr<Active>> Left;
  {
    std::lock_guard<std::mutex> Lock(QueueM);
    if (Stopping && Now > DrainStartNs + Opts.DrainDeadlineMs * 1000000ull) {
      DrainExpired = true;
      Left.swap(Queue);
    }
  }
  if (DrainExpired) {
    QueueCV.notify_all();
    for (const std::shared_ptr<Active> &A : Left)
      shed(A, OverloadCause::Draining, 0, true);
    std::lock_guard<std::mutex> Lock(ActiveM);
    for (const std::shared_ptr<Active> &A : InFlight)
      A->Budget.Cancelled.store(true, std::memory_order_relaxed);
  }
  std::vector<std::shared_ptr<Active>> Snapshot;
  {
    std::lock_guard<std::mutex> Lock(ActiveM);
    Snapshot = InFlight;
  }
  for (const std::shared_ptr<Active> &A : Snapshot) {
    if (A->Responded.load(std::memory_order_acquire))
      continue;
    uint64_t Deadline = A->Budget.DeadlineNs;
    if (!Deadline || Now <= Deadline)
      continue;
    // Past the deadline: first ask nicely — the matcher's budget poll
    // aborts the parse within ~BudgetPollMask steps.
    A->Budget.Cancelled.store(true, std::memory_order_relaxed);
    if (Now <= Deadline + GraceNs)
      continue;
    // Still running a grace period later: the worker is wedged (e.g. the
    // stall-worker fault sleeping through the deadline). Fail exactly
    // this request; the worker rejoins the pool when it wakes, and its
    // result is discarded by the Responded flag.
    if (!A->claimResponse())
      continue;
    ++counter(Metric::ServerWatchdogKills);
    ++counter(Metric::ServerQuarantined);
    flightRecordFor(FlightKind::WatchdogKill, A->TraceId, 0,
                    static_cast<int64_t>((Now - Deadline) / 1000000ull));
    ResponseMsg M;
    M.Id = A->Req.Id;
    M.Status = ResponseStatus::Watchdog;
    M.Payload = strf("request %llu abandoned: worker unresponsive %llums "
                     "past its deadline",
                     static_cast<unsigned long long>(A->Req.Id),
                     static_cast<unsigned long long>((Now - Deadline) /
                                                     1000000ull));
    A->C->respond(M);
    // A wedged worker is the flight recorder's raison d'etre: dump now,
    // while the kill is the freshest event in the rings, so the operator
    // sees which request (and which phase events led up to it) wedged.
    flightDump("watchdog-kill");
  }
}

void Server::closeQueue() {
  {
    std::lock_guard<std::mutex> Lock(QueueM);
    Closed = true;
  }
  QueueCV.notify_all();
}

uint64_t Server::estimateWaitNs(size_t Depth) const {
  uint64_t Per =
      std::max<uint64_t>(EwmaServiceNs.load(std::memory_order_relaxed),
                         Opts.AdmissionEstimateFloorMs * 1000000ull);
  unsigned W = ResolvedWorkers ? ResolvedWorkers : 1;
  return static_cast<uint64_t>(Depth) * Per / W;
}

void Server::shed(const std::shared_ptr<Active> &A, OverloadCause Cause,
                  uint32_t QueueDepth, bool InFlightToo) {
  if (InFlightToo) {
    std::lock_guard<std::mutex> Lock(ActiveM);
    InFlight.erase(std::remove(InFlight.begin(), InFlight.end(), A),
                   InFlight.end());
  }
  if (!A->claimResponse())
    return; // the watchdog already answered for this request
  ++counter(Metric::ServerOverloaded);
  flightRecordFor(FlightKind::Shed, A->TraceId, 0,
                  static_cast<int64_t>(Cause));
  // In OverloadCause's wire order.
  static constexpr Metric ShedCounters[] = {
      Metric::ServerShedQueueFull, Metric::ServerShedOldest,
      Metric::ServerShedQueueDeadline, Metric::ServerShedAdmission,
      Metric::ServerShedDraining};
  ++counter(ShedCounters[static_cast<size_t>(Cause)]);
  OverloadMsg M;
  M.Id = A->Req.Id;
  M.QueueDepth = QueueDepth;
  M.Cause = Cause;
  // Retry-after: the estimated time for the backlog ahead of a retry to
  // clear. During a drain the process is going away — point the client
  // at the supervisor's restart horizon instead.
  uint64_t RetryMs =
      Cause == OverloadCause::Draining
          ? 1000
          : estimateWaitNs(std::max<size_t>(QueueDepth, 1)) / 1000000ull;
  M.RetryAfterMs =
      static_cast<uint32_t>(std::clamp<uint64_t>(RetryMs, 1, 5000));
  A->C->writeFrame(FrameType::Overloaded, encodeOverload(M));
}

void Server::runReload() {
  TraceSpan Span("server.reload");
  {
    std::lock_guard<std::mutex> Lock(QueueM);
    PauseDispatch = true;
  }
  // Drain the handlers (not the queue: admissions keep queueing, so a
  // reload drops zero requests). Past the deadline we swap anyway —
  // stragglers are safe, they pinned the old image at snapshot time.
  uint64_t Deadline =
      RequestBudget::nowNs() + Opts.DrainDeadlineMs * 1000000ull;
  while (Executing.load(std::memory_order_acquire) > 0 &&
         RequestBudget::nowNs() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));

  std::string Err;
  uint64_t Gen = 0;
  bool Ok = false;
  ReloadHandler R;
  {
    std::lock_guard<std::mutex> Lock(ReloadM);
    R = Reloader;
  }
  if (R)
    Ok = R(Gen, Err);
  else
    Err = "no reloader installed";

  {
    std::lock_guard<std::mutex> Lock(QueueM);
    PauseDispatch = false;
  }
  QueueCV.notify_all();

  std::vector<std::shared_ptr<Conn>> Acks;
  {
    std::lock_guard<std::mutex> Lock(ReloadM);
    Acks.swap(ReloadAcks);
  }
  ReloadedMsg M;
  M.Generation = Gen;
  M.Ok = Ok ? 1 : 0;
  M.Text = Err;
  std::string Payload = encodeReloaded(M);
  for (const std::shared_ptr<Conn> &C : Acks)
    C->writeFrame(FrameType::Reloaded, Payload);
  // Count only after the acks are claimed and written: observers that
  // serialize reloads through this counter (tests, drills) must not see
  // reload N complete while its ack queue is still open — a Reload frame
  // sent at that instant would be acked by reload N with N's generation
  // instead of starting reload N+1.
  ++counter(Ok ? Metric::ServerReloads : Metric::ServerReloadFailures);
  flightRecordFor(FlightKind::Reload, 0, Gen, Ok ? 1 : 0);
  ReloadRunning.store(false, std::memory_order_release);
}

void Server::admit(const std::shared_ptr<Conn> &C, RequestMsg Req) {
  auto A = std::make_shared<Active>();
  A->Req = std::move(Req);
  A->C = C;
  A->AdmitNs = RequestBudget::nowNs();
  A->TraceId = A->Req.Id
                   ? A->Req.Id
                   : (0x8000000000000000ull |
                      NextTraceId.fetch_add(1, std::memory_order_relaxed));
  // ~0u is the explicit "no deadline" escape hatch; 0 means "server
  // default". Budgets follow the same convention.
  uint32_t DeadlineMs = A->Req.DeadlineMs == 0
                            ? static_cast<uint32_t>(std::min<uint64_t>(
                                  Opts.DefaultDeadlineMs, 0xfffffffeu))
                            : A->Req.DeadlineMs;
  if (DeadlineMs != 0xffffffffu)
    A->Budget.arm(DeadlineMs);
  A->Budget.MaxSteps =
      A->Req.MaxSteps ? A->Req.MaxSteps : Opts.DefaultMaxSteps;
  A->Budget.MaxArenaBytes = static_cast<size_t>(
      A->Req.MaxArenaBytes ? A->Req.MaxArenaBytes : Opts.DefaultMaxArenaBytes);
  {
    std::lock_guard<std::mutex> Lock(ActiveM);
    InFlight.push_back(A);
  }

  // Admission control. Decide under the queue lock, act (write frames)
  // outside it.
  bool DoShed = false;
  OverloadCause Cause = OverloadCause::QueueFull;
  size_t Depth = 0;
  std::shared_ptr<Active> Victim;
  const uint64_t TraceId = A->TraceId; // A is moved into the queue below
  {
    std::lock_guard<std::mutex> Lock(QueueM);
    Depth = Queue.size();
    histogram(Metric::ServerQueueDepth).record(Depth);
    if (Stopping) {
      DoShed = true;
      Cause = OverloadCause::Draining;
    } else if (A->Budget.DeadlineNs) {
      // Reject-at-admission: if the estimated queue wait alone blows the
      // request's deadline, shedding now is strictly cheaper than
      // queueing it to die — the client learns in O(RTT), not O(deadline).
      uint64_t Est = estimateWaitNs(Depth);
      if (Est && A->AdmitNs + Est > A->Budget.DeadlineNs) {
        DoShed = true;
        Cause = OverloadCause::AdmissionDeadline;
      }
    }
    if (!DoShed) {
      if (Opts.MaxQueueDepth && Depth >= Opts.MaxQueueDepth) {
        if (Opts.Shed == ShedPolicy::RejectNewest) {
          DoShed = true;
          Cause = OverloadCause::QueueFull;
        } else {
          Victim = Queue.front();
          Queue.pop_front();
          Queue.push_back(std::move(A));
        }
      } else {
        Queue.push_back(std::move(A));
      }
    }
  }
  if (DoShed) {
    shed(A, Cause, static_cast<uint32_t>(Depth), /*InFlightToo=*/true);
    return;
  }
  // A near-zero-duration span marking the admission instant: gg-report
  // --trace computes queue wait as server.request start minus this span's
  // start, and the explicit req arg joins the two.
  {
    TraceSpan AdmitSpan("server.admit");
    AdmitSpan.arg("req", static_cast<int64_t>(TraceId));
    AdmitSpan.arg("depth", static_cast<int64_t>(Depth));
  }
  flightRecordFor(FlightKind::Admit, TraceId, 0,
                  static_cast<int64_t>(Depth));
  if (Victim)
    shed(Victim, OverloadCause::ShedOldest, static_cast<uint32_t>(Depth),
         /*InFlightToo=*/true);
  QueueCV.notify_one();
}

void Server::serveOne(const std::shared_ptr<Active> &A) {
  ++counter(Metric::ServerRequests);
  // The span is created *outside* the request scope (its req/gen/status
  // args are attached explicitly below, once the handler has told us the
  // serving generation), so it is not double-tagged by TraceSpan's
  // automatic request stamping.
  TraceSpan Span("server.request");
  uint64_t StartNs = RequestBudget::nowNs();
  uint64_t QueueWaitMs = (StartNs - A->AdmitNs) / 1000000ull;
  histogram(Metric::ServerQueueWaitMs).record(QueueWaitMs);
  flightRecordFor(FlightKind::Dispatch, A->TraceId, 0,
                  static_cast<int64_t>(QueueWaitMs));
  Executing.fetch_add(1, std::memory_order_acq_rel);
  // Soak drill: the overload-burst fault inflates service time here — in
  // the server's dispatch path, not the compile pipeline, so gg-load's
  // in-process verify oracle is unaffected by a shared GG_FAULT.
  faultInject().overloadBurst();
  HandlerResult R;
  {
    // Everything the handler does — phase spans, flight events, block
    // reports — is attributed to this request via the thread-local scope.
    // The service layer patches in the generation once it pins a snapshot.
    RequestScope Scope(A->TraceId);
    try {
      R = Handler(A->Req, A->Budget);
    } catch (...) {
      // The handler contract is exception-free; honor the quarantine
      // promise anyway rather than unwinding out of the pool.
      R.Status = ResponseStatus::CompileError;
      R.Payload = "internal error: handler threw";
    }
  }
  PhaseScope Responding(Phase::Responding, &A->Budget);
  // Service-time EWMA (alpha = 1/8) feeding the admission estimator.
  uint64_t Sample = RequestBudget::nowNs() - StartNs;
  uint64_t Prev = EwmaServiceNs.load(std::memory_order_relaxed);
  EwmaServiceNs.store(Prev ? Prev - Prev / 8 + Sample / 8 : Sample,
                      std::memory_order_relaxed);

  counter(Metric::ServerFallbackTrees) += R.RecoveredTrees;
  counter(Metric::ServerBlockedTrees) += R.BlockedTrees;

  Span.arg("req", static_cast<int64_t>(A->TraceId));
  Span.arg("gen", static_cast<int64_t>(R.Generation));
  Span.arg("status", static_cast<int64_t>(R.Status));
  Span.arg("queue_wait_ms", static_cast<int64_t>(QueueWaitMs));

  if (!A->claimResponse()) {
    // The watchdog already failed this request; drop the late result.
    ++counter(Metric::ServerDiscardedResults);
  } else {
    switch (R.Status) {
    case ResponseStatus::Deadline:
    case ResponseStatus::StepBudget:
    case ResponseStatus::MemBudget:
      flightRecordFor(FlightKind::BudgetKill, A->TraceId, R.Generation,
                      static_cast<int64_t>(R.Status));
      break;
    default:
      break;
    }
    switch (R.Status) {
    case ResponseStatus::Ok:
      ++counter(Metric::ServerOk);
      break;
    case ResponseStatus::CompileError:
      ++counter(Metric::ServerCompileErrors);
      break;
    case ResponseStatus::Deadline:
      ++counter(Metric::ServerDeadlineKills);
      ++counter(Metric::ServerQuarantined);
      break;
    case ResponseStatus::StepBudget:
      ++counter(Metric::ServerStepBudgetKills);
      ++counter(Metric::ServerQuarantined);
      break;
    case ResponseStatus::MemBudget:
      ++counter(Metric::ServerMemBudgetKills);
      ++counter(Metric::ServerQuarantined);
      break;
    case ResponseStatus::Watchdog:
    case ResponseStatus::Protocol:
      ++counter(Metric::ServerQuarantined);
      break;
    }
    ResponseMsg M;
    M.Id = A->Req.Id;
    M.Status = R.Status;
    M.BlockedTrees = R.BlockedTrees;
    M.RecoveredTrees = R.RecoveredTrees;
    M.Generation = R.Generation;
    M.Payload = std::move(R.Payload);
    A->C->respond(M);
    uint64_t TotalMs = (RequestBudget::nowNs() - A->AdmitNs) / 1000000ull;
    histogram(Metric::ServerRequestMs).record(TotalMs);
    recordLatency(TotalMs, R.Status == ResponseStatus::Ok);
    flightRecordFor(FlightKind::Respond, A->TraceId, R.Generation,
                    static_cast<int64_t>(R.Status));
  }
  // Decrement only after the response is on the wire: a reload waits for
  // Executing==0 before swapping and acking, and clients assert that
  // generations never regress in stream order — an earlier decrement
  // would let a new-generation ack overtake an old-generation response.
  Executing.fetch_sub(1, std::memory_order_acq_rel);

  std::lock_guard<std::mutex> Lock(ActiveM);
  InFlight.erase(std::remove(InFlight.begin(), InFlight.end(), A),
                 InFlight.end());
}

void Server::drainQueue() {
  while (true) {
    std::shared_ptr<Active> A;
    {
      std::unique_lock<std::mutex> Lock(QueueM);
      // A paused dispatch (reload drain) holds workers here — unless the
      // queue has Closed, in which case drain-to-exit wins.
      QueueCV.wait(Lock, [this] {
        return Closed || (!PauseDispatch && !Queue.empty());
      });
      if (Queue.empty())
        return; // Closed and drained
      A = std::move(Queue.front());
      Queue.pop_front();
    }
    // Queueing deadline: a request that sat in the queue too long is
    // answered with a structured shed, not a worker it no longer wants.
    if (Opts.QueueDeadlineMs &&
        RequestBudget::nowNs() - A->AdmitNs >
            Opts.QueueDeadlineMs * 1000000ull) {
      shed(A, OverloadCause::QueueDeadline, 0, /*InFlightToo=*/true);
      continue;
    }
    serveOne(A);
  }
}

void Server::pumpInput(const std::shared_ptr<Conn> &C, int InFd,
                       bool &SawShutdown) {
  SawShutdown = false;
  FrameReader Reader;
  char Chunk[65536];
  while (true) {
    Frame F;
    FrameReader::Status S = Reader.next(F);
    if (S == FrameReader::Status::NeedMore) {
      // Block in poll() rather than read() so a drain can wake us via the
      // self-pipe: pipes have no ::shutdown, and closing the fd under a
      // blocked reader is a race.
      pollfd P[2];
      P[0] = {InFd, POLLIN, 0};
      P[1] = {WakePipe[0], POLLIN, 0};
      int NFds = WakePipe[0] >= 0 ? 2 : 1;
      int PR = ::poll(P, static_cast<nfds_t>(NFds), -1);
      if (PR < 0) {
        if (errno == EINTR)
          continue;
        return;
      }
      if (NFds == 2 && (P[1].revents & POLLIN))
        return; // drain wake: stop reading; queued work still completes
      if (!P[0].revents)
        continue;
      ssize_t N = ::read(InFd, Chunk, sizeof(Chunk));
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0) {
        // EOF mid-frame is itself a protocol event worth counting: the
        // client died between header and payload.
        if (Reader.buffered() > 0)
          ++counter(Metric::ServerProtocolErrors);
        return;
      }
      Reader.feed(Chunk, static_cast<size_t>(N));
      continue;
    }
    if (S == FrameReader::Status::Corrupt) {
      // Quarantine the poisoned bytes, tell the client, keep serving.
      ++counter(Metric::ServerResyncs);
      ++counter(Metric::ServerProtocolErrors);
      ResponseMsg M;
      M.Status = ResponseStatus::Protocol;
      M.Payload = Reader.error();
      C->respond(M);
      continue;
    }
    switch (F.Type) {
    case FrameType::Request: {
      RequestMsg Req;
      std::string Err;
      if (!decodeRequest(F.Payload, Req, Err)) {
        ++counter(Metric::ServerProtocolErrors);
        ResponseMsg M;
        M.Status = ResponseStatus::Protocol;
        M.Payload = "bad request payload: " + Err;
        C->respond(M);
        break;
      }
      admit(C, std::move(Req));
      break;
    }
    case FrameType::Ping:
      C->writeFrame(FrameType::Pong, F.Payload);
      break;
    case FrameType::Shutdown:
      SawShutdown = true;
      return;
    case FrameType::Reload:
      // Hot table reload, the control-frame path (SIGHUP is the other).
      // The ack arrives as a Reloaded frame once the swap completes.
      {
        std::lock_guard<std::mutex> Lock(ReloadM);
        ReloadAcks.push_back(C);
      }
      requestReload();
      break;
    case FrameType::Crash:
      if (Opts.AllowCrash) {
        // Crash drill: die the crash-only way — no draining, no flushing,
        // the supervisor's problem now. A signal death (not ExitFatalFault,
        // which means "restart cannot help") so the supervisor restarts us.
        ::abort();
      }
      ++counter(Metric::ServerProtocolErrors);
      {
        ResponseMsg M;
        M.Status = ResponseStatus::Protocol;
        M.Payload = "crash frames are disabled on this server";
        C->respond(M);
      }
      break;
    case FrameType::Status: {
      // Live introspection: answered inline on the pump thread so a
      // snapshot works even when every worker is busy — that is exactly
      // when the operator wants one.
      StatusMsg SM;
      std::string Err;
      if (!decodeStatus(F.Payload, SM, Err)) {
        ++counter(Metric::ServerProtocolErrors);
        ResponseMsg M;
        M.Status = ResponseStatus::Protocol;
        M.Payload = "bad status payload: " + Err;
        C->respond(M);
        break;
      }
      StatusReplyMsg RM;
      RM.Id = SM.Id;
      RM.Text = statusJson();
      C->writeFrame(FrameType::StatusReply, encodeStatusReply(RM));
      break;
    }
    case FrameType::Response:
    case FrameType::Pong:
    case FrameType::Overloaded:
    case FrameType::Reloaded:
    case FrameType::StatusReply:
      ++counter(Metric::ServerProtocolErrors);
      break;
    }
  }
}

int Server::serveFds(int InFd, int OutFd) {
  ::signal(SIGPIPE, SIG_IGN);
  auto C = std::make_shared<Conn>(OutFd);
  ++counter(Metric::ServerConnections);
  ResolvedWorkers = resolveWorkerCount(Opts.Workers, 1u << 16);
  ServeStartNs = RequestBudget::nowNs();
  startWatchdog();

  bool SawShutdown = false;
  std::thread Reader([&] {
    pumpInput(C, InFd, SawShutdown);
    closeQueue();
  });

  // The drain loops ride the PR-4 work-stealing pool: each index hosts
  // one worker, the caller participates as worker 0, and Workers=1 is a
  // plain serial server.
  ParallelOptions PO;
  PO.Threads = static_cast<int>(ResolvedWorkers);
  parallelFor(ResolvedWorkers, PO, [this](size_t) { drainQueue(); });

  wakePumps(); // the queue is closed and drained; unblock the pump
  Reader.join();
  joinReloadThread();
  stopWatchdog();
  (void)SawShutdown; // EOF, Shutdown and drain all finish work, exit cleanly
  return ExitOk;
}

int Server::serveUnixSocket(const std::string &Path) {
  ::signal(SIGPIPE, SIG_IGN);
  int ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    fprintf(stderr, "serve: socket(): %s\n", strerror(errno));
    return ExitFatalFault;
  }
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    fprintf(stderr, "serve: socket path too long: %s\n", Path.c_str());
    ::close(ListenFd);
    return ExitUsage;
  }
  strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  ::unlink(Path.c_str());
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
          0 ||
      ::listen(ListenFd, 64) < 0) {
    fprintf(stderr, "serve: bind/listen(%s): %s\n", Path.c_str(),
            strerror(errno));
    ::close(ListenFd);
    return ExitFatalFault;
  }

  ResolvedWorkers = resolveWorkerCount(Opts.Workers, 1u << 16);
  ServeStartNs = RequestBudget::nowNs();
  startWatchdog();
  std::atomic<bool> Shut{false};
  std::mutex ConnsM;
  std::vector<std::shared_ptr<Conn>> Conns;
  std::vector<std::thread> ConnThreads;

  std::thread Acceptor([&] {
    while (!Shut.load(std::memory_order_relaxed)) {
      int Fd = ::accept(ListenFd, nullptr, nullptr);
      if (Fd < 0) {
        if (errno == EINTR)
          continue;
        break; // listen fd closed: shutting down
      }
      ++counter(Metric::ServerConnections);
      auto C = std::make_shared<Conn>(Fd);
      std::lock_guard<std::mutex> Lock(ConnsM);
      Conns.push_back(C);
      ConnThreads.emplace_back([this, C, Fd, &Shut, ListenFd] {
        bool SawShutdown = false;
        pumpInput(C, Fd, SawShutdown);
        if (SawShutdown && !Shut.exchange(true)) {
          // First Shutdown frame wins: stop accepting, then unblock the
          // acceptor and every idle connection reader.
          ::shutdown(ListenFd, SHUT_RDWR);
          closeQueue();
        }
      });
    }
  });

  // Workers drain until the queue closes (Shutdown frame or drain).
  ParallelOptions PO;
  PO.Threads = static_cast<int>(ResolvedWorkers);
  parallelFor(ResolvedWorkers, PO, [this](size_t) { drainQueue(); });

  // Closed queue means shutdown: kick still-open connections loose.
  Shut.store(true);
  wakePumps();
  ::shutdown(ListenFd, SHUT_RDWR);
  Acceptor.join();
  {
    std::lock_guard<std::mutex> Lock(ConnsM);
    for (const std::shared_ptr<Conn> &C : Conns)
      ::shutdown(C->Fd, SHUT_RDWR);
  }
  for (std::thread &T : ConnThreads)
    T.join();
  {
    std::lock_guard<std::mutex> Lock(ConnsM);
    for (const std::shared_ptr<Conn> &C : Conns)
      ::close(C->Fd);
  }
  ::close(ListenFd);
  ::unlink(Path.c_str());
  joinReloadThread();
  stopWatchdog();
  return ExitOk;
}
