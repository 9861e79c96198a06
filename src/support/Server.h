//===- Server.h - fault-isolated compile server -----------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon core behind `compile_minic --serve` (docs/server.md): a
/// long-lived, multi-tenant service over the Frame protocol. This layer
/// owns transports (stdin/stdout frames, a local Unix socket), the
/// request queue, the worker pool dispatch, the request-quarantine layer
/// (per-request RequestBudget with deadlines and step/stack/memory
/// budgets), and the watchdog that fails a wedged request without taking
/// the process down. What "compile" means is injected as a handler, so
/// support stays the bottom layer: the real handler (frontend + table-
/// driven code generator + PCC fallback ladder) is cg/CompileService.
///
/// Robustness contract (the crash-only design):
///   * shared state (grammar/tables) is immutable after startup and
///     checksum-verified, so requests cannot poison each other;
///   * every recoverable failure — bad source, syntactic block, budget
///     exhaustion, malformed frame — becomes a structured Response/resync,
///     never a process exit;
///   * a wedged worker (stall-worker fault, runaway parse) is detected by
///     the watchdog: its request is failed and abandoned, the worker
///     rejoins the pool when it eventually returns;
///   * anything else (broken invariants, fatal signals) kills the process,
///     and the supervisor loop in scripts/serve.sh restarts it with capped
///     exponential backoff. Clients replay in-flight requests at most
///     once — safe because a response is a pure function of the request.
///
/// Worker dispatch rides the PR-4 work-stealing pool: serve() calls
/// parallelFor(Workers, ...) where each index hosts a queue-drain loop, so
/// the caller participates as worker 0 and Workers=1 degenerates to a
/// serial server.
///
//===----------------------------------------------------------------------===//

#ifndef GG_SUPPORT_SERVER_H
#define GG_SUPPORT_SERVER_H

#include "support/Deadline.h"
#include "support/Frame.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace gg {

/// What to do when the bounded queue is full and another request arrives.
enum class ShedPolicy {
  RejectNewest, ///< shed the arriving request (FIFO fairness)
  ShedOldest,   ///< displace the oldest queued request (LIFO freshness:
                ///< under sustained overload the newest work is the most
                ///< likely to still meet its deadline)
};

/// Server tunables (the --serve-* flag surface).
struct ServerOptions {
  /// Worker threads draining the request queue. 0 = hardware concurrency.
  int Workers = 0;
  /// Default per-request deadline when the request does not carry one.
  /// 0 = no deadline.
  uint64_t DefaultDeadlineMs = 10000;
  /// Default matcher step budget per request. 0 = unlimited.
  uint64_t DefaultMaxSteps = 200u << 20;
  /// Default per-arena byte budget per request. 0 = unlimited.
  uint64_t DefaultMaxArenaBytes = 256u << 20;
  /// Watchdog scan interval.
  uint64_t WatchdogIntervalMs = 20;
  /// Grace past the deadline before a still-running request is declared
  /// wedged and force-failed (the worker's eventual result is discarded).
  uint64_t WatchdogGraceMs = 500;
  /// Honor Crash frames (supervisor drills). Off by default: a stray or
  /// malicious Crash frame must not kill a production server.
  bool AllowCrash = false;
  /// Supervisor generation (scripts/serve.sh --serve-generation=N): how
  /// many times this server has been restarted; exported as
  /// server.restarts so the stats artifact shows supervisor activity.
  uint64_t Generation = 0;
  /// Admission control: queued-request cap. 0 = unbounded (the PR-7
  /// behavior). When the cap is hit, Shed decides who gets the
  /// Overloaded frame.
  size_t MaxQueueDepth = 0;
  /// Max time a request may sit queued before it is shed at dequeue with
  /// an Overloaded(queue-deadline) frame instead of burning a worker on
  /// work the client has likely given up on. 0 = no queueing deadline.
  uint64_t QueueDeadlineMs = 0;
  /// Full-queue policy (see ShedPolicy).
  ShedPolicy Shed = ShedPolicy::RejectNewest;
  /// How long a drain (SIGTERM) or reload (SIGHUP / Reload frame) waits
  /// for in-flight work before giving up: a drain sheds what is left, a
  /// reload swaps anyway (in-flight requests keep the old image via their
  /// snapshot).
  uint64_t DrainDeadlineMs = 10000;
  /// Floor for the per-request service-time estimate used by
  /// admission-deadline rejection, in ms. The live estimate is an EWMA of
  /// observed service times; the floor makes rejection deterministic in
  /// tests and lets operators encode "requests never finish faster than
  /// X". 0 = EWMA only.
  uint64_t AdmissionEstimateFloorMs = 0;
};

/// Everything the handler reports back for one request.
struct HandlerResult {
  ResponseStatus Status = ResponseStatus::Ok;
  std::string Payload; ///< assembly on Ok, rendered diagnostics otherwise
  uint32_t BlockedTrees = 0;
  uint32_t RecoveredTrees = 0;
  uint64_t Generation = 0; ///< table image generation that served this
};

/// The compile function: pure in the request (byte-identical output for
/// byte-identical input), cooperative in the budget. Runs on a pool
/// worker; must not throw or exit for recoverable failures.
using CompileHandler =
    std::function<HandlerResult(const RequestMsg &Req, RequestBudget &Budget)>;

/// The hot-reload function: rebuilds and verifies a fresh table image,
/// atomically swapping it in on success. Reports the generation now
/// serving (old on failure, new on success). Must be safe to run while
/// requests using the *old* image are still in flight.
using ReloadHandler =
    std::function<bool(uint64_t &NewGeneration, std::string &Err)>;

/// Extra members the service layer contributes to the Status snapshot
/// (table generation, grammar fingerprint). Returns raw JSON members
/// without braces, e.g. `"generation":3,"fingerprint":"ab12..."`; empty
/// means nothing to add. Must be thread-safe (runs on pump threads).
using StatusAugmenter = std::function<std::string()>;

/// The long-lived server. One instance per process; serve*() blocks until
/// shutdown and returns the process exit code.
class Server {
public:
  Server(CompileHandler Handler, ServerOptions Opts);
  ~Server();

  /// Serves the framed protocol on a pair of file descriptors (the stdio
  /// daemon mode: InFd=0, OutFd=1), which stay the caller's. Returns
  /// ExitOk on clean shutdown (Shutdown frame, drain, or EOF, after the
  /// queued and in-flight requests are answered).
  int serveFds(int InFd, int OutFd);

  /// Binds \p Path as a SOCK_STREAM Unix socket and serves each accepted
  /// connection (same framed protocol, any number of requests per
  /// connection) until a Shutdown frame or a drain. A connection's fd
  /// closes once its client has left and its last response is written.
  /// Returns ExitOk on clean shutdown, ExitFatalFault when the socket
  /// cannot be bound.
  int serveUnixSocket(const std::string &Path);

  /// Installs the hot-reload hook run for SIGHUP / Reload frames. Without
  /// one, reload requests are acked as failures and the image is kept.
  /// Thread-safe (the reload thread reads it under the same lock).
  void setReloader(ReloadHandler R) {
    std::lock_guard<std::mutex> Lock(ReloadM);
    Reloader = std::move(R);
  }

  /// Installs the Status-snapshot augmenter (service-layer members:
  /// generation, fingerprint). Install before serve*(); the hook runs on
  /// pump threads for every Status frame.
  void setStatusAugmenter(StatusAugmenter A) {
    std::lock_guard<std::mutex> Lock(ReloadM);
    Augmenter = std::move(A);
  }

  /// Builds the gg-status-v1 introspection snapshot served for Status
  /// frames: queue depth, in-flight requests with age and phase, a
  /// 10-second window of RPS/goodput/latency percentiles, and the
  /// lifecycle counters. Public so tests and tools can snapshot without
  /// a transport.
  std::string statusJson();

  /// Begins a graceful drain: new admissions are shed with
  /// Overloaded(draining), already-queued and in-flight work completes
  /// (bounded by DrainDeadlineMs via the watchdog), then serve*() returns
  /// ExitOk. Idempotent; safe from any thread. SIGTERM lands here.
  void requestDrain();

  /// Requests an asynchronous table reload: dispatch pauses, in-flight
  /// work drains (bounded by DrainDeadlineMs), the Reloader runs, then
  /// dispatch resumes. Admissions continue into the queue throughout, so
  /// a reload drops zero requests. SIGHUP and Reload frames land here.
  void requestReload();

  /// Async-signal-safe: records \p Sig (SIGTERM/SIGINT -> drain,
  /// SIGHUP -> reload) for the watchdog thread to act on at its next
  /// scan. Install from a sigaction handler.
  static void notifySignal(int Sig);

private:
  struct Conn;   ///< one client connection: its fds + write mutex
  struct Active; ///< one admitted, not-yet-responded request

  CompileHandler Handler;
  ServerOptions Opts;
  ReloadHandler Reloader;
  StatusAugmenter Augmenter; ///< guarded by ReloadM, like Reloader

  std::mutex QueueM;
  std::condition_variable QueueCV;
  std::deque<std::shared_ptr<Active>> Queue;
  bool Closed = false;        ///< no more requests will be enqueued
  bool Stopping = false;      ///< draining toward exit; admissions shed
  bool PauseDispatch = false; ///< reload in progress; workers hold off
  uint64_t DrainStartNs = 0;  ///< when Stopping was set

  std::mutex ActiveM;
  std::vector<std::shared_ptr<Active>> InFlight;

  /// EWMA of observed handler service time, feeding the admission-
  /// deadline wait estimate. Relaxed: an approximate estimate is fine.
  std::atomic<uint64_t> EwmaServiceNs{0};

  /// Windowed latency samples backing the Status snapshot's RPS/goodput
  /// and latency percentiles. A fixed ring of completion records; the
  /// snapshot keeps only samples inside its 10 s window. DoneNs doubles
  /// as the publish flag (0 = empty slot; stored last, release order).
  struct LatSample {
    std::atomic<uint64_t> DoneNs{0};
    uint32_t LatMs = 0;
    uint8_t Ok = 0;
  };
  static constexpr size_t LatRingSize = 4096;
  std::unique_ptr<LatSample[]> LatRing;
  std::atomic<uint32_t> LatHead{0};
  /// When serve*() started accepting work (for uptime and short windows).
  uint64_t ServeStartNs = 0;
  /// Trace ids minted for requests whose clients sent Id = 0; the high
  /// bit keeps minted ids disjoint from client-chosen ones.
  std::atomic<uint64_t> NextTraceId{1};

  /// Records one completed request into the latency ring.
  void recordLatency(uint64_t LatMs, bool Ok);
  /// Requests currently inside the handler (InFlight also counts queued
  /// ones); a reload waits for this to hit zero before swapping.
  std::atomic<unsigned> Executing{0};
  unsigned ResolvedWorkers = 1;

  /// The listening socket while serveUnixSocket() runs; -1 on stdio.
  int ListenFd = -1;
  std::atomic<bool> Ending{false}; ///< set by endServing()
  /// Connections whose thread still runs; each thread removes its own
  /// entry, and teardown waits on ConnsCV for the list to empty.
  std::mutex ConnsM;
  std::condition_variable ConnsCV;
  std::vector<Conn *> LiveConns;

  /// Self-pipe that wakes pumpInput() pollers when a drain begins (pipes
  /// have no ::shutdown, and closing an fd under a blocked reader is a
  /// race). The byte is never consumed so every poller sees it.
  int WakePipe[2] = {-1, -1};

  std::thread Watchdog;
  std::mutex WatchdogM;
  std::condition_variable WatchdogCV;
  bool WatchdogStop = false;

  /// Reload machinery: the watchdog launches ReloadThread when
  /// ReloadWanted is set; conns waiting on a Reloaded ack queue under
  /// ReloadM.
  std::atomic<bool> ReloadWanted{false};
  std::mutex ReloadM;
  std::vector<std::shared_ptr<Conn>> ReloadAcks;
  std::thread ReloadThread;
  std::atomic<bool> ReloadRunning{false};

  void startWatchdog();
  void stopWatchdog();
  void watchdogScan();

  /// The serve loop both transports share: start-up, the stdio connection
  /// (or, when \p Stdio is null, an acceptor on ListenFd), the workers,
  /// and teardown once the queue is closed and drained.
  int serve(std::shared_ptr<Conn> Stdio);
  /// Runs \p C on its own thread until its pump returns.
  void startConnection(std::shared_ptr<Conn> C);
  /// Stops accepting and closes the queue. Idempotent.
  void endServing();

  /// Parses frames arriving on \p C, enqueueing requests; returns when the
  /// stream hits EOF, a Shutdown frame (true), or a drain wake.
  bool pumpInput(const std::shared_ptr<Conn> &C);

  /// Admits one decoded request — or sheds it with an Overloaded frame
  /// when the queue is full, the server is draining, or the estimated
  /// queue wait alone would blow the request's deadline.
  void admit(const std::shared_ptr<Conn> &C, RequestMsg Req);

  /// Worker-side drain loop (one per pool index).
  void drainQueue();

  /// Runs the handler for one request and publishes its response unless
  /// the watchdog already did.
  void serveOne(const std::shared_ptr<Active> &A);

  void closeQueue();
  void wakePumps();
  /// Publishes an Overloaded frame for \p A (if it still owns its
  /// response slot) and counts the shed. Caller must have removed A from
  /// the queue; removes it from InFlight if \p InFlightToo.
  void shed(const std::shared_ptr<Active> &A, OverloadCause Cause,
            uint32_t QueueDepth, bool InFlightToo);
  /// Estimated queue wait for a request entering behind \p Depth others.
  uint64_t estimateWaitNs(size_t Depth) const;
  /// The reload body (runs on ReloadThread).
  void runReload();
  void joinReloadThread();
};

} // namespace gg

#endif // GG_SUPPORT_SERVER_H
