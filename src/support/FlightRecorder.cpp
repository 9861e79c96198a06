//===- FlightRecorder.cpp - always-on crash flight recorder -------------------===//

#include "support/FlightRecorder.h"
#include "support/Clock.h"
#include "support/Phase.h"
#include "support/Trace.h"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <fcntl.h>
#include <signal.h>
#include <sys/syscall.h>
#include <unistd.h>

using namespace gg;

namespace {

constexpr uint32_t RingSize = 512;  ///< events retained per thread
constexpr uint32_t MaxRings = 64;   ///< threads that can record at once

/// One recorded event. Seq doubles as the publish flag: the writer
/// clears it, fills the fields, then stores the sequence number with
/// release order, so the dumper (possibly a signal handler interrupting
/// another thread mid-write) only ever sorts on fully-published
/// sequence numbers. A slot being overwritten can still yield stale
/// *fields* — the dump is best-effort recent history, not a log.
struct Event {
  std::atomic<uint64_t> Seq{0};
  /// Monotonic ns; for a Transition, the phase clock's profTicks() read,
  /// which the dump converts.
  uint64_t Stamp = 0;
  uint64_t Req = 0;
  uint64_t Gen = 0;
  int64_t Arg = 0;
  uint32_t Tid = 0;
  uint8_t Kind = 0;
  uint8_t PhaseId = 0; ///< the Phase of a FlightKind::Transition event
};

struct Ring {
  std::atomic<uint32_t> Head{0};
  Event Events[RingSize];
};

Ring Rings[MaxRings];
/// Bit I set: ring I is owned by a live thread.
std::atomic<uint64_t> OwnedRings{0};
std::atomic<uint64_t> GlobalSeq{0};

constexpr int NoRing = -2;  ///< no ring yet (all were owned): try again
constexpr int Exited = -1;  ///< the thread is exiting: drop its events
thread_local int MyRing = NoRing;
thread_local uint32_t MyTid = 0;

/// Returns the thread's ring when the thread exits. The ring keeps its
/// events until a later owner overwrites them, so dumps still show them.
struct RingOwner {
  ~RingOwner() {
    const int Ring = MyRing;
    MyRing = Exited;
    if (Ring >= 0)
      OwnedRings.fetch_and(~(1ull << Ring), std::memory_order_release);
  }
};

/// Claims the lowest free ring for the calling thread, or leaves MyRing
/// at NoRing when every ring is owned. \p Release arms the RingOwner that
/// returns it at thread exit; a crash handler claims without one, since
/// arming it may allocate and the process is dying anyway.
void claimRing(bool Release) {
  uint64_t Owned = OwnedRings.load(std::memory_order_relaxed);
  while (~Owned) {
    const int Ring = __builtin_ctzll(~Owned);
    if (OwnedRings.compare_exchange_weak(Owned, Owned | (1ull << Ring),
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
      if (Release) {
        static thread_local RingOwner Owner;
        (void)Owner;
      }
      MyRing = Ring;
      MyTid = static_cast<uint32_t>(::syscall(SYS_gettid));
      return;
    }
  }
}

char DumpPath[1024] = "";
std::atomic<bool> HandlersInstalled{false};

uint64_t monoNs() {
  timespec TS;
  clock_gettime(CLOCK_MONOTONIC, &TS);
  return static_cast<uint64_t>(TS.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(TS.tv_nsec);
}

/// A profTicks() read and the monotonic ns at the same instant: the tick
/// is read between two clock reads and paired with their midpoint.
struct ClockPair {
  uint64_t Ticks, Ns;
};

ClockPair readClockPair() {
  const uint64_t Before = monoNs();
  const uint64_t Ticks = profTicks();
  const uint64_t After = monoNs();
  return {Ticks, Before + (After - Before) / 2};
}

/// Read at load time, before any event: with a pair read at dump time it
/// gives the tick rate over the process's whole life.
const ClockPair LoadPair = readClockPair();

/// Monotonic ns of tick \p Ticks, interpolated between LoadPair and \p At.
/// Async-signal-safe.
uint64_t ticksToNs(uint64_t Ticks, const ClockPair &At) {
  if (At.Ticks <= LoadPair.Ticks)
    return At.Ns;
  const double NsPerTick = static_cast<double>(At.Ns - LoadPair.Ns) /
                           static_cast<double>(At.Ticks - LoadPair.Ticks);
  const double Ago = static_cast<double>(static_cast<int64_t>(At.Ticks - Ticks));
  return At.Ns - static_cast<int64_t>(Ago * NsPerTick);
}

void record(FlightKind K, uint64_t Req, uint64_t Gen, int64_t Arg,
            uint64_t Stamp, uint8_t PhaseId = 0) {
  if (MyRing == NoRing)
    claimRing(K != FlightKind::CrashSignal);
  if (MyRing < 0)
    return;
  Ring &R = Rings[MyRing];
  Event &E = R.Events[R.Head.fetch_add(1, std::memory_order_relaxed) %
                      RingSize];
  E.Seq.store(0, std::memory_order_release);
  E.Stamp = Stamp;
  E.Req = Req;
  E.Gen = Gen;
  E.Arg = Arg;
  E.Tid = MyTid;
  E.Kind = static_cast<uint8_t>(K);
  E.PhaseId = PhaseId;
  E.Seq.store(GlobalSeq.fetch_add(1, std::memory_order_relaxed) + 1,
              std::memory_order_release);
}

//===----------------------------------------------------------------------===//
// Async-signal-safe dump machinery: no allocation, no stdio, no locks.
//===----------------------------------------------------------------------===//

/// Snapshot copy of one event, safe to sort in place.
struct Snap {
  uint64_t Seq, Ns, Req, Gen;
  int64_t Arg;
  uint32_t Tid;
  uint8_t Kind;
  uint8_t PhaseId;
};

/// Static scratch: the dumper is only ever entered by the dying (or
/// SIGQUIT-poked) thread, so one buffer suffices.
Snap Collected[MaxRings * RingSize];

void writeAllRaw(int Fd, const char *Data, size_t Len) {
  while (Len) {
    ssize_t N = ::write(Fd, Data, Len);
    if (N <= 0) {
      if (N < 0 && errno == EINTR)
        continue;
      return;
    }
    Data += N;
    Len -= static_cast<size_t>(N);
  }
}

/// Appends the decimal rendering of \p V to Buf at Len (no terminator).
void appendU64(char *Buf, size_t &Len, uint64_t V) {
  char Tmp[20];
  int N = 0;
  do {
    Tmp[N++] = static_cast<char>('0' + V % 10);
    V /= 10;
  } while (V);
  while (N)
    Buf[Len++] = Tmp[--N];
}

void appendI64(char *Buf, size_t &Len, int64_t V) {
  if (V < 0) {
    Buf[Len++] = '-';
    // Negate in unsigned space so INT64_MIN survives.
    appendU64(Buf, Len, ~static_cast<uint64_t>(V) + 1);
  } else {
    appendU64(Buf, Len, static_cast<uint64_t>(V));
  }
}

void appendStr(char *Buf, size_t &Len, const char *S) {
  while (*S)
    Buf[Len++] = *S++;
}

/// Bottom-up heapsort by Seq — in-place, allocation-free, and O(n log n)
/// worst case, which matters inside a signal handler.
void siftDown(Snap *A, size_t Start, size_t End) {
  size_t Root = Start;
  while (Root * 2 + 1 < End) {
    size_t Child = Root * 2 + 1;
    if (Child + 1 < End && A[Child].Seq < A[Child + 1].Seq)
      ++Child;
    if (A[Root].Seq >= A[Child].Seq)
      return;
    Snap T = A[Root];
    A[Root] = A[Child];
    A[Child] = T;
    Root = Child;
  }
}

void heapSort(Snap *A, size_t N) {
  if (N < 2)
    return;
  for (size_t I = N / 2; I-- > 0;)
    siftDown(A, I, N);
  for (size_t End = N - 1; End > 0; --End) {
    Snap T = A[0];
    A[0] = A[End];
    A[End] = T;
    siftDown(A, 0, End);
  }
}

void crashHandler(int Sig) {
  record(FlightKind::CrashSignal, 0, 0, Sig, monoNs());
  flightDump("crash-signal");
  // Restore the default disposition and re-raise so the process still
  // dies with the original signal (core dumps, wait status intact).
  signal(Sig, SIG_DFL);
  raise(Sig);
}

void quitHandler(int) {
  // SIGQUIT is a poke, not a kill: dump recent history, keep serving.
  flightDump("sigquit");
}

} // namespace

const char *gg::flightKindName(FlightKind K) {
  switch (K) {
  case FlightKind::None:
    return "none";
  case FlightKind::Admit:
    return "admit";
  case FlightKind::Dispatch:
    return "dispatch";
  case FlightKind::Respond:
    return "respond";
  case FlightKind::Shed:
    return "shed";
  case FlightKind::BudgetKill:
    return "budget-kill";
  case FlightKind::WatchdogKill:
    return "watchdog-kill";
  case FlightKind::Reload:
    return "reload";
  case FlightKind::Drain:
    return "drain";
  case FlightKind::Transition:
    return "phase";
  case FlightKind::Block:
    return "block";
  case FlightKind::CrashSignal:
    return "crash-signal";
  }
  return "unknown";
}

void gg::flightRecord(FlightKind K, int64_t Arg) {
  RequestContext C = RequestScope::current();
  record(K, C.Id, C.Generation, Arg, monoNs());
}

void gg::flightRecordPhase(Phase P, int64_t Arg, uint64_t Ticks) {
  RequestContext C = RequestScope::current();
  record(FlightKind::Transition, C.Id, C.Generation, Arg, Ticks,
         static_cast<uint8_t>(P));
}

void gg::flightRecordFor(FlightKind K, uint64_t Req, uint64_t Gen,
                         int64_t Arg) {
  record(K, Req, Gen, Arg, monoNs());
}

void gg::flightSetDumpPath(const char *Path) {
  size_t Len = Path ? strlen(Path) : 0;
  if (Len >= sizeof(DumpPath))
    Len = sizeof(DumpPath) - 1;
  memcpy(DumpPath, Path, Len);
  DumpPath[Len] = '\0';
}

const char *gg::flightDumpPath() { return DumpPath; }

uint64_t gg::flightEventCount() {
  return GlobalSeq.load(std::memory_order_relaxed);
}

void gg::flightDumpFd(int Fd, const char *Reason) {
  const ClockPair At = readClockPair();
  size_t N = 0;
  for (uint32_t R = 0; R < MaxRings; ++R) {
    for (uint32_t I = 0; I < RingSize; ++I) {
      const Event &E = Rings[R].Events[I];
      uint64_t Seq = E.Seq.load(std::memory_order_acquire);
      if (!Seq)
        continue;
      Snap &S = Collected[N++];
      S.Seq = Seq;
      S.Ns = E.Kind == static_cast<uint8_t>(FlightKind::Transition)
                 ? ticksToNs(E.Stamp, At)
                 : E.Stamp;
      S.Req = E.Req;
      S.Gen = E.Gen;
      S.Arg = E.Arg;
      S.Tid = E.Tid;
      S.Kind = E.Kind;
      S.PhaseId = E.PhaseId;
    }
  }
  heapSort(Collected, N);

  char Buf[256];
  size_t Len = 0;
  appendStr(Buf, Len, "{\"schema\":\"gg-flight-v1\",\"reason\":\"");
  // Reason strings are our own literals: no escaping needed.
  appendStr(Buf, Len, Reason);
  appendStr(Buf, Len, "\",\"recorded\":");
  appendU64(Buf, Len, GlobalSeq.load(std::memory_order_relaxed));
  appendStr(Buf, Len, ",\"retained\":");
  appendU64(Buf, Len, N);
  appendStr(Buf, Len, ",\"events\":[");
  writeAllRaw(Fd, Buf, Len);
  for (size_t I = 0; I < N; ++I) {
    const Snap &S = Collected[I];
    Len = 0;
    if (I)
      Buf[Len++] = ',';
    appendStr(Buf, Len, "\n{\"seq\":");
    appendU64(Buf, Len, S.Seq);
    appendStr(Buf, Len, ",\"ns\":");
    appendU64(Buf, Len, S.Ns);
    appendStr(Buf, Len, ",\"tid\":");
    appendU64(Buf, Len, S.Tid);
    appendStr(Buf, Len, ",\"kind\":\"");
    appendStr(Buf, Len, flightKindName(static_cast<FlightKind>(S.Kind)));
    if (S.Kind == static_cast<uint8_t>(FlightKind::Transition)) {
      Buf[Len++] = '-';
      appendStr(Buf, Len, phaseShortName(static_cast<Phase>(S.PhaseId)));
    }
    appendStr(Buf, Len, "\",\"req\":");
    appendU64(Buf, Len, S.Req);
    appendStr(Buf, Len, ",\"gen\":");
    appendU64(Buf, Len, S.Gen);
    appendStr(Buf, Len, ",\"arg\":");
    appendI64(Buf, Len, S.Arg);
    Buf[Len++] = '}';
    writeAllRaw(Fd, Buf, Len);
  }
  writeAllRaw(Fd, "\n]}\n", 4);
}

bool gg::flightDump(const char *Reason) {
  if (!DumpPath[0])
    return false;
  int Fd = ::open(DumpPath, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return false;
  flightDumpFd(Fd, Reason);
  ::close(Fd);
  return true;
}

void gg::flightInstallHandlers() {
  bool Expected = false;
  if (!HandlersInstalled.compare_exchange_strong(Expected, true))
    return;
  struct sigaction SA;
  memset(&SA, 0, sizeof(SA));
  sigemptyset(&SA.sa_mask);
  SA.sa_handler = crashHandler;
  // SA_RESETHAND would also work for the re-raise, but an explicit
  // signal(SIG_DFL) in the handler keeps the logic in one place.
  for (int Sig : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT})
    sigaction(Sig, &SA, nullptr);
  SA.sa_handler = quitHandler;
  SA.sa_flags = SA_RESTART; // a poke must not EINTR the transport reads
  sigaction(SIGQUIT, &SA, nullptr);
}
