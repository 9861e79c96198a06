//===- Trace.h - RAII tracing spans ------------------------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured tracing: RAII spans with nesting, recorded against one
/// process-wide recorder and exportable as Chrome `trace_event`-format
/// JSON (loadable in chrome://tracing / Perfetto). The spans cover table
/// construction, packing, and code generation down to one span per
/// function; the function span carries its trees' match tally and its
/// per-phase self times as args. The step-level view of the tabular
/// matcher lives in the coverage and steps-profile artifacts
/// (support/TableEvents.h), not in spans.
///
/// The recorder is disabled by default; a disabled TraceSpan costs one
/// branch and allocates nothing. Timestamps are microseconds relative to
/// the recorder's epoch (set at construction and by clear()), taken from
/// the shared MonoClock (support/Clock.h). The recorder keeps the most
/// recent TraceRecorder::Capacity spans, so a traced server's memory stays
/// bounded.
///
/// Thread safety: a live span locks the recorder's mutex once, when it
/// ends (the parallel code generator's workers close per-function spans
/// concurrently); a disabled one locks nothing. Each span records its
/// thread's ordinal (1 for the first thread to open one) and its depth
/// within that thread: one Chrome track per worker.
///
//===----------------------------------------------------------------------===//

#ifndef GG_SUPPORT_TRACE_H
#define GG_SUPPORT_TRACE_H

#include "support/Clock.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace gg {

/// One completed span (Chrome "X" complete event). It owns no heap
/// memory: spans end on pool workers, and small blocks those threads leave
/// alive for the recorder's lifetime fragment their malloc arenas (a traced
/// server took about twice an untraced one's page faults).
struct TraceEvent {
  static constexpr size_t MaxName = 47; ///< longer names are truncated
  static constexpr size_t MaxArgs = 12; ///< further args are dropped
  struct Arg {
    const char *Key; ///< a string literal
    int64_t Value;
  };

  char NameBuf[MaxName + 1] = "";
  const char *Category = "gg";
  double StartUs = 0;
  double DurUs = 0;
  uint32_t Tid = 0; ///< per-thread ordinal of the opening thread
  int Depth = 0;    ///< the thread's nesting depth at the span's start
  uint32_t NumArgs = 0;
  Arg ArgBuf[MaxArgs];

  std::string_view name() const { return NameBuf; }
  std::span<const Arg> args() const { return {ArgBuf, NumArgs}; }
};

/// Collects spans. One global instance serves the pipeline; tests may
/// create private recorders.
class TraceRecorder {
public:
  /// Spans kept: once full, each new span overwrites the oldest. Holds a
  /// traced --gen-corpus=220 compile (about 3.5k spans) several times over.
  static constexpr size_t Capacity = size_t{1} << 14;

  static TraceRecorder &global();

  /// Enables recording, reserving the whole ring so that no span
  /// reallocates it. Previously recorded events and the epoch are kept
  /// (enable is idempotent mid-run).
  void enable() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Events.reserve(Capacity);
    }
    Enabled.store(true, std::memory_order_relaxed);
  }
  void disable() { Enabled.store(false, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Drops every event and restarts the epoch.
  void clear() {
    std::lock_guard<std::mutex> Lock(M);
    Events.clear();
    Overwritten = 0;
    Epoch.store(ticks(), std::memory_order_relaxed);
  }

  /// The kept spans in no particular order. Not safe against concurrent
  /// recording; read after workers join.
  const std::vector<TraceEvent> &events() const { return Events; }

  /// Microseconds since the recorder's epoch.
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(
               Clock::duration(ticks() -
                               Epoch.load(std::memory_order_relaxed)))
        .count();
  }

  /// Serializes as a Chrome trace_event JSON array (the "JSON Array
  /// Format": a bare array of complete events, ph="X") in start order.
  std::string toChromeJson() const;

  // Span bookkeeping (used by TraceSpan); enter() stamps Tid and Depth.
  void enter(TraceEvent &E) {
    E.Tid = MyTid;
    E.Depth = MyDepth++;
  }
  void exit(const TraceEvent &E) {
    --MyDepth;
    std::lock_guard<std::mutex> Lock(M);
    if (Events.size() < Capacity)
      Events.push_back(E);
    else
      Events[Overwritten++ % Capacity] = E;
  }

private:
  using Clock = MonoClock;
  static Clock::rep ticks() { return Clock::now().time_since_epoch().count(); }

  std::mutex M; ///< guards Events/Overwritten
  std::atomic<bool> Enabled{false};
  std::atomic<Clock::rep> Epoch{ticks()};
  static inline std::atomic<uint32_t> NextTid{1};
  static inline thread_local uint32_t MyTid =
      NextTid.fetch_add(1, std::memory_order_relaxed);
  static inline thread_local int MyDepth = 0; ///< across recorders
  std::vector<TraceEvent> Events;
  size_t Overwritten = 0; ///< spans that replaced an older one
};

/// The request identity a thread is currently working for. Threaded
/// through the compile server so every span (and flight-recorder event)
/// a worker opens while executing a request is attributable to it —
/// see docs/server.md "Per-request tracing".
struct RequestContext {
  uint64_t Id = 0;         ///< 0 = no request scope active
  uint64_t Generation = 0; ///< table-image generation serving the request
};

/// RAII thread-local request scope. The server enters one around the
/// handler call; requests compile with Threads = 1, so the scope covers
/// every span the request opens. Scopes nest (a re-entrant handler
/// restores the outer identity on exit).
class RequestScope {
public:
  explicit RequestScope(uint64_t Id, uint64_t Generation = 0);
  ~RequestScope();

  /// The calling thread's active request identity ({0,0} when none).
  static RequestContext current();

  /// Updates the active scope's generation in place — the service layer
  /// calls this once it has pinned a table snapshot, so phase spans
  /// opened after the pin carry the generation that actually serves.
  static void setGeneration(uint64_t Generation);

  RequestScope(const RequestScope &) = delete;
  RequestScope &operator=(const RequestScope &) = delete;

private:
  RequestContext Prev;
};

/// RAII span: records [construction, destruction) into a recorder when
/// it is enabled, and nothing otherwise. The span is stamped with the
/// thread's request identity, so a single request's end-to-end timeline
/// is reconstructable by its "req" arg.
class TraceSpan {
public:
  explicit TraceSpan(std::string_view Name,
                     TraceRecorder &R = TraceRecorder::global())
      : R(R) {
    if (!R.enabled())
      return;
    Live = true;
    size_t N = std::min(Name.size(), TraceEvent::MaxName);
    std::memcpy(E.NameBuf, Name.data(), N);
    E.NameBuf[N] = '\0';
    RequestContext C = RequestScope::current();
    if (C.Id) {
      arg("req", static_cast<int64_t>(C.Id));
      arg("gen", static_cast<int64_t>(C.Generation));
    }
    E.StartUs = R.nowUs();
    R.enter(E);
  }

  ~TraceSpan() {
    if (!Live)
      return;
    E.DurUs = R.nowUs() - E.StartUs;
    R.exit(E);
  }

  /// Attaches an integer argument, shown in the trace viewer's detail
  /// pane. \p Key is kept by pointer, so it must be a string literal (or
  /// live as long). No-op when the recorder is disabled or the span already
  /// holds TraceEvent::MaxArgs args.
  void arg(const char *Key, int64_t Value) {
    if (Live && E.NumArgs < TraceEvent::MaxArgs)
      E.ArgBuf[E.NumArgs++] = {Key, Value};
  }

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

private:
  TraceRecorder &R;
  TraceEvent E;
  bool Live = false;
};

} // namespace gg

#endif // GG_SUPPORT_TRACE_H
