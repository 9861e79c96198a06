//===- Trace.h - RAII tracing spans ------------------------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured tracing: RAII spans with nesting, recorded against one
/// process-wide recorder and exportable as Chrome `trace_event`-format
/// JSON (loadable in chrome://tracing / Perfetto) or a compact indented
/// text form. The spans cover table construction, packing, and the four
/// code-generation phases down to per-tree match/replay granularity —
/// Nederhof & Satta's step-level view of a tabular parser, made
/// first-class.
///
/// The recorder is disabled by default; a disabled TraceSpan costs one
/// branch. Timestamps are microseconds relative to the recorder's epoch
/// (reset on enable()), taken from the shared MonoClock
/// (support/Clock.h).
///
/// Thread safety: span entry/exit lock a mutex when the recorder is
/// enabled (the parallel code generator's workers open per-function and
/// per-tree spans concurrently), and nothing when disabled. Each span
/// records its thread's ordinal (1 for the first thread to open one) and
/// its depth within that thread: one Chrome track per worker.
///
//===----------------------------------------------------------------------===//

#ifndef GG_SUPPORT_TRACE_H
#define GG_SUPPORT_TRACE_H

#include "support/Clock.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gg {

/// One completed span (Chrome "X" complete event).
struct TraceEvent {
  std::string Name;
  const char *Category = "gg";
  double StartUs = 0;
  double DurUs = 0;
  uint32_t Tid = 0; ///< per-thread ordinal of the opening thread
  int Depth = 0;    ///< the thread's nesting depth at the span's start
  std::vector<std::pair<std::string, int64_t>> Args;
};

/// Collects spans. One global instance serves the pipeline; tests may
/// create private recorders.
class TraceRecorder {
public:
  static TraceRecorder &global();

  /// Enables recording and resets the epoch. Previously recorded events
  /// are kept (enable is idempotent mid-run).
  void enable() {
    std::lock_guard<std::mutex> Lock(M);
    Enabled.store(true, std::memory_order_relaxed);
    if (Events.empty() && OpenSpans == 0)
      Epoch = Clock::now();
  }
  void disable() { Enabled.store(false, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  void clear() {
    std::lock_guard<std::mutex> Lock(M);
    Events.clear();
    OpenSpans = 0;
    Epoch = Clock::now();
  }

  /// Not safe against concurrent recording; read after workers join.
  const std::vector<TraceEvent> &events() const { return Events; }

  /// Microseconds since the recorder's epoch.
  double nowUs() const {
    std::lock_guard<std::mutex> Lock(M);
    return std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
        .count();
  }

  /// Serializes as a Chrome trace_event JSON array (the "JSON Array
  /// Format": a bare array of complete events, ph="X").
  std::string toChromeJson() const;

  /// Compact indented text rendering, one line per span in start order.
  std::string toText() const;

  // Span bookkeeping (used by TraceSpan); enter() stamps Tid and Depth.
  void enter(TraceEvent &E) {
    E.Tid = MyTid;
    E.Depth = MyDepth++;
    std::lock_guard<std::mutex> Lock(M);
    ++OpenSpans;
  }
  void exit(TraceEvent E) {
    --MyDepth;
    std::lock_guard<std::mutex> Lock(M);
    --OpenSpans;
    Events.push_back(std::move(E));
  }

private:
  using Clock = MonoClock;
  mutable std::mutex M; ///< guards Events/OpenSpans/Epoch when enabled
  std::atomic<bool> Enabled{false};
  int OpenSpans = 0; ///< across all threads
  static inline std::atomic<uint32_t> NextTid{1};
  static inline thread_local uint32_t MyTid =
      NextTid.fetch_add(1, std::memory_order_relaxed);
  static inline thread_local int MyDepth = 0; ///< across recorders
  Clock::time_point Epoch = Clock::now();
  std::vector<TraceEvent> Events;
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
    E.Name = Name;
    RequestContext C = RequestScope::current();
    if (C.Id) {
      E.Args.emplace_back("req", static_cast<int64_t>(C.Id));
      E.Args.emplace_back("gen", static_cast<int64_t>(C.Generation));
    }
    E.StartUs = R.nowUs();
    R.enter(E);
  }

  ~TraceSpan() {
    if (!Live)
      return;
    E.DurUs = R.nowUs() - E.StartUs;
    R.exit(std::move(E));
  }

  /// Attaches an integer argument, shown in the trace viewer's detail
  /// pane. No-op when the recorder is disabled.
  void arg(const char *Key, int64_t Value) {
    if (Live)
      E.Args.emplace_back(Key, Value);
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
