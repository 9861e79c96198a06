//===- FlightRecorder.h - always-on crash flight recorder -------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An always-on, lock-free flight recorder: every thread records recent
/// structured events (admissions, sheds, budget kills, watchdog kills,
/// reloads, code-gen phase transitions, block reports) into a fixed-size
/// per-thread ring of POD entries. Recording is a handful of relaxed
/// stores — cheap enough to leave enabled in production — and the rings
/// are dumped as one versioned `gg-flight-v1` JSON artifact when the
/// process is about to die (crash signal, watchdog kill, fatal fault) or
/// is asked for its recent history (SIGQUIT, clean exit). The dump path
/// is async-signal-safe end to end: static storage, hand-rolled number
/// formatting, raw write(2) — no allocation, no stdio, no locks.
///
/// Events carry the thread's active RequestContext (support/Trace.h), so
/// the last events before a kill name the request that was executing —
/// the "what was the server doing?" answer the post-mortem needs.
/// Schema and worked examples: docs/observability.md.
///
//===----------------------------------------------------------------------===//

#ifndef GG_SUPPORT_FLIGHTRECORDER_H
#define GG_SUPPORT_FLIGHTRECORDER_H

#include <cstdint>

namespace gg {

enum class Phase : uint8_t; // support/Phase.h

/// What happened. Names (flightKindName) are the `kind` strings in the
/// gg-flight-v1 dump; the `arg` field's meaning is per-kind.
enum class FlightKind : uint8_t {
  None = 0,        ///< unused slot
  Admit,           ///< request admitted; arg = queue depth after admit
  Dispatch,        ///< worker picked the request up; arg = queue wait ms
  Respond,         ///< response (or claim loss) published; arg = status
  Shed,            ///< admission shed the request; arg = OverloadCause
  BudgetKill,      ///< budget stop became the response; arg = BudgetStop
  WatchdogKill,    ///< watchdog abandoned a wedged worker; arg = ms late
  Reload,          ///< table image hot-swapped; arg = new generation
  Drain,           ///< graceful drain began
  Transition,      ///< a phase began; dumped as "phase-<short name>"
  Block,           ///< matcher block report; arg = BlockReport cause
  CrashSignal,     ///< fatal signal caught; arg = signal number
};

/// Stable dump name for \p K ("admit", "watchdog-kill", "phase", ...).
const char *flightKindName(FlightKind K);

/// Records one event into the calling thread's ring: global sequence
/// number, monotonic nanoseconds, thread id, the active RequestContext,
/// and \p Arg. Lock-free and allocation-free; safe from pool workers.
void flightRecord(FlightKind K, int64_t Arg = 0);

/// Same, with an explicit request identity — for recorders acting on
/// another thread's behalf (the watchdog killing a worker's request).
void flightRecordFor(FlightKind K, uint64_t Req, uint64_t Gen,
                     int64_t Arg = 0);

/// Records the Transition event of \p P (support/Phase.h): transform and
/// stitch once per compile, match and replay once per tree (not per
/// function), fallback once per blocked tree.
void flightRecordPhase(Phase P, int64_t Arg);

/// Sets the artifact path for flightDump()'s convenience form and the
/// signal handlers. Copied into static storage; empty disables dumping.
void flightSetDumpPath(const char *Path);

/// The configured dump path ("" when unset).
const char *flightDumpPath();

/// Writes the gg-flight-v1 JSON dump to \p Fd: all rings merged, sorted
/// by sequence number (so event order in the artifact is monotone), with
/// \p Reason recorded in the header. Async-signal-safe.
void flightDumpFd(int Fd, const char *Reason);

/// Opens the configured dump path (O_TRUNC) and dumps into it. Returns
/// false when no path is configured or the open failed. Async-signal-safe.
bool flightDump(const char *Reason);

/// Installs the dump-on-death handlers: SIGSEGV/SIGBUS/SIGILL/SIGFPE/
/// SIGABRT dump and re-raise the default disposition; SIGQUIT dumps and
/// returns (the JVM convention: a live thread-dump poke, not a kill).
/// Idempotent; a no-op until a dump path is configured.
void flightInstallHandlers();

/// Total events ever recorded (spilled ring slots included) — the dump
/// header reports it so consumers can tell "256 events" from "256
/// retained of 40k". Test hook; not async-signal-safe guarantees beyond
/// an atomic load.
uint64_t flightEventCount();

} // namespace gg

#endif // GG_SUPPORT_FLIGHTRECORDER_H
