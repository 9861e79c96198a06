//===- Deadline.h - per-request deadlines and budgets -----------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The request-quarantine layer's budget object. A RequestBudget is owned
/// by whoever admits a compile request (the compile server, a test, a
/// driver) and threaded by pointer through CodeGenOptions into the hot
/// loops, which check it cooperatively:
///
///   * the matcher polls Cancelled/deadline every BudgetPollMask+1 steps
///     and charges its step count against MaxSteps;
///   * NodeArena charges node allocations against MaxArenaBytes (sticky
///     per-arena exhaustion, checked at tree/phase granularity);
///   * the code generator checks expiry between functions and refuses to
///     run the PCC fallback ladder for budget/deadline failures — a
///     faulted request must fail fast, not consume more of the worker.
///
/// All members are plain atomics: the server's watchdog thread sets
/// Cancelled while a pool worker reads it, and one request's budget may be
/// consulted from several codegen workers at once. A null budget pointer
/// everywhere means "no limits" and costs one branch on the cold sides,
/// one relaxed load per poll interval in the matcher.
///
//===----------------------------------------------------------------------===//

#ifndef GG_SUPPORT_DEADLINE_H
#define GG_SUPPORT_DEADLINE_H

#include "support/Clock.h"
#include "support/Phase.h"

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace gg {

/// The matcher checks the budget when (steps & BudgetPollMask) == 0: often
/// enough that a runaway parse dies within microseconds of its deadline,
/// rarely enough that the clock read never shows up in profiles.
constexpr uint64_t BudgetPollMask = 127;

/// Why a budgeted request was stopped (sticky; first cause wins).
enum class BudgetStop : uint8_t {
  None = 0,
  Cancelled, ///< externally cancelled (watchdog, client gone)
  Deadline,  ///< wall-clock deadline passed
  Steps,     ///< matcher step budget exhausted
  Memory,    ///< arena byte budget exhausted
};

/// Returns a stable lowercase name for \p S ("deadline", "steps", ...).
inline const char *budgetStopName(BudgetStop S) {
  switch (S) {
  case BudgetStop::None:
    return "none";
  case BudgetStop::Cancelled:
    return "cancelled";
  case BudgetStop::Deadline:
    return "deadline";
  case BudgetStop::Steps:
    return "steps";
  case BudgetStop::Memory:
    return "memory";
  }
  return "none";
}

/// Limits and live usage for one compile request. Zero limit = unlimited.
struct RequestBudget {
  /// Cooperative cancellation flag; set by the watchdog at the deadline
  /// (and on hard kills), observed by the matcher poll.
  std::atomic<bool> Cancelled{false};
  /// Absolute MonoClock deadline in nanoseconds since epoch; 0 = none.
  uint64_t DeadlineNs = 0;
  /// Total matcher steps (shifts+reduces) the request may spend.
  uint64_t MaxSteps = 0;
  /// Parse-stack depth cap; tightens the matcher's own MaxStackDepth.
  size_t MaxStackDepth = 0;
  /// Per-arena node-storage byte cap (each NodeArena of the request —
  /// program arena, worker scratch arenas — is capped individually).
  size_t MaxArenaBytes = 0;

  /// Matcher steps spent so far, across every tree of the request.
  std::atomic<uint64_t> StepsUsed{0};
  /// First stop cause, sticky once set.
  std::atomic<BudgetStop> Stopped{BudgetStop::None};
  /// The last status-sink phase the request entered (support/Phase.h),
  /// read by the Status snapshot; relaxed, introspection is advisory.
  std::atomic<Phase> CurPhase{Phase::Queued};

  void arm(uint64_t DeadlineMs) {
    DeadlineNs = DeadlineMs == 0 ? 0 : monoNowNs() + DeadlineMs * 1000000ull;
  }

  static uint64_t nowNs() { return monoNowNs(); }

  /// Records the first stop cause; later causes are ignored.
  void stop(BudgetStop Why) {
    BudgetStop Expected = BudgetStop::None;
    Stopped.compare_exchange_strong(Expected, Why,
                                    std::memory_order_relaxed);
  }

  bool stopped() const {
    return Stopped.load(std::memory_order_relaxed) != BudgetStop::None;
  }

  /// The poll without the step total: an earlier stop, cancellation and
  /// the deadline. Sets Stopped and returns true when the request must
  /// abort. The code generator polls this between the trees it replays,
  /// whose steps the matcher has already charged and checked.
  bool interrupted() {
    if (stopped())
      return true;
    if (Cancelled.load(std::memory_order_relaxed)) {
      stop(BudgetStop::Cancelled);
      return true;
    }
    if (DeadlineNs && nowNs() > DeadlineNs) {
      stop(BudgetStop::Deadline);
      return true;
    }
    return false;
  }

  /// Full poll: interrupted(), then the step total (with \p PendingSteps
  /// not yet folded into StepsUsed).
  bool shouldStop(uint64_t PendingSteps) {
    if (interrupted())
      return true;
    if (MaxSteps &&
        StepsUsed.load(std::memory_order_relaxed) + PendingSteps > MaxSteps) {
      stop(BudgetStop::Steps);
      return true;
    }
    return false;
  }
};

} // namespace gg

#endif // GG_SUPPORT_DEADLINE_H
