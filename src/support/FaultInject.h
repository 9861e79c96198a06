//===- FaultInject.h - deterministic fault injection ------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection for the graceful-degradation ladder. The
/// paper's central fragility is the *syntactic block*: a description gap
/// wedges the matcher on well-formed input, and the authors could "only
/// iterate on the grammar once per day". This subsystem manufactures those
/// gaps (and the neighboring failure modes) on demand so every recovery
/// path is exercised by tests and by `run_vax --fault=...`:
///
///   * `drop-prod=TAG`       drop expanded grammar productions whose
///                           semantic tag is TAG (a description gap);
///   * `corrupt-table[=OFF]` flip one byte of a serialized table file's
///                           body (exercises the loader's checksum);
///   * `truncate-input[=N]`  truncate the linearized input of every Nth
///                           statement tree (a phase-1/linearizer bug);
///   * `cap-regs=K`          let the register manager hand out only the
///                           first K scratch registers (forces exhaustion);
///   * `stall-worker[=MS]`   delay each parallel compile task by a
///                           seed-derived amount up to MS milliseconds,
///                           scrambling worker completion order (proves
///                           source-order stitching is scheduling-proof);
///   * `oom-arena[=BYTES]`   cap every NodeArena's node storage at BYTES
///                           (default 4096): allocation past the cap sets
///                           the arena's sticky exhausted() flag, driving
///                           the memory-exhaustion degradation path;
///   * `overload-burst[=MS]` inflate the compile server's per-request
///                           service time by MS milliseconds in bursts
///                           (alternating windows of 8 requests), pushing
///                           a bounded queue into its shed paths without
///                           touching the compile pipeline itself;
///   * `slow-client[=MS]`    make gg-load dribble request frames onto the
///                           wire in small chunks with MS milliseconds
///                           between them (a slowloris-style client; the
///                           server's incremental reader must treat it as
///                           NeedMore, never as corruption);
///   * `seed=S`              seed for derived offsets (deterministic).
///
/// Faults are process-global (like the stats registry), configured from a
/// driver flag or the GG_FAULT environment variable, and default to off.
/// Every injected event is counted under `fault.*` in gg-stats-v1.
///
//===----------------------------------------------------------------------===//

#ifndef GG_SUPPORT_FAULTINJECT_H
#define GG_SUPPORT_FAULTINJECT_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace gg {

/// Parsed fault-injection configuration; all faults default to off.
struct FaultConfig {
  /// Drop expanded productions whose semantic tag equals this (e.g.
  /// "mul_l"). Empty = off.
  std::string DropProdTag;
  /// Flip one body byte of a serialized table file. -1 = off; -2 = on with
  /// a seed-derived offset; >= 0 = explicit body offset.
  int64_t CorruptTableByte = -1;
  /// Truncate the matcher input of every Nth statement tree (1 = every
  /// tree). 0 = off.
  int TruncateEveryNth = 0;
  /// Cap the register manager to the first K allocatable registers
  /// (1 <= K <= 6). -1 = off.
  int CapFreeRegs = -1;
  /// Delay each parallel compile task by a seed-derived amount in
  /// [0, StallWorkerMs] milliseconds. 0 = off.
  int StallWorkerMs = 0;
  /// Cap every NodeArena at this many node-storage bytes. -1 = off.
  int64_t ArenaCapBytes = -1;
  /// Inflate server-side service time by this many ms in bursts. 0 = off.
  int OverloadBurstMs = 0;
  /// gg-load writes frames in small chunks with this many ms between
  /// them. 0 = off.
  int SlowClientMs = 0;
  /// Seed for derived choices (corrupt offset, truncation point, stalls).
  uint64_t Seed = 1;

  bool anyEnabled() const {
    return !DropProdTag.empty() || CorruptTableByte != -1 ||
           TruncateEveryNth > 0 || CapFreeRegs >= 0 || StallWorkerMs > 0 ||
           ArenaCapBytes >= 0 || OverloadBurstMs > 0 || SlowClientMs > 0;
  }
};

/// Process-global fault injector. Decision helpers are cheap no-ops when
/// the corresponding fault is off, so production call sites stay hot-path
/// friendly; helpers that fire also bump the matching `fault.*` counter.
class FaultInjector {
public:
  static FaultInjector &global();

  /// Parses a `--fault=` spec ("drop-prod=mul_l,cap-regs=2,seed=7") into
  /// the active config. Returns false and sets \p Err on a malformed spec;
  /// the previous config is kept in that case.
  bool configure(std::string_view Spec, std::string &Err);

  void setConfig(const FaultConfig &NewConfig) { C = NewConfig; }
  const FaultConfig &config() const { return C; }
  bool enabled() const { return C.anyEnabled(); }

  /// Restores the all-off default (tests).
  void reset() {
    C = FaultConfig();
    TreeOrdinal.store(0, std::memory_order_relaxed);
    DispatchOrdinal.store(0, std::memory_order_relaxed);
  }

  /// True if the expanded production with semantic tag \p SemTag should be
  /// dropped from the grammar (counts `fault.productions_dropped`).
  bool shouldDropProduction(std::string_view SemTag);

  /// Atomically reserves \p Count consecutive tree ordinals, returning the
  /// first. The code generator reserves its module's whole block up front
  /// and numbers trees in source order, so truncate-input selects the same
  /// trees at any thread count (and across compiles in one process, the
  /// same trees the pre-parallel sequential counter selected).
  uint64_t reserveTreeOrdinals(uint64_t Count) {
    return TreeOrdinal.fetch_add(Count, std::memory_order_relaxed);
  }

  /// Returns the truncated token count for the statement tree numbered
  /// \p Ordinal (counts `fault.trees_truncated` when it chops). Pure in
  /// the ordinal: returns \p NumTokens unchanged when the fault is off or
  /// this ordinal is not selected.
  size_t truncatedInputSize(size_t NumTokens, uint64_t Ordinal);

  /// Register-manager cap: the number of allocatable scratch registers the
  /// allocator may use, or -1 for no cap.
  int capFreeRegs() const { return C.CapFreeRegs; }

  /// oom-arena fault: the NodeArena construction-time byte cap, or -1 for
  /// no cap. Per-request budgets tighten (never widen) this via
  /// NodeArena::setLimitBytes.
  int64_t arenaCapBytes() const { return C.ArenaCapBytes; }

  /// stall-worker fault: sleeps for a deterministic, seed-derived delay
  /// for compile task \p TaskOrdinal (counts `fault.worker_stalls`). No-op
  /// when the fault is off. Different ordinals get different delays, so
  /// parallel workers finish in adversarially shuffled order.
  void stallWorker(uint64_t TaskOrdinal);

  /// Flips one byte of \p TableText within [BodyStart, TableText.size())
  /// per the config (counts `fault.table_bytes_corrupted`). Returns the
  /// corrupted offset, or -1 if the fault is off or the body is empty.
  int64_t corruptTableBody(std::string &TableText, size_t BodyStart);

  /// overload-burst fault: sleeps OverloadBurstMs in alternating windows
  /// of 8 dispatched requests (counts `fault.overload_bursts` when it
  /// fires). Called from the server's dispatch path — never the compile
  /// pipeline — so an in-process verify oracle sharing GG_FAULT is
  /// unaffected. No-op when off.
  void overloadBurst();

  /// slow-client fault: the inter-chunk delay (ms) a load client should
  /// insert while writing a frame, or 0 when off. The caller counts
  /// `fault.slow_client_writes` per frame.
  int slowClientChunkMs() const { return C.SlowClientMs; }

private:
  FaultConfig C;
  /// Statement trees numbered so far (truncate-input); atomic because
  /// parallel compiles may reserve blocks concurrently.
  std::atomic<uint64_t> TreeOrdinal{0};
  /// Requests dispatched so far (overload-burst windowing).
  std::atomic<uint64_t> DispatchOrdinal{0};
};

/// Shorthand for the global injector.
inline FaultInjector &faultInject() { return FaultInjector::global(); }

} // namespace gg

#endif // GG_SUPPORT_FAULTINJECT_H
