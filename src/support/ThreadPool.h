//===- ThreadPool.h - work-stealing parallel-for ----------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small work-stealing thread pool for embarrassingly parallel loops.
/// The parallel code generator uses it to compile functions concurrently:
/// the SLR tables and instruction table are the expensive shared artifact
/// (built once, immutable), so per-function compilation parallelizes with
/// no synchronization beyond distributing the work items.
///
/// Shape: a fixed index space [0, N) is dealt round-robin onto per-worker
/// deques, one index per entry. Each worker drains its own deque from the
/// front; when empty it steals from the back of a victim's deque. The calling thread participates as
/// worker 0, so Threads=1 degenerates to a plain serial loop with no
/// spawns and no locks — the baseline the determinism tests compare
/// against. No work is ever added mid-run, so termination is a simple
/// full sweep finding every deque empty.
///
/// The body must not throw (the library is exception-free); any ordering
/// of body invocations must produce the same observable result, which the
/// code generator guarantees by giving each task its own output buffer and
/// stitching buffers in index order afterwards.
///
//===----------------------------------------------------------------------===//

#ifndef GG_SUPPORT_THREADPOOL_H
#define GG_SUPPORT_THREADPOOL_H

#include <cstddef>
#include <cstdint>
#include <functional>

namespace gg {

/// Parallelism knobs threaded through CodeGenOptions and the drivers'
/// --threads flag.
struct ParallelOptions {
  /// Worker count. 1 = serial (default; byte-identical baseline),
  /// 0 = one worker per hardware thread, N = exactly N workers.
  int Threads = 1;
};

/// What a parallelFor run did — fed into the cg.parallel.* telemetry.
struct PoolRunStats {
  uint64_t Workers = 0; ///< workers that ran (including the caller)
  uint64_t Tasks = 0;   ///< work items dealt
  uint64_t Steals = 0;  ///< items taken from another worker's deque
};

/// Resolves a --threads request against the item count: 0 means hardware
/// concurrency, and no more workers than items are ever spawned.
unsigned resolveWorkerCount(int Requested, size_t Items);

/// Runs Body(I) for every I in [0, N), distributed over workers per
/// \p Opts. Blocks until all items complete. Body must not throw.
PoolRunStats parallelFor(size_t N, const ParallelOptions &Opts,
                         const std::function<void(size_t)> &Body);

} // namespace gg

#endif // GG_SUPPORT_THREADPOOL_H
