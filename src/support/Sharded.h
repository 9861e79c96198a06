//===- Sharded.h - sharded grow-only atomic counter arrays ------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharded counter store behind the table-event registry
/// (support/TableEvents.h): id-indexed uint64 accumulators — event counts
/// and tick totals — that parallel workers mutate lock-free without
/// sharing cache lines, summed only at dump time.
///
/// One family is NumShards independent atomic arrays. Each thread is
/// dealt a shard round-robin on first use (the work-stealing pool tops
/// out well under NumShards on the hosts this targets, so shards are
/// usually thread-private). Recorders snapshot a consistent (pointer,
/// size) pair with one acquire load; growth publishes a new store and
/// retires — never frees — the old one, so a racing recorder never
/// touches freed memory. Growth is serial-only by contract: targets are
/// constructed (and counter families sized) before compile workers
/// start.
///
//===----------------------------------------------------------------------===//

#ifndef GG_SUPPORT_SHARDED_H
#define GG_SUPPORT_SHARDED_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace gg {

/// One id-indexed family of sharded atomic accumulators.
class ShardedCounters {
public:
  static constexpr int NumShards = 16; ///< power of two; see shardIndex()

  /// The calling thread's shard, dealt round-robin across all families
  /// (one assignment per thread, shared so related families — ticks and
  /// events for the same id — land on the same shard).
  static int shardIndex() {
    static std::atomic<unsigned> NextShard{0};
    static thread_local int Mine =
        static_cast<int>(NextShard.fetch_add(1, std::memory_order_relaxed) &
                         (NumShards - 1));
    return Mine;
  }

  /// Adds \p Delta to counter \p Index on the caller's shard. Negative
  /// or out-of-range ids are dropped rather than asserted — a stale
  /// artifact is better than a crashed compiler. Lock-free.
  void add(int Index, uint64_t Delta) {
    if (Index < 0)
      return;
    Store *S = Cur.load(std::memory_order_acquire);
    if (!S || static_cast<size_t>(Index) >= S->N)
      return;
    S->Shards[shardIndex()][Index].fetch_add(Delta,
                                             std::memory_order_relaxed);
  }

  /// Publishes a store of at least \p N counters, carrying existing
  /// per-shard counts over. Caller must hold its registry mutex and
  /// honor the serial-sizing rule.
  void growLocked(size_t N) {
    Store *Old = Cur.load(std::memory_order_relaxed);
    if (Old && Old->N >= N)
      return;
    auto S = std::make_unique<Store>();
    S->N = N;
    S->Shards.reserve(NumShards);
    for (int I = 0; I < NumShards; ++I) {
      auto Arr = std::make_unique<std::atomic<uint64_t>[]>(N);
      for (size_t J = 0; J < N; ++J)
        Arr[J].store(Old && J < Old->N
                         ? Old->Shards[I][J].load(std::memory_order_relaxed)
                         : 0,
                     std::memory_order_relaxed);
      S->Shards.push_back(std::move(Arr));
    }
    Cur.store(S.get(), std::memory_order_release);
    Stores.push_back(std::move(S)); // the old store stays retired, not freed
  }

  /// Shard-summed count for one id, 0 when unsized or out of range.
  uint64_t sum(size_t Index) const {
    const Store *S = Cur.load(std::memory_order_acquire);
    if (!S || Index >= S->N)
      return 0;
    uint64_t Total = 0;
    for (int I = 0; I < NumShards; ++I)
      Total += S->Shards[I][Index].load(std::memory_order_relaxed);
    return Total;
  }

  /// Current capacity (0 when never sized).
  size_t size() const {
    const Store *S = Cur.load(std::memory_order_acquire);
    return S ? S->N : 0;
  }

  /// Zeroes every counter, keeping the capacity. Caller holds its
  /// registry mutex (racing recorders may land in either epoch, which
  /// the registry tolerates).
  void resetLocked() {
    if (Store *S = Cur.load(std::memory_order_relaxed))
      for (int I = 0; I < NumShards; ++I)
        for (size_t J = 0; J < S->N; ++J)
          S->Shards[I][J].store(0, std::memory_order_relaxed);
  }

private:
  /// Per-shard arrays are separate allocations, so workers on different
  /// shards do not share lines.
  struct Store {
    size_t N = 0;
    std::vector<std::unique_ptr<std::atomic<uint64_t>[]>> Shards;
  };
  std::atomic<Store *> Cur{nullptr};
  std::vector<std::unique_ptr<Store>> Stores; ///< current + retired
};

} // namespace gg

#endif // GG_SUPPORT_SHARDED_H
