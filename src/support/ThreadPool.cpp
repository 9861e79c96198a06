//===- ThreadPool.cpp - work-stealing parallel-for ----------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

using namespace gg;

unsigned gg::resolveWorkerCount(int Requested, size_t Items) {
  unsigned W;
  if (Requested <= 0) {
    W = std::thread::hardware_concurrency();
    if (W == 0)
      W = 1;
  } else {
    W = static_cast<unsigned>(Requested);
  }
  if (Items < W)
    W = static_cast<unsigned>(Items);
  return W == 0 ? 1 : W;
}

namespace {

/// One worker's mutex-guarded deque. A plain lock per operation is cheap
/// relative to a per-function compile, and keeps the pool trivially clean
/// under TSAN — the point of this pool is correctness of the parallel
/// code generator, not queue micro-throughput.
struct WorkDeque {
  std::mutex M;
  std::deque<size_t> Q;

  bool popFront(size_t &Out) {
    std::lock_guard<std::mutex> Lock(M);
    if (Q.empty())
      return false;
    Out = Q.front();
    Q.pop_front();
    return true;
  }

  bool stealBack(size_t &Out) {
    std::lock_guard<std::mutex> Lock(M);
    if (Q.empty())
      return false;
    Out = Q.back();
    Q.pop_back();
    return true;
  }
};

} // namespace

PoolRunStats gg::parallelFor(size_t N, const ParallelOptions &Opts,
                             const std::function<void(size_t)> &Body) {
  PoolRunStats Stats;
  if (N == 0)
    return Stats;

  const unsigned Workers = resolveWorkerCount(Opts.Threads, N);
  Stats.Workers = Workers;
  Stats.Tasks = N;

  if (Workers == 1) {
    // Serial baseline: no deques, no spawns, no locks.
    for (size_t I = 0; I < N; ++I)
      Body(I);
    return Stats;
  }

  // Deal items round-robin so each worker starts with an even share and
  // stealing only kicks in under skewed per-item costs.
  std::vector<WorkDeque> Deques(Workers);
  for (size_t I = 0; I < N; ++I)
    Deques[I % Workers].Q.push_back(I);

  std::atomic<uint64_t> Steals{0};
  auto WorkerLoop = [&](unsigned Me) {
    while (true) {
      size_t I;
      if (!Deques[Me].popFront(I)) {
        // Own deque dry: sweep the other deques for work to steal. No
        // work is added mid-run, so a full empty sweep means we are done
        // (an item in flight on another worker is that worker's to run).
        bool Stole = false;
        for (unsigned Off = 1; Off < Workers && !Stole; ++Off)
          Stole = Deques[(Me + Off) % Workers].stealBack(I);
        if (!Stole)
          return;
        Steals.fetch_add(1, std::memory_order_relaxed);
      }
      Body(I);
    }
  };

  std::vector<std::thread> Threads;
  Threads.reserve(Workers - 1);
  for (unsigned W = 1; W < Workers; ++W)
    Threads.emplace_back(WorkerLoop, W);
  WorkerLoop(0);
  for (std::thread &T : Threads)
    T.join();
  Stats.Steals = Steals.load();
  return Stats;
}
