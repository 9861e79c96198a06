//===- Stats.h - process-wide counters and histograms -----------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide registry of named counters, gauges and log-scale
/// histograms. Every layer of the pipeline — table constructor, packer,
/// matcher, the four code-generation phases, register manager — records
/// into the same registry, and every consumer (the `--stats-json` surface
/// on the example drivers, the bench harness, the tests) reads the same
/// schema back out, so the paper's empirical claims (Figure 2 phase
/// shares, table sizes, conflict counts) are reproducible from emitted
/// telemetry instead of ad-hoc printf accounting.
///
/// Counters are monotonic event counts ("regs.spills"), values summed
/// doubles such as seconds ("cg.match_seconds"), histograms log2-bucketed
/// distributions ("match.stack_depth").
///
/// Names are dotted `<layer>.<metric>` strings; the first lookup creates
/// the entry at zero, so a key can appear in the JSON output while zero.
/// support/Metrics.def declares the keys of the compile path and server.
///
/// Thread safety: mutation is lock-free once registered. Counters and
/// values are atomics mutated with relaxed ordering; histogram recording
/// uses relaxed atomics with CAS loops for min/max. Registration (the
/// first lookup of a name) takes a mutex, and entry references are stable
/// for the registry's lifetime (std::map nodes), so support/Metrics.h
/// looks each key up once. Every mutation is a commutative add (or an
/// order-free min/max), so totals are deterministic at any thread count.
/// reset() zeroes every entry but never removes one; readers racing a
/// reset or a recording may observe transiently inconsistent histogram
/// aggregates (count vs. sum), never torn values.
///
//===----------------------------------------------------------------------===//

#ifndef GG_SUPPORT_STATS_H
#define GG_SUPPORT_STATS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace gg {

/// A LogHistogram's single-owner twin: the same buckets in plain fields,
/// for a caller that records many samples privately and folds them into
/// a shared histogram with one LogHistogram::merge.
struct LocalHistogram {
  uint64_t Count = 0, Sum = 0, Min = ~0ull, Max = 0;
  std::array<uint64_t, 65> Buckets{};

  inline void record(uint64_t Sample);

  LocalHistogram &operator+=(const LocalHistogram &O) {
    Count += O.Count;
    Sum += O.Sum;
    Min = O.Min < Min ? O.Min : Min;
    Max = O.Max > Max ? O.Max : Max;
    for (size_t W = 0; W < Buckets.size(); ++W)
      Buckets[W] += O.Buckets[W];
    return *this;
  }
};

/// A log2-bucketed histogram of unsigned samples. Bucket i holds samples
/// whose bit width is i, i.e. the ranges {0}, {1}, [2,3], [4,7], [8,15]…
/// — compact, O(1) to record, and faithful enough for the scale questions
/// the experiments ask (stack depths, tokens per tree, step counts).
/// Recording is thread-safe (relaxed atomics; min/max via CAS).
class LogHistogram {
public:
  void record(uint64_t Sample) {
    Count.fetch_add(1, std::memory_order_relaxed);
    Sum.fetch_add(Sample, std::memory_order_relaxed);
    lowerMin(Sample);
    raiseMax(Sample);
    Buckets[bitWidth(Sample)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Adds every sample of \p H at once: the same totals as recording
  /// them one by one.
  void merge(const LocalHistogram &H) {
    if (!H.Count)
      return;
    Count.fetch_add(H.Count, std::memory_order_relaxed);
    Sum.fetch_add(H.Sum, std::memory_order_relaxed);
    lowerMin(H.Min);
    raiseMax(H.Max);
    // No sample is wider than the largest.
    for (int W = 0, Top = bitWidth(H.Max); W <= Top; ++W)
      if (H.Buckets[W])
        Buckets[W].fetch_add(H.Buckets[W], std::memory_order_relaxed);
  }

  void reset() {
    Count.store(0, std::memory_order_relaxed);
    Sum.store(0, std::memory_order_relaxed);
    Min.store(NoSample, std::memory_order_relaxed);
    Max.store(0, std::memory_order_relaxed);
    for (auto &B : Buckets)
      B.store(0, std::memory_order_relaxed);
  }

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  uint64_t min() const {
    uint64_t M = Min.load(std::memory_order_relaxed);
    return M == NoSample ? 0 : M;
  }
  uint64_t max() const { return Max.load(std::memory_order_relaxed); }
  double mean() const {
    uint64_t N = count();
    return N ? static_cast<double>(sum()) / N : 0;
  }

  /// Bucket count for samples of bit width \p W (0..64).
  uint64_t bucket(int W) const {
    return Buckets[W].load(std::memory_order_relaxed);
  }

  /// Inclusive upper bound of bucket \p W (0, 1, 3, 7, 15, ...).
  static uint64_t bucketUpper(int W) {
    return W >= 64 ? ~0ull : (1ull << W) - 1;
  }

  static int bitWidth(uint64_t V) {
    int W = 0;
    while (V) {
      ++W;
      V >>= 1;
    }
    return W;
  }

private:
  void lowerMin(uint64_t V) {
    uint64_t Cur = Min.load(std::memory_order_relaxed);
    while (V < Cur &&
           !Min.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
    }
  }
  void raiseMax(uint64_t V) {
    uint64_t Cur = Max.load(std::memory_order_relaxed);
    while (V > Cur &&
           !Max.compare_exchange_weak(Cur, V, std::memory_order_relaxed)) {
    }
  }

  static constexpr uint64_t NoSample = ~0ull; ///< Min sentinel: no samples yet
  std::atomic<uint64_t> Count{0}, Sum{0}, Min{NoSample}, Max{0};
  std::array<std::atomic<uint64_t>, 65> Buckets{};
};

void LocalHistogram::record(uint64_t Sample) {
  ++Count;
  Sum += Sample;
  Min = Sample < Min ? Sample : Min;
  Max = Sample > Max ? Sample : Max;
  ++Buckets[LogHistogram::bitWidth(Sample)];
}

/// Named counters, gauges and histograms. One process-wide instance
/// (global()) serves the pipeline; tests may create private instances.
class StatsRegistry {
public:
  static StatsRegistry &global();

  /// The named counter, created at zero on first use. The reference is
  /// stable; hot paths may cache it. Mutation (++, +=) is atomic.
  std::atomic<uint64_t> &counter(const std::string &Name) {
    std::lock_guard<std::mutex> Lock(M);
    ++Lookups;
    return Counters[Name];
  }

  /// The named accumulated double (seconds, bytes-as-double, ...).
  /// Mutation (+=) is atomic (C++20 floating-point fetch_add).
  std::atomic<double> &value(const std::string &Name) {
    std::lock_guard<std::mutex> Lock(M);
    ++Lookups;
    return Values[Name];
  }

  /// The named histogram.
  LogHistogram &histogram(const std::string &Name) {
    std::lock_guard<std::mutex> Lock(M);
    ++Lookups;
    return Histograms[Name];
  }

  /// Name lookups so far, each of which took the registry mutex: a
  /// steady-state hot path keeps its references and adds none.
  uint64_t lookups() const {
    std::lock_guard<std::mutex> Lock(M);
    return Lookups;
  }

  /// Zeroes every entry, keeping all registrations (and thus all cached
  /// references and the JSON key set) intact.
  void reset();

  /// Serializes the whole registry as one JSON object:
  ///   {"schema":"gg-stats-v1","counters":{...},"values":{...},
  ///    "histograms":{name:{count,sum,min,max,mean,buckets:{...}}}}
  /// Keys are emitted in sorted order (std::map) so output is
  /// deterministic and golden-testable.
  std::string toJson() const;

  const std::map<std::string, std::atomic<uint64_t>> &counters() const {
    return Counters;
  }
  const std::map<std::string, std::atomic<double>> &values() const {
    return Values;
  }
  const std::map<std::string, LogHistogram> &histograms() const {
    return Histograms;
  }

private:
  mutable std::mutex M; ///< guards map registration only, not entry updates
  std::map<std::string, std::atomic<uint64_t>> Counters;
  std::map<std::string, std::atomic<double>> Values;
  std::map<std::string, LogHistogram> Histograms;
  uint64_t Lookups = 0;
};

/// Shorthand for the global registry.
inline StatsRegistry &stats() { return StatsRegistry::global(); }

/// Escapes \p Text for inclusion in a JSON string literal.
std::string jsonEscape(std::string_view Text);

/// Appends \p Text to \p Out, escaped as jsonEscape does.
void appendJsonEscaped(std::string &Out, std::string_view Text);

} // namespace gg

#endif // GG_SUPPORT_STATS_H
