//===- Metrics.h - the one table of gg-stats-v1 keys ------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The keys of support/Metrics.def, named by a Metric, and what derives
/// from the table: the registry entries (each looked up once, so later
/// writes take no lock), the schema keys, the stats sums and the
/// publishes. Stages count only into their per-function and per-compile
/// stats, which are published once per function and once per compile.
///
//===----------------------------------------------------------------------===//

#ifndef GG_SUPPORT_METRICS_H
#define GG_SUPPORT_METRICS_H

#include "support/Stats.h"

#include <type_traits>

namespace gg {

enum class Metric : uint16_t {
#define STAT(Id, Key, Kind, When, Field) Id,
#define EVENT(Id, Key, Kind, Group) Id,
#include "support/Metrics.def"
  NumMetrics
};

constexpr size_t NumMetrics = static_cast<size_t>(Metric::NumMetrics);

enum class MetricKind : uint8_t { Counter, Value, Histogram };
enum class MetricWhen : uint8_t { Tally, Function, Compile, GGCompile };
enum class MetricGroup : uint8_t { Compile, Server, Status, Lazy };

/// The dotted key ("regs.spills").
const char *metricKey(Metric M);

/// True if the gg-status-v1 frame carries \p M.
bool inStatusFrame(Metric M);

/// The registry entry of \p M, created at zero on first use.
std::atomic<uint64_t> &counter(Metric M);
std::atomic<double> &value(Metric M);
LogHistogram &histogram(Metric M);

/// Creates every key of \p G at zero (STAT rows are in Compile; Server
/// includes Status).
void touchMetrics(MetricGroup G);

/// Adds \p V to \p M's entry, which exists afterwards even if \p V is 0.
template <MetricKind K, class T> void publishMetric(Metric M, const T &V) {
  if constexpr (K == MetricKind::Histogram) {
    histogram(M).merge(V);
  } else if constexpr (K == MetricKind::Value) {
    static_assert(std::is_floating_point_v<T>, "a Value row sums a double");
    if (std::atomic<double> &E = value(M); V)
      E.fetch_add(V, std::memory_order_relaxed);
  } else {
    static_assert(std::is_integral_v<T>, "a Counter row sums an integer");
    if (std::atomic<uint64_t> &E = counter(M); V)
      E.fetch_add(V, std::memory_order_relaxed);
  }
}

/// Publishes the STAT rows of \p S whose When is one of \p Ws.
template <MetricWhen... Ws, class StatsT> void publishMetrics(const StatsT &S) {
#define STAT(Id, Key, Kind, When, Field)                                       \
  if constexpr (((MetricWhen::When == Ws) || ...))                             \
    publishMetric<MetricKind::Kind>(Metric::Id, S.Field);
#define EVENT(Id, Key, Kind, Group)
#include "support/Metrics.def"
}

/// Adds \p From into \p Into for every STAT row but the Tally ones.
template <class StatsT> void sumMetrics(StatsT &Into, const StatsT &From) {
#define STAT(Id, Key, Kind, When, Field)                                       \
  if constexpr (MetricWhen::When != MetricWhen::Tally)                         \
    Into.Field += From.Field;
#define EVENT(Id, Key, Kind, Group)
#include "support/Metrics.def"
}

} // namespace gg

#endif // GG_SUPPORT_METRICS_H
