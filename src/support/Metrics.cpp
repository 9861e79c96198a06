//===- Metrics.cpp - the one table of gg-stats-v1 keys ----------------------===//

#include "support/Metrics.h"

#include <cassert>

using namespace gg;

namespace {

constexpr struct {
  const char *Key;
  MetricKind Kind;
  MetricGroup Group;
} Table[NumMetrics] = {
#define STAT(Id, Key, Kind, When, Field)                                       \
  {Key, MetricKind::Kind, MetricGroup::Compile},
#define EVENT(Id, Key, Kind, Group) {Key, MetricKind::Kind, MetricGroup::Group},
#include "support/Metrics.def"
};

/// Each metric's registry entry once looked up; racing first uses store
/// the same address.
std::atomic<void *> Entries[NumMetrics];

void *entry(Metric M, MetricKind Kind) {
  const size_t I = static_cast<size_t>(M);
  assert(Table[I].Kind == Kind && "metric used as the wrong kind");
  void *P = Entries[I].load(std::memory_order_acquire);
  if (!P) {
    StatsRegistry &Reg = stats();
    const char *Key = Table[I].Key;
    P = Kind == MetricKind::Counter ? static_cast<void *>(&Reg.counter(Key))
        : Kind == MetricKind::Value ? static_cast<void *>(&Reg.value(Key))
                                    : &Reg.histogram(Key);
    Entries[I].store(P, std::memory_order_release);
  }
  return P;
}

} // namespace

const char *gg::metricKey(Metric M) {
  return Table[static_cast<size_t>(M)].Key;
}

bool gg::inStatusFrame(Metric M) {
  return Table[static_cast<size_t>(M)].Group == MetricGroup::Status;
}

std::atomic<uint64_t> &gg::counter(Metric M) {
  return *static_cast<std::atomic<uint64_t> *>(entry(M, MetricKind::Counter));
}

std::atomic<double> &gg::value(Metric M) {
  return *static_cast<std::atomic<double> *>(entry(M, MetricKind::Value));
}

LogHistogram &gg::histogram(Metric M) {
  return *static_cast<LogHistogram *>(entry(M, MetricKind::Histogram));
}

void gg::touchMetrics(MetricGroup G) {
  for (size_t I = 0; I < NumMetrics; ++I)
    if (Table[I].Group == G ||
        (G == MetricGroup::Server && Table[I].Group == MetricGroup::Status))
      entry(static_cast<Metric>(I), Table[I].Kind);
}
