//===- Spans.cpp - in-memory spans and order statistics -------------------===//

#include "Bench.h"

#include <algorithm>
#include <cstdio>

using namespace pb;

double pb::median(std::vector<double> V) { return percentile(std::move(V), 0.5); }

double pb::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  if (P <= 0)
    return V.front();
  if (P >= 1)
    return V.back();
  // Median of an even count: the mean of the middle two.
  if (P == 0.5 && V.size() % 2 == 0)
    return (V[V.size() / 2 - 1] + V[V.size() / 2]) / 2;
  size_t Rank = static_cast<size_t>(P * static_cast<double>(V.size()));
  return V[std::min(Rank, V.size() - 1)];
}

int32_t SpanLog::add(const char *Name, uint64_t Id, uint64_t StartNs,
                     uint64_t EndNs, int32_t Parent, uint32_t Tid) {
  std::lock_guard<std::mutex> Lock(M);
  Spans.push_back({Name, Id, StartNs, EndNs, Parent, Tid});
  return static_cast<int32_t>(Spans.size() - 1);
}

std::map<std::string, SpanTotals> SpanLog::totals() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<double> ChildS(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildS[static_cast<size_t>(S.Parent)] += seconds(S.EndNs - S.StartNs);
  std::map<std::string, SpanTotals> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    SpanTotals &T = Out[S.Name];
    double Dur = seconds(S.EndNs - S.StartNs);
    T.TotalS += Dur;
    T.SelfS += Dur - ChildS[I];
    ++T.Count;
  }
  return Out;
}

size_t SpanLog::misnested() const {
  std::lock_guard<std::mutex> Lock(M);
  size_t Bad = 0;
  for (const Span &S : Spans) {
    if (S.EndNs < S.StartNs) {
      ++Bad;
      continue;
    }
    if (S.Parent < 0)
      continue;
    const Span &P = Spans[static_cast<size_t>(S.Parent)];
    if (S.StartNs < P.StartNs || S.EndNs > P.EndNs)
      ++Bad;
  }
  return Bad;
}

bool SpanLog::writeChromeTrace(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(M);
  FILE *F = fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  for (const Span &S : Spans)
    Base = std::min(Base, S.StartNs);
  fputs("{\"traceEvents\":[\n", F);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    fprintf(F,
            "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%d}}",
            I ? ",\n" : "", S.Name, S.Tid, (S.StartNs - Base) / 1e3,
            (S.EndNs - S.StartNs) / 1e3, static_cast<unsigned long long>(S.Id),
            S.Parent);
  }
  fputs("\n]}\n", F);
  return fclose(F) == 0;
}
