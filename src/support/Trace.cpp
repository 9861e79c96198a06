//===- Trace.cpp - RAII tracing spans ---------------------------------------===//

#include "support/Trace.h"
#include "support/Stats.h"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <numeric>

using namespace gg;

TraceRecorder &TraceRecorder::global() {
  static TraceRecorder R;
  return R;
}

namespace {
thread_local RequestContext CurRequest;
} // namespace

RequestScope::RequestScope(uint64_t Id, uint64_t Generation) {
  Prev = CurRequest;
  CurRequest.Id = Id;
  CurRequest.Generation = Generation;
}

RequestScope::~RequestScope() { CurRequest = Prev; }

RequestContext RequestScope::current() { return CurRequest; }

void RequestScope::setGeneration(uint64_t Generation) {
  CurRequest.Generation = Generation;
}

std::string TraceRecorder::toChromeJson() const {
  // Spans are recorded at destruction into a ring, so the vector is in
  // no useful order; emit in start order, which viewers and humans both
  // expect.
  std::vector<size_t> Order(Events.size());
  std::iota(Order.begin(), Order.end(), size_t{0});
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Events[A].StartUs < Events[B].StartUs;
  });

  // Fields go straight into Out: a dump holds up to Capacity spans of a
  // dozen args. to_chars writes what printf's %.3f and %lld would.
  std::string Out = "[";
  Out.reserve(Events.size() * 192 + 8);
  char Num[64];
  auto Append = [&](auto V, auto... Format) {
    Out.append(Num, std::to_chars(Num, std::end(Num), V, Format...).ptr);
  };
  bool First = true;
  for (size_t I : Order) {
    const TraceEvent &E = Events[I];
    Out += First ? "\n{\"name\":\"" : ",\n{\"name\":\"";
    appendJsonEscaped(Out, E.name());
    Out += "\",\"cat\":\"";
    Out += E.Category;
    Out += "\",\"ph\":\"X\",\"ts\":";
    Append(E.StartUs, std::chars_format::fixed, 3);
    Out += ",\"dur\":";
    Append(E.DurUs, std::chars_format::fixed, 3);
    Out += ",\"pid\":1,\"tid\":";
    Append(E.Tid);
    if (E.NumArgs) {
      Out += ",\"args\":{";
      bool FirstA = true;
      for (const auto &[K, V] : E.args()) {
        Out += FirstA ? "\"" : ",\"";
        appendJsonEscaped(Out, K);
        Out += "\":";
        Append(V);
        FirstA = false;
      }
      Out += "}";
    }
    Out += "}";
    First = false;
  }
  Out += "\n]\n";
  return Out;
}
