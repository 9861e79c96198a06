//===- Trace.cpp - RAII tracing spans ---------------------------------------===//

#include "support/Trace.h"
#include "support/Stats.h"
#include "support/Strings.h"

#include <algorithm>
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

  std::string Out = "[";
  bool First = true;
  for (size_t I : Order) {
    const TraceEvent &E = Events[I];
    Out += strf("%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u",
                First ? "" : ",", jsonEscape(E.name()).c_str(), E.Category,
                E.StartUs, E.DurUs, E.Tid);
    if (E.NumArgs) {
      Out += ",\"args\":{";
      bool FirstA = true;
      for (const auto &[K, V] : E.args()) {
        Out += strf("%s\"%s\":%lld", FirstA ? "" : ",",
                    jsonEscape(K).c_str(), static_cast<long long>(V));
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
