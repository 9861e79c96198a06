//===- Stats.cpp - process-wide counters and histograms ---------------------===//

#include "support/Stats.h"
#include "support/Strings.h"

using namespace gg;

StatsRegistry &StatsRegistry::global() {
  static StatsRegistry R;
  return R;
}

void StatsRegistry::reset() {
  std::lock_guard<std::mutex> Lock(M);
  for (auto &[Name, V] : Counters)
    V.store(0, std::memory_order_relaxed);
  for (auto &[Name, V] : Values)
    V.store(0, std::memory_order_relaxed);
  for (auto &[Name, H] : Histograms)
    H.reset();
}

std::string gg::jsonEscape(std::string_view Text) {
  std::string Out;
  Out.reserve(Text.size());
  appendJsonEscaped(Out, Text);
  return Out;
}

void gg::appendJsonEscaped(std::string &Out, std::string_view Text) {
  for (char C : Text) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += strf("\\u%04x", C);
      else
        Out += C;
    }
  }
}

std::string StatsRegistry::toJson() const {
  std::lock_guard<std::mutex> Lock(M);
  std::string Out = "{\"schema\":\"gg-stats-v1\",\"counters\":{";
  bool First = true;
  for (const auto &[Name, V] : Counters) {
    Out += strf("%s\"%s\":%llu", First ? "" : ",", jsonEscape(Name).c_str(),
                static_cast<unsigned long long>(
                    V.load(std::memory_order_relaxed)));
    First = false;
  }
  Out += "},\"values\":{";
  First = true;
  for (const auto &[Name, V] : Values) {
    Out += strf("%s\"%s\":%.9g", First ? "" : ",", jsonEscape(Name).c_str(),
                V.load(std::memory_order_relaxed));
    First = false;
  }
  Out += "},\"histograms\":{";
  First = true;
  for (const auto &[Name, H] : Histograms) {
    Out += strf("%s\"%s\":{\"count\":%llu,\"sum\":%llu,\"min\":%llu,"
                "\"max\":%llu,\"mean\":%.6g,\"buckets\":{",
                First ? "" : ",", jsonEscape(Name).c_str(),
                static_cast<unsigned long long>(H.count()),
                static_cast<unsigned long long>(H.sum()),
                static_cast<unsigned long long>(H.min()),
                static_cast<unsigned long long>(H.max()), H.mean());
    bool FirstB = true;
    for (int W = 0; W <= 64; ++W) {
      if (!H.bucket(W))
        continue;
      Out += strf("%s\"%llu\":%llu", FirstB ? "" : ",",
                  static_cast<unsigned long long>(LogHistogram::bucketUpper(W)),
                  static_cast<unsigned long long>(H.bucket(W)));
      FirstB = false;
    }
    Out += "}}";
    First = false;
  }
  Out += "}}";
  return Out;
}
