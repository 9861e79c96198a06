//===- HostRef.cpp - the host-speed reference workload --------------------===//

#include "Bench.h"

#include <cstdlib>
#include <regex>

using namespace pb;

namespace {

const char *const Patterns[] = {
    "[a-z]+[0-9]*",
    "(foo|bar|baz)+q?",
    "^\\s*(int|char|short)\\s+([A-Za-z_][A-Za-z0-9_]*)\\s*;",
    "([0-9]+)\\.([0-9]+)e?",
    "(a|b)*c(d|e)+f?g{1,3}",
    "\\b(while|for|if)\\s*\\(",
    "[A-Z][a-z]+(_[0-9]+)?",
    "(x+x+)+y",
    "[^;{}]*[;{}]",
    "(\\w+)=(\\w+)",
};

const std::string &text() {
  static const std::string T = [] {
    std::string S;
    for (int I = 0; I < 60; ++I) {
      std::string N = std::to_string(I);
      S += "int g" + N + "; short s_" + N + " = a[i & 7] + b * " +
           std::to_string(I * 37) +
           ";\nwhile (i < 10) { x = y + 1.5e3; if (x) Foo_1 = bar; }\n";
    }
    return S;
  }();
  return T;
}

} // namespace

double pb::referenceBurst() {
  const std::string &T = text();
  uint64_t Start = nowNs();
  size_t Matched = 0;
  for (const char *P : Patterns) {
    std::regex R(P);
    for (auto It = std::sregex_iterator(T.begin(), T.end(), R);
         It != std::sregex_iterator(); ++It)
      Matched += static_cast<size_t>(It->length());
  }
  double S = seconds(nowNs() - Start);
  // The matches are a fixed function of fixed inputs; checking them keeps
  // the work from being optimized away.
  if (Matched != 9124)
    abort();
  return S;
}
