//===- FaultInject.cpp - deterministic fault injection ------------------------===//

#include "support/FaultInject.h"
#include "support/Metrics.h"
#include "support/Strings.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <thread>

using namespace gg;

FaultInjector &FaultInjector::global() {
  static FaultInjector *I = [] {
    auto *Inj = new FaultInjector();
    // Environment configuration lets the fault matrix wrap any driver or
    // test binary without threading a flag through; a malformed value is a
    // loud no-op rather than a silent one.
    if (const char *Env = std::getenv("GG_FAULT")) {
      std::string Err;
      if (!Inj->configure(Env, Err))
        fprintf(stderr, "warning: ignoring GG_FAULT: %s\n", Err.c_str());
    }
    return Inj;
  }();
  return *I;
}

bool FaultInjector::configure(std::string_view Spec, std::string &Err) {
  FaultConfig New;
  for (std::string_view Item : splitString(Spec, ',')) {
    Item = trim(Item);
    if (Item.empty())
      continue;
    size_t Eq = Item.find('=');
    std::string_view Key = Item.substr(0, Eq);
    std::string_view Val =
        Eq == std::string_view::npos ? std::string_view() : Item.substr(Eq + 1);

    if (Key == "drop-prod") {
      if (Val.empty()) {
        Err = "drop-prod requires a semantic tag (drop-prod=mul_l)";
        return false;
      }
      New.DropProdTag = std::string(Val);
    } else if (Key == "corrupt-table") {
      if (Val.empty()) {
        New.CorruptTableByte = -2; // seed-derived offset
      } else {
        std::optional<int64_t> N = parseInt(Val);
        if (!N || *N < 0) {
          Err = strf("corrupt-table offset must be a non-negative integer, "
                     "got '%.*s'",
                     static_cast<int>(Val.size()), Val.data());
          return false;
        }
        New.CorruptTableByte = *N;
      }
    } else if (Key == "truncate-input") {
      int64_t N = 1;
      if (!Val.empty()) {
        std::optional<int64_t> P = parseInt(Val);
        if (!P || *P < 1) {
          Err = strf("truncate-input period must be >= 1, got '%.*s'",
                     static_cast<int>(Val.size()), Val.data());
          return false;
        }
        N = *P;
      }
      New.TruncateEveryNth = static_cast<int>(N);
    } else if (Key == "cap-regs") {
      std::optional<int64_t> K = Val.empty() ? std::nullopt : parseInt(Val);
      if (!K || *K < 1 || *K > 6) {
        Err = "cap-regs requires a register count in [1,6] (cap-regs=2)";
        return false;
      }
      New.CapFreeRegs = static_cast<int>(*K);
    } else if (Key == "stall-worker") {
      int64_t Ms = 5; // default cap keeps test runs short but reordering real
      if (!Val.empty()) {
        std::optional<int64_t> P = parseInt(Val);
        if (!P || *P < 1 || *P > 1000) {
          Err = strf("stall-worker delay cap must be in [1,1000] ms, "
                     "got '%.*s'",
                     static_cast<int>(Val.size()), Val.data());
          return false;
        }
        Ms = *P;
      }
      New.StallWorkerMs = static_cast<int>(Ms);
    } else if (Key == "oom-arena") {
      int64_t Bytes = 4096; // small enough that any real program trips it
      if (!Val.empty()) {
        std::optional<int64_t> P = parseInt(Val);
        if (!P || *P < 1) {
          Err = strf("oom-arena cap must be >= 1 byte, got '%.*s'",
                     static_cast<int>(Val.size()), Val.data());
          return false;
        }
        Bytes = *P;
      }
      New.ArenaCapBytes = Bytes;
    } else if (Key == "overload-burst") {
      int64_t Ms = 20; // long enough to back a small queue up, short
                       // enough to keep soak runs quick
      if (!Val.empty()) {
        std::optional<int64_t> P = parseInt(Val);
        if (!P || *P < 1 || *P > 1000) {
          Err = strf("overload-burst delay must be in [1,1000] ms, "
                     "got '%.*s'",
                     static_cast<int>(Val.size()), Val.data());
          return false;
        }
        Ms = *P;
      }
      New.OverloadBurstMs = static_cast<int>(Ms);
    } else if (Key == "slow-client") {
      int64_t Ms = 2;
      if (!Val.empty()) {
        std::optional<int64_t> P = parseInt(Val);
        if (!P || *P < 1 || *P > 1000) {
          Err = strf("slow-client delay must be in [1,1000] ms, got '%.*s'",
                     static_cast<int>(Val.size()), Val.data());
          return false;
        }
        Ms = *P;
      }
      New.SlowClientMs = static_cast<int>(Ms);
    } else if (Key == "seed") {
      std::optional<int64_t> S = Val.empty() ? std::nullopt : parseInt(Val);
      if (!S || *S < 0) {
        Err = "seed requires a non-negative integer";
        return false;
      }
      New.Seed = static_cast<uint64_t>(*S);
    } else {
      Err = strf("unknown fault kind '%.*s' (known: drop-prod, "
                 "corrupt-table, truncate-input, cap-regs, stall-worker, "
                 "oom-arena, overload-burst, slow-client, seed)",
                 static_cast<int>(Key.size()), Key.data());
      return false;
    }
  }
  C = New;
  TreeOrdinal.store(0, std::memory_order_relaxed);
  DispatchOrdinal.store(0, std::memory_order_relaxed);
  return true;
}

bool FaultInjector::shouldDropProduction(std::string_view SemTag) {
  if (C.DropProdTag.empty() || SemTag != C.DropProdTag)
    return false;
  ++counter(Metric::FaultProductionsDropped);
  return true;
}

size_t FaultInjector::truncatedInputSize(size_t NumTokens, uint64_t Ordinal) {
  if (C.TruncateEveryNth <= 0)
    return NumTokens;
  if (Ordinal % static_cast<uint64_t>(C.TruncateEveryNth) != 0)
    return NumTokens;
  // A proper prefix of a prefix linearization is never itself well formed,
  // so chopping trailing tokens always yields a syntactic block at $end —
  // never a silently accepted wrong parse. Single-token trees are left
  // alone (an empty input would not reach the interesting code).
  if (NumTokens < 2)
    return NumTokens;
  size_t Keep = NumTokens - (NumTokens / 4 > 0 ? NumTokens / 4 : 1);
  ++counter(Metric::FaultTreesTruncated);
  return Keep;
}

void FaultInjector::stallWorker(uint64_t TaskOrdinal) {
  if (C.StallWorkerMs <= 0)
    return;
  // Knuth-hash the (seed, task) pair so neighboring tasks get unrelated
  // delays: late early-tasks and early late-tasks force the stitcher to
  // reorder buffers rather than getting completion order for free.
  uint64_t H = (C.Seed * 2654435761u) ^ (TaskOrdinal * 0x9E3779B97F4A7C15ull);
  uint64_t DelayUs =
      (H >> 7) % (static_cast<uint64_t>(C.StallWorkerMs) * 1000 + 1);
  ++counter(Metric::FaultWorkerStalls);
  std::this_thread::sleep_for(std::chrono::microseconds(DelayUs));
}

void FaultInjector::overloadBurst() {
  if (C.OverloadBurstMs <= 0)
    return;
  // Alternating windows of 8 requests: bursts back the queue up, the
  // quiet windows let sheds and retries interleave with successes.
  uint64_t Ordinal = DispatchOrdinal.fetch_add(1, std::memory_order_relaxed);
  if ((Ordinal / 8) % 2 != 0)
    return;
  ++counter(Metric::FaultOverloadBursts);
  std::this_thread::sleep_for(std::chrono::milliseconds(C.OverloadBurstMs));
}

int64_t FaultInjector::corruptTableBody(std::string &TableText,
                                        size_t BodyStart) {
  if (C.CorruptTableByte == -1 || BodyStart >= TableText.size())
    return -1;
  size_t BodyLen = TableText.size() - BodyStart;
  uint64_t Off = C.CorruptTableByte >= 0
                     ? static_cast<uint64_t>(C.CorruptTableByte)
                     : C.Seed * 2654435761u; // Knuth hash of the seed
  size_t Pos = BodyStart + static_cast<size_t>(Off % BodyLen);
  TableText[Pos] ^= 0x01;
  ++counter(Metric::FaultTableBytesCorrupted);
  return static_cast<int64_t>(Pos - BodyStart);
}
