//===- RegisterManager.cpp - stack-discipline register allocation -----------===//

#include "vax/RegisterManager.h"
#include "support/Error.h"
#include "support/FaultInject.h"
#include "support/Stats.h"
#include "support/Strings.h"

#include <algorithm>

using namespace gg;

void RegisterManager::reportError(const std::string &Message) {
  // Sticky: the first failure is the root cause; later ones are fallout.
  if (LastError.empty())
    LastError = Message;
  if (OnError)
    OnError(Message);
}

int RegisterManager::lastAllocatable() const {
  int Cap = faultInject().capFreeRegs();
  if (Cap < 0)
    return RegLastAlloc;
  return std::min<int>(RegLastAlloc, RegFirstAlloc + Cap - 1);
}

void RegisterManager::markBusy(int R) {
  Busy[R] = true;
  BusyOrder.push_back(R);
  ++Stats.Allocations;
  static auto &Allocations = gg::stats().counter("regs.allocations");
  static auto &LiveHist = gg::stats().histogram("regs.live");
  ++Allocations;
  unsigned Live = 0;
  for (int I = RegFirstAlloc; I <= RegLastAlloc; ++I)
    Live += Busy[I];
  Stats.MaxLive = std::max(Stats.MaxLive, Live);
  LiveHist.record(Live);
}

int RegisterManager::alloc() {
  const int Last = lastAllocatable();
  for (int R = RegFirstAlloc; R <= Last; ++R) {
    if (!Busy[R]) {
      markBusy(R);
      return R;
    }
  }
  if (!spillOne()) {
    // Recoverable: the caller's sticky-error check discards this tree.
    // RegFirstAlloc is a defined value so downstream formatting stays
    // well-behaved until the error is observed.
    return RegFirstAlloc;
  }
  for (int R = RegFirstAlloc; R <= Last; ++R) {
    if (!Busy[R]) {
      markBusy(R);
      return R;
    }
  }
  gg_unreachable("spill did not free a register");
}

int RegisterManager::allocPreferring(const Operand &A, const Operand &B) {
  // Reuse a plain register source as the destination when possible; the
  // source value dies at this instruction.
  if (A.isReg() && isAllocatable(A.Base))
    return A.Base;
  if (B.isReg() && isAllocatable(B.Base))
    return B.Base;
  return alloc();
}

void RegisterManager::free(int R) {
  if (!isAllocatable(R))
    return;
  if (!Busy[R])
    return;
  Busy[R] = false;
  PinCount[R] = 0;
  BusyOrder.erase(std::remove(BusyOrder.begin(), BusyOrder.end(), R),
                  BusyOrder.end());
}

void RegisterManager::reclaim(const Operand &O, int KeepReg) {
  auto Release = [&](int R) {
    if (R >= 0 && R != KeepReg && isAllocatable(R))
      free(R);
  };
  Release(O.Base);
  Release(O.Index);
}

void RegisterManager::pin(int R) {
  if (isAllocatable(R))
    ++PinCount[R];
}

void RegisterManager::unpin(int R) {
  if (isAllocatable(R)) {
    assert(PinCount[R] > 0 && "unbalanced unpin");
    --PinCount[R];
  }
}

void RegisterManager::claim(int R) {
  assert(isAllocatable(R) && !Busy[R] && "claiming a busy register");
  markBusy(R);
}

bool RegisterManager::evict(int R) {
  if (!isAllocatable(R) || !Busy[R])
    return true;
  if (PinCount[R] > 0 || !Spillable(R)) {
    reportError(strf("cannot evict register %s (pinned or not relocatable)",
                     regName(R)));
    return false;
  }
  int CellOffset = AllocSpillCell();
  Operand Cell = Operand::disp(RegFP, CellOffset, Ty::L);
  Cell.Spilled = true;
  SpillStore(R, Cell);
  ++Stats.Spills;
  static auto &Spills = gg::stats().counter("regs.spills");
  ++Spills;
  free(R);
  return true;
}

void RegisterManager::noteUnspill() {
  ++Stats.Unspills;
  static auto &Unspills = gg::stats().counter("regs.unspills");
  ++Unspills;
}

int RegisterManager::numFree() const {
  int N = 0;
  for (int R = RegFirstAlloc; R <= RegLastAlloc; ++R)
    N += !Busy[R];
  return N;
}

bool RegisterManager::spillOne() {
  // "If there is no allocatable register available, a register from the
  // bottom of the stack is spilled" — the oldest unpinned allocation
  // whose value the semantics can relocate.
  for (int R : BusyOrder) {
    if (PinCount[R] > 0 || !Spillable(R))
      continue;
    int CellOffset = AllocSpillCell();
    Operand Cell = Operand::disp(RegFP, CellOffset, Ty::L);
    Cell.Spilled = true;
    SpillStore(R, Cell);
    ++Stats.Spills;
    static auto &Spills = gg::stats().counter("regs.spills");
    ++Spills;
    free(R);
    return true;
  }
  reportError("all registers are pinned inside addressing modes; "
              "expression too complex for the simple register manager");
  return false;
}

void RegisterManager::resetForStatement() {
  for (int R = RegFirstAlloc; R <= RegLastAlloc; ++R) {
    Busy[R] = false;
    PinCount[R] = 0;
  }
  BusyOrder.clear();
  LastError.clear();
}

bool RegisterManager::anyBusy() const {
  for (int R = RegFirstAlloc; R <= RegLastAlloc; ++R)
    if (Busy[R])
      return true;
  return false;
}
