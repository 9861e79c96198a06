//===- RegisterManager.h - stack-discipline register allocation -*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The register manager of paper section 5.3.3: "extremely simple and
/// unsophisticated". r0-r5 are allocatable scratch registers handed out
/// with a stack discipline; r6-r11 are register variables assigned by the
/// front end (dedicated registers). When no register is free, the one at
/// the bottom of the stack is spilled to a compiler-generated *virtual
/// register* (a frame temporary) and reloaded just before its next use.
///
//===----------------------------------------------------------------------===//

#ifndef GG_VAX_REGISTERMANAGER_H
#define GG_VAX_REGISTERMANAGER_H

#include "ir/Node.h"
#include "support/Stats.h"
#include "vax/Operand.h"

#include <functional>
#include <string>
#include <vector>

namespace gg {

/// Statistics for the register-pressure experiment (E10).
struct RegAllocStats {
  unsigned Allocations = 0;
  unsigned Spills = 0;
  unsigned Unspills = 0;
  LocalHistogram Live; ///< live allocatable registers at each allocation
};

/// Allocates the scratch registers r0..r5 with a stack discipline.
class RegisterManager {
public:
  /// \p SpillStore is invoked to emit the store of a spilled register and
  /// to rewrite any semantic-stack operand holding it; it receives the
  /// register and the virtual-register cell operand.
  /// \p AllocSpillCell allocates a fresh frame cell and returns its fp
  /// offset (negative).
  /// \p Spillable tells whether a register's value can be relocated (it
  /// must live as a plain register operand on the semantic stack below the
  /// reduction currently in flight; values held in handler locals or in
  /// composite addressing modes cannot be rewritten after the fact).
  /// \p OnError, when set, is invoked with a description of a recoverable
  /// allocation failure (exhaustion, unevictable register); the manager
  /// never aborts the process for input-dependent conditions — the caller
  /// fails the current tree and the degradation ladder takes over.
  RegisterManager(std::function<void(int, const Operand &)> SpillStore,
                  std::function<int()> AllocSpillCell,
                  std::function<bool(int)> Spillable,
                  std::function<void(const std::string &)> OnError = nullptr)
      : SpillStore(std::move(SpillStore)),
        AllocSpillCell(std::move(AllocSpillCell)),
        Spillable(std::move(Spillable)), OnError(std::move(OnError)) {}

  static bool isAllocatable(int R) {
    return R >= RegFirstAlloc && R <= RegLastAlloc;
  }

  /// Allocates a register, spilling the oldest unpinned one if necessary.
  /// If every register is pinned (phase 1's spill prevention exists to
  /// keep that from happening), reports a recoverable error via OnError /
  /// lastError() and returns RegFirstAlloc — a defined value the caller's
  /// sticky-error check discards along with the rest of the tree.
  int alloc();

  /// Allocates, preferring to reuse an allocatable source register that
  /// this instruction is about to free ("the register manager attempts to
  /// reclaim and reuse allocatable registers from the source operands").
  /// The preferred sources must be released by the caller via takeOver.
  int allocPreferring(const Operand &A, const Operand &B);

  void free(int R);

  /// Frees every allocatable register the operand references (Reg base,
  /// Disp/Indexed/deferred bases, index registers), except \p KeepReg.
  void reclaim(const Operand &O, int KeepReg = -1);

  /// Pins a register so the spiller will not pick it (registers embedded
  /// in composite addressing modes cannot be rewritten after a spill).
  void pin(int R);
  void unpin(int R);

  /// Claims a specific free register (used for r0 after library calls).
  void claim(int R);

  /// Forces \p R free by spilling its current value. Returns false (with
  /// a recoverable error reported) if the register is pinned or not
  /// relocatable; the register stays busy in that case.
  bool evict(int R);

  /// True if evict(R) would succeed (busy, unpinned, relocatable) —
  /// callers with an alternative strategy probe this instead of letting
  /// evict report an error.
  bool canEvict(int R) const {
    return isAllocatable(R) && Busy[R] && PinCount[R] == 0 && Spillable(R);
  }

  /// Transfers busy state and pins from \p From to \p To (register-to-
  /// register relocation; \p To must be freshly allocated by the caller).
  void transferPins(int From, int To) {
    if (isAllocatable(From) && isAllocatable(To)) {
      PinCount[To] += PinCount[From];
      PinCount[From] = 0;
    }
  }

  bool isBusy(int R) const { return Busy[R]; }
  int numFree() const;

  const RegAllocStats &stats() const { return Stats; }
  void noteUnspill() { ++Stats.Unspills; }

  /// Resets all allocation state (between statements the expression stack
  /// must be empty; this asserts nothing is still live). Also clears any
  /// sticky error.
  void resetForStatement();

  /// True if any register is still busy (diagnostic for leak checks).
  bool anyBusy() const;

  /// First recoverable error since the last resetForStatement(), or empty.
  /// Errors are sticky so a caller without an OnError callback can still
  /// detect failure after the fact.
  const std::string &lastError() const { return LastError; }
  bool hasError() const { return !LastError.empty(); }

private:
  std::function<void(int, const Operand &)> SpillStore;
  std::function<int()> AllocSpillCell;
  std::function<bool(int)> Spillable;
  std::function<void(const std::string &)> OnError;
  bool Busy[RegLastAlloc + 1] = {};
  int PinCount[RegLastAlloc + 1] = {};
  std::vector<int> BusyOrder; ///< allocation order; front = oldest
  RegAllocStats Stats;
  std::string LastError;

  bool spillOne();
  /// Stores \p R's value to a fresh virtual register and frees \p R.
  void spill(int R);
  void markBusy(int R);
  void reportError(const std::string &Message);
  /// Highest allocatable register, honoring an injected cap-regs fault.
  int lastAllocatable() const;
};

} // namespace gg

#endif // GG_VAX_REGISTERMANAGER_H
