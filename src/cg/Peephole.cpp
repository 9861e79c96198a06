//===- Peephole.cpp - assembly-level peephole optimizer ------------------------===//

#include "cg/Peephole.h"
#include "support/Trace.h"

#include <unordered_map>

using namespace gg;

namespace {

bool isUncondBranch(const AsmRecord &R) {
  return R.isInst() && (R.Op == Spelling("brw") || R.Op == Spelling("brb") ||
                        R.Op == Spelling("jbr"));
}

bool isCondBranch(const AsmRecord &R, Cond &C) {
  return R.isInst() && spellings().branchCond(R.Op, C);
}

class PeepholePass {
public:
  explicit PeepholePass(std::vector<AsmRecord> &Recs) : Recs(Recs) {}

  PeepholeStats run() {
    for (int Round = 0; Round < 8; ++Round) {
      bool Changed = false;
      Changed |= collapseChains();
      Changed |= invertOverUncond();
      Changed |= removeBranchToNext();
      Changed |= removeUnreachable();
      if (!Changed)
        break;
    }
    return Stats;
  }

private:
  std::vector<AsmRecord> &Recs;
  PeepholeStats Stats;

  void erase(size_t I) { Recs.erase(Recs.begin() + I); }

  bool isCode(size_t I) const {
    return Recs[I].K == AsmRecord::Kind::Inst ||
           Recs[I].K == AsmRecord::Kind::Directive;
  }

  /// Index of the next record that is not a label or blank, from I.
  size_t nextCode(size_t I) const {
    while (I < Recs.size() && !isCode(I))
      ++I;
    return I;
  }

  /// True if label \p Name is among the labels in [From, To).
  bool labelInRange(InternedString Name, size_t From, size_t To) const {
    for (size_t I = From; I < To && I < Recs.size(); ++I)
      if (Recs[I].K == AsmRecord::Kind::Label && Recs[I].Label == Name)
        return true;
    return false;
  }

  bool removeBranchToNext() {
    bool Changed = false;
    for (size_t I = 0; I < Recs.size(); ++I) {
      if (!isUncondBranch(Recs[I]))
        continue;
      if (labelInRange(Recs[I].Ops[0].Sym, I + 1, nextCode(I + 1))) {
        erase(I);
        ++Stats.BranchToNextRemoved;
        Changed = true;
        --I;
      }
    }
    return Changed;
  }

  bool invertOverUncond() {
    bool Changed = false;
    for (size_t I = 0; I + 2 < Recs.size(); ++I) {
      Cond C;
      if (!isCondBranch(Recs[I], C) || !isUncondBranch(Recs[I + 1]))
        continue;
      // jCC L1; brw L2; ... L1 among the labels immediately following.
      if (!labelInRange(Recs[I].Ops[0].Sym, I + 2, nextCode(I + 2)))
        continue;
      // j!CC L2: the brw's target under the inverted condition. No
      // production emitted this branch, so it carries no annotation.
      Recs[I] = Recs[I + 1];
      Recs[I].Op = spellings().branch(negateCond(C));
      Recs[I].Production = -1;
      erase(I + 1);
      ++Stats.BranchesInverted;
      Changed = true;
    }
    return Changed;
  }

  bool collapseChains() {
    bool Changed = false;
    std::unordered_map<uint32_t, size_t> Labels;
    for (size_t I = 0; I < Recs.size(); ++I)
      if (Recs[I].K == AsmRecord::Kind::Label)
        Labels[Recs[I].Label.id()] = I;
    for (size_t I = 0; I < Recs.size(); ++I) {
      Cond C;
      if (!isUncondBranch(Recs[I]) && !isCondBranch(Recs[I], C))
        continue;
      InternedString Target = Recs[I].Ops[0].Sym;
      auto It = Labels.find(Target.id());
      if (It == Labels.end())
        continue;
      size_t Dest = nextCode(It->second + 1);
      if (Dest >= Recs.size() || !isUncondBranch(Recs[Dest]))
        continue;
      InternedString Final = Recs[Dest].Ops[0].Sym;
      if (Final == Target)
        continue; // self-loop; leave it
      Recs[I].Ops[0].Sym = Final;
      ++Stats.ChainsCollapsed;
      Changed = true;
    }
    return Changed;
  }

  bool removeUnreachable() {
    bool Changed = false;
    for (size_t I = 0; I < Recs.size(); ++I) {
      if (!isUncondBranch(Recs[I]) &&
          !(Recs[I].isInst() && Recs[I].Op == Spelling("ret")))
        continue;
      // Delete instructions until a label, directive or blank line.
      while (I + 1 < Recs.size() && Recs[I + 1].isInst()) {
        erase(I + 1);
        ++Stats.UnreachableRemoved;
        Changed = true;
      }
    }
    return Changed;
  }
};

} // namespace

PeepholeStats gg::runPeephole(std::vector<AsmRecord> &Records) {
  TraceSpan Span("cg.peephole");
  PeepholePass Pass(Records);
  PeepholeStats PS = Pass.run();
  Span.arg("rewrites", PS.total());
  return PS;
}
