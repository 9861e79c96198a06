//===- VaxSemantics.h - phase-3 instruction generation ----------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The post-pattern-matching phase (paper section 5.3): replays the
/// matcher's reductions, running one semantic action per reduction.
/// Encapsulating reductions condense attributes into operand descriptors;
/// emitting reductions perform instruction selection through the
/// hand-written instruction table, idiom recognition (binding and range
/// idioms, §5.3.2), pseudo-instruction expansion (signed modulus,
/// unsigned division via library call), register management, and finally
/// output formatting (§5.4).
///
/// This mirrors the paper's organization: these routines are the
/// "VAX-specific routines hand-coded in C" standing behind the grammar's
/// semantic tags. The tags are decoded once, when the target is built
/// (decodeSemActions), so a reduction dispatches on a SemOp instead of
/// parsing and comparing its tag string.
///
//===----------------------------------------------------------------------===//

#ifndef GG_VAX_VAXSEMANTICS_H
#define GG_VAX_VAXSEMANTICS_H

#include "ir/Program.h"
#include "match/Matcher.h"
#include "vax/Emitter.h"
#include "vax/InstrTable.h"
#include "vax/RegisterManager.h"

#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace gg {

/// Knobs for the idiom ablation (experiment E6). The idiom recognizer is
/// "optional in the sense that if it were omitted, correct code would
/// still be generated" — pseudo-instruction expansion is not optional and
/// always runs.
struct CgOptions {
  bool BindingIdioms = true; ///< 3-address -> 2-address when bound
  bool RangeIdioms = true;   ///< inc/dec/clr/tst/ashl specializations
  bool CCTracking = true;    ///< skip tst when condition codes are set
};

/// Counters reported by the idiom experiment.
struct IdiomStats {
  unsigned BindingApplied = 0;
  unsigned RangeApplied = 0;
  unsigned CCTestsElided = 0;
  unsigned PseudoExpansions = 0;
};

/// What a production's semantic action does: one enumerator per tag base
/// the routines below handle. The arithmetic families share one operand
/// layout table (ArithShape) and differ in how the instruction is chosen.
enum class SemOp : uint8_t {
  Unknown, ///< no routine for the tag: replay fails, the ladder recovers
  Glue,
  // Encapsulating reductions: addressing-mode condensation.
  Imm, ImmSym, ConWiden, DregLoc, UseDreg, Abs, GAbs, RegDef, Disp, Def,
  DxDisp, DxReg, DxAbs, AutoInc, AutoDec,
  // Emitting reductions: instruction selection.
  Load, LoadCon, CvtM, CvtR, Cvt, CvtA, CvtAS, Mov, MovR,
  Arith, ArithDiv, ArithMod, ArithAnd, ArithAsh, ArithRsh,
  Neg, Com, Neg2, Com2, Neg2S, Com2S, CmpBr, TstBr, DregBr, Push, PostInc,
  PreDec, BridgeDx1, BridgeDx2, BridgeDx3
};

/// Operand layout of one three-address arithmetic tag (VaxSemantics.cpp).
struct ArithShape;

/// One production's semantic tag, decoded: the routine, the size classes
/// the tag names and, for arithmetic, the operand layout and the Figure-3
/// row. "add3s_w" decodes to {Arith, 'w', 0, add3s, add}.
struct SemAction {
  SemOp Op = SemOp::Unknown;
  char SC1 = 0, SC2 = 0; ///< size-class letters ('b', 'w', 'l'), 0 = none
  const ArithShape *Shape = nullptr;    ///< arithmetic only
  const InstCluster *Cluster = nullptr; ///< arithmetic only
};

/// Decodes the semantic tag of every production of \p G, indexed by
/// production id. An unknown tag decodes to SemOp::Unknown; it fails only
/// when a reduction by it is replayed.
std::vector<SemAction> decodeSemActions(const Grammar &G);

/// The tag base \p A was decoded from ("add3s", "imm", ...); "" for Glue
/// and Unknown.
const char *semActionBase(const SemAction &A);

/// One semantic value on the replay stack: the operand an encapsulating
/// reduction condensed, or the IR leaf a shift captured.
struct SemVal {
  Operand Opnd;
  const Node *Leaf = nullptr;
};

/// Per-function instruction generation state.
class VaxSemantics {
public:
  VaxSemantics(AsmEmitter &Emit, Function &F, const CgOptions &Opts);

  /// Replays one matched statement tree of \p G, whose decoded actions
  /// are \p Acts. On failure sets \p Err (this indicates a
  /// description/semantics bug, not bad input).
  bool replay(const Grammar &G, const std::vector<SemAction> &Acts,
              std::span<const LinToken> Input,
              std::span<const MatchStep> Steps, std::string &Err);

  /// Statement-level helpers used by the driver between matched trees.
  void emitLabel(InternedString L);
  void emitJump(InternedString L);
  void emitCall(InternedString Fn, int NumArgs);
  void emitRet();

  RegisterManager &regs() { return RM; }
  const RegAllocStats &regStats() const { return RM.stats(); }
  const IdiomStats &idiomStats() const { return Idioms; }
  void invalidateCC() { LastCCReg = -1; }

  /// Discards all per-statement state after a failed match or replay so
  /// the next statement starts clean — the degradation ladder calls this
  /// before splicing in fallback code for the failed tree.
  void resetAfterFailure();

private:
  AsmEmitter &Emit;
  Function &F;
  CgOptions Opts;
  const SpellingTable &Spell;
  RegisterManager RM;
  IdiomStats Idioms;
  std::vector<SemVal> Stack;
  size_t FrameBase = 0;  ///< stack index where the in-flight reduction starts
  int LastCCReg = -1;    ///< register whose value the condition codes hold
  char LastCCSize = 0;   ///< size class character of that value
  std::string ReplayErr; ///< sticky error from a semantic action

  void fail(const std::string &Message);

  // --- operand plumbing --------------------------------------------------
  void spillStore(int Reg, const Operand &Cell);
  bool isSpillable(int Reg) const;
  void prepare(Operand &O);              ///< unspill if needed
  Operand ensureReg(Operand O, char SC); ///< load into a register
  Operand stabilize(Operand O, char SC); ///< strip side-effecting modes
  void setCC(const Operand &O, char SC);

  void emitInst(Spelling Op, std::initializer_list<Operand> Ops);

  // --- reduction dispatch --------------------------------------------------
  SemVal dispatch(const Production &P, const SemAction &A, SemVal *Vals,
                  size_t N);
  SemVal doEncap(const Production &P, const SemAction &A, SemVal *Vals);
  SemVal doEmit(const Production &P, const SemAction &A, SemVal *Vals,
                size_t N);
  Operand doArith(const SemAction &A, SemVal *Vals);

  // --- instruction families -------------------------------------------------
  /// Three-operand arithmetic with idioms; returns the result operand.
  /// \p Dst null means "allocate a register destination".
  Operand arith(const InstCluster &C, char SC, bool IsUnsigned, Operand S1,
                Operand S2, const Operand *Dst);
  void move(char SC, Operand Src, Operand Dst);
  /// mneg/mcom: the neg (\p Row = RowNeg) or com row of Figure 3.
  Operand unary2(InstRow Row, char SC, Operand Src, const Operand *Dst);
  Operand convert(char FromSC, char ToSC, bool SrcUnsigned, Operand Src,
                  const Operand *Dst);
  Operand andOp(char SC, Operand S1, Operand S2, const Operand *Dst);
  Operand shift(char SC, bool Right, bool IsUnsigned, Operand Val,
                Operand Cnt, const Operand *Dst);
  Operand modulus(char SC, bool IsUnsigned, Operand A, Operand B,
                  const Operand *Dst);
  Operand libCall2(const char *Fn, Operand A, Operand B, const Operand *Dst);
  void compareBranch(char SC, Cond C, Operand A, Operand B,
                     InternedString Target);
  Operand bridgeAddress(char MemSC, Operand *ConOpt, Operand *BaseOpt,
                        Operand S1, Operand S2);
};

} // namespace gg

#endif // GG_VAX_VAXSEMANTICS_H
