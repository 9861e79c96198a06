//===- InstrTable.h - the hand-written instruction table --------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hand-written instruction table of paper section 5.3.1 (Figure 3).
/// Each cluster distinguishes among instructions sharing one syntactic
/// pattern: the three-operand form, the two-operand form selected by the
/// *binding idiom* (a source matches the destination), and the variant
/// selected by the *range idiom* (a source is a constant in a special,
/// possibly degenerate, range) — e.g. ADD -> addl3 / addl2 / incl.
///
//===----------------------------------------------------------------------===//

#ifndef GG_VAX_INSTRTABLE_H
#define GG_VAX_INSTRTABLE_H

#include "ir/Type.h"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace gg {

/// Which range-idiom recognizer applies to a cluster. The recognizers
/// themselves are "functions written in C following a relatively
/// straightforward coding style" (§5.3.2) — see VaxSemantics.cpp.
enum class RangeIdiom : uint8_t {
  None,
  AddSub, ///< +-1 -> inc/dec, +-0 -> mov (or nothing once bound)
  Mov,    ///< $0 -> clr; mov x,x -> elided
  Mul,    ///< power-of-two -> ashl (long only)
  Div,    ///< /1 -> mov
  Cmp,    ///< cmp x,$0 -> tst
  BisXor, ///< |$0 / ^$0 -> mov (or nothing once bound)
};

/// How the generic operation maps onto hardware.
enum class ClusterKind : uint8_t {
  Arith3,  ///< opX3 s1,s2,dst / opX2 s,dst family
  Unary2,  ///< opX src,dst (mneg, mcom)
  Move,    ///< movX / clrX
  Special, ///< expanded in code (and/bic, shifts, mod, unsigned div)
};

/// One instruction-table cluster (a row group of Figure 3).
struct InstCluster {
  const char *Tag;     ///< semantic-tag base ("add", "sub", ...)
  ClusterKind Kind;
  const char *OpBase;  ///< mnemonic base ("add" -> addb3/addw3/addl3)
  bool Swappable;      ///< Figure 3's "-o-o": sources may be exchanged
  RangeIdiom Range;
  const char *Note;    ///< for the Figure-3 style dump
};

/// Looks up the cluster for a semantic-tag base; null if absent.
const InstCluster *findCluster(std::string_view TagBase);

/// The table's rows in Figure-3 order: the dense row ids clusterId()
/// returns and the `instr_rows` dimension of `gg-coverage-v1` artifacts.
/// Semantic routines that consult a fixed row name it here, so no row is
/// looked up by tag at code-generation time.
enum InstRow : uint8_t {
  RowAdd, RowSub, RowMul, RowDiv, RowMod, RowAnd, RowBis, RowXor,
  RowAsh, RowRsh, RowMov, RowNeg, RowCom, RowCmp, RowPush,
};

size_t numClusters();
const InstCluster &clusterAt(size_t Row);
int clusterId(const InstCluster &C);

/// Renders the whole instruction table in the style of Figure 3.
std::string renderInstrTable();

/// A mnemonic's spelling held inline: at most seven characters,
/// NUL-padded, so an instruction record carries it without a heap string.
class Spelling {
public:
  static constexpr size_t MaxLen = 7;

  Spelling() = default;
  Spelling(std::string_view S) {
    assert(S.size() <= MaxLen && "mnemonic spelling too long");
    S.copy(Text, MaxLen);
  }
  Spelling(const char *S) : Spelling(std::string_view(S)) {}
  Spelling(const std::string &S) : Spelling(std::string_view(S)) {}

  std::string_view view() const { return {Text, strnlen(Text, MaxLen)}; }
  friend bool operator==(const Spelling &A, const Spelling &B) {
    return memcmp(A.Text, B.Text, sizeof(Text)) == 0;
  }

private:
  char Text[MaxLen + 1] = {};
};

/// Every sized spelling instruction generation emits, composed once: the
/// rows' mnemonic bases by size class and operand count, the range-idiom
/// forms, the conversions and the conditional branches. Size classes are
/// the letters 'b', 'w' and 'l'.
class SpellingTable {
public:
  SpellingTable();

  /// Row \p R's base at size class \p SC with the operand-count digit
  /// \p NumOps (0 omits it): (RowAdd, 'l', 3) -> "addl3", (RowNeg, 'b') ->
  /// "mnegb".
  Spelling row(InstRow R, char SC, int NumOps = 0) const {
    return Rows[R][sizeIndex(SC)][NumOps ? NumOps - 1 : 0];
  }
  Spelling clr(char SC) const { return Clr[sizeIndex(SC)]; }
  Spelling tst(char SC) const { return Tst[sizeIndex(SC)]; }
  Spelling incDec(bool Up, char SC) const {
    return (Up ? Inc : Dec)[sizeIndex(SC)];
  }
  /// cvtXY, or movzXY when \p ZeroExtend.
  Spelling convert(char From, char To, bool ZeroExtend) const {
    return Convert[ZeroExtend][sizeIndex(From)][sizeIndex(To)];
  }
  /// The conditional branch on \p C: "jeql", "jlssu", ...
  Spelling branch(Cond C) const { return Branch[static_cast<size_t>(C)]; }
  /// The condition \p S branches on, if it is a conditional branch.
  bool branchCond(Spelling S, Cond &C) const;

private:
  static constexpr int NumConds = static_cast<int>(Cond::UGE) + 1;
  static size_t sizeIndex(char SC) { return SC == 'b' ? 0 : SC == 'w' ? 1 : 2; }

  Spelling Rows[RowPush + 1][3][3];
  Spelling Clr[3], Tst[3], Inc[3], Dec[3];
  Spelling Convert[2][3][3];
  Spelling Branch[NumConds];
};

/// The spelling table, built on first use; VaxTarget::create builds it, so
/// a worker's replay only reads it.
const SpellingTable &spellings();

} // namespace gg

#endif // GG_VAX_INSTRTABLE_H
