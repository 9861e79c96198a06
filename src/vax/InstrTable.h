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

#include <cstdint>
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

/// Composes a sized mnemonic: ("add", 'l', 3) -> "addl3"; NumOps 0 omits
/// the operand-count digit ("mnegl", "cmpl", "tstl").
std::string mnemonic(const char *Base, char SizeChar, int NumOps = 0);

} // namespace gg

#endif // GG_VAX_INSTRTABLE_H
