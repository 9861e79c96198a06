//===- Packing.h - packed parse tables --------------------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compressed parse tables. Rows are deduplicated and stored sparsely as a
/// default action plus sorted exceptions. The pattern matcher runs off
/// this representation — the paper notes its code generator spends much of
/// its time "manipulating and unpacking the description tables", and the
/// binary-search lookup here reproduces that cost profile honestly (it
/// stays until row-displacement "comb-vector" packing replaces it).
///
/// Each packed Reduce entry carries a Tie bit, set at pack time for every
/// (state, terminal) with a DynChoices list, so the driver learns of a
/// deferred reduce/reduce tie from the entry it already looked up instead
/// of probing DynChoices on every reduce. Deserialized tables get the bit
/// the same way, since they are packed after loading; the bit is not part
/// of the serialized format, its checksum or the table fingerprint.
///
//===----------------------------------------------------------------------===//

#ifndef GG_TABLEGEN_PACKING_H
#define GG_TABLEGEN_PACKING_H

#include "tablegen/LRTables.h"

#include <cstddef>
#include <vector>

namespace gg {

/// One deduplicated sparse action row.
struct PackedActionRow {
  Action Default;
  std::vector<std::pair<int32_t, Action>> Except; ///< sorted by terminal
};

/// One deduplicated sparse goto row.
struct PackedGotoRow {
  std::vector<std::pair<int32_t, int32_t>> Entries; ///< sorted by nonterm
};

/// Compressed tables with the same lookup interface as LRTables.
class PackedTables {
public:
  /// Builds packed tables from dense ones, which may be discarded
  /// afterwards: a DynChoices point survives as its entry's Tie bit.
  static PackedTables pack(const LRTables &T);

  Action actionAt(int State, int TermIdx) const;
  int32_t gotoAt(int State, int NtIdx) const;

  int numStates() const { return NumStates; }
  int numTerms() const { return NumTerms; }
  int numNonterms() const { return NumNonterms; }
  /// Dynamic-tie points carried over from the constructor (the coverage
  /// profiler's denominator for dynamic-tie utilization).
  size_t numDynPoints() const { return NumDynPoints; }
  size_t numActionRows() const { return ActionRows.size(); }
  size_t numGotoRows() const { return GotoRows.size(); }

  /// Approximate footprint in bytes (experiments E1/E9).
  size_t memoryBytes() const;

private:
  int NumStates = 0, NumTerms = 0, NumNonterms = 0;
  std::vector<int32_t> ActionRowOf, GotoRowOf; ///< per state
  std::vector<PackedActionRow> ActionRows;
  std::vector<PackedGotoRow> GotoRows;
  size_t NumDynPoints = 0;
};

} // namespace gg

#endif // GG_TABLEGEN_PACKING_H
