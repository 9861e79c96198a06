//===- Packing.h - packed parse tables --------------------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compressed parse tables. The paper notes its code generator spends much
/// of its time "manipulating and unpacking the description tables"; here
/// both lookups are constant time, so the matcher's inner loop pays a few
/// loads per step and no search.
///
/// Each parser state has one row of a flat array, at a stride of RowWords
/// 64-bit words set from the terminal count. The row holds one presence
/// mask per 64 terminals, then 4-byte cells: per mask word the index of
/// its first exception, the row's default action and the offset of the
/// state's goto row. Action rows are deduplicated before they are laid
/// out: each distinct row keeps its most frequent entry as the default
/// and stores the rest once, in terminal order, in one flat exception
/// array, and states with equal rows share those exceptions. actionAt is
/// then a mask test and a popcount rank on the state's own row, with no
/// row-index load in between; gotoAt reads the goto offset from the same
/// row. Goto rows are deduplicated too and stored dense (a grammar has
/// only a few nonterminals). Actions are packed into 4 bytes: the kind in
/// the low two bits, the Tie bit, and the target above them. The layout
/// is chosen here, at pack time: the serialized table format, its
/// checksum and the table fingerprint do not see it.
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
#include <cstdint>
#include <cstring>
#include <vector>

namespace gg {

/// The number of set bits in \p X, branch-free and inline. At the x86-64
/// baseline (no POPCNT) std::popcount is a call into libgcc; this SWAR
/// count is a dozen register operations.
constexpr int popcount64(uint64_t X) {
  X -= (X >> 1) & 0x5555555555555555ull;
  X = (X & 0x3333333333333333ull) + ((X >> 2) & 0x3333333333333333ull);
  X = (X + (X >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return static_cast<int>((X * 0x0101010101010101ull) >> 56);
}

/// Compressed tables with the same lookup interface as LRTables.
class PackedTables {
public:
  /// Builds packed tables from dense ones, which may be discarded
  /// afterwards: a DynChoices point survives as its entry's Tie bit.
  static PackedTables pack(const LRTables &T);

  Action actionAt(int State, int TermIdx) const {
    const uint64_t *Row = row(State);
    const unsigned W = static_cast<unsigned>(TermIdx) >> 6;
    const uint64_t Bit = uint64_t(1) << (TermIdx & 63);
    const uint64_t Mask = Row[W];
    if (!(Mask & Bit))
      return unpack(cell(Row, MaskWords));
    return unpack(Exceptions[cell(Row, W) + popcount64(Mask & (Bit - 1))]);
  }

  /// The goto target, or -1 for none.
  int32_t gotoAt(int State, int NtIdx) const {
    return Gotos[cell(row(State), MaskWords + 1) + NtIdx];
  }

  int numStates() const { return NumStates; }
  int numTerms() const { return NumTerms; }
  int numNonterms() const { return NumNonterms; }
  /// Dynamic-tie points carried over from the constructor (the coverage
  /// profiler's denominator for dynamic-tie utilization).
  size_t numDynPoints() const { return NumDynPoints; }
  /// Distinct action rows: states with equal rows share their exceptions.
  size_t numActionRows() const { return NumActionRows; }
  size_t numGotoRows() const {
    return NumNonterms ? Gotos.size() / NumNonterms : 0;
  }

  /// Footprint of the lookup arrays in bytes (experiments E1/E9).
  size_t memoryBytes() const;

private:
  const uint64_t *row(int State) const {
    return Rows.data() + static_cast<size_t>(State) * RowWords;
  }
  /// The 4-byte cell \p I of the row tail that follows the masks.
  int32_t cell(const uint64_t *Row, unsigned I) const {
    int32_t V;
    std::memcpy(&V, reinterpret_cast<const char *>(Row + MaskWords) + 4 * I,
                sizeof V);
    return V;
  }
  static Action unpack(int32_t A) {
    return Action(static_cast<ActionType>(A & 3), A >> 3, (A & 4) != 0);
  }

  int NumStates = 0, NumTerms = 0, NumNonterms = 0;
  unsigned MaskWords = 0; ///< 64-terminal presence words per row
  unsigned RowWords = 0;  ///< row stride: the masks, then the 4-byte cells
  size_t NumDynPoints = 0, NumActionRows = 0;
  /// Per state: MaskWords masks; then cells, per mask word its first
  /// exception, the default action and the goto-row offset.
  std::vector<uint64_t> Rows;
  std::vector<int32_t> Exceptions; ///< packed actions, in terminal order
  std::vector<int32_t> Gotos;      ///< per goto row x NumNonterms
};

} // namespace gg

#endif // GG_TABLEGEN_PACKING_H
