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
/// Action rows are deduplicated. Each row keeps its most frequent entry as
/// the default and stores the rest once, in terminal order, in one flat
/// exception array shared by all rows. A row has one 64-bit presence mask
/// per 64 terminals, plus the exception-array index of each mask word's
/// first exception, so actionAt is a mask test and a popcount rank. Goto
/// rows are deduplicated too and stored dense (a grammar has only a few
/// nonterminals). The layout is chosen here, at pack time: the serialized
/// table format, its checksum and the table fingerprint do not see it.
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
    const size_t Row = ActionRowOf[State];
    const size_t W = Row * MaskWords + (static_cast<unsigned>(TermIdx) >> 6);
    const uint64_t Bit = uint64_t(1) << (TermIdx & 63);
    const uint64_t Mask = Masks[W];
    if (!(Mask & Bit))
      return Defaults[Row];
    return Exceptions[WordBase[W] + popcount64(Mask & (Bit - 1))];
  }

  /// The goto target, or -1 for none.
  int32_t gotoAt(int State, int NtIdx) const {
    return Gotos[static_cast<size_t>(GotoRowOf[State]) * NumNonterms + NtIdx];
  }

  int numStates() const { return NumStates; }
  int numTerms() const { return NumTerms; }
  int numNonterms() const { return NumNonterms; }
  /// Dynamic-tie points carried over from the constructor (the coverage
  /// profiler's denominator for dynamic-tie utilization).
  size_t numDynPoints() const { return NumDynPoints; }
  size_t numActionRows() const { return Defaults.size(); }
  size_t numGotoRows() const {
    return NumNonterms ? Gotos.size() / NumNonterms : 0;
  }

  /// Footprint of the lookup arrays in bytes (experiments E1/E9).
  size_t memoryBytes() const;

private:
  int NumStates = 0, NumTerms = 0, NumNonterms = 0;
  int MaskWords = 0;                   ///< 64-terminal words per action row
  size_t NumDynPoints = 0;
  std::vector<int32_t> ActionRowOf, GotoRowOf; ///< per state
  std::vector<Action> Defaults;        ///< per action row
  std::vector<uint64_t> Masks;         ///< per action row x MaskWords
  std::vector<int32_t> WordBase;       ///< per mask word: first exception
  std::vector<Action> Exceptions;      ///< all rows, in terminal order
  std::vector<int32_t> Gotos;          ///< per goto row x NumNonterms
};

} // namespace gg

#endif // GG_TABLEGEN_PACKING_H
