//===- Packing.cpp - packed parse tables -----------------------------------===//

#include "tablegen/Packing.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

using namespace gg;

namespace {
/// Row-dedup key of one action entry: its kind with the tie bit on top in
/// the high word, its target in the low word. Two states share a packed
/// row only if their ties agree too.
constexpr uint64_t TieKeyBit = 0x80;

uint64_t keyOf(const Action &A, bool Tie) {
  return (static_cast<uint64_t>(static_cast<uint8_t>(A.Kind)) |
          (Tie ? TieKeyBit : 0))
             << 32 |
         static_cast<uint32_t>(A.Target);
}

/// The 4-byte form of key \p K (PackedTables::unpack reads it back): the
/// kind in bits 0-1, the tie bit in bit 2, the target above them.
int32_t packedOf(uint64_t K) {
  const int32_t Target = static_cast<int32_t>(static_cast<uint32_t>(K));
  assert(Target >= -(1 << 28) && Target < (1 << 28) &&
         "action target does not fit a packed entry");
  return static_cast<int32_t>(static_cast<uint32_t>(Target) << 3) |
         (((K >> 32) & TieKeyBit) ? 4 : 0) |
         static_cast<int32_t>((K >> 32) & 3);
}

/// Deduplicates the \p NumRows rows of \p Width cells each in \p Cells.
/// Fills \p RowOf with each row's class and returns, per class in order of
/// first appearance, the first row that has it.
template <typename Cell>
std::vector<size_t> dedupRows(const Cell *Cells, size_t NumRows, size_t Width,
                              std::vector<int32_t> &RowOf) {
  std::vector<size_t> First;
  std::unordered_map<uint64_t, int32_t> ByHash;
  ByHash.reserve(NumRows);
  RowOf.resize(NumRows);
  for (size_t R = 0; R < NumRows; ++R) {
    const Cell *Row = Cells + R * Width;
    uint64_t H = 1469598103934665603ull;
    for (size_t I = 0; I < Width; ++I)
      H = (H ^ static_cast<uint64_t>(Row[I])) * 1099511628211ull;
    // A hash shared by two different rows probes on to the next key.
    for (;; ++H) {
      auto [It, Inserted] =
          ByHash.try_emplace(H, static_cast<int32_t>(First.size()));
      if (Inserted)
        First.push_back(R);
      else if (!std::equal(Row, Row + Width, Cells + First[It->second] * Width))
        continue;
      RowOf[R] = It->second;
      break;
    }
  }
  return First;
}
} // namespace

PackedTables PackedTables::pack(const LRTables &T) {
  TraceSpan Span("tablegen.pack");
  PackedTables P;
  P.NumStates = T.NumStates;
  P.NumTerms = T.NumTerms;
  P.NumNonterms = T.NumNonterms;
  P.NumDynPoints = T.DynChoices.size();
  const size_t NumTerms = T.NumTerms;

  // Entry keys, row major. A reduce at a DynChoices point carries the tie
  // bit, so no one probes the DynChoices map after packing.
  std::vector<uint64_t> Keys(T.Actions.size());
  for (size_t I = 0; I < Keys.size(); ++I)
    Keys[I] = keyOf(T.Actions[I], false);
  for (const auto &Choice : T.DynChoices) {
    const uint64_t S = Choice.first >> 32;
    const uint32_t TI = static_cast<uint32_t>(Choice.first);
    if (S >= static_cast<uint64_t>(T.NumStates) || TI >= NumTerms)
      continue;
    const size_t I = S * NumTerms + TI;
    if (T.Actions[I].Kind == ActionType::Reduce)
      Keys[I] = keyOf(T.Actions[I], true);
  }

  // Per distinct action row: its default, and per mask word its presence
  // bits and the index of its first exception.
  std::vector<int32_t> ActionRowOf;
  const std::vector<size_t> ActionFirst =
      dedupRows(Keys.data(), T.NumStates, NumTerms, ActionRowOf);
  P.NumActionRows = ActionFirst.size();
  P.MaskWords = static_cast<unsigned>((NumTerms + 63) / 64);
  const size_t TailCells = P.MaskWords + 2;
  std::vector<uint64_t> Masks(ActionFirst.size() * P.MaskWords, 0);
  // The cells of each distinct row; its last, the goto-row offset, is
  // filled per state when the rows are laid out below.
  std::vector<int32_t> Tails(ActionFirst.size() * TailCells, 0);
  std::vector<uint64_t> Sorted;
  for (size_t R = 0; R < ActionFirst.size(); ++R) {
    const uint64_t *Row = Keys.data() + ActionFirst[R] * NumTerms;
    // The row default is its most frequent entry, the smallest key among
    // equally frequent ones.
    Sorted.assign(Row, Row + NumTerms);
    std::sort(Sorted.begin(), Sorted.end());
    uint64_t Best = keyOf(Action(), false);
    size_t BestN = 0;
    for (size_t I = 0, J; I < Sorted.size(); I = J) {
      for (J = I + 1; J < Sorted.size() && Sorted[J] == Sorted[I]; ++J)
        ;
      if (J - I > BestN) {
        BestN = J - I;
        Best = Sorted[I];
      }
    }
    int32_t *Tail = Tails.data() + R * TailCells;
    Tail[P.MaskWords] = packedOf(Best);
    for (size_t TI = 0; TI < NumTerms; ++TI) {
      if (TI % 64 == 0)
        Tail[TI / 64] = static_cast<int32_t>(P.Exceptions.size());
      if (Row[TI] != Best) {
        Masks[R * P.MaskWords + TI / 64] |= uint64_t(1) << (TI % 64);
        P.Exceptions.push_back(packedOf(Row[TI]));
      }
    }
  }

  std::vector<int32_t> GotoRowOf;
  const std::vector<size_t> GotoFirst =
      dedupRows(T.Gotos.data(), T.NumStates, T.NumNonterms, GotoRowOf);
  P.Gotos.reserve(GotoFirst.size() * T.NumNonterms);
  for (size_t S : GotoFirst) {
    const int32_t *Row = T.Gotos.data() + S * T.NumNonterms;
    P.Gotos.insert(P.Gotos.end(), Row, Row + T.NumNonterms);
  }

  // One row per state: its class's masks and cells, and its goto offset.
  P.RowWords = P.MaskWords + static_cast<unsigned>((TailCells + 1) / 2);
  P.Rows.assign(static_cast<size_t>(T.NumStates) * P.RowWords, 0);
  for (int St = 0; St < T.NumStates; ++St) {
    uint64_t *Row = P.Rows.data() + static_cast<size_t>(St) * P.RowWords;
    const size_t R = ActionRowOf[St];
    std::copy_n(Masks.data() + R * P.MaskWords, P.MaskWords, Row);
    int32_t *Tail = Tails.data() + R * TailCells;
    Tail[P.MaskWords + 1] = GotoRowOf[St] * T.NumNonterms;
    std::memcpy(Row + P.MaskWords, Tail, TailCells * sizeof(int32_t));
  }

  StatsRegistry &S = stats();
  S.counter("tablegen.packed.action_rows") += P.numActionRows();
  S.counter("tablegen.packed.goto_rows") += P.numGotoRows();
  S.counter("tablegen.packed.bytes") += P.memoryBytes();
  Span.arg("bytes", static_cast<int64_t>(P.memoryBytes()));
  Span.arg("action_rows", static_cast<int64_t>(P.numActionRows()));
  return P;
}

size_t PackedTables::memoryBytes() const {
  return Rows.size() * sizeof(uint64_t) +
         (Exceptions.size() + Gotos.size()) * sizeof(int32_t);
}
