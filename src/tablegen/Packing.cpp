//===- Packing.cpp - packed parse tables -----------------------------------===//

#include "tablegen/Packing.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <algorithm>
#include <map>

using namespace gg;

namespace {
/// Row-dedup key of one entry: its kind with the tie bit on top, and its
/// target. Two states share a packed row only if their ties agree too.
using EntryKey = std::pair<uint8_t, int32_t>;
constexpr uint8_t TieKeyBit = 0x80;

EntryKey keyOf(const Action &A) {
  return {static_cast<uint8_t>(static_cast<uint8_t>(A.Kind) |
                               (A.Tie ? TieKeyBit : 0)),
          A.Target};
}

Action actionOf(const EntryKey &K) {
  return Action(static_cast<ActionType>(K.first & ~TieKeyBit), K.second,
                (K.first & TieKeyBit) != 0);
}
} // namespace

PackedTables PackedTables::pack(const LRTables &T) {
  TraceSpan Span("tablegen.pack");
  PackedTables P;
  P.NumStates = T.NumStates;
  P.NumTerms = T.NumTerms;
  P.NumNonterms = T.NumNonterms;
  P.NumDynPoints = T.DynChoices.size();

  // Deduplicate action rows keyed by their full contents. A reduce at a
  // DynChoices point carries the tie bit, so no one probes the DynChoices
  // map after packing.
  std::map<std::vector<EntryKey>, int32_t> ActionKey;
  for (int S = 0; S < T.NumStates; ++S) {
    std::vector<EntryKey> Key(T.NumTerms);
    for (int TI = 0; TI < T.NumTerms; ++TI) {
      Action A = T.actionAt(S, TI);
      A.Tie = A.Kind == ActionType::Reduce && T.dynChoicesAt(S, TI);
      Key[TI] = keyOf(A);
    }
    auto [It, Inserted] =
        ActionKey.emplace(Key, static_cast<int32_t>(P.ActionRows.size()));
    if (Inserted) {
      // Pick the most frequent action as the row default.
      std::map<EntryKey, int> Freq;
      for (auto &E : Key)
        ++Freq[E];
      EntryKey Best = Key[0];
      int BestN = -1;
      for (auto &[Val, N] : Freq)
        if (N > BestN) {
          BestN = N;
          Best = Val;
        }
      PackedActionRow Row;
      Row.Default = actionOf(Best);
      for (int TI = 0; TI < T.NumTerms; ++TI)
        if (Key[TI] != Best)
          Row.Except.emplace_back(TI, actionOf(Key[TI]));
      P.ActionRows.push_back(std::move(Row));
    }
    P.ActionRowOf.push_back(It->second);
  }

  std::map<std::vector<int32_t>, int32_t> GotoKey;
  for (int S = 0; S < T.NumStates; ++S) {
    std::vector<int32_t> Key(T.NumNonterms);
    for (int NI = 0; NI < T.NumNonterms; ++NI)
      Key[NI] = T.gotoAt(S, NI);
    auto [It, Inserted] =
        GotoKey.emplace(Key, static_cast<int32_t>(P.GotoRows.size()));
    if (Inserted) {
      PackedGotoRow Row;
      for (int NI = 0; NI < T.NumNonterms; ++NI)
        if (Key[NI] >= 0)
          Row.Entries.emplace_back(NI, Key[NI]);
      P.GotoRows.push_back(std::move(Row));
    }
    P.GotoRowOf.push_back(It->second);
  }

  StatsRegistry &S = stats();
  S.counter("tablegen.packed.action_rows") += P.ActionRows.size();
  S.counter("tablegen.packed.goto_rows") += P.GotoRows.size();
  S.counter("tablegen.packed.bytes") += P.memoryBytes();
  Span.arg("bytes", static_cast<int64_t>(P.memoryBytes()));
  Span.arg("action_rows", static_cast<int64_t>(P.ActionRows.size()));
  return P;
}

Action PackedTables::actionAt(int State, int TermIdx) const {
  const PackedActionRow &Row = ActionRows[ActionRowOf[State]];
  auto It = std::lower_bound(
      Row.Except.begin(), Row.Except.end(), TermIdx,
      [](const std::pair<int32_t, Action> &E, int V) { return E.first < V; });
  if (It != Row.Except.end() && It->first == TermIdx)
    return It->second;
  return Row.Default;
}

int32_t PackedTables::gotoAt(int State, int NtIdx) const {
  const PackedGotoRow &Row = GotoRows[GotoRowOf[State]];
  auto It = std::lower_bound(
      Row.Entries.begin(), Row.Entries.end(), NtIdx,
      [](const std::pair<int32_t, int32_t> &E, int V) {
        return E.first < V;
      });
  if (It != Row.Entries.end() && It->first == NtIdx)
    return It->second;
  return -1;
}

size_t PackedTables::memoryBytes() const {
  size_t Bytes = ActionRowOf.size() * sizeof(int32_t) +
                 GotoRowOf.size() * sizeof(int32_t);
  for (const PackedActionRow &Row : ActionRows)
    Bytes += sizeof(Action) +
             Row.Except.size() * (sizeof(int32_t) + sizeof(Action));
  for (const PackedGotoRow &Row : GotoRows)
    Bytes += Row.Entries.size() * 2 * sizeof(int32_t);
  return Bytes;
}
