//===- LRTables.h - parser table representation -----------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parse tables driving the instruction pattern matcher: an action
/// table (shift / reduce / accept / error) indexed by state and terminal,
/// and a goto table indexed by state and non-terminal. Reduce/reduce
/// conflicts among equally long rules are resolved *dynamically* by the
/// matcher using semantic attributes (paper section 3.2); the candidate
/// lists live in DynChoices.
///
//===----------------------------------------------------------------------===//

#ifndef GG_TABLEGEN_LRTABLES_H
#define GG_TABLEGEN_LRTABLES_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace gg {

enum class ActionType : uint8_t { Error, Shift, Reduce, Accept };

/// One action-table entry. Target is the destination state for Shift and
/// the production id for Reduce. Tie marks a Reduce at a deferred
/// reduce/reduce tie point (a DynChoices key); it lives in the padding
/// after Kind and is set only in packed tables (PackedTables::pack).
struct Action {
  ActionType Kind;
  bool Tie;
  int32_t Target;

  constexpr Action(ActionType Kind = ActionType::Error, int32_t Target = 0,
                   bool Tie = false)
      : Kind(Kind), Tie(Tie), Target(Target) {}

  bool isError() const { return Kind == ActionType::Error; }
};
static_assert(sizeof(Action) == 8, "the tie bit must fit the padding");

/// Dense parse tables for a frozen grammar.
struct LRTables {
  int NumStates = 0;
  int NumTerms = 0;
  int NumNonterms = 0;
  std::vector<Action> Actions; ///< NumStates x NumTerms, row major
  std::vector<int32_t> Gotos;  ///< NumStates x NumNonterms; -1 = error
  /// (state, termIndex) -> additional reduce candidates when the static
  /// tie could not be broken; the matcher chooses among [chosen]+these
  /// using semantic attributes.
  std::unordered_map<uint64_t, std::vector<int>> DynChoices;

  static uint64_t dynKey(int State, int TermIdx) {
    return (static_cast<uint64_t>(State) << 32) |
           static_cast<uint32_t>(TermIdx);
  }

  const Action &actionAt(int State, int TermIdx) const {
    assert(State >= 0 && State < NumStates && TermIdx >= 0 &&
           TermIdx < NumTerms);
    return Actions[static_cast<size_t>(State) * NumTerms + TermIdx];
  }

  Action &actionAt(int State, int TermIdx) {
    return Actions[static_cast<size_t>(State) * NumTerms + TermIdx];
  }

  int32_t gotoAt(int State, int NtIdx) const {
    assert(State >= 0 && State < NumStates && NtIdx >= 0 &&
           NtIdx < NumNonterms);
    return Gotos[static_cast<size_t>(State) * NumNonterms + NtIdx];
  }

  const std::vector<int> *dynChoicesAt(int State, int TermIdx) const {
    auto It = DynChoices.find(dynKey(State, TermIdx));
    return It == DynChoices.end() ? nullptr : &It->second;
  }

  /// Unpacked table footprint in bytes (experiments E1/E4/E9).
  size_t memoryBytes() const {
    return Actions.size() * sizeof(Action) + Gotos.size() * sizeof(int32_t);
  }
};

} // namespace gg

#endif // GG_TABLEGEN_LRTABLES_H
