//===- Linearize.h - prefix linearization of trees --------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns an expression tree into the prefix token stream the pattern
/// matcher parses. Each token is a grammar terminal index and carries the
/// originating node so leaf shifts can capture semantic attributes.
///
/// Terminal naming conventions (these are the paper's, section 3.1/6.4):
///  * typed operators append a size-class suffix: Plus_l, Const_b, Name_w;
///  * conversions carry both size classes: Cvt_b_l;
///  * the special long constants 0, 1, 2, 4 and 8 become their own
///    terminals Zero, One, Two, Four, Eight ("because of the importance
///    they play in comparisons and address construction");
///  * CBranch and Label are untyped.
///
/// The names are resolved once per grammar: a TerminalMap gives every
/// (operator, size class), special constant, conversion pair, CBranch and
/// Label the grammar's dense terminal index, so linearize() does no string
/// work. terminalName() spells the same rules out, for rendering only.
///
//===----------------------------------------------------------------------===//

#ifndef GG_IR_LINEARIZE_H
#define GG_IR_LINEARIZE_H

#include "ir/Node.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gg {

/// One token of the matcher's input: the grammar's dense index of the
/// node's terminal (-1 when the grammar has no such terminal) plus the
/// node whose attributes the semantic actions read.
struct LinToken {
  int16_t Term = -1;
  const Node *N = nullptr;
};

/// Grammar terminal name for a single node (no children).
std::string terminalName(const Node *N);

/// Every terminal a node can linearize to, mapped to one grammar's dense
/// terminal indices. Built once per grammar from its terminal names under
/// the naming rules above; immutable afterwards.
class TerminalMap {
public:
  /// \p Names is the grammar's dense terminal index -> name table.
  explicit TerminalMap(const std::vector<std::string> &Names);

  /// Terminal index of \p N, -1 if the grammar lacks terminalName(N).
  int16_t indexOf(const Node *N) const;

private:
  std::vector<int16_t> Slots; ///< one entry per terminal a node can name
};

/// Prefix-linearizes \p Tree onto the end of \p Out, so a caller can put
/// many trees in one buffer.
void linearize(const Node *Tree, const TerminalMap &Terms,
               std::vector<LinToken> &Out);

/// Prefix-linearizes \p Tree into matcher input tokens.
std::vector<LinToken> linearize(const Node *Tree, const TerminalMap &Terms);

/// The terminal names of \p Tree's prefix linearization (the fuzzer's
/// sentences; off the code generator's path).
std::vector<std::string> terminalNames(const Node *Tree);

} // namespace gg

#endif // GG_IR_LINEARIZE_H
