//===- TerminalMapCheck.h - terminal map vs. the naming rules ---*- C++ -*-===//
//
// Shared by the VAX and retarget grammar tests: a matcher's load-time
// terminal map must give every node the index its terminal name has in
// the grammar, and a node whose terminal the grammar lacks must block as
// UnknownTerminal under that name. tokenFor() builds matcher input from
// terminal names for the hand-written token streams of other tests.
//
//===----------------------------------------------------------------------===//

#ifndef GG_TESTS_TERMINALMAPCHECK_H
#define GG_TESTS_TERMINALMAPCHECK_H

#include "ir/Linearize.h"
#include "match/Matcher.h"
#include "support/Strings.h"

#include <gtest/gtest.h>

#include <vector>

namespace gg {

/// A token for terminal \p Name of \p D's grammar (-1 if it lacks it),
/// carrying \p N.
inline LinToken tokenFor(const LRDriver &D, const std::string &Name,
                         const Node *N = nullptr) {
  return {static_cast<int16_t>(D.termIndexFor(Name)), N};
}

/// Every node shape the linearizer names: each operator at each type (a
/// conversion from a long), the special constants and their neighbours at
/// every type, every conversion pair, CBranch and Label.
inline std::vector<const Node *> everyTerminalShape(NodeArena &A) {
  static const Op AllOps[] = {
#define GG_OP(Name, Str, Arity, Flags) Op::Name,
#include "ir/Ops.def"
#undef GG_OP
  };
  static const Ty AllTys[] = {Ty::B, Ty::W, Ty::L, Ty::UB, Ty::UW, Ty::UL};
  std::vector<const Node *> Nodes;
  for (Op O : AllOps)
    for (Ty T : AllTys) {
      Node *N = A.make(O, T);
      if (O == Op::Conv)
        N->Kids[0] = A.con(Ty::L, 7);
      Nodes.push_back(N);
    }
  for (Ty T : AllTys)
    for (int64_t V : {0, 1, 2, 3, 4, 5, 8, 16, -1})
      Nodes.push_back(A.con(T, V));
  for (Ty From : AllTys)
    for (Ty To : AllTys)
      Nodes.push_back(A.unary(Op::Conv, To, A.con(From, 9)));
  Nodes.push_back(A.make(Op::CBranch, Ty::L));
  Nodes.push_back(A.label(InternedString()));
  return Nodes;
}

/// Checks \p M's terminal map against terminalName() for every shape, and
/// the UnknownTerminal block of each shape the grammar lacks.
inline void expectTerminalMapFollowsNames(const Matcher &M) {
  const LRDriver &D = M.driver();
  NodeArena A;
  size_t Known = 0, Unknown = 0;
  for (const Node *N : everyTerminalShape(A)) {
    const std::string Name = terminalName(N);
    const int Want = D.termIndexFor(Name);
    ASSERT_EQ(D.termMap().indexOf(N), Want) << Name;
    ASSERT_EQ(linearize(N, D.termMap()).front().Term, Want) << Name;
    if (Want >= 0) {
      ++Known;
      continue;
    }
    ++Unknown;
    // The leaf alone, and as the third token of Assign_l Dreg_l <node>.
    for (size_t Pos : {0, 2}) {
      std::vector<LinToken> Input = linearize(N, D.termMap());
      if (Pos == 2) {
        Input.insert(Input.begin(), {tokenFor(D, "Assign_l"),
                                     tokenFor(D, "Dreg_l")});
        if (Input[0].Term < 0 || Input[1].Term < 0)
          continue;
      }
      const MatchResult MR = M.match(Input);
      ASSERT_FALSE(MR.Ok) << Name;
      ASSERT_TRUE(MR.Block.has_value()) << Name;
      if (Pos == 2 && MR.Block->Why != BlockCause::UnknownTerminal)
        continue; // this grammar cannot start Assign_l Dreg_l
      EXPECT_EQ(MR.Block->Why, BlockCause::UnknownTerminal) << Name;
      EXPECT_EQ(MR.Block->TokenPos, Pos) << Name;
      EXPECT_EQ(MR.Block->Lookahead, Name);
      EXPECT_EQ(MR.Error, MR.Block->render());
      EXPECT_EQ(MR.Error.rfind(strf("no terminal symbol '%s' in the machine "
                                    "description (token %zu)",
                                    Name.c_str(), Pos),
                               0),
                0u)
          << MR.Error;
    }
  }
  EXPECT_GT(Known, 0u);
  EXPECT_GT(Unknown, 0u);
}

} // namespace gg

#endif // GG_TESTS_TERMINALMAPCHECK_H
