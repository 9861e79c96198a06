//===- MatcherInputs.h - the trees the code generator matches ---*- C++ -*-===//
//
// Shared by the matcher equivalence golden and the match-tally tests: the
// token sequences GGCodeGenerator hands the matcher for a program, so a
// test can match the same trees one by one.
//
//===----------------------------------------------------------------------===//

#ifndef GG_TESTS_MATCHERINPUTS_H
#define GG_TESTS_MATCHERINPUTS_H

#include "cg/Transform.h"
#include "ir/Linearize.h"
#include "ir/Program.h"

#include <vector>

namespace gg {

/// The token sequences the code generator hands the matcher for \p P:
/// phase-1 output statement by statement, with Ret and CallStmt rewritten
/// into the r0 assignments the code generator builds for them. Runs phase
/// 1 on \p P.
inline std::vector<std::vector<LinToken>>
matcherInputs(Program &P, const TerminalMap &Terms) {
  std::vector<std::vector<LinToken>> Inputs;
  TransformStats Rewrites;
  for (Function &F : P.Functions) {
    runPhase1(P, F, {}, Rewrites);
    for (Node *S : F.Body) {
      switch (S->Opcode) {
      case Op::LabelDef:
      case Op::Jump:
        break;
      case Op::Ret:
        if (S->left())
          Inputs.push_back(linearize(
              P.Arena->bin(Op::Assign, Ty::L, P.Arena->dreg(RegR0, Ty::L),
                           S->left()),
              Terms));
        break;
      case Op::CallStmt:
        if (S->left())
          Inputs.push_back(linearize(
              P.Arena->bin(Op::Assign, S->left()->Type, S->left(),
                           P.Arena->dreg(RegR0, Ty::L)),
              Terms));
        break;
      default:
        Inputs.push_back(linearize(S, Terms));
        break;
      }
    }
  }
  return Inputs;
}

} // namespace gg

#endif // GG_TESTS_MATCHERINPUTS_H
