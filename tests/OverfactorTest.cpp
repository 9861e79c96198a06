//===- OverfactorTest.cpp - the section 6.2.1 overfactoring lesson -------------===//
//
// "our initial factorization grouped the operators Plus, Mul, Or, and
//  Xor together into a special operator non-terminal, called binop ...
//  However, Plus and Mul also occur in contexts in which they are
//  secondary operations, for example within addressing modes.
//  Consequently, the initial grouping caused many shift/reduce conflicts
//  ... A decision to shift in this state is tantamount to deciding that
//  the Plus will be implemented by the addressing hardware as a
//  displacement address, rather than by an add instruction. The decision
//  is premature, and could lead to a syntactic block ... Plus and Mul
//  cannot be factored as a binop, although that factoring is valid for
//  Or and Xor."
//
// We reproduce the lesson exactly: with Plus factored into binop, the
// maximal-munch resolution of the conflict commits to the addressing
// pattern as soon as it sees "Plus Const", and an input whose Plus was a
// general add with a constant first operand blocks. The unfactored
// grammar parses the same input; factoring only Or/Xor stays correct.
//
//===----------------------------------------------------------------------===//

#include "ir/Linearize.h"
#include "match/Matcher.h"
#include "mdl/SpecParser.h"
#include "tablegen/TableBuilder.h"

#include <gtest/gtest.h>

using namespace gg;

namespace {

const char *CommonRules = R"(
%start s
s <- Assign_l lval_l rval_l : emit mov
lval_l <- mem_l : glue
lval_l <- Dreg_l : encap dregloc
mem_l <- Name_l : encap abs
mem_l <- Indir_l Plus_l con_l reg_l : encap disp
mem_l <- Indir_l reg_l : encap regdef
mem_l <- Indir_l mem_l : encap deferred
con_l <- Const_l : encap imm
reg_l <- Dreg_l : encap dreg
rval_l <- reg_l : glue
rval_l <- mem_l : glue
rval_l <- con_l : glue
)";

const char *GoodExtra = R"(
reg_l <- Plus_l rval_l rval_l : emit add
reg_l <- Or_l rval_l rval_l : emit or
reg_l <- Xor_l rval_l rval_l : emit xor
)";

// The paper's valid factoring: Or and Xor share a class...
const char *OrXorFactoredExtra = R"(
reg_l <- Plus_l rval_l rval_l : emit add
reg_l <- orxor rval_l rval_l : emit logical
orxor <- Or_l : glue
orxor <- Xor_l : glue
)";

// ...and the overfactored version that also pulls Plus in.
const char *OverfactoredExtra = R"(
reg_l <- binop rval_l rval_l : emit arith
binop <- Plus_l : glue
binop <- Or_l : glue
binop <- Xor_l : glue
)";

struct Built {
  Grammar G;
  BuildResult R;
  std::unique_ptr<PackedTables> P;
  std::unique_ptr<Matcher> M;
};

Built build(const std::string &Spec) {
  Built B;
  DiagnosticSink D;
  MdSpec S;
  EXPECT_TRUE(parseSpec(Spec, S, D)) << D.renderAll();
  EXPECT_TRUE(S.expand(B.G, D)) << D.renderAll();
  B.G.freeze();
  B.R = buildTables(B.G);
  EXPECT_TRUE(B.R.Ok) << B.R.Error;
  B.P = std::make_unique<PackedTables>(PackedTables::pack(B.R.Tables));
  B.M = std::make_unique<Matcher>(B.G, *B.P);
  return B;
}

/// a = *(5 + m): the address is a general add whose first operand is a
/// constant and whose second is a memory value — the shape that makes
/// the premature "shift into the displacement pattern" decision wrong.
std::vector<LinToken> discriminatingInput(const Matcher &M, Interner &Syms,
                                         NodeArena &A) {
  Node *Tree = A.bin(
      Op::Assign, Ty::L, A.name(Ty::L, Syms.intern("a")),
      A.unary(Op::Indir, Ty::L,
              A.bin(Op::Plus, Ty::L, A.con(Ty::L, 5),
                    A.name(Ty::L, Syms.intern("m")))));
  return linearize(Tree, M.driver().termMap());
}

TEST(Overfactor, UnfactoredGrammarCoversTheInput) {
  Built B = build(std::string(CommonRules) + GoodExtra);
  Interner Syms;
  NodeArena A;
  MatchResult MR = B.M->match(discriminatingInput(*B.M, Syms, A));
  EXPECT_TRUE(MR.Ok) << MR.Error;
}

TEST(Overfactor, OrXorFactoringIsValid) {
  Built B = build(std::string(CommonRules) + OrXorFactoredExtra);
  Interner Syms;
  NodeArena A;
  MatchResult MR = B.M->match(discriminatingInput(*B.M, Syms, A));
  EXPECT_TRUE(MR.Ok) << MR.Error;

  // And logical operations still parse through the class non-terminal.
  Node *Tree = A.bin(Op::Assign, Ty::L, A.name(Ty::L, Syms.intern("a")),
                     A.bin(Op::Or, Ty::L, A.con(Ty::L, 3),
                           A.name(Ty::L, Syms.intern("m"))));
  MatchResult MR2 = B.M->match(linearize(Tree, B.M->driver().termMap()));
  EXPECT_TRUE(MR2.Ok) << MR2.Error;
}

TEST(Overfactor, PlusInBinopCausesPrematureCommitmentAndBlocks) {
  Built B = build(std::string(CommonRules) + OverfactoredExtra);

  // The overfactoring produces the paper's shift/reduce conflict between
  // the displacement item and [binop <- Plus .].
  bool SawPlusConflict = false;
  for (const ShiftReduceConflict &C : B.R.SRConflicts) {
    if (B.G.symbolName(C.Term) == "Const_l" &&
        B.G.prod(C.ReduceProd).Rhs.size() == 1 &&
        B.G.symbolName(B.G.prod(C.ReduceProd).Rhs[0]) == "Plus_l")
      SawPlusConflict = true;
  }
  EXPECT_TRUE(SawPlusConflict)
      << "expected the [disp . con] vs [binop <- Plus .] conflict";

  // Maximal munch shifts — committing to the addressing mode — and the
  // general-add input now hits a syntactic block.
  Interner Syms;
  NodeArena A;
  MatchResult MR = B.M->match(discriminatingInput(*B.M, Syms, A));
  EXPECT_FALSE(MR.Ok);
  EXPECT_NE(MR.Error.find("syntactic block"), std::string::npos)
      << MR.Error;
}

TEST(Overfactor, BlockCheckerFlagsTheOverfactoredGrammar) {
  // The uniform-replacement block analysis (fed the operator categories)
  // reports trouble in the overfactored description but not the good one.
  auto CountBlocks = [](const std::string &Spec) {
    DiagnosticSink D;
    MdSpec S;
    EXPECT_TRUE(parseSpec(Spec, S, D));
    Grammar G;
    EXPECT_TRUE(S.expand(G, D));
    G.freeze();
    BuildOptions Opts;
    Opts.TerminalCategory = [](std::string_view Name) -> uint32_t {
      if (Name == "Plus_l" || Name == "Or_l" || Name == "Xor_l")
        return 1;
      // Value leaves are interchangeable in well-formed input: a global
      // can appear wherever a register variable can.
      if (Name == "Name_l" || Name == "Dreg_l")
        return 2;
      return 0;
    };
    return buildTables(G, Opts).Blocks.size();
  };
  EXPECT_EQ(CountBlocks(std::string(CommonRules) + GoodExtra), 0u);
  EXPECT_GT(CountBlocks(std::string(CommonRules) + OverfactoredExtra), 0u);
}

} // namespace
