//===- RetargetTest.cpp - second-target demonstration --------------------------===//
//
// Section 9: "We have not yet had any experience retargeting this
// compiler to other machines. We feel that the techniques to factor the
// machine grammar can be applied to a new machine."
//
// This test writes a description for a very different architecture — a
// two-operand accumulator machine with load/store addressing (PDP-11
// flavoured) — and runs it through the *same* description language, type
// replicator, table constructor and pattern matcher. Only the semantic
// actions are target-specific, exactly the paper's factoring: everything
// syntactic is machine-independent.
//
//===----------------------------------------------------------------------===//

#include "TerminalMapCheck.h"
#include "ir/Linearize.h"
#include "match/Matcher.h"
#include "mdl/SpecParser.h"
#include "tablegen/TableBuilder.h"

#include <gtest/gtest.h>

using namespace gg;

namespace {

// A two-address machine: results always combine into the left operand;
// memory is reached through load/store only (no memory-operand ALU).
// Word (w) and long (l) data, replicated the same way the VAX spec is.
const char *Pdp11ishSpec = R"(
%class Y w l
%start stmt

con_Y <- Const_Y : encap imm_Y
con_l <- Zero : encap imm_l
con_l <- One : encap imm_l
con_l <- Two : encap imm_l
con_l <- Four : encap imm_l
con_l <- Eight : encap imm_l
rval_Y <- reg_Y : glue
rval_Y <- con_Y : glue
reg_l <- Dreg_l : encap usereg

# loads and stores: the only memory access
reg_Y <- mem_Y : emit load_Y
mem_Y <- Name_Y : encap abs_Y
mem_Y <- Indir_Y Plus_l con_l reg_l : encap disp_Y
mem_Y <- Indir_Y reg_l : encap regdef_Y

# two-address ALU: op src, dstreg
reg_Y <- Plus_Y rval_Y rval_Y : emit add2_Y
reg_Y <- Minus_Y rval_Y rval_Y : emit sub2_Y
reg_Y <- And_Y rval_Y rval_Y : emit and2_Y
reg_Y <- Or_Y rval_Y rval_Y : emit or2_Y
reg_Y <- Neg_Y rval_Y : emit neg_Y

stmt <- Assign_Y mem_Y rval_Y : emit store_Y
stmt <- Assign_Y mem_Y Plus_Y rval_Y rval_Y : emit addstore_Y
stmt <- CBranch Cmp_Y rval_Y rval_Y Label : emit cmpbr_Y
)";

struct Target2 {
  Grammar G;
  BuildResult R;
  std::unique_ptr<PackedTables> P;
  std::unique_ptr<Matcher> M;
};

Target2 &target2() {
  static Target2 T = [] {
    Target2 Out;
    DiagnosticSink D;
    MdSpec Spec;
    if (!parseSpec(Pdp11ishSpec, Spec, D) || !Spec.expand(Out.G, D))
      abort();
    Out.G.freeze();
    Out.R = buildTables(Out.G);
    if (!Out.R.Ok)
      abort();
    Out.P = std::make_unique<PackedTables>(PackedTables::pack(Out.R.Tables));
    Out.M = std::make_unique<Matcher>(Out.G, *Out.P);
    return Out;
  }();
  return T;
}

TEST(Retarget, SecondDescriptionBuildsCleanly) {
  Target2 &T = target2();
  EXPECT_TRUE(T.R.ChainLoops.empty());
  GrammarStats S = statsOf(T.G);
  // 15 Y-classed rules replicate over {w,l}; 5 special-constant rules
  // are literal.
  EXPECT_EQ(S.Productions, 15u * 2u + 6u);
}

TEST(Retarget, ReplicationCountsExactly) {
  // 15 generic rules; 14 use class Y (x2), 1 is plain (disp uses _l
  // literals and _Y -> still Y-classed). Count precisely instead.
  DiagnosticSink D;
  MdSpec Spec;
  ASSERT_TRUE(parseSpec(Pdp11ishSpec, Spec, D));
  size_t WithClass = 0, Plain = 0;
  for (const GenericRule &R : Spec.Rules) {
    bool UsesY = false;
    auto Check = [&](const std::string &Tok2) {
      if (Tok2.size() >= 2 && Tok2[Tok2.size() - 2] == '_' &&
          Tok2.back() == 'Y')
        UsesY = true;
    };
    Check(R.Lhs);
    for (const std::string &Tok2 : R.Rhs)
      Check(Tok2);
    (UsesY ? WithClass : Plain) += 1;
  }
  Grammar G;
  ASSERT_TRUE(Spec.expand(G, D));
  EXPECT_EQ(G.numProductions(), WithClass * 2 + Plain);
}

TEST(Retarget, MatchesTreesWithMaximalMunch) {
  Target2 &T = target2();
  Interner Syms;
  NodeArena A;
  // g = g + 4 (word global): the addstore pattern must win over
  // load/add/store.
  Node *Tree = A.bin(Op::Assign, Ty::W, A.name(Ty::W, Syms.intern("g")),
                     A.bin(Op::Plus, Ty::W, A.name(Ty::W, Syms.intern("g")),
                           A.con(Ty::W, 4)));
  MatchResult MR = T.M->match(linearize(Tree, T.M->driver().termMap()));
  ASSERT_TRUE(MR.Ok) << MR.Error;
  bool SawAddStore = false;
  for (const MatchStep &S : MR.Steps)
    if (S.Kind == MatchStep::Reduce &&
        T.G.prod(S.ProdId).SemTag == "addstore_w")
      SawAddStore = true;
  EXPECT_TRUE(SawAddStore);
}

TEST(Retarget, CoversBranchesAndDeepTrees) {
  Target2 &T = target2();
  Interner Syms;
  NodeArena A;
  // if (x - 1 != y & 3) goto L   over longs with a local operand.
  Node *X = A.name(Ty::L, Syms.intern("x"));
  Node *Y = A.local(Ty::L, -8);
  Node *Cmp = A.cmp(Cond::NE, A.bin(Op::Minus, Ty::L, X, A.con(Ty::L, 1)),
                    A.bin(Op::And, Ty::L, Y, A.con(Ty::L, 3)), Ty::L);
  Node *Br = A.bin(Op::CBranch, Ty::L, Cmp, A.label(Syms.intern("L1")));
  MatchResult MR = T.M->match(linearize(Br, T.M->driver().termMap()));
  EXPECT_TRUE(MR.Ok) << MR.Error;
}

TEST(Retarget, RejectsUnsupportedOperators) {
  // The little machine has no multiply: a Mul tree is a genuine
  // syntactic gap in this description (the describe-machine workflow
  // would show it; a real port would add the pattern or a bridge).
  Target2 &T = target2();
  Interner Syms;
  NodeArena A;
  Node *Tree = A.bin(Op::Assign, Ty::W, A.name(Ty::W, Syms.intern("g")),
                     A.bin(Op::Mul, Ty::W, A.con(Ty::W, 2),
                           A.name(Ty::W, Syms.intern("h"))));
  MatchResult MR = T.M->match(linearize(Tree, T.M->driver().termMap()));
  EXPECT_FALSE(MR.Ok);
  EXPECT_NE(MR.Error.find("Mul_w"), std::string::npos);
}

TEST(Retarget, TerminalMapFollowsTheNamingRules) {
  // The map is built from this grammar's own terminals: no byte forms, no
  // conversions, no multiply.
  expectTerminalMapFollowsNames(*target2().M);
}

} // namespace
