//===- TablegenTest.cpp - SLR table construction tests ---------------------===//

#include "ir/Linearize.h"
#include "match/Matcher.h"
#include "mdl/SpecParser.h"
#include "support/Strings.h"
#include "tablegen/Serialize.h"
#include "tablegen/TableBuilder.h"
#include "vax/VaxGrammar.h"
#include "vax/VaxTarget.h"

#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <set>

using namespace gg;

namespace {

/// Compares packed tables with the dense ones they were packed from, cell
/// by cell: every action's Kind and Target, its Tie bit (set exactly on a
/// Reduce at a DynChoices point) and every goto. Returns the number of
/// mismatching cells; \p First describes the first.
size_t packedMismatches(const LRTables &T, const PackedTables &P,
                        std::string &First) {
  size_t Bad = 0;
  auto Note = [&](const std::string &What) {
    if (!Bad++)
      First = What;
  };
  if (P.numStates() != T.NumStates || P.numTerms() != T.NumTerms ||
      P.numNonterms() != T.NumNonterms ||
      P.numDynPoints() != T.DynChoices.size())
    Note("shape");
  for (int S = 0; S < T.NumStates; ++S) {
    for (int TI = 0; TI < T.NumTerms; ++TI) {
      const Action &Want = T.actionAt(S, TI);
      const bool WantTie =
          Want.Kind == ActionType::Reduce && T.dynChoicesAt(S, TI);
      const Action Got = P.actionAt(S, TI);
      if (Got.Kind != Want.Kind || Got.Target != Want.Target ||
          Got.Tie != WantTie)
        Note(strf("action (%d, %d): kind %d target %d tie %d, want %d %d %d",
                  S, TI, static_cast<int>(Got.Kind), Got.Target, Got.Tie,
                  static_cast<int>(Want.Kind), Want.Target, WantTie));
    }
    for (int NI = 0; NI < T.NumNonterms; ++NI)
      if (P.gotoAt(S, NI) != T.gotoAt(S, NI))
        Note(strf("goto (%d, %d): %d, want %d", S, NI, P.gotoAt(S, NI),
                  T.gotoAt(S, NI)));
  }
  return Bad;
}

/// Tiny expression grammar in the paper's style: register-register adds
/// with memory fetches and constants.
const char *TinySpec = R"(
%start stmt
stmt  <- Assign_l lval_l rval_l : emit mov_l
stmt  <- Assign_l lval_l Plus_l rval_l rval_l : emit add3_l
lval_l <- Name_l : encap abs_l
lval_l <- mem_l : glue
mem_l <- Indir_l Plus_l con_l Dreg_l : encap disp_l
reg_l <- Plus_l rval_l rval_l : emit add_l
reg_l <- mem_l : emit load_l
rval_l <- reg_l : glue
rval_l <- con_l : glue
rval_l <- Name_l : encap abs_l
con_l <- Const_l : encap imm_l
con_l <- One : encap imm_l
)";

class TinyGrammarTest : public ::testing::Test {
protected:
  void SetUp() override {
    DiagnosticSink Diags;
    MdSpec Spec;
    ASSERT_TRUE(parseSpec(TinySpec, Spec, Diags)) << Diags.renderAll();
    ASSERT_TRUE(Spec.expand(G, Diags)) << Diags.renderAll();
    G.freeze();
    DiagnosticSink VDiags;
    G.validate(VDiags);
    ASSERT_FALSE(VDiags.hasErrors()) << VDiags.renderAll();
  }
  Grammar G;
};

TEST_F(TinyGrammarTest, SymbolClassification) {
  EXPECT_TRUE(G.isTerminal(G.lookup("Assign_l")));
  EXPECT_TRUE(G.isTerminal(G.lookup("One")));
  EXPECT_FALSE(G.isTerminal(G.lookup("rval_l")));
  EXPECT_EQ(G.lookup("nonexistent"), -1);
  EXPECT_EQ(G.numProductions(), 12u);
}

TEST_F(TinyGrammarTest, BuildsTables) {
  BuildResult R = buildTables(G);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.Tables.NumStates, 5);
  EXPECT_TRUE(R.ChainLoops.empty());
  // The add3 pattern overlaps the plain add: expect shift/reduce conflicts
  // to have been resolved (toward shift, maximal munch).
  // (Not asserting a count; just that resolution happened without error.)
}

TEST_F(TinyGrammarTest, NaiveAndOptimizedAgree) {
  BuildOptions Fast, Slow;
  Slow.Optimized = false;
  BuildResult A = buildTables(G, Fast);
  BuildResult B = buildTables(G, Slow);
  ASSERT_TRUE(A.Ok);
  ASSERT_TRUE(B.Ok);
  ASSERT_EQ(A.Tables.NumStates, B.Tables.NumStates);
  ASSERT_EQ(A.Tables.Actions.size(), B.Tables.Actions.size());
  for (size_t I = 0; I < A.Tables.Actions.size(); ++I) {
    EXPECT_EQ(static_cast<int>(A.Tables.Actions[I].Kind),
              static_cast<int>(B.Tables.Actions[I].Kind))
        << "at " << I;
    EXPECT_EQ(A.Tables.Actions[I].Target, B.Tables.Actions[I].Target)
        << "at " << I;
  }
  EXPECT_EQ(A.Tables.Gotos, B.Tables.Gotos);
}

TEST_F(TinyGrammarTest, MatchesSimpleAssignment) {
  BuildResult R = buildTables(G);
  ASSERT_TRUE(R.Ok) << R.Error;
  PackedTables P = PackedTables::pack(R.Tables);
  Matcher M(G, P);

  // a = 1 + b  (a, b globals):  Assign_l Name_l Plus_l One Name_l
  Interner Syms;
  NodeArena A;
  Node *Tree = A.bin(Op::Assign, Ty::L, A.name(Ty::L, Syms.intern("a")),
                     A.bin(Op::Plus, Ty::L, A.con(Ty::L, 1),
                           A.name(Ty::L, Syms.intern("b"))));
  std::vector<LinToken> Input = linearize(Tree, M.driver().termMap());
  ASSERT_EQ(Input.size(), 5u);
  EXPECT_EQ(M.driver().termName(Input[0].Term), "Assign_l");
  EXPECT_EQ(M.driver().termName(Input[2].Term), "Plus_l");
  EXPECT_EQ(M.driver().termName(Input[3].Term), "One");

  MatchResult MR = M.match(Input);
  ASSERT_TRUE(MR.Ok) << MR.Error;

  // Maximal munch must have selected the long add3 pattern, not mov.
  bool SawAdd3 = false;
  for (const MatchStep &S : MR.Steps)
    if (S.Kind == MatchStep::Reduce && G.prod(S.ProdId).SemTag == "add3_l")
      SawAdd3 = true;
  EXPECT_TRUE(SawAdd3);
}

TEST_F(TinyGrammarTest, PackedTablesMatchDense) {
  BuildResult R = buildTables(G);
  ASSERT_TRUE(R.Ok);
  PackedTables P = PackedTables::pack(R.Tables);
  std::string First;
  EXPECT_EQ(packedMismatches(R.Tables, P, First), 0u) << First;
  EXPECT_LT(P.memoryBytes(), R.Tables.memoryBytes());
}

TEST(PackedTables, MatchDenseOnEveryVaxVariant) {
  struct Variant {
    const char *Name;
    VaxGrammarOptions Opts;
  };
  const Variant Variants[] = {{"default", {}},
                              {"sizes=1", {true, 1}},
                              {"sizes=2", {true, 2}},
                              {"sizes=3", {true, 3}},
                              {"no-reverse-ops", {false, 3}}};
  for (const Variant &V : Variants) {
    SCOPED_TRACE(V.Name);
    Grammar VG;
    MdSpec Spec;
    DiagnosticSink D;
    ASSERT_TRUE(buildVaxGrammar(VG, Spec, D, V.Opts)) << D.renderAll();
    BuildResult R = buildTables(VG);
    ASSERT_TRUE(R.Ok) << R.Error;
    PackedTables P = PackedTables::pack(R.Tables);
    std::string First;
    EXPECT_EQ(packedMismatches(R.Tables, P, First), 0u) << First;
    EXPECT_LT(P.memoryBytes(), R.Tables.memoryBytes());
  }
}

TEST(PackedTables, TargetRowsMatchDenseInEveryCell) {
  // The tables the bundled target's matcher runs: every state, terminal
  // and nonterminal looks up what the dense tables hold, and the state
  // rows share exactly the distinct action and goto rows.
  std::string Err;
  std::unique_ptr<VaxTarget> Target = VaxTarget::create(Err);
  ASSERT_NE(Target, nullptr) << Err;
  const LRTables &T = Target->build().Tables;
  const PackedTables &P = Target->packed();
  std::string First;
  EXPECT_EQ(packedMismatches(T, P, First), 0u) << First;

  std::set<std::vector<int64_t>> ActionRows, GotoRows;
  for (int S = 0; S < T.NumStates; ++S) {
    std::vector<int64_t> Row;
    for (int TI = 0; TI < T.NumTerms; ++TI) {
      const Action &A = T.actionAt(S, TI);
      const bool Tie = A.Kind == ActionType::Reduce && T.dynChoicesAt(S, TI);
      Row.push_back(static_cast<int64_t>(A.Kind) << 40 |
                    static_cast<int64_t>(Tie) << 32 |
                    static_cast<uint32_t>(A.Target));
    }
    ActionRows.insert(std::move(Row));
    GotoRows.insert(std::vector<int64_t>(
        T.Gotos.begin() + static_cast<size_t>(S) * T.NumNonterms,
        T.Gotos.begin() + static_cast<size_t>(S + 1) * T.NumNonterms));
  }
  EXPECT_EQ(P.numActionRows(), ActionRows.size());
  EXPECT_EQ(P.numGotoRows(), GotoRows.size());
}

TEST(PackedTables, MatchDenseAfterSerializeRoundTrip) {
  Grammar VG;
  MdSpec Spec;
  DiagnosticSink D;
  ASSERT_TRUE(buildVaxGrammar(VG, Spec, D)) << D.renderAll();
  BuildResult R = buildTables(VG);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_FALSE(R.Tables.DynChoices.empty()) << "no tie bits to check";
  LRTables Loaded;
  ASSERT_TRUE(deserializeTables(serializeTables(VG, R.Tables), VG, Loaded, D))
      << D.renderAll();
  PackedTables P = PackedTables::pack(Loaded);
  std::string First;
  EXPECT_EQ(packedMismatches(R.Tables, P, First), 0u) << First;
  EXPECT_EQ(packedMismatches(Loaded, P, First), 0u) << First;
  PackedTables Direct = PackedTables::pack(R.Tables);
  EXPECT_EQ(P.memoryBytes(), Direct.memoryBytes());
  EXPECT_EQ(P.numActionRows(), Direct.numActionRows());
  EXPECT_EQ(P.numGotoRows(), Direct.numGotoRows());
}

TEST(PackedTables, MatchDenseWithThreeMaskWords) {
  // 150 terminals in three roles, so action rows carry exceptions in all
  // three 64-terminal mask words:
  //   s <- Ti s   (i % 3 == 0)      s <- Ti   (i % 3 == 1)
  //   s <- Open e Ti, e <- Ti       (i % 3 == 2)
  Grammar WG;
  for (int I = 0; I < 150; ++I) {
    const std::string Term = strf("T%d", I);
    switch (I % 3) {
    case 0:
      WG.addProduction("s", {Term, "s"}, ActionKind::Glue);
      break;
    case 1:
      WG.addProduction("s", {Term}, ActionKind::Glue);
      break;
    default:
      WG.addProduction("s", {"Open", "e", Term}, ActionKind::Glue);
      WG.addProduction("e", {Term}, ActionKind::Glue);
      break;
    }
  }
  WG.setStart(WG.lookup("s"));
  WG.freeze();
  ASSERT_GT(WG.numTerminals(), 128u);
  BuildResult R = buildTables(WG);
  ASSERT_TRUE(R.Ok) << R.Error;
  PackedTables P = PackedTables::pack(R.Tables);
  std::string First;
  EXPECT_EQ(packedMismatches(R.Tables, P, First), 0u) << First;
  EXPECT_LT(P.memoryBytes(), R.Tables.memoryBytes());
}

TEST(PackedTables, Popcount64MatchesStdPopcount) {
  // actionAt's rank: the SWAR count must agree with std::popcount.
  EXPECT_EQ(popcount64(0), 0);
  EXPECT_EQ(popcount64(~0ull), 64);
  for (int B = 0; B < 64; ++B) {
    const uint64_t Bit = uint64_t(1) << B;
    EXPECT_EQ(popcount64(Bit), 1) << B;
    EXPECT_EQ(popcount64(Bit - 1), std::popcount(Bit - 1)) << B;
  }
  std::mt19937_64 Rng(0x9E3779B97F4A7C15ull);
  for (int I = 0; I < 10000; ++I) {
    const uint64_t X = Rng();
    ASSERT_EQ(popcount64(X), std::popcount(X)) << X;
  }
  static_assert(popcount64(0xF0F0) == 8);
}

TEST(ChainLoopTest, DetectsCycle) {
  Grammar G;
  G.addProduction("a", {"b"}, ActionKind::Glue);
  G.addProduction("b", {"a"}, ActionKind::Glue);
  G.addProduction("a", {"X"}, ActionKind::Glue);
  G.setStart(G.lookup("a"));
  G.freeze();
  BuildResult R = buildTables(G);
  EXPECT_FALSE(R.Ok);
  ASSERT_FALSE(R.ChainLoops.empty());
}

TEST(BlockDetectTest, ReportsMissingSameCategoryTerminal) {
  // 'b' handles Plus but not Minus although both are binary operators:
  // with a category function grouping them, Minus must be reported as a
  // potential syntactic block wherever Plus shifts.
  Grammar G;
  G.addProduction("s", {"Plus_l", "v", "v"}, ActionKind::Emit, "add");
  G.addProduction("v", {"Const_l"}, ActionKind::Encap, "imm");
  G.setStart(G.lookup("s"));
  G.freeze();
  BuildOptions Opts;
  Opts.TerminalCategory = [](std::string_view Name) -> uint32_t {
    if (Name == "Plus_l" || Name == "Minus_l")
      return 1;
    return 0;
  };
  // Minus_l is not even in the grammar, so no report is possible; add it
  // via an unreachable production to give it a terminal id.
  G = Grammar();
  G.addProduction("s", {"Plus_l", "v", "v"}, ActionKind::Emit, "add");
  G.addProduction("v", {"Const_l"}, ActionKind::Encap, "imm");
  G.addProduction("dead", {"Minus_l"}, ActionKind::Glue);
  G.setStart(G.lookup("s"));
  G.freeze();
  BuildResult R = buildTables(G, Opts);
  ASSERT_TRUE(R.Ok) << R.Error;
  bool Found = false;
  for (const PotentialBlock &B : R.Blocks)
    if (G.symbolName(B.Term) == "Minus_l" &&
        G.symbolName(B.Witness) == "Plus_l")
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(SpecParserTest, ReplicationExpandsClasses) {
  const char *Spec = R"(
%class Y b w l
%start stmt
stmt <- Assign_Y lval_Y rval_Y : emit mov_Y
lval_Y <- Name_Y : encap abs_Y
rval_Y <- Const_Y : encap imm_Y
dx_Y <- Mul_l @Y reg_l : encap dx_Y
reg_l <- Name_l : emit load
)";
  DiagnosticSink Diags;
  MdSpec S;
  ASSERT_TRUE(parseSpec(Spec, S, Diags)) << Diags.renderAll();
  GrammarStats Gen = S.genericStats();
  EXPECT_EQ(Gen.Productions, 5u);

  Grammar G;
  ASSERT_TRUE(S.expand(G, Diags)) << Diags.renderAll();
  // 4 replicated rules x3 + 1 plain = 13.
  EXPECT_EQ(G.numProductions(), 13u);
  EXPECT_GE(G.lookup("Assign_b"), 0);
  EXPECT_GE(G.lookup("Assign_w"), 0);
  EXPECT_GE(G.lookup("Assign_l"), 0);
  // The @Y scale marker became One/Two/Four.
  EXPECT_GE(G.lookup("One"), 0);
  EXPECT_GE(G.lookup("Two"), 0);
  EXPECT_GE(G.lookup("Four"), 0);
  // Tags were replicated as well.
  bool SawDxB = false;
  for (const Production &P : G.productions())
    if (P.SemTag == "dx_b")
      SawDxB = true;
  EXPECT_TRUE(SawDxB);
}

TEST(SpecParserTest, RejectsMixedClasses) {
  const char *Spec = R"(
%class Y b w l
%class Z b w
%start s
s <- Plus_Y rval_Z : emit bad
rval_b <- Const_b : glue
rval_w <- Const_w : glue
)";
  DiagnosticSink Diags;
  MdSpec S;
  ASSERT_TRUE(parseSpec(Spec, S, Diags));
  Grammar G;
  EXPECT_FALSE(S.expand(G, Diags));
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(SpecParserTest, ReportsSyntaxErrors) {
  DiagnosticSink Diags;
  MdSpec S;
  EXPECT_FALSE(parseSpec("%start s\nfoo bar baz\n", S, Diags));
  EXPECT_TRUE(Diags.hasErrors());
}

} // namespace
