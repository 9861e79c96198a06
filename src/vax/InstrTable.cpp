//===- InstrTable.cpp - the hand-written instruction table ------------------===//

#include "vax/InstrTable.h"
#include "support/Strings.h"

#include <cassert>
#include <iterator>

using namespace gg;

namespace {
constexpr InstCluster Clusters[] = {
    {"add", ClusterKind::Arith3, "add", true, RangeIdiom::AddSub,
     "addX3 / addX2 / incX,decX"},
    {"sub", ClusterKind::Arith3, "sub", false, RangeIdiom::AddSub,
     "subX3 s1,s2,d computes s2-s1; / subX2 / decX,incX"},
    {"mul", ClusterKind::Arith3, "mul", true, RangeIdiom::Mul,
     "mulX3 / mulX2 / ashl for powers of two (long)"},
    {"div", ClusterKind::Arith3, "div", false, RangeIdiom::Div,
     "divX3 s1,s2,d computes s2/s1; unsigned via library call"},
    {"mod", ClusterKind::Special, nullptr, false, RangeIdiom::None,
     "pseudo-instruction: div/mul/sub expansion; unsigned via library"},
    {"and", ClusterKind::Special, "bic", true, RangeIdiom::None,
     "no VAX and: bicX with complemented mask (mcom for non-constants)"},
    {"bis", ClusterKind::Arith3, "bis", true, RangeIdiom::BisXor,
     "bisX3 / bisX2 / mov for |$0"},
    {"xor", ClusterKind::Arith3, "xor", true, RangeIdiom::BisXor,
     "xorX3 / xorX2 / mov for ^$0"},
    {"ash", ClusterKind::Special, "ashl", false, RangeIdiom::None,
     "ashl cnt,src,dst; right shifts negate the count"},
    {"rsh", ClusterKind::Special, "ashl", false, RangeIdiom::None,
     "arithmetic: ashl -cnt; unsigned (logical): extzv expansion"},
    {"mov", ClusterKind::Move, "mov", false, RangeIdiom::Mov,
     "movX / clrX for $0 / elided when src==dst"},
    {"neg", ClusterKind::Unary2, "mneg", false, RangeIdiom::None, "mnegX"},
    {"com", ClusterKind::Unary2, "mcom", false, RangeIdiom::None, "mcomX"},
    {"cmp", ClusterKind::Special, "cmp", false, RangeIdiom::Cmp,
     "cmpX / tstX against zero"},
    {"push", ClusterKind::Special, "push", false, RangeIdiom::None,
     "pushl (arguments are longs)"},
};

constexpr bool rowIs(InstRow Row, std::string_view Tag) {
  return Clusters[Row].Tag == Tag;
}
static_assert(std::size(Clusters) == RowPush + 1 && rowIs(RowMul, "mul") &&
                  rowIs(RowMod, "mod") && rowIs(RowAnd, "and") &&
                  rowIs(RowAsh, "ash") && rowIs(RowRsh, "rsh") &&
                  rowIs(RowMov, "mov") && rowIs(RowNeg, "neg") &&
                  rowIs(RowCom, "com") && rowIs(RowCmp, "cmp") &&
                  rowIs(RowPush, "push"),
              "InstRow must follow the table's row order");
} // namespace

const InstCluster *gg::findCluster(std::string_view TagBase) {
  for (const InstCluster &C : Clusters)
    if (TagBase == C.Tag)
      return &C;
  return nullptr;
}

size_t gg::numClusters() { return std::size(Clusters); }

const InstCluster &gg::clusterAt(size_t Row) {
  assert(Row < std::size(Clusters));
  return Clusters[Row];
}

int gg::clusterId(const InstCluster &C) {
  assert(&C >= Clusters && &C < Clusters + std::size(Clusters) &&
         "cluster not from this table");
  return static_cast<int>(&C - Clusters);
}

SpellingTable::SpellingTable() {
  static const char Sizes[] = {'b', 'w', 'l'};
  auto Sized = [](const char *Base, char SC, const char *Digit = "") {
    return Spelling(strf("%s%c%s", Base, SC, Digit));
  };
  for (size_t S = 0; S < 3; ++S) {
    const char SC = Sizes[S];
    for (size_t R = 0; R < std::size(Clusters); ++R)
      if (const char *Base = Clusters[R].OpBase)
        for (int Form = 0; Form < 3; ++Form)
          Rows[R][S][Form] = Sized(Base, SC, Form == 0   ? ""
                                             : Form == 1 ? "2"
                                                         : "3");
    Clr[S] = Sized("clr", SC);
    Tst[S] = Sized("tst", SC);
    Inc[S] = Sized("inc", SC);
    Dec[S] = Sized("dec", SC);
    for (size_t T = 0; T < 3; ++T) {
      Convert[0][S][T] = strf("cvt%c%c", SC, Sizes[T]);
      Convert[1][S][T] = strf("movz%c%c", SC, Sizes[T]);
    }
  }
  for (int C = 0; C < NumConds; ++C)
    Branch[C] = strf("j%s", condName(static_cast<Cond>(C)));
}

bool SpellingTable::branchCond(Spelling S, Cond &C) const {
  for (int I = 0; I < NumConds; ++I)
    if (Branch[I] == S) {
      C = static_cast<Cond>(I);
      return true;
    }
  return false;
}

const SpellingTable &gg::spellings() {
  static const SpellingTable Table;
  return Table;
}

std::string gg::renderInstrTable() {
  std::string Out;
  Out += strf("%-6s %-8s %-10s %-5s %s\n", "op", "kind", "mnemonic", "-o-o",
              "idioms");
  for (const InstCluster &C : Clusters) {
    const char *Kind = C.Kind == ClusterKind::Arith3   ? "arith3"
                       : C.Kind == ClusterKind::Unary2 ? "unary2"
                       : C.Kind == ClusterKind::Move   ? "move"
                                                       : "special";
    Out += strf("%-6s %-8s %-10s %-5s %s\n", C.Tag, Kind,
                C.OpBase ? C.OpBase : "-", C.Swappable ? "yes" : "no",
                C.Note);
  }
  return Out;
}
