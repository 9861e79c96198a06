//===- Peephole.cpp - assembly-level peephole optimizer ------------------------===//

#include "cg/Peephole.h"
#include "support/Strings.h"
#include "support/Trace.h"

#include <map>
#include <string_view>

using namespace gg;

namespace {

enum class LineKind { Blank, Label, Directive, Inst, Comment };

struct ParsedLine {
  LineKind Kind = LineKind::Blank;
  std::string_view Opcode;
  std::string_view Operands; ///< raw operand text after the opcode
};

ParsedLine parseLine(const std::string &Line) {
  ParsedLine P;
  if (Line.empty()) {
    P.Kind = LineKind::Blank;
    return P;
  }
  if (Line[0] == '#') {
    P.Kind = LineKind::Comment;
    return P;
  }
  if (Line[0] != '\t') {
    P.Kind = Line.back() == ':' ? LineKind::Label : LineKind::Blank;
    return P;
  }
  std::string_view Body(Line);
  Body.remove_prefix(1);
  if (!Body.empty() && Body[0] == '.') {
    P.Kind = LineKind::Directive;
    return P;
  }
  P.Kind = LineKind::Inst;
  size_t Tab = Body.find('\t');
  if (Tab == std::string_view::npos) {
    P.Opcode = Body;
  } else {
    P.Opcode = Body.substr(0, Tab);
    P.Operands = Body.substr(Tab + 1);
  }
  return P;
}

bool isUncondBranch(std::string_view Op) {
  return Op == "brw" || Op == "brb" || Op == "jbr";
}

bool isCondBranch(std::string_view Op) {
  static const char *const Names[] = {"jeql", "jneq", "jlss",  "jleq",
                                      "jgtr", "jgeq", "jlssu", "jlequ",
                                      "jgtru", "jgequ"};
  for (const char *N : Names)
    if (Op == N)
      return true;
  return false;
}

std::string invertBranch(std::string_view Op) {
  static const std::pair<const char *, const char *> Inv[] = {
      {"jeql", "jneq"},   {"jlss", "jgeq"},   {"jleq", "jgtr"},
      {"jlssu", "jgequ"}, {"jlequ", "jgtru"},
  };
  for (auto &[A, B] : Inv) {
    if (Op == A)
      return B;
    if (Op == B)
      return A;
  }
  return std::string(Op);
}

class PeepholePass {
public:
  explicit PeepholePass(std::vector<std::string> &Lines) : Lines(Lines) {}

  PeepholeStats run() {
    for (int Round = 0; Round < 8; ++Round) {
      bool Changed = false;
      Changed |= collapseChains();
      Changed |= invertOverUncond();
      Changed |= removeBranchToNext();
      Changed |= removeUnreachable();
      if (!Changed)
        break;
    }
    return Stats;
  }

private:
  std::vector<std::string> &Lines;
  PeepholeStats Stats;

  std::string labelNameAt(size_t I) const {
    return Lines[I].substr(0, Lines[I].size() - 1);
  }

  void erase(size_t I) { Lines.erase(Lines.begin() + I); }

  /// Index of the next line that is not a label/blank/comment, from I.
  size_t nextCode(size_t I) const {
    while (I < Lines.size()) {
      LineKind K = parseLine(Lines[I]).Kind;
      if (K == LineKind::Inst || K == LineKind::Directive)
        return I;
      ++I;
    }
    return Lines.size();
  }

  /// True if label \p Name appears among the label lines in [From, To).
  bool labelInRange(const std::string &Name, size_t From, size_t To) const {
    for (size_t I = From; I < To && I < Lines.size(); ++I)
      if (parseLine(Lines[I]).Kind == LineKind::Label &&
          labelNameAt(I) == Name)
        return true;
    return false;
  }

  std::map<std::string, size_t> labelIndex() const {
    std::map<std::string, size_t> Map;
    for (size_t I = 0; I < Lines.size(); ++I)
      if (parseLine(Lines[I]).Kind == LineKind::Label)
        Map[labelNameAt(I)] = I;
    return Map;
  }

  bool removeBranchToNext() {
    bool Changed = false;
    for (size_t I = 0; I < Lines.size(); ++I) {
      ParsedLine P = parseLine(Lines[I]);
      if (P.Kind != LineKind::Inst || !isUncondBranch(P.Opcode))
        continue;
      std::string Target(P.Operands);
      size_t Next = nextCode(I + 1);
      if (labelInRange(Target, I + 1, Next)) {
        erase(I);
        ++Stats.BranchToNextRemoved;
        Changed = true;
        --I;
      }
    }
    return Changed;
  }

  bool invertOverUncond() {
    bool Changed = false;
    for (size_t I = 0; I + 2 < Lines.size(); ++I) {
      ParsedLine A = parseLine(Lines[I]);
      if (A.Kind != LineKind::Inst || !isCondBranch(A.Opcode))
        continue;
      ParsedLine B = parseLine(Lines[I + 1]);
      if (B.Kind != LineKind::Inst || !isUncondBranch(B.Opcode))
        continue;
      // jCC L1; brw L2; ... L1 among the labels immediately following.
      std::string L1(A.Operands);
      size_t Next = nextCode(I + 2);
      if (!labelInRange(L1, I + 2, Next))
        continue;
      std::string Inverted = invertBranch(A.Opcode);
      if (Inverted == A.Opcode)
        continue; // not invertible (jeql/jneq are; all our conds are)
      Lines[I] = strf("\t%s\t%s", Inverted.c_str(),
                      std::string(B.Operands).c_str());
      erase(I + 1);
      ++Stats.BranchesInverted;
      Changed = true;
    }
    return Changed;
  }

  bool collapseChains() {
    bool Changed = false;
    std::map<std::string, size_t> Labels = labelIndex();
    for (size_t I = 0; I < Lines.size(); ++I) {
      ParsedLine P = parseLine(Lines[I]);
      if (P.Kind != LineKind::Inst ||
          (!isUncondBranch(P.Opcode) && !isCondBranch(P.Opcode)))
        continue;
      std::string Target(P.Operands);
      auto It = Labels.find(Target);
      if (It == Labels.end())
        continue;
      size_t Dest = nextCode(It->second + 1);
      if (Dest >= Lines.size())
        continue;
      ParsedLine D = parseLine(Lines[Dest]);
      if (D.Kind != LineKind::Inst || !isUncondBranch(D.Opcode))
        continue;
      std::string Final(D.Operands);
      if (Final == Target)
        continue; // self-loop; leave it
      Lines[I] = strf("\t%s\t%s", std::string(P.Opcode).c_str(),
                      Final.c_str());
      ++Stats.ChainsCollapsed;
      Changed = true;
    }
    return Changed;
  }

  bool removeUnreachable() {
    bool Changed = false;
    for (size_t I = 0; I < Lines.size(); ++I) {
      ParsedLine P = parseLine(Lines[I]);
      if (P.Kind != LineKind::Inst ||
          (!isUncondBranch(P.Opcode) && P.Opcode != "ret"))
        continue;
      // Delete instruction lines until a label or directive.
      while (I + 1 < Lines.size()) {
        ParsedLine N = parseLine(Lines[I + 1]);
        if (N.Kind == LineKind::Inst) {
          erase(I + 1);
          ++Stats.UnreachableRemoved;
          Changed = true;
          continue;
        }
        if (N.Kind == LineKind::Blank || N.Kind == LineKind::Comment) {
          ++I; // skip separators but keep scanning? stop to stay simple
          break;
        }
        break;
      }
    }
    return Changed;
  }
};

} // namespace

PeepholeStats gg::runPeephole(std::vector<std::string> &Lines) {
  TraceSpan Span("cg.peephole");
  PeepholePass Pass(Lines);
  PeepholeStats PS = Pass.run();
  Span.arg("rewrites", PS.total());
  return PS;
}
