//===- Linearize.cpp - prefix linearization of trees ----------------------===//

#include "ir/Linearize.h"
#include "support/Error.h"
#include "support/Strings.h"

#include <unordered_map>

using namespace gg;

namespace {

// Every terminal a node can linearize to has a slot: the typed operators
// (Op x size class), then the special long constants, the conversion
// pairs, CBranch and Label. slotOf() and slotName() are the naming rules;
// terminalName() and TerminalMap both go through them, so a name and its
// index cannot disagree.
constexpr int NumOps = 0
#define GG_OP(Name, Str, Arity, Flags) +1
#include "ir/Ops.def"
#undef GG_OP
    ;
constexpr int NumSC = 3;
constexpr int SpecialSlot = NumOps * NumSC;
constexpr int CvtSlot = SpecialSlot + 5;
constexpr int CBranchSlot = CvtSlot + NumSC * NumSC;
constexpr int LabelSlot = CBranchSlot + 1;
constexpr int NumSlots = LabelSlot + 1;

constexpr const char *SpecialNames[] = {"Zero", "One", "Two", "Four",
                                        "Eight"};

int scIndex(Ty T) { return static_cast<int>(sizeClassOf(T)); }

int slotOf(const Node *N) {
  assert(N && "terminal of a null node");
  switch (N->Opcode) {
  case Op::Const:
    // The special long constants get their own terminal symbols (§6.4).
    if (sizeClassOf(N->Type) == SizeClass::L) {
      switch (N->Value) {
      case 0:
        return SpecialSlot;
      case 1:
        return SpecialSlot + 1;
      case 2:
        return SpecialSlot + 2;
      case 4:
        return SpecialSlot + 3;
      case 8:
        return SpecialSlot + 4;
      default:
        break;
      }
    }
    break;
  case Op::Conv:
    assert(N->left() && "Conv without operand");
    return CvtSlot + scIndex(N->left()->Type) * NumSC + scIndex(N->Type);
  case Op::CBranch:
    return CBranchSlot;
  case Op::Label:
    return LabelSlot;
  default:
    break;
  }
  return static_cast<int>(N->Opcode) * NumSC + scIndex(N->Type);
}

std::string slotName(int Slot) {
  auto SC = [](int I) { return suffixChar(static_cast<SizeClass>(I)); };
  if (Slot < SpecialSlot)
    return strf("%s_%c", opName(static_cast<Op>(Slot / NumSC)),
                SC(Slot % NumSC));
  if (Slot < CvtSlot)
    return SpecialNames[Slot - SpecialSlot];
  if (Slot < CBranchSlot)
    return strf("Cvt_%c_%c", SC((Slot - CvtSlot) / NumSC),
                SC((Slot - CvtSlot) % NumSC));
  return Slot == CBranchSlot ? "CBranch" : "Label";
}

} // namespace

std::string gg::terminalName(const Node *N) { return slotName(slotOf(N)); }

TerminalMap::TerminalMap(const std::vector<std::string> &Names) {
  if (Names.size() > INT16_MAX)
    fatalError(strf("%zu terminals: a LinToken index holds at most %d",
                    Names.size(), INT16_MAX));
  std::unordered_map<std::string, int16_t> Index;
  for (size_t I = 0; I < Names.size(); ++I)
    Index.emplace(Names[I], static_cast<int16_t>(I));
  Slots.resize(NumSlots);
  for (int S = 0; S < NumSlots; ++S) {
    auto It = Index.find(slotName(S));
    Slots[S] = It == Index.end() ? -1 : It->second;
  }
}

int16_t TerminalMap::indexOf(const Node *N) const { return Slots[slotOf(N)]; }

namespace {
void linearizeRec(const Node *N, const TerminalMap &Terms,
                  std::vector<LinToken> &Out) {
  if (!N)
    return;
  Out.push_back({Terms.indexOf(N), N});
  for (const Node *Kid : N->Kids)
    linearizeRec(Kid, Terms, Out);
}

void namesRec(const Node *N, std::vector<std::string> &Out) {
  if (!N)
    return;
  Out.push_back(terminalName(N));
  for (const Node *Kid : N->Kids)
    namesRec(Kid, Out);
}
} // namespace

void gg::linearize(const Node *Tree, const TerminalMap &Terms,
                   std::vector<LinToken> &Out) {
  linearizeRec(Tree, Terms, Out);
}

std::vector<LinToken> gg::linearize(const Node *Tree,
                                    const TerminalMap &Terms) {
  std::vector<LinToken> Tokens;
  linearize(Tree, Terms, Tokens);
  return Tokens;
}

std::vector<std::string> gg::terminalNames(const Node *Tree) {
  std::vector<std::string> Names;
  namesRec(Tree, Names);
  return Names;
}
