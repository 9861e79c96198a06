//===- VaxGrammar.cpp - the VAX machine description -------------------------===//
//
// The description below is the reproduction of the paper's factored VAX
// grammar (sections 4, 6.1-6.4): subtree factoring via the mem/reg/con/
// rval/lval non-terminals, syntactic typing via replication over the size
// classes, hand-written conversion cross products, bridge productions for
// the indexing patterns, and the specific Dreg/Zero branch productions of
// section 6.2.1. Production order matters in two places and is
// deliberate: equally long reduce/reduce candidates are statically
// resolved toward the earlier production, so the widening conversions
// precede the plain load rules (prefer one cvt over load-then-convert)
// and rval glue precedes loads (never load what an instruction can take
// as an operand directly).
//
//===----------------------------------------------------------------------===//

#include "vax/VaxGrammar.h"
#include "support/Strings.h"

using namespace gg;

namespace {

/// Spec-text assembler with printf-style line helper.
class SpecWriter {
public:
  void line(const char *Fmt, ...) __attribute__((format(printf, 2, 3))) {
    va_list Args;
    va_start(Args, Fmt);
    Text += strfv(Fmt, Args);
    va_end(Args);
    Text += '\n';
  }
  void raw(const std::string &S) { Text += S; }
  std::string Text;
};

} // namespace

std::string gg::vaxSpecText(const VaxGrammarOptions &Opts) {
  SpecWriter W;
  int N = Opts.NumSizes < 1 ? 1 : (Opts.NumSizes > 3 ? 3 : Opts.NumSizes);
  bool HasB = N >= 3, HasW = N >= 2;

  W.line("# VAX-11 machine description (integer subset)");
  W.line("# generated generic spec; type-replicated over %d size class(es)",
         N);
  if (N == 3)
    W.line("%%class Y b w l");
  else if (N == 2)
    W.line("%%class Y w l");
  else
    W.line("%%class Y l");
  W.line("%%start stmt");

  // Constant widening must precede the per-type constant rules: in a
  // state where both are complete the static tie-break picks the earlier
  // production, and an immediate retype beats a load-plus-convert chain.
  W.line("# ---- constants ------------------------------------------------");
  if (HasB)
    W.line("con_l <- Const_b : encap conwiden_b_l");
  if (HasW)
    W.line("con_l <- Const_w : encap conwiden_w_l");
  if (HasB && HasW)
    W.line("con_w <- Const_b : encap conwiden_b_w");
  W.raw(R"(
con_Y <- Const_Y : encap imm_Y
con_l <- Zero  : encap imm_l
con_l <- One   : encap imm_l
con_l <- Two   : encap imm_l
con_l <- Four  : encap imm_l
con_l <- Eight : encap imm_l
con_l <- Gaddr_l : encap immsym
)");
  // The special constants may also appear under byte/word operators when
  // the input generator emitted them with long type; cover those contexts
  // too (after the long forms: ties prefer the immediate long retype).
  for (const char *Tok : {"Zero", "One", "Two", "Four", "Eight"}) {
    if (HasB)
      W.line("con_b <- %s : encap imm_b", Tok);
    if (HasW)
      W.line("con_w <- %s : encap imm_w", Tok);
  }
  W.raw(R"(
)");

  W.raw(R"(
# ---- operand categories ------------------------------------------------
rval_Y <- reg_Y : glue
rval_Y <- mem_Y : glue
rval_Y <- con_Y : glue
lval_Y <- mem_Y : glue
lval_l <- Dreg_l : encap dregloc
reg_l  <- Dreg_l : encap usedreg
)");

  // Implicit widening first (preferred over load in static tie-breaks),
  // with the direct byte-to-long forms before the two-step chains so that
  // a long context widens a byte in one cvt instruction.
  if (HasB) {
    W.line("reg_l <- mem_b : emit cvtm_b_l");
    W.line("reg_l <- reg_b : emit cvtr_b_l");
  }
  if (HasW) {
    W.line("reg_l <- mem_w : emit cvtm_w_l");
    W.line("reg_l <- reg_w : emit cvtr_w_l");
  }
  if (HasB && HasW) {
    W.line("reg_w <- mem_b : emit cvtm_b_w");
    W.line("reg_w <- reg_b : emit cvtr_b_w");
  }
  // Plain loads come after the conversions on purpose (see header).
  W.line("reg_Y <- mem_Y : emit load_Y");
  W.line("reg_Y <- con_Y : emit loadcon_Y");

  W.raw(R"(
# ---- memory addressing -------------------------------------------------
mem_Y <- Name_Y : encap abs_Y
mem_Y <- Indir_Y Gaddr_l : encap gabs_Y
mem_Y <- Indir_Y reg_l : encap regdef_Y
mem_Y <- Indir_Y Plus_l con_l reg_l : encap disp_Y
mem_Y <- Indir_Y mem_l : encap def_Y
mem_Y <- Indir_Y Plus_l con_l Plus_l reg_l Mul_l @Y reg_l : encap dxdisp_Y
mem_Y <- Indir_Y Plus_l reg_l Mul_l @Y reg_l : encap dxreg_Y
mem_Y <- Indir_Y Plus_l con_l Mul_l @Y reg_l : encap dxabs_Y

# ---- bridge productions (section 6.2.2) --------------------------------
mem_Y <- Indir_Y Plus_l con_l Plus_l reg_l Mul_l rval_l rval_l : emit bridgedx1_Y bridge
mem_Y <- Indir_Y Plus_l reg_l Mul_l rval_l rval_l : emit bridgedx2_Y bridge
mem_Y <- Indir_Y Plus_l con_l Mul_l rval_l rval_l : emit bridgedx3_Y bridge

# ---- autoincrement / autodecrement (section 6.1) ------------------------
mem_Y <- Indir_Y PostInc_l Dreg_l @Y : encap autoinc_Y
mem_Y <- Indir_Y PreDec_l Dreg_l @Y : encap autodec_Y
reg_l <- PostInc_l Dreg_l con_l : emit postinc_l
reg_l <- PreDec_l Dreg_l con_l : emit predec_l
)");

  // Explicit conversion operators (hand-written cross product, §6.4).
  if (HasB && HasW) {
    W.line("reg_w <- Cvt_b_w rval_b : emit cvt_b_w");
    W.line("reg_b <- Cvt_w_b rval_w : emit cvt_w_b");
  }
  if (HasB) {
    W.line("reg_l <- Cvt_b_l rval_b : emit cvt_b_l");
    W.line("reg_b <- Cvt_l_b rval_l : emit cvt_l_b");
  }
  if (HasW) {
    W.line("reg_l <- Cvt_w_l rval_w : emit cvt_w_l");
    W.line("reg_w <- Cvt_l_w rval_l : emit cvt_l_w");
  }

  W.raw(R"(
# ---- register-target arithmetic ----------------------------------------
reg_Y <- Plus_Y rval_Y rval_Y : emit add_Y
reg_Y <- Minus_Y rval_Y rval_Y : emit sub_Y
reg_Y <- Mul_Y rval_Y rval_Y : emit mul_Y
reg_Y <- Div_Y rval_Y rval_Y : emit div_Y
reg_Y <- Mod_Y rval_Y rval_Y : emit mod_Y
reg_Y <- And_Y rval_Y rval_Y : emit and_Y
reg_Y <- Or_Y rval_Y rval_Y : emit bis_Y
reg_Y <- Xor_Y rval_Y rval_Y : emit xor_Y
reg_l <- Lsh_l rval_l rval_l : emit ash_l
reg_l <- Rsh_l rval_l rval_l : emit rsh_l
reg_Y <- Neg_Y rval_Y : emit neg_Y
reg_Y <- Com_Y rval_Y : emit com_Y

# ---- assignments (memory- or register-destination instructions) --------
stmt <- Assign_Y lval_Y rval_Y : emit mov_Y
stmt <- Assign_Y lval_Y Plus_Y rval_Y rval_Y : emit add3_Y
stmt <- Assign_Y lval_Y Minus_Y rval_Y rval_Y : emit sub3_Y
stmt <- Assign_Y lval_Y Mul_Y rval_Y rval_Y : emit mul3_Y
stmt <- Assign_Y lval_Y Div_Y rval_Y rval_Y : emit div3_Y
stmt <- Assign_Y lval_Y Mod_Y rval_Y rval_Y : emit mod3_Y
stmt <- Assign_Y lval_Y And_Y rval_Y rval_Y : emit and3_Y
stmt <- Assign_Y lval_Y Or_Y rval_Y rval_Y : emit bis3_Y
stmt <- Assign_Y lval_Y Xor_Y rval_Y rval_Y : emit xor3_Y
stmt <- Assign_l lval_l Lsh_l rval_l rval_l : emit ash3_l
stmt <- Assign_l lval_l Rsh_l rval_l rval_l : emit rsh3_l
stmt <- Assign_Y lval_Y Neg_Y rval_Y : emit neg2_Y
stmt <- Assign_Y lval_Y Com_Y rval_Y : emit com2_Y

# ---- assignment-embedded conversions (single cvt instruction) ----------
)");
  if (HasB && HasW) {
    W.line("stmt <- Assign_w lval_w mem_b : emit cvta_b_w");
    W.line("stmt <- Assign_b lval_b Cvt_w_b rval_w : emit cvta_w_b");
  }
  if (HasB) {
    W.line("stmt <- Assign_l lval_l mem_b : emit cvta_b_l");
    W.line("stmt <- Assign_b lval_b Cvt_l_b rval_l : emit cvta_l_b");
  }
  if (HasW) {
    W.line("stmt <- Assign_l lval_l mem_w : emit cvta_w_l");
    W.line("stmt <- Assign_w lval_w Cvt_l_w rval_l : emit cvta_l_w");
  }

  W.raw(R"(
# ---- branches (sections 6.1 / 6.2.1) ------------------------------------
stmt <- CBranch Cmp_Y rval_Y rval_Y Label : emit cmpbr_Y
stmt <- CBranch Cmp_l reg_l Zero Label : emit tstbr_l
stmt <- CBranch Cmp_l Dreg_l Zero Label : emit dregbr_l

# ---- calls --------------------------------------------------------------
stmt <- Push_l rval_l : emit push_l
)");

  if (Opts.ReverseOps) {
    W.raw(R"(
# ---- reverse operators (phase 1c, section 5.1.3) ------------------------
reg_Y <- MinusR_Y rval_Y rval_Y : emit subr_Y
reg_Y <- DivR_Y rval_Y rval_Y : emit divr_Y
reg_Y <- ModR_Y rval_Y rval_Y : emit modr_Y
reg_l <- LshR_l rval_l rval_l : emit ashr_l
reg_l <- RshR_l rval_l rval_l : emit rshr_l
stmt <- Assign_Y lval_Y MinusR_Y rval_Y rval_Y : emit sub3r_Y
stmt <- Assign_Y lval_Y DivR_Y rval_Y rval_Y : emit div3r_Y
stmt <- Assign_Y lval_Y ModR_Y rval_Y rval_Y : emit mod3r_Y
stmt <- Assign_l lval_l LshR_l rval_l rval_l : emit ash3r_l
stmt <- Assign_l lval_l RshR_l rval_l rval_l : emit rsh3r_l
stmt <- AssignR_Y rval_Y lval_Y : emit movr_Y
stmt <- AssignR_Y Plus_Y rval_Y rval_Y lval_Y : emit add3s_Y
stmt <- AssignR_Y Minus_Y rval_Y rval_Y lval_Y : emit sub3s_Y
stmt <- AssignR_Y Mul_Y rval_Y rval_Y lval_Y : emit mul3s_Y
stmt <- AssignR_Y Div_Y rval_Y rval_Y lval_Y : emit div3s_Y
stmt <- AssignR_Y Mod_Y rval_Y rval_Y lval_Y : emit mod3s_Y
stmt <- AssignR_Y And_Y rval_Y rval_Y lval_Y : emit and3s_Y
stmt <- AssignR_Y Or_Y rval_Y rval_Y lval_Y : emit bis3s_Y
stmt <- AssignR_Y Xor_Y rval_Y rval_Y lval_Y : emit xor3s_Y
stmt <- AssignR_l Lsh_l rval_l rval_l lval_l : emit ash3s_l
stmt <- AssignR_l Rsh_l rval_l rval_l lval_l : emit rsh3s_l
stmt <- AssignR_Y MinusR_Y rval_Y rval_Y lval_Y : emit sub3sr_Y
stmt <- AssignR_Y DivR_Y rval_Y rval_Y lval_Y : emit div3sr_Y
stmt <- AssignR_Y ModR_Y rval_Y rval_Y lval_Y : emit mod3sr_Y
stmt <- AssignR_l LshR_l rval_l rval_l lval_l : emit ash3sr_l
stmt <- AssignR_l RshR_l rval_l rval_l lval_l : emit rsh3sr_l
stmt <- AssignR_Y Neg_Y rval_Y lval_Y : emit neg2s_Y
stmt <- AssignR_Y Com_Y rval_Y lval_Y : emit com2s_Y
)");
    if (HasB && HasW) {
      W.line("stmt <- AssignR_w mem_b lval_w : emit cvtas_b_w");
      W.line("stmt <- AssignR_b Cvt_w_b rval_w lval_b : emit cvtas_w_b");
    }
    if (HasB) {
      W.line("stmt <- AssignR_l mem_b lval_l : emit cvtas_b_l");
      W.line("stmt <- AssignR_b Cvt_l_b rval_l lval_b : emit cvtas_l_b");
    }
    if (HasW) {
      W.line("stmt <- AssignR_l mem_w lval_l : emit cvtas_w_l");
      W.line("stmt <- AssignR_w Cvt_l_w rval_l lval_w : emit cvtas_l_w");
    }
  }

  return W.Text;
}

bool gg::buildVaxGrammar(Grammar &G, MdSpec &Spec, DiagnosticSink &Diags,
                         const VaxGrammarOptions &Opts) {
  return buildVaxGrammar(G, Spec, Diags, vaxSpecText(Opts));
}

bool gg::buildVaxGrammar(Grammar &G, MdSpec &Spec, DiagnosticSink &Diags,
                         const std::string &Text) {
  if (!parseSpec(Text, Spec, Diags))
    return false;
  if (!Spec.expand(G, Diags))
    return false;
  G.freeze();
  G.validate(Diags);
  return !Diags.hasErrors();
}

uint32_t gg::vaxTerminalCategory(std::string_view TermName) {
  // Category = (arity << 4) | size-class, for the operator terminals that
  // should be uniformly accepted wherever a same-shape operator is.
  auto SizeBits = [&](char C) -> uint32_t {
    switch (C) {
    case 'b':
      return 1;
    case 'w':
      return 2;
    case 'l':
      return 3;
    default:
      return 0;
    }
  };
  size_t Underscore = TermName.rfind('_');
  if (Underscore == std::string_view::npos || Underscore + 2 != TermName.size())
    return 0;
  uint32_t SC = SizeBits(TermName[Underscore + 1]);
  if (!SC)
    return 0;
  std::string_view Base = TermName.substr(0, Underscore);
  static const char *const Binary[] = {"Plus", "Minus", "Mul",    "Div",
                                       "Mod",  "And",   "Or",     "Xor",
                                       "MinusR", "DivR", "ModR"};
  for (const char *B : Binary)
    if (Base == B)
      return (2u << 4) | SC;
  // Indir is deliberately NOT grouped with Neg/Com: Indir is viable in
  // lvalue positions (assignment destinations) where value operators are
  // correctly rejected, which would be a false block report.
  static const char *const Unary[] = {"Neg", "Com"};
  for (const char *U : Unary)
    if (Base == U)
      return (1u << 4) | SC;
  // Lsh/Rsh exist only at size l and would generate false reports at b/w;
  // the conversion operators carry two size suffixes and are exempt too.
  return 0;
}
