//===- bench_register_pressure.cpp - experiment E10 (section 5.1.3/5.3.3) ------===//
//
// "Since the instruction selector does a left to right, no backup
//  traversal of the expression tree, a mostly right recursive tree could
//  run out of registers. However, an equivalent left recursive tree might
//  not have this problem." Phase 1c reorders subtrees and inserts
//  explicit stores to prevent spills; the phase-3 register manager spills
//  to virtual registers when the prevention is disabled.
//
// We compile deep right- and left-recursive expressions with the 1c
// machinery on and off, and report spill/unspill counts. All variants
// must compute the same value.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Strings.h"

using namespace gg;

namespace {

/// sum of v0..vN-1 with chosen associativity, deep in-register pressure:
/// every term is (vK | 1) so operands are computed values, not foldable
/// memory operands.
std::string deepProgram(int Terms, bool RightRecursive) {
  std::string Decl, Init, Expr;
  for (int I = 0; I < Terms; ++I) {
    Decl += strf("  int v%d;", I);
    Init += strf("  v%d = %d;\n", I, I * 3 + 1);
  }
  if (RightRecursive) {
    Expr = strf("(v%d | 1)", Terms - 1);
    for (int I = Terms - 2; I >= 0; --I)
      Expr = strf("((v%d | 1) + %s)", I, Expr.c_str());
  } else {
    Expr = "(v0 | 1)";
    for (int I = 1; I < Terms; ++I)
      Expr = strf("(%s + (v%d | 1))", Expr.c_str(), I);
  }
  return strf("int main() {\n%s\n%s  print(%s);\n  return 0;\n}\n",
              Decl.c_str(), Init.c_str(), Expr.c_str());
}

struct Row {
  const char *Shape;
  const char *Options;
  CodeGenStats S;
  std::string Output;
};

} // namespace

int main() {
  ggbench::header("E10", "register pressure, reordering and spilling",
                  "1c prevents spills; the register manager spills to "
                  "virtual registers otherwise");

  const int Terms = 14;
  std::vector<Row> Rows;
  std::string Expected;

  for (bool Right : {true, false}) {
    std::string Source = deepProgram(Terms, Right);
    for (int Mode = 0; Mode < 2; ++Mode) {
      CodeGenOptions Opts;
      if (Mode == 1) {
        Opts.Transform.Reorder = false;
        Opts.Transform.ReverseOps = false;
        Opts.Transform.PreventSpills = false;
      }
      Row R;
      R.Shape = Right ? "right-recursive" : "left-recursive";
      R.Options = Mode == 0 ? "phase 1c on" : "phase 1c off";
      std::string Asm = ggbench::compileGG(Source, Opts, &R.S);
      SimResult Run = ggbench::mustRun(Asm);
      R.Output = Run.Output;
      if (Expected.empty())
        Expected = Run.Output;
      if (Run.Output != Expected) {
        fprintf(stderr, "OUTPUT MISMATCH for %s / %s\n", R.Shape,
                R.Options);
        return 1;
      }
      Rows.push_back(R);
    }
  }

  printf("deep sum of %d computed terms; all variants print the same "
         "value: yes\n\n",
         Terms);
  printf("%-18s %-14s %8s %8s %8s %9s %8s\n", "tree shape", "transform",
         "insts", "spills", "unspill", "splits", "maxlive");
  for (const Row &R : Rows)
    printf("%-18s %-14s %8zu %8u %8u %9u %8u\n", R.Shape, R.Options,
           R.S.Instructions, R.S.Regs.Spills, R.S.Regs.Unspills,
           R.S.Transform.SpillSplits,
           static_cast<unsigned>(R.S.Regs.Live.Max));
  printf("\nexpected shape: with 1c off, the right-recursive tree forces "
         "runtime spills\n(virtual registers); 1c's explicit stores keep "
         "the selector inside the bank.\n");
  return 0;
}
