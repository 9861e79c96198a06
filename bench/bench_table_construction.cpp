//===- bench_table_construction.cpp - experiment E4 (sections 7 and 9) ---------===//
//
// "it required over two memory-intensive hours of VAX 11/780 CPU time to
//  construct a new set of tables ... We have already improved our
//  algorithms for table construction so that the computation for our
//  complete VAX description, which used to take over two hours, now
//  takes ten minutes." (a 12x improvement)
//
// We implement both constructions (BuildOptions::Optimized): the naive
// one uses linear state lookup, fixpoint closures with linear membership
// tests and ordered-set FIRST/FOLLOW — the CGGWS style; the optimized one
// uses hashed states, indexed worklist closures and bitsets. Both produce
// identical tables (asserted by the test suite); we report the speedup.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace gg;

int main(int argc, char **) {
  if (argc > 1) {
    fprintf(stderr, "usage: bench_table_construction (takes no options)\n");
    return 2;
  }
  ggbench::header("E4", "table construction: naive (CGGWS) vs improved",
                  "over two hours -> ten minutes (roughly 12x)");

  Grammar G;
  {
    MdSpec Spec;
    DiagnosticSink Diags;
    if (!buildVaxGrammar(G, Spec, Diags))
      abort();
  }
  BuildOptions Fast, Slow;
  Slow.Optimized = false;
  BuildResult RF = buildTables(G, Fast);
  BuildResult RS = buildTables(G, Slow);
  if (!RF.Ok || !RS.Ok) {
    fprintf(stderr, "construction failed\n");
    return 1;
  }

  printf("%-28s %12s %12s\n", "", "naive", "improved");
  printf("%-28s %12.3f %12.3f\n", "construction seconds", RS.Seconds,
         RF.Seconds);
  printf("%-28s %12d %12d\n", "states", RS.Tables.NumStates,
         RF.Tables.NumStates);
  printf("%-28s %12zu %12zu\n", "items", RS.TotalItems, RF.TotalItems);
  printf("\nspeedup: %.1fx   (paper: ~12x, 2h -> 10min)\n\n",
         RS.Seconds / RF.Seconds);

  // The paper notes most development runs used "a data-type subsetted
  // description grammar" to keep turnaround bearable; reproduce that row.
  VaxGrammarOptions Subset;
  Subset.NumSizes = 1;
  Grammar GS;
  MdSpec SpecS;
  DiagnosticSink Diags;
  if (buildVaxGrammar(GS, SpecS, Diags, Subset)) {
    BuildResult SF = buildTables(GS, Fast);
    BuildResult SS = buildTables(GS, Slow);
    printf("subsetted description (one size class): naive %.3fs, "
           "improved %.3fs (%.1fx)\n\n",
           SS.Seconds, SF.Seconds, SS.Seconds / SF.Seconds);
  }
  return 0;
}
