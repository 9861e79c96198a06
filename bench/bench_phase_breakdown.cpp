//===- bench_phase_breakdown.cpp - experiment E5 (paper section 5) -------------===//
//
// "Roughly one half the code generation time is spent in the pattern
//  matching phase." — and section 8: "Our code generator spends most of
//  its time parsing. This reflects both the large number of chain
//  productions in the grammar, and the time spent manipulating and
//  unpacking the description tables."
//
// We time the three dynamic phases (tree transformation, pattern
// matching, instruction generation) over a corpus.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace gg;

int main(int argc, char **) {
  if (argc > 1) {
    fprintf(stderr, "usage: bench_phase_breakdown (takes no options)\n");
    return 2;
  }
  ggbench::header("E5", "code generation time by phase",
                  "roughly one half of the time is pattern matching");

  // Ten generated programs of ~10 functions, straight from the generator:
  // this experiment compiles them and never runs them, so it skips
  // ggbench::corpus's interpreter filter.
  std::vector<std::string> Corpus;
  for (uint64_t Seed = 0xFA5E; Seed < 0xFA5E + 10; ++Seed)
    Corpus.push_back(generateLargeProgram(Seed, 10));
  ggbench::resetStats();
  double Transform = 0, Match = 0, Gen = 0, Emit = 0;
  size_t Trees = 0, Tokens = 0, Steps = 0;
  // Repeat to stabilize the small timings.
  for (int Round = 0; Round < 5; ++Round) {
    for (const std::string &Source : Corpus) {
      CodeGenStats S;
      ggbench::compileGG(Source, {}, &S);
      Transform += S.TransformSeconds;
      Match += S.MatchSeconds;
      Gen += S.InstrGenSeconds;
      Emit += S.EmitSeconds;
      if (Round == 0) {
        Trees += S.StatementTrees;
        Tokens += S.MatcherTokens;
        Steps += S.MatcherSteps;
      }
    }
  }
  double Total = Transform + Match + Gen + Emit;
  printf("%-30s %10s %8s\n", "phase", "seconds", "share");
  printf("%-30s %10.4f %7.1f%%\n", "1  tree transformation", Transform,
         100 * Transform / Total);
  printf("%-30s %10.4f %7.1f%%   (paper: ~50%%)\n",
         "2  pattern matching", Match, 100 * Match / Total);
  printf("%-30s %10.4f %7.1f%%\n", "3  instruction generation", Gen,
         100 * Gen / Total);
  printf("%-30s %10.4f %7.1f%%\n", "4  output generation", Emit,
         100 * Emit / Total);
  printf("\nper-tree matcher work: %.1f input tokens, %.1f parse actions\n",
         double(Tokens) / Trees, double(Steps) / Trees);
  printf("(the action/token ratio reflects the chain productions the "
         "paper blames:\n conversions, operand-category glue, constant "
         "condensations)\n");
  ggbench::emitBenchJson("E5");
  return 0;
}
