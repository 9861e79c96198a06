//===- bench_compile_speed.cpp - experiment E3 (paper section 8) ---------------===//
//
// "For a particular large C program, our code generator generates code in
//  80.1 seconds, compared with the 55.4 seconds the portable C compiler
//  spends. Our code produces 11385 lines of assembly code; PCC produces
//  11309 lines."
//
// Shape to reproduce: the table-driven generator is somewhat slower than
// the hand-coded baseline (paper ratio 1.45x) while producing nearly the
// same amount of assembly (ratio 1.007x).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/Clock.h"
#include <benchmark/benchmark.h>
#include <cstring>

using namespace gg;

namespace {

/// Eight generated programs of ~10 functions, straight from the
/// generator: this experiment compiles them and never runs them, so it
/// skips ggbench::corpus's interpreter filter.
const std::vector<std::string> &largeCorpus() {
  static const std::vector<std::string> C = [] {
    std::vector<std::string> Out;
    for (uint64_t Seed = 0x10ADED; Seed < 0x10ADED + 8; ++Seed)
      Out.push_back(generateLargeProgram(Seed, 10));
    return Out;
  }();
  return C;
}

void BM_GGCompile(benchmark::State &State) {
  const auto &Corpus = largeCorpus();
  for (auto _ : State) {
    size_t Lines = 0;
    for (const std::string &Source : Corpus) {
      CodeGenStats S;
      std::string Asm = ggbench::compileGG(Source, {}, &S);
      Lines += S.AsmLines;
    }
    benchmark::DoNotOptimize(Lines);
  }
}
BENCHMARK(BM_GGCompile)->Unit(benchmark::kMillisecond);

void BM_PccCompile(benchmark::State &State) {
  const auto &Corpus = largeCorpus();
  for (auto _ : State) {
    size_t Lines = 0;
    for (const std::string &Source : Corpus) {
      PccStats S;
      std::string Asm = ggbench::compilePcc(Source, &S);
      Lines += S.AsmLines;
    }
    benchmark::DoNotOptimize(Lines);
  }
}
BENCHMARK(BM_PccCompile)->Unit(benchmark::kMillisecond);

// Thread-scaling sweep: the same corpus through the parallel per-function
// pipeline at 1/2/4/8 workers. Output is byte-identical at every point
// (asserted by parallel_test); this measures only wall-clock scaling,
// which is hardware-dependent — on a single-core host all points
// degenerate to serial speed plus pool overhead.
void BM_GGCompileThreads(benchmark::State &State) {
  const auto &Corpus = largeCorpus();
  CodeGenOptions Opts;
  Opts.Parallel.Threads = static_cast<int>(State.range(0));
  for (auto _ : State) {
    size_t Lines = 0;
    for (const std::string &Source : Corpus) {
      CodeGenStats S;
      std::string Asm = ggbench::compileGG(Source, Opts, &S);
      Lines += S.AsmLines;
    }
    benchmark::DoNotOptimize(Lines);
  }
}
BENCHMARK(BM_GGCompileThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  // --baseline-json=FILE writes the deterministic counts of the single
  // pass as a gg-bench-v1 file, compared for equality with the committed
  // BENCH_compile_speed.json, and skips the thread sweep and the
  // google-benchmark half. Every other flag goes to the benchmark library,
  // which rejects the ones it does not know.
  std::string BaselinePath;
  int Kept = 1;
  for (int I = 1; I < argc; ++I)
    if (strncmp(argv[I], "--baseline-json=", 16) == 0)
      BaselinePath = argv[I] + 16;
    else
      argv[Kept++] = argv[I];
  argc = Kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 2;

  ggbench::header("E3", "code generation speed and output size, GG vs PCC",
                  "GG 80.1s vs PCC 55.4s (1.45x slower); "
                  "11385 vs 11309 assembly lines (1.007x)");

  // One timed pass per backend for the report table; the baseline keeps
  // only its counts.
  const auto &Corpus = largeCorpus();
  size_t GGLines = 0, PccLines = 0, GGInsts = 0, PccInsts = 0;
  size_t GGTrees = 0, GGTokens = 0, GGSteps = 0;
  double GGSeconds = 0, PccSeconds = 0;
  {
    const MonoClock::time_point Start = MonoClock::now();
    for (const std::string &Source : Corpus) {
      CodeGenStats S;
      ggbench::compileGG(Source, {}, &S);
      GGLines += S.AsmLines;
      GGInsts += S.Instructions;
      GGTrees += S.StatementTrees;
      GGTokens += S.MatcherTokens;
      GGSteps += S.MatcherSteps;
    }
    GGSeconds = monoSeconds(Start, MonoClock::now());
  }
  {
    const MonoClock::time_point Start = MonoClock::now();
    for (const std::string &Source : Corpus) {
      PccStats S;
      ggbench::compilePcc(Source, &S);
      PccLines += S.AsmLines;
      PccInsts += S.Instructions;
    }
    PccSeconds = monoSeconds(Start, MonoClock::now());
  }

  printf("%-24s %12s %12s %9s\n", "", "GG (table)", "PCC (hand)", "ratio");
  printf("%-24s %12.3f %12.3f %8.2fx   (paper: 1.45x)\n",
         "compile seconds", GGSeconds, PccSeconds, GGSeconds / PccSeconds);
  printf("%-24s %12zu %12zu %8.3fx   (paper: 1.007x)\n", "assembly lines",
         GGLines, PccLines, double(GGLines) / double(PccLines));
  printf("%-24s %12zu %12zu %8.3fx\n", "instructions emitted", GGInsts,
         PccInsts, double(GGInsts) / double(PccInsts));
  printf("\ncorpus: %zu synthetic programs, ~10 functions each\n\n",
         Corpus.size());

  if (!BaselinePath.empty())
    return writeTextOrStdout(BaselinePath,
                             benchJson("compile_speed",
                                       {{"gg_asm_lines", GGLines},
                                        {"pcc_asm_lines", PccLines},
                                        {"gg_instructions", GGInsts},
                                        {"pcc_instructions", PccInsts},
                                        {"gg_trees", GGTrees},
                                        {"gg_matcher_tokens", GGTokens},
                                        {"gg_matcher_steps", GGSteps}}))
               ? 0
               : 1;

  // Thread-scaling table + one BENCH_JSON line per point (gg-stats-v1,
  // carrying the cg.parallel.* counters for that thread count). Speedup is
  // hardware-dependent: on a single-core host every point is ~1.0x.
  printf("thread scaling (same corpus, parallel per-function pipeline):\n");
  printf("%-24s %12s %9s %9s %9s\n", "", "seconds", "speedup", "tasks",
         "steals");
  double Serial = 0;
  for (int Threads : {1, 2, 4, 8}) {
    ggbench::resetStats();
    CodeGenOptions Opts;
    Opts.Parallel.Threads = Threads;
    uint64_t Tasks = 0, Steals = 0;
    const MonoClock::time_point Start = MonoClock::now();
    for (const std::string &Source : Corpus) {
      CodeGenStats S;
      ggbench::compileGG(Source, Opts, &S);
      Tasks += S.Parallel.Tasks;
      Steals += S.Parallel.Steals;
    }
    const double Seconds = monoSeconds(Start, MonoClock::now());
    if (Threads == 1)
      Serial = Seconds;
    char Row[32];
    snprintf(Row, sizeof(Row), "threads=%d", Threads);
    printf("%-24s %12.3f %8.2fx %9llu %9llu\n", Row, Seconds,
           Serial / Seconds, static_cast<unsigned long long>(Tasks),
           static_cast<unsigned long long>(Steals));
    char Id[32];
    snprintf(Id, sizeof(Id), "E3-threads-%d", Threads);
    ggbench::emitBenchJson(Id);
  }
  printf("\n");

  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
