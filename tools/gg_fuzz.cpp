//===- gg_fuzz.cpp - grammar-aware differential fuzzer driver -------------===//
//
// Generates programs *from the machine grammar itself* (fuzz/GrammarWalk +
// fuzz/TreeSynth) and proves the SLR tables are covered: every production
// the shipped pipeline can reduce, every reachable state, every
// dynamic-tie point — each witnessed by a program that runs through three
// oracles (IR interpreter, table-driven backend + VAX simulator, PCC
// baseline + VAX simulator) which must agree byte-for-byte.
//
//   gg-fuzz [--seed=N] [--threads=N] [--mode=cover|analyze]
//           [--target-production=ID] [--max-programs=N]
//           [--stmts-per-program=N] [--minutes=N] [--no-shrink]
//           [--coverage-json=FILE] [--stats-json=FILE] [--fail-on-gap]
//
//   --mode=cover    (default) plan + synthesize + run the three oracles;
//                   exit 1 on any differential failure.
//   --mode=analyze  plan only: report what the witness search can and
//                   cannot reach (statically shadowed productions,
//                   unwitnessed targets) without running a single program.
//   --target-production=ID   plan only witnesses reducing production ID
//                   (the directed mode for reproducing one table row).
//   --minutes=N     keep running extra rounds with derived seeds until
//                   the wall-clock budget is spent (round count varies
//                   with machine speed; each round is deterministic in
//                   its seed).
//   --fail-on-gap   exit 1 when any reachable target went unwitnessed.
//
// Determinism contract: for a fixed --seed, the corpus, every verdict,
// and the --coverage-json artifact are byte-identical at any --threads.
//
//===----------------------------------------------------------------------===//

#include "cg/CodeGenerator.h"
#include "fuzz/Fuzzer.h"
#include "ir/Interp.h"
#include "pcc/PccCodeGen.h"
#include "support/CliOptions.h"
#include "vaxsim/Simulator.h"
#include "support/ExitCodes.h"
#include "support/Strings.h"
#include "vax/VaxTarget.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace gg;

namespace {

void usage() {
  fprintf(stderr,
          "usage: gg-fuzz [--seed=N] [--threads=N] [--mode=cover|analyze]\n"
          "               [--target-production=ID] [--max-programs=N]\n"
          "               [--stmts-per-program=N] [--minutes=N]\n"
          "               [--no-shrink] [--fail-on-gap]\n"
          "               [--coverage-json=FILE] [--stats-json=FILE]\n");
}

/// Renders a production with its grammar names for the reports.
std::string prodLine(const Grammar &G, int ProdId) {
  return strf("  p%-4d %s", ProdId,
              renderProduction(G, G.prod(ProdId)).c_str());
}

void printPlan(const Grammar &G, const FuzzPlanStats &PS, bool Verbose) {
  const size_t Shadowed = PS.ShadowedProductions.size();
  const size_t DynShadowed = PS.DynShadowedProductions.size();
  const size_t Reachable = PS.Productions - Shadowed - DynShadowed;
  printf("plan: %zu/%zu reachable productions witnessed "
         "(%zu statically + %zu dynamically shadowed, reported below)\n",
         PS.WitnessedProductions, Reachable, Shadowed, DynShadowed);
  const size_t Stranded = PS.StrandedDynPoints.size();
  // "null chooser" is the historical name for the tie defaults; the
  // summary line keeps it so cover-mode output stays byte-stable.
  printf("      %zu/%zu reachable states visited (%zu unreachable under "
         "the null chooser)\n",
         PS.WitnessedStates, PS.States - PS.UnreachableStates.size(),
         PS.UnreachableStates.size());
  printf("      %zu/%zu reachable dynamic-tie points consulted "
         "(%zu via deliberate blocks, %zu stranded, %zu in unreachable "
         "states)\n",
         PS.WitnessedDynPoints,
         PS.DynPoints - Stranded - PS.UnreachableDynPoints.size(),
         PS.BlockedWitnesses, Stranded, PS.UnreachableDynPoints.size());
  if (!PS.UnwitnessedProductions.empty()) {
    printf("unwitnessed productions (%zu):\n",
           PS.UnwitnessedProductions.size());
    for (int P : PS.UnwitnessedProductions)
      printf("%s\n", prodLine(G, P).c_str());
  }
  if (!PS.UnwitnessedStates.empty()) {
    printf("unwitnessed states (%zu):", PS.UnwitnessedStates.size());
    for (int S : PS.UnwitnessedStates)
      printf(" %d", S);
    printf("\n");
  }
  if (!PS.UnwitnessedDynPoints.empty()) {
    printf("unwitnessed dyn points (%zu):",
           PS.UnwitnessedDynPoints.size());
    for (const auto &[S, TI] : PS.UnwitnessedDynPoints)
      printf(" (%d,%d)", S, TI);
    printf("\n");
  }
  if (Verbose && Shadowed) {
    printf("statically shadowed productions (never the default reduce "
           "target; ties always take the default):\n");
    for (int P : PS.ShadowedProductions)
      printf("%s\n", prodLine(G, P).c_str());
  }
  if (Verbose && DynShadowed) {
    printf("dynamically shadowed productions (every reduce site lies in "
           "a state the tie defaults never route into):\n");
    for (int P : PS.DynShadowedProductions)
      printf("%s\n", prodLine(G, P).c_str());
  }
  if (Verbose && !PS.UnreachableStates.empty()) {
    printf("unreachable states (no parse enters them):");
    for (int S : PS.UnreachableStates)
      printf(" %d", S);
    printf("\n");
  }
  if (Verbose && Stranded) {
    printf("stranded dyn points (consultable by no whole-statement "
           "linearization — only past a finished tree or at early EOF; "
           "the Matcher never parses either):");
    for (const auto &[S, TI] : PS.StrandedDynPoints)
      printf(" (%d,%d)", S, TI);
    printf("\n");
  }
}

} // namespace

int main(int Argc, char **Argv) {
  CommonDriverOptions Common;
  FuzzOptions Opts;
  bool Analyze = false;
  bool FailOnGap = false;
  long Minutes = 0;
  std::string Probe;
  std::string ProbeRun;
  int WitnessProd = -1;
  int StateInfo = -1;

  auto intVal = [](const std::string &A, long &Out) {
    auto Eq = A.find('=');
    auto V = parseInt(A.substr(Eq + 1));
    if (!V)
      return false;
    Out = static_cast<long>(*V);
    return true;
  };

  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    long V = 0;
    switch (parseCommonDriverOption(A, Common)) {
    case CliParse::Ok:
      continue;
    case CliParse::Bad:
      return ExitUsage;
    case CliParse::NotMine:
      break;
    }
    if (A == "--help" || A == "-h") {
      usage();
      return ExitOk;
    } else if (startsWith(A, "--seed=") && intVal(A, V)) {
      Opts.Seed = static_cast<uint64_t>(V);
    } else if (startsWith(A, "--mode=")) {
      const std::string M = A.substr(7);
      if (M == "analyze")
        Analyze = true;
      else if (M != "cover") {
        fprintf(stderr, "gg-fuzz: unknown mode '%s'\n", M.c_str());
        usage();
        return ExitUsage;
      }
    } else if (startsWith(A, "--target-production=") && intVal(A, V)) {
      Opts.TargetProduction = static_cast<int>(V);
    } else if (startsWith(A, "--max-programs=") && intVal(A, V) && V >= 0) {
      Opts.MaxPrograms = static_cast<size_t>(V);
    } else if (startsWith(A, "--stmts-per-program=") && intVal(A, V) &&
               V > 0) {
      Opts.StmtsPerProgram = static_cast<size_t>(V);
    } else if (startsWith(A, "--minutes=") && intVal(A, V) && V >= 0) {
      Minutes = V;
    } else if (startsWith(A, "--probe=")) {
      Probe = A.substr(8);
    } else if (startsWith(A, "--probe-run=")) {
      ProbeRun = A.substr(12);
    } else if (startsWith(A, "--witness-production=") && intVal(A, V)) {
      WitnessProd = static_cast<int>(V);
    } else if (startsWith(A, "--state-info=") && intVal(A, V)) {
      StateInfo = static_cast<int>(V);
    } else if (A == "--no-shrink") {
      Opts.Shrink = false;
    } else if (A == "--fail-on-gap") {
      FailOnGap = true;
    } else {
      fprintf(stderr, "gg-fuzz: unknown option '%s'\n", A.c_str());
      usage();
      return ExitUsage;
    }
  }
  if (Common.Threads >= 0)
    Opts.Threads = Common.Threads;

  std::string Err;
  std::unique_ptr<VaxTarget> Target = VaxTarget::create(Err);
  if (!Target) {
    fprintf(stderr, "gg-fuzz: machine description failed to build: %s\n",
            Err.c_str());
    return ExitFatalFault;
  }
  TelemetryDump Dump(Common);

  Fuzzer F(*Target);

  if (StateInfo >= 0) {
    // Diagnostic surface: one state's incoming edges and action row.
    const PackedTables &PT = Target->packed();
    const LRDriver &D = F.walk().driver();
    const int Dst = StateInfo;
    printf("edges into state %d:", Dst);
    for (int S = 0; S < PT.numStates(); ++S) {
      for (int TI = 0; TI < PT.numTerms(); ++TI) {
        Action A = PT.actionAt(S, TI);
        if (A.Kind == ActionType::Shift && A.Target == Dst)
          printf(" (%d --%s-->)", S, D.termName(TI).c_str());
      }
      for (int NI = 0; NI < PT.numNonterms(); ++NI)
        if (PT.gotoAt(S, NI) == Dst)
          printf(" (%d --nt%d-->)", S, NI);
    }
    printf("\nactions at state %d:", Dst);
    for (int TI = 0; TI < PT.numTerms(); ++TI) {
      Action A = PT.actionAt(Dst, TI);
      if (A.Kind == ActionType::Error)
        continue;
      const char *K = A.Kind == ActionType::Shift    ? "s"
                      : A.Kind == ActionType::Reduce ? "r"
                                                     : "acc";
      printf(" %s:%s%d", D.termName(TI).c_str(), K, A.Target);
    }
    printf("\ngotos from state %d:", Dst);
    for (int NI = 0; NI < PT.numNonterms(); ++NI)
      if (PT.gotoAt(Dst, NI) >= 0)
        printf(" nt%d->%d", NI, PT.gotoAt(Dst, NI));
    printf("\n");
    return ExitOk;
  }

  if (WitnessProd >= 0) {
    const Grammar &G = Target->grammar();
    const Production &P = G.prod(WitnessProd);
    const LRDriver &D = F.walk().driver();
    auto render = [&](const std::vector<int> &Toks) {
      std::string S;
      for (int TI : Toks)
        S += D.termName(TI) + " ";
      return S;
    };
    printf("reduce sites of p%d:", WitnessProd);
    for (const auto &[S, TI] : F.walk().reduceSites(WitnessProd))
      printf(" (%d,%s)", S, D.termName(TI).c_str());
    printf("\n");
    {
      // Incoming edges of each distinct site state — how the automaton
      // gets there at all.
      const PackedTables &PT = Target->packed();
      std::vector<int> SiteStates;
      for (const auto &[S, TI] : F.walk().reduceSites(WitnessProd))
        if (std::find(SiteStates.begin(), SiteStates.end(), S) ==
            SiteStates.end())
          SiteStates.push_back(S);
      for (int Dst : SiteStates) {
        printf("edges into state %d:", Dst);
        for (int S = 0; S < PT.numStates(); ++S) {
          for (int TI = 0; TI < PT.numTerms(); ++TI) {
            Action A = PT.actionAt(S, TI);
            if (A.Kind == ActionType::Shift && A.Target == Dst)
              printf(" (%d --%s-->)", S, D.termName(TI).c_str());
          }
          for (int NI = 0; NI < PT.numNonterms(); ++NI)
            if (PT.gotoAt(S, NI) == Dst)
              printf(" (%d --nt%d-->)", S, NI);
        }
        printf("\n");
      }
    }
    printf("contexts of %s:\n", G.symbolName(P.Lhs).c_str());
    for (const auto &Cx : F.walk().contexts(G.ntIndex(P.Lhs)))
      printf("  [%s] _ [%s]\n", render(Cx.Pre).c_str(),
             render(Cx.Post).c_str());
    for (const auto &Cx : F.walk().contexts(G.ntIndex(P.Lhs))) {
      for (uint64_t V = 0; V < 32; ++V) {
        std::vector<int> Toks = Cx.Pre;
        uint64_t Var = V;
        bool Derivable = true;
        for (SymId S : P.Rhs) {
          if (G.isTerminal(S)) {
            Toks.push_back(G.termIndex(S));
            continue;
          }
          const auto &Ys = F.walk().yields(G.ntIndex(S));
          if (Ys.empty()) {
            Derivable = false;
            break;
          }
          const auto &Y = Ys[Var % Ys.size()];
          Var /= Ys.size();
          Toks.insert(Toks.end(), Y.begin(), Y.end());
        }
        if (!Derivable || Var != 0)
          break;
        Toks.insert(Toks.end(), Cx.Post.begin(), Cx.Post.end());
        SimTrace Tr = F.walk().simulate(Toks);
        bool Hit = std::find(Tr.Reduces.begin(), Tr.Reduces.end(),
                             WitnessProd) != Tr.Reduces.end();
        printf("  trial V=%llu: %s -> %s%s\n",
               static_cast<unsigned long long>(V), render(Toks).c_str(),
               Tr.Accepted ? "accepted" : "blocked",
               Hit ? " HIT" : "");
      }
    }
    std::vector<int> W;
    if (!F.walk().witnessForProduction(WitnessProd, W)) {
      printf("no witness found for p%d\n", WitnessProd);
      return ExitCompileFailure;
    }
    printf("witness for p%d:", WitnessProd);
    for (int TI : W)
      printf(" %s", F.walk().driver().termName(TI).c_str());
    printf("\n");
    return ExitOk;
  }

  if (!ProbeRun.empty()) {
    // Diagnostic surface: synthesize ONE statement program from a
    // space-separated terminal sequence, dump both backends' assembly,
    // and run all three oracles on it.
    std::vector<std::string> Toks;
    for (std::string_view Part : splitWhitespace(ProbeRun))
      Toks.emplace_back(Part);
    SimTrace Tr = F.walk().simulateNames(Toks);
    SynthStmt S;
    S.Tokens = Toks;
    S.ExpectBlocked = !Tr.Accepted;
    printf("probe-run: parse %s\n",
           Tr.Accepted ? "accepted" : "blocked (deliberate witness)");
    std::vector<SynthStmt> Stmts{S};
    Program PG;
    SynthReport RG;
    std::string E2;
    if (!F.synth().buildProgram(Stmts, Opts.Seed, PG, RG, E2)) {
      printf("synth failed: %s\n", E2.c_str());
      return ExitCompileFailure;
    }
    InterpResult Ref = interpret(PG);
    printf("interp: %s\n== output ==\n%s== end ==\n",
           Ref.Ok ? "ok" : Ref.Error.c_str(), Ref.Output.c_str());
    CodeGenOptions GOpts;
    GOpts.Transform.RawTrees = true;
    GGCodeGenerator GG(*Target, GOpts);
    std::string GGAsm;
    Program PG2;
    SynthReport RG2;
    F.synth().buildProgram(Stmts, Opts.Seed, PG2, RG2, E2);
    if (!GG.compile(PG2, GGAsm, E2)) {
      printf("gg compile failed: %s\n", E2.c_str());
    } else {
      printf("== gg asm ==\n%s== end ==\n", GGAsm.c_str());
      SimResult RR = assembleAndRun(GGAsm);
      printf("gg run: %s\n== output ==\n%s== end ==\n",
             RR.Ok ? "ok" : RR.Error.c_str(), RR.Output.c_str());
    }
    Program PP;
    SynthReport RP;
    F.synth().buildProgram(Stmts, Opts.Seed, PP, RP, E2);
    PccCodeGenerator Pcc;
    std::string PccAsm;
    if (!Pcc.compile(PP, PccAsm, E2)) {
      printf("pcc compile failed: %s\n", E2.c_str());
    } else {
      printf("== pcc asm ==\n%s== end ==\n", PccAsm.c_str());
      SimResult RR = assembleAndRun(PccAsm);
      printf("pcc run: %s\n== output ==\n%s== end ==\n",
             RR.Ok ? "ok" : RR.Error.c_str(), RR.Output.c_str());
    }
    return ExitOk;
  }

  if (!Probe.empty()) {
    // Diagnostic surface: simulate one space-separated terminal sequence
    // and dump the exact trace (used to understand coverage gaps).
    std::vector<std::string> Toks;
    for (std::string_view Part : splitWhitespace(Probe))
      Toks.emplace_back(Part);
    SimTrace Tr = F.walk().simulateNames(Toks);
    // The simulation runs the Matcher's own driver, so the Matcher blocks
    // exactly where it does; its block report says why.
    const LRDriver &D = Target->matcher().driver();
    std::vector<LinToken> Input;
    for (const std::string &T : Toks)
      Input.push_back({static_cast<int16_t>(D.termIndexFor(T)), nullptr});
    MatchResult MR = Target->matcher().match(Input);
    if (MR.Block && MR.Block->Why == BlockReport::Cause::UnknownTerminal) {
      // The tokens are bare names, no nodes: name the unknown one.
      MR.Block->Lookahead = Toks[MR.Block->TokenPos];
      MR.Error = MR.Block->render();
    }
    printf("probe: %s\n", Tr.Accepted ? "accepted" : MR.Error.c_str());
    printf("  reduces:");
    for (int P : Tr.Reduces)
      printf(" p%d", P);
    printf("\n  states:");
    for (int S : Tr.States)
      printf(" %d", S);
    printf("\n  dyn consults:");
    for (const auto &[S, TI] : Tr.DynConsults)
      printf(" (%d,%d)", S, TI);
    printf("\n");
    return Tr.Accepted ? ExitOk : ExitCompileFailure;
  }

  if (Analyze) {
    FuzzPlanStats PS;
    std::vector<SynthStmt> Corpus = F.plan(Opts, PS);
    printPlan(Target->grammar(), PS, /*Verbose=*/true);
    printf("corpus: %zu witness statements\n", Corpus.size());
    const bool Gap = !PS.UnwitnessedProductions.empty() ||
                     !PS.UnwitnessedStates.empty() ||
                     !PS.UnwitnessedDynPoints.empty();
    return FailOnGap && Gap ? ExitCompileFailure : ExitOk;
  }

  const auto Start = std::chrono::steady_clock::now();
  size_t Round = 0;
  size_t TotalPrograms = 0, TotalFailures = 0;
  int Exit = ExitOk;
  FuzzResult First;
  do {
    FuzzOptions RoundOpts = Opts;
    // Each extra round reseeds deterministically off the base seed so a
    // --minutes soak explores new bindings while staying reproducible
    // per round.
    RoundOpts.Seed = Opts.Seed + 0x9E3779B9ull * Round;
    FuzzResult R = F.run(RoundOpts);
    if (Round == 0) {
      First = R;
      printPlan(Target->grammar(), R.Plan, /*Verbose=*/false);
    }
    TotalPrograms += R.Programs;
    TotalFailures += R.Failures.size();
    for (const FuzzFailure &Fl : R.Failures) {
      fprintf(stderr,
              "gg-fuzz: FAILURE (round %zu, program %zu, seed 0x%llx)\n"
              "  %s\n  reproducer (%zu statement(s)):\n",
              Round, Fl.ProgramIndex,
              static_cast<unsigned long long>(Fl.Seed), Fl.Detail.c_str(),
              Fl.Reproducer.size());
      for (const SynthStmt &S : Fl.Reproducer) {
        std::string Line = joinStrings(S.Tokens, " ");
        fprintf(stderr, "    %s%s\n", Line.c_str(),
                S.ExpectBlocked ? "   [expect-blocked]" : "");
      }
      Exit = ExitCompileFailure;
    }
    ++Round;
  } while (Exit == ExitOk && Minutes > 0 &&
           std::chrono::steady_clock::now() - Start <
               std::chrono::minutes(Minutes));

  printf("gg-fuzz: %zu round(s), %zu program(s), %zu statement(s) "
         "(%zu live, %zu guarded, %zu expected blocks, %zu pcc-exempt), "
         "%zu parse-only witness(es), %zu failure(s)\n",
         Round, TotalPrograms, First.Statements, First.Live, First.Guarded,
         First.ExpectedBlocks, First.PccExemptStatements,
         First.ParseOnlyStatements, TotalFailures);
  const bool Gap = !First.Plan.UnwitnessedProductions.empty() ||
                   !First.Plan.UnwitnessedStates.empty() ||
                   !First.Plan.UnwitnessedDynPoints.empty();
  if (FailOnGap && Gap && Exit == ExitOk)
    Exit = ExitCompileFailure;
  return Exit;
}
