//===- MatchGoldenTest.cpp - matcher equivalence golden ---------------------===//
//
// Pins every MatchResult and every byte of assembly on a fixed input set
// to a committed golden file, so a refactor of the shift/reduce loop can
// prove it changed nothing:
//   * seeded generateProgram / generateLargeProgram sources: the trees
//     the code generator hands the matcher, and the program's assembly;
//   * the fixed-seed (0xF0225EED) fuzz witness corpus: the simulated
//     parse of each witness, the matcher's result on its tree, and the
//     assembly of the live witnesses batched into programs;
//   * the block, depth-cap and budget cases of the recovery and matcher
//     unit tests;
//   * the assembly of every distinct program of the 220-seed differential
//     corpus (compile_minic --gen-corpus=220).
// Each line of the golden names one group and hashes what it covers
// (FNV-1a 64 over a canonical rendering). The same lines must come out at
// 1 and 4 threads, with telemetry off and with coverage plus the
// instrumented profiler armed.
//
// To regenerate after an intended output change:
//   GG_UPDATE_MATCH_GOLDEN=1 match_golden_test --gtest_filter='*One*Off'
//
//===----------------------------------------------------------------------===//

#include "MatcherInputs.h"
#include "TerminalMapCheck.h"
#include "cg/CodeGenerator.h"
#include "frontend/Parser.h"
#include "fuzz/Fuzzer.h"
#include "ir/Linearize.h"
#include "match/Matcher.h"
#include "mdl/SpecParser.h"
#include "support/Deadline.h"
#include "support/Strings.h"
#include "support/TableEvents.h"
#include "tablegen/TableBuilder.h"
#include "vax/VaxTarget.h"
#include "workload/ProgramGen.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

using namespace gg;

namespace {

/// FNV-1a 64 over the bytes of each added string.
struct Hash {
  uint64_t H = 1469598103934665603ull;
  void add(const std::string &S) {
    for (unsigned char C : S) {
      H ^= C;
      H *= 1099511628211ull;
    }
    H ^= 0xff; // field separator
    H *= 1099511628211ull;
  }
  std::string hex() const {
    return strf("%016llx", static_cast<unsigned long long>(H));
  }
};

/// Ok, the step sequence and the block rendering of one match.
std::string matchKey(const MatchResult &R) {
  std::string K = R.Ok ? "ok" : "blocked";
  for (const MatchStep &S : R.Steps)
    K += S.Kind == MatchStep::Shift ? strf(" s%d", S.TokenIndex)
                                    : strf(" r%d", S.ProdId);
  K += '|';
  if (R.Block)
    K += R.Block->render();
  K += '|';
  K += R.Error;
  return K;
}

const VaxTarget &vaxTarget() {
  static std::unique_ptr<VaxTarget> T = [] {
    std::string Err;
    std::unique_ptr<VaxTarget> Made = VaxTarget::create(Err);
    if (!Made) {
      ADD_FAILURE() << "VaxTarget::create: " << Err;
      abort();
    }
    return Made;
  }();
  return *T;
}

/// Matches every input on \p Threads workers (inputs are split into
/// contiguous slices) and returns the results in input order.
std::vector<MatchResult>
matchAll(const Matcher &M, const std::vector<std::vector<LinToken>> &Inputs,
         int Threads) {
  std::vector<MatchResult> Out(Inputs.size());
  std::vector<std::thread> Pool;
  const size_t Slice = (Inputs.size() + Threads - 1) / Threads;
  for (int W = 0; W < Threads; ++W)
    Pool.emplace_back([&, W] {
      for (size_t I = W * Slice; I < Inputs.size() && I < (W + 1) * Slice;
           ++I)
        Out[I] = M.match(Inputs[I]);
    });
  for (std::thread &T : Pool)
    T.join();
  return Out;
}

std::vector<std::vector<LinToken>> matcherInputs(Program &P) {
  return gg::matcherInputs(P, vaxTarget().matcher().driver().termMap());
}

std::string compileAsm(Program &P, int Threads) {
  CodeGenOptions Opts;
  Opts.Parallel.Threads = Threads;
  GGCodeGenerator CG(vaxTarget(), Opts);
  std::string Asm, Err;
  if (!CG.compile(P, Asm, Err))
    return "compile failed: " + Err;
  return Asm;
}

/// One golden line for a MiniC source: its trees' match results and its
/// assembly at \p Threads.
std::string sourceLine(const std::string &Name, const std::string &Source,
                       int Threads) {
  Program ForMatch, ForAsm;
  DiagnosticSink D;
  if (!compileMiniC(Source, ForMatch, D) || !compileMiniC(Source, ForAsm, D))
    return Name + " frontend failed: " + D.renderAll();
  const std::vector<std::vector<LinToken>> Inputs = matcherInputs(ForMatch);
  Hash Match;
  size_t Ok = 0, Steps = 0;
  for (const MatchResult &R :
       matchAll(vaxTarget().matcher(), Inputs, Threads)) {
    Ok += R.Ok;
    Steps += R.Steps.size();
    Match.add(matchKey(R));
  }
  Hash Asm;
  Asm.add(compileAsm(ForAsm, Threads));
  return strf("%s trees=%zu ok=%zu steps=%zu match=%s asm=%s", Name.c_str(),
              Inputs.size(), Ok, Steps, Match.hex().c_str(),
              Asm.hex().c_str());
}

/// Golden lines for the fixed-seed fuzz witness corpus.
void fuzzLines(int Threads, std::vector<std::string> &Lines) {
  Fuzzer F(vaxTarget());
  FuzzOptions Opts;
  Opts.Seed = 0xF0225EEDull;
  FuzzPlanStats PS;
  const std::vector<SynthStmt> Corpus = F.plan(Opts, PS);
  Lines.push_back(strf("fuzz plan witnesses=%zu productions=%zu states=%zu "
                       "dyn=%zu blocked=%zu",
                       Corpus.size(), PS.WitnessedProductions,
                       PS.WitnessedStates, PS.WitnessedDynPoints,
                       PS.BlockedWitnesses));

  // The fuzzer's simulated parse of every witness.
  Hash Sim;
  for (const SynthStmt &S : Corpus) {
    const SimTrace Tr = F.walk().simulateNames(S.Tokens);
    std::string K = Tr.Accepted ? "accepted" : "blocked";
    for (int P : Tr.Reduces)
      K += strf(" r%d", P);
    for (int St : Tr.States)
      K += strf(" s%d", St);
    for (const auto &[St, TI] : Tr.DynConsults)
      K += strf(" d%d,%d", St, TI);
    K += strf(" n%zu", Tr.Steps);
    Sim.add(K);
  }
  Lines.push_back("fuzz sim " + Sim.hex());

  // The real matcher on each witness tree, in chunks of 64 witnesses.
  Program Trees;
  std::vector<std::vector<LinToken>> Inputs;
  for (const SynthStmt &S : Corpus) {
    std::string Err;
    Node *Tree = F.synth().decode(Trees, S.Tokens, /*AllowPartial=*/true, Err);
    Inputs.push_back(
        Tree ? linearize(Tree, vaxTarget().matcher().driver().termMap())
             : std::vector<LinToken>{});
  }
  const std::vector<MatchResult> Results =
      matchAll(vaxTarget().matcher(), Inputs, Threads);
  for (size_t Begin = 0; Begin < Results.size(); Begin += 64) {
    Hash Match;
    size_t Ok = 0;
    const size_t End = std::min(Results.size(), Begin + 64);
    for (size_t I = Begin; I < End; ++I) {
      Ok += Results[I].Ok;
      Match.add(matchKey(Results[I]));
    }
    Lines.push_back(strf("fuzz match %zu-%zu ok=%zu %s", Begin, End, Ok,
                         Match.hex().c_str()));
  }

  // The live witnesses batched into programs, 24 statements each.
  std::vector<SynthStmt> Live;
  for (const SynthStmt &S : Corpus)
    if (!S.ExpectBlocked)
      Live.push_back(S);
  for (size_t Begin = 0; Begin < Live.size(); Begin += 24) {
    std::vector<SynthStmt> Batch(
        Live.begin() + Begin,
        Live.begin() + std::min(Live.size(), Begin + 24));
    Program P;
    SynthReport Rep;
    std::string Err;
    Hash Asm;
    Asm.add(F.synth().buildProgram(Batch, /*Seed=*/Begin, P, Rep, Err)
                ? compileAsm(P, Threads)
                : "synth failed: " + Err);
    Lines.push_back(strf("fuzz asm %zu %s", Begin, Asm.hex().c_str()));
  }
}

struct SmallGrammar {
  Grammar G;
  BuildResult R;
  std::unique_ptr<PackedTables> P;
  std::unique_ptr<Matcher> M;
};

std::unique_ptr<SmallGrammar> buildSmall(const char *Spec,
                                         MatcherOptions Opts = {}) {
  auto B = std::make_unique<SmallGrammar>();
  DiagnosticSink Diags;
  MdSpec S;
  EXPECT_TRUE(parseSpec(Spec, S, Diags)) << Diags.renderAll();
  EXPECT_TRUE(S.expand(B->G, Diags)) << Diags.renderAll();
  B->G.freeze();
  B->R = buildTables(B->G);
  EXPECT_TRUE(B->R.Ok) << B->R.Error;
  B->P = std::make_unique<PackedTables>(PackedTables::pack(B->R.Tables));
  B->M = std::make_unique<Matcher>(B->G, *B->P, Opts);
  return B;
}

/// Node-less tokens for terminal names of \p M's grammar.
std::vector<LinToken> tokens(const Matcher &M,
                             const std::vector<std::string> &Names) {
  std::vector<LinToken> Out;
  for (const std::string &N : Names)
    Out.push_back(tokenFor(M.driver(), N));
  return Out;
}

std::vector<LinToken> repeated(const Matcher &M,
                               const std::vector<std::string> &Unit,
                               int Times, const std::string &Last) {
  std::vector<std::string> Names;
  for (int I = 0; I < Times; ++I)
    Names.insert(Names.end(), Unit.begin(), Unit.end());
  Names.push_back(Last);
  return tokens(M, Names);
}

/// Golden lines for the block, depth-cap and budget unit cases.
void blockLines(std::vector<std::string> &Lines) {
  auto Line = [&](const char *Name, const MatchResult &R) {
    Hash H;
    H.add(matchKey(R));
    Lines.push_back(strf("case %s %s", Name, H.hex().c_str()));
  };

  const char *Pair = "%start s\ns <- Plus_l Const_l Const_l : emit add\n";
  auto B = buildSmall(Pair);
  Line("no-action", B->M->match(tokens(*B->M, {"Const_l"})));
  Line("truncated", B->M->match(tokens(*B->M, {"Plus_l", "Const_l"})));
  // A node whose terminal (Name_l) the grammar lacks.
  NodeArena Arena;
  auto Unknown = buildSmall("%start s\ns <- Const_l : emit c\n");
  Line("unknown-terminal",
       Unknown->M->match(linearize(Arena.name(Ty::L, InternedString()),
                                   Unknown->M->driver().termMap())));

  auto Prefix = buildSmall(R"(
%start s
s <- Assign_l Name_l reg_l : emit mov
reg_l <- Plus_l reg_l reg_l : emit add
reg_l <- Const_l : emit load
)");
  Line("viable-prefix",
       Prefix->M->match(tokens(
           *Prefix->M, {"Assign_l", "Name_l", "Plus_l", "Assign_l"})));

  auto Tie = buildSmall(R"(
%start s
s <- Assign_l flavA : emit useA
s <- Assign_l flavB : emit useB
flavA <- Const_l : encap a
flavB <- Const_l : encap b
)");
  Line("dynamic-tie",
       Tie->M->match(tokens(*Tie->M, {"Assign_l", "Const_l"})));

  const char *List = R"(
%start s
s <- Seq_l Const_l s : emit cons
s <- Const_l : emit nil
)";
  auto Deep = buildSmall(List);
  const std::vector<LinToken> Short =
      repeated(*Deep->M, {"Seq_l", "Const_l"}, 8, "Const_l");
  MatcherOptions Cap4;
  Cap4.MaxStackDepth = 4;
  Line("depth-cap-4", buildSmall(List, Cap4)->M->match(Short));
  Line("depth-cap-default", buildSmall(List)->M->match(Short));
  Line("depth-cap-10000",
       Deep->M->match(
           repeated(*Deep->M, {"Seq_l", "Const_l"}, 5000, "Const_l")));
  Line("depth-cap-9999",
       Deep->M->match(
           repeated(*Deep->M, {"Seq_l", "Const_l"}, 4999, "Const_l")));

  auto Plus = buildSmall(R"(
%start s
s <- Plus_l Const_l s : emit add
s <- Const_l : emit move
)");
  const std::vector<LinToken> Long =
      repeated(*Plus->M, {"Plus_l", "Const_l"}, 600, "Const_l");
  RequestBudget Steps;
  Steps.MaxSteps = 256;
  Line("budget-steps", Plus->M->match(Long, &Steps));
  RequestBudget Cancelled;
  Cancelled.Cancelled.store(true);
  Line("budget-cancelled", Plus->M->match(Long, &Cancelled));
  RequestBudget Shallow;
  Shallow.MaxStackDepth = 50;
  Line("budget-depth", Plus->M->match(Long, &Shallow));
  Line("budget-free", Plus->M->match(Long));
}

/// Golden lines for the differential corpus: the seeds, sizes and
/// structural dedup of compile_minic --gen-corpus (and DifferentialTest),
/// one assembly hash per distinct program.
void corpusLines(int Threads, std::vector<std::string> &Lines) {
  const int Cases = 220;
  std::set<std::string> Seen;
  for (int Case = 0; Case < Cases; ++Case) {
    GenOptions GOpts;
    GOpts.Functions = 4 + Case % 3;
    GOpts.StmtsPerFunction = 6 + Case % 5;
    const std::string Source = generateProgram(0xD1FF0000u + Case, GOpts);
    if (!Seen.insert(Source).second)
      continue;
    Program P;
    DiagnosticSink D;
    Hash Asm;
    Asm.add(compileMiniC(Source, P, D) ? compileAsm(P, Threads)
                                       : "frontend failed: " + D.renderAll());
    Lines.push_back(strf("corpus %d %s", Case, Asm.hex().c_str()));
  }
  Lines.push_back(strf("corpus distinct=%zu seeds=%d", Seen.size(), Cases));
}

std::string goldenText(int Threads) {
  std::vector<std::string> Lines;
  for (uint64_t Seed = 1; Seed <= 12; ++Seed)
    Lines.push_back(sourceLine(strf("gen-%llu", (unsigned long long)Seed),
                               generateProgram(Seed), Threads));
  GenOptions Wide;
  Wide.Functions = 5;
  Wide.StmtsPerFunction = 6;
  for (uint64_t Seed = 0x9A11E100u; Seed < 0x9A11E104u; ++Seed)
    Lines.push_back(sourceLine(strf("gen-wide-%llx", (unsigned long long)Seed),
                               generateProgram(Seed, Wide), Threads));
  for (uint64_t Seed : {1u, 2u})
    Lines.push_back(sourceLine(strf("large-%llu", (unsigned long long)Seed),
                               generateLargeProgram(Seed, 10), Threads));
  fuzzLines(Threads, Lines);
  blockLines(Lines);
  corpusLines(Threads, Lines);
  std::string Out;
  for (const std::string &L : Lines)
    Out += L + '\n';
  return Out;
}

std::string readGolden() {
  std::ifstream In(GG_MATCH_GOLDEN);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

void checkGolden(int Threads) {
  const std::string Got = goldenText(Threads);
  if (std::getenv("GG_UPDATE_MATCH_GOLDEN")) {
    std::ofstream(GG_MATCH_GOLDEN) << Got;
    GTEST_SKIP() << "wrote " << GG_MATCH_GOLDEN;
  }
  const std::string Want = readGolden();
  ASSERT_FALSE(Want.empty()) << "missing golden file " << GG_MATCH_GOLDEN;
  EXPECT_EQ(Want, Got) << "threads=" << Threads;
}

/// Arms coverage and the instrumented profiler. Coverage has no disable,
/// so the armed tests run after the telemetry-off ones in one process.
void armTelemetry() {
  tableEvents().armCoverage();
  tableEvents().configureProfile(ProfileMode::Instr);
}

TEST(MatchGolden, OneThreadTelemetryOff) { checkGolden(1); }

TEST(MatchGolden, FourThreadsTelemetryOff) { checkGolden(4); }

TEST(MatchGolden, OneThreadTelemetryArmed) {
  armTelemetry();
  checkGolden(1);
  tableEvents().configureProfile(ProfileMode::Off);
}

TEST(MatchGolden, FourThreadsTelemetryArmed) {
  armTelemetry();
  checkGolden(4);
  tableEvents().configureProfile(ProfileMode::Off);
}

} // namespace
