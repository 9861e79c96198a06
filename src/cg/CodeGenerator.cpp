//===- CodeGenerator.cpp - the table-driven code generator --------------------===//

#include "cg/CodeGenerator.h"
#include "ir/Linearize.h"
#include "pcc/PccCodeGen.h"
#include "support/FaultInject.h"
#include "support/FlightRecorder.h"
#include "support/Metrics.h"
#include "support/Phase.h"
#include "support/Strings.h"
#include "support/TableEvents.h"
#include "support/Trace.h"

#include <cassert>
#include <optional>
#include <span>

using namespace gg;

namespace {

/// Everything one function's compilation produces, buffered privately so
/// workers can run concurrently and compile() can stitch the results in
/// source order — the output must be byte-identical at any thread count.
struct FunctionResult {
  std::string Text; ///< the function's assembly, rendered by its worker
  /// Output counts and peephole rewrites, which reach the compile's stats
  /// only when the whole compile succeeds.
  size_t Instructions = 0;
  size_t AsmLines = 0;
  PeepholeStats Peephole;
  DiagnosticSink Diags;
  std::string TraceText;
  bool Ok = true;
  std::string Err;
  CodeGenStats Stats; ///< Phases is this function's phase-clock account
};

/// Number of statement trees compileOneFunction's walks take through the
/// matcher — must mirror their switches exactly. Counted after phase 1 so
/// the truncate-input fault's tree ordinals can be reserved per function
/// up front, making fault selection independent of worker scheduling.
size_t countStatementTrees(const Function &F) {
  size_t N = 0;
  for (const Node *S : F.Body) {
    switch (S->Opcode) {
    case Op::LabelDef:
    case Op::Jump:
      break;
    case Op::Ret:
    case Op::CallStmt:
      N += S->left() ? 1 : 0;
      break;
    default:
      ++N;
      break;
    }
  }
  return N;
}

/// One statement tree on its way through a function's three passes: where
/// its tokens and steps sit in the function's buffers, and how far the
/// Match pass took it.
struct TreeWork {
  enum class Stage : uint8_t {
    Linearized,   ///< not matched: the Match pass stopped at an earlier tree
    BudgetBefore, ///< the request budget had stopped before its match
    Matched,      ///< accepted
    Blocked,      ///< matched into a block, the next entry of Blocks
  };
  Node *Tree;
  uint32_t TokBegin, TokEnd;
  uint32_t StepBegin = 0, StepEnd = 0;
  Stage St = Stage::Linearized;
};

/// A blocked tree's report, kept for its turn in the Replay pass.
struct TreeBlock {
  std::string Error;
  std::optional<BlockReport> Block;
};

/// Compiles one function and renders it into \p R's text. Runs on a pool
/// worker: it may only touch shared state that is immutable (tables,
/// grammar, phase-1-complete trees) or internally synchronized (the stats
/// registry, the trace recorder). All scratch state — register manager,
/// semantic stack, copy-tree/fallback arena, token and step buffers,
/// instruction records — is local.
///
/// The function's \p NumTrees statement trees run phase by phase, each
/// phase once for the whole function: Linearize puts every tree's tokens
/// in one buffer, Match matches them into one step buffer, and Replay
/// walks the statements, replaying each tree or running the degradation
/// ladder for it.
void compileOneFunction(const VaxTarget &Target, const CodeGenOptions &Opts,
                        Program &Prog, Function &F, uint64_t TreeOrdinal,
                        size_t NumTrees, FunctionResult &R) {
  std::optional<TraceSpan> FnSpan;
  if (TraceRecorder::global().enabled())
    FnSpan.emplace("cg.function " + Prog.Syms.text(F.Name));
  PhaseAccount Account(R.Stats.Phases);
  AsmEmitter Emit(Prog.Syms);
  if (Opts.Explain)
    Emit.setExplain(&Target.grammar());
  // Worker-private arena: Ret/CallStmt copy trees and the fallback
  // generator's splitter temporaries must not contend on the program's
  // shared arena while other workers compile. The request budget's byte
  // cap applies to each arena individually.
  NodeArena LocalArena;
  if (Opts.Budget && Opts.Budget->MaxArenaBytes)
    LocalArena.setLimitBytes(Opts.Budget->MaxArenaBytes);

  const size_t Prologue = emitPrologue(Prog, F, Emit);

  VaxSemantics Sem(Emit, F, Opts.Idioms);
  const Matcher &M = Target.matcher();
  std::vector<TreeWork> Trees;
  Trees.reserve(NumTrees);
  std::vector<LinToken> Tokens;
  std::vector<TreeBlock> Blocks;
  MatchResult MR;
  // A function without trees runs no phase scope: Match and Replay each
  // record one flight event per function that has trees.
  std::optional<PhaseScope> PS;
  if (NumTrees)
    PS.emplace(Phase::Linearize);

  // Linearize: every tree's tokens, in statement order, into one buffer.
  // A Ret value goes to r0 and a call's result comes from it: those run
  // "r0 := e" and "x := r0" through the matcher, on copy trees.
  for (Node *S : F.Body) {
    Node *Tree = S;
    switch (S->Opcode) {
    case Op::LabelDef:
    case Op::Jump:
      continue;
    case Op::Ret:
      if (!S->left())
        continue;
      Tree = LocalArena.bin(Op::Assign, Ty::L, LocalArena.dreg(RegR0, Ty::L),
                            S->left());
      break;
    case Op::CallStmt:
      if (!S->left())
        continue;
      Tree = LocalArena.bin(Op::Assign, S->left()->Type, S->left(),
                            LocalArena.dreg(RegR0, Ty::L));
      break;
    default:
      break;
    }
    const size_t Begin = Tokens.size();
    linearize(Tree, M.driver().termMap(), Tokens);
    // truncate-input fault: models a phase-1/linearizer bug. A proper
    // prefix of a prefix linearization can never parse to completion,
    // so the matcher blocks instead of accepting a wrong parse. The
    // explicit ordinal keeps the selected trees identical at any
    // thread count.
    Tokens.resize(Begin + faultInject().truncatedInputSize(
                              Tokens.size() - Begin, TreeOrdinal++));
    Trees.push_back({Tree, static_cast<uint32_t>(Begin),
                     static_cast<uint32_t>(Tokens.size())});
  }
  assert(Trees.size() == NumTrees && "countStatementTrees out of step");
  auto TokensOf = [&](const TreeWork &W) {
    return std::span<const LinToken>(Tokens).subspan(W.TokBegin,
                                                     W.TokEnd - W.TokBegin);
  };

  // Match: every tree into one step buffer. It stops at the first tree
  // that must fail the function — a stopped budget before or during its
  // match, or any block without recovery — so that no later tree is
  // matched, as when each tree was matched just before its replay.
  if (PS)
    PS->to(Phase::Match, Opts.Budget, static_cast<int64_t>(Tokens.size()));
  M.begin(MR, Opts.Budget);
  MR.Steps.reserve(Tokens.size() * 3);
  for (TreeWork &W : Trees) {
    if (Opts.Budget && Opts.Budget->shouldStop(0)) {
      W.St = TreeWork::Stage::BudgetBefore;
      break;
    }
    W.StepBegin = static_cast<uint32_t>(MR.Steps.size());
    M.matchNext(TokensOf(W), MR);
    W.StepEnd = static_cast<uint32_t>(MR.Steps.size());
    if (MR.Ok) {
      W.St = TreeWork::Stage::Matched;
      if (Opts.Trace) {
        R.TraceText += printLinear(W.Tree, Prog.Syms) + "\n";
        R.TraceText += renderTrace(
            Target.grammar(), TokensOf(W),
            std::span<const MatchStep>(MR.Steps).subspan(W.StepBegin),
            MR.Error, Prog.Syms);
        R.TraceText += "\n";
      }
      continue;
    }
    W.St = TreeWork::Stage::Blocked;
    Blocks.push_back({std::move(MR.Error), std::move(MR.Block)});
    if (!Opts.Recover || Blocks.back().Block->Why == BlockReport::Cause::Budget)
      break;
  }

  // Replay: the budget is polled between trees only if the Match pass
  // left it running. A stop the Match pass saw fails the function at the
  // tree where it was seen, with that tree's diagnostic.
  if (PS)
    PS->to(Phase::Replay, Opts.Budget, static_cast<int64_t>(MR.Steps.size()));
  const bool PollBudget = Opts.Budget && !Opts.Budget->stopped();
  size_t NextBlock = 0;
  auto CompileTree = [&](const TreeWork &W) -> bool {
    // Quarantine checks at tree granularity: a stopped budget or an
    // exhausted arena fails the function outright. Neither runs the PCC
    // fallback — an exhausted request must fail fast, not spend more of
    // its worker on the slower path.
    assert(W.St != TreeWork::Stage::Linearized && "replay past the Match pass");
    if (W.St == TreeWork::Stage::BudgetBefore ||
        (PollBudget && Opts.Budget->interrupted())) {
      ++R.Stats.BlockedTrees;
      R.Err = strf("request budget exhausted (%s) before tree: %s",
                   budgetStopName(Opts.Budget->Stopped.load(
                       std::memory_order_relaxed)),
                   printLinear(W.Tree, Prog.Syms).c_str());
      R.Diags.error(R.Err);
      return false;
    }
    if (LocalArena.exhausted()) {
      if (Opts.Budget)
        Opts.Budget->stop(BudgetStop::Memory);
      ++R.Stats.BlockedTrees;
      R.Err = strf("node arena byte budget exhausted (%zu bytes) before "
                   "tree: %s",
                   LocalArena.bytes(),
                   printLinear(W.Tree, Prog.Syms).c_str());
      R.Diags.error(R.Err);
      return false;
    }
    R.Stats.MatcherTokens += W.TokEnd - W.TokBegin;

    // Everything this tree emits sits after the mark; a failed tree is
    // rolled back wholesale before the fallback path runs.
    AsmEmitter::Mark TreeMark = Emit.mark();
    std::string SemErr;
    if (W.St == TreeWork::Stage::Matched) {
      R.Stats.MatcherSteps += W.StepEnd - W.StepBegin;
      if (Sem.replay(Target.grammar(), Target.semActions(), TokensOf(W),
                     std::span<const MatchStep>(MR.Steps).subspan(
                         W.StepBegin, W.StepEnd - W.StepBegin),
                     SemErr)) {
        ++R.Stats.StatementTrees;
        return true;
      }
    }

    // Degradation ladder: one tree failing the table-driven path must
    // not kill the module. Discard the tree's partial output and
    // per-statement state, then regenerate it through the PCC baseline.
    const TreeBlock *B =
        W.St == TreeWork::Stage::Blocked ? &Blocks[NextBlock++] : nullptr;
    const std::string TreeErr =
        B ? strf("%s\n  while matching: %s", B->Error.c_str(),
                 printLinear(W.Tree, Prog.Syms).c_str())
          : strf("%s\n  while generating: %s", SemErr.c_str(),
                 printLinear(W.Tree, Prog.Syms).c_str());
    ++R.Stats.BlockedTrees;
    flightRecord(FlightKind::Block,
                 B && B->Block ? static_cast<int64_t>(B->Block->State) : -1);
    if (B && B->Block->Why == BlockReport::Cause::Budget) {
      // Budget stops bypass the ladder by design (docs/server.md).
      R.Err = TreeErr;
      R.Diags.error(R.Err);
      return false;
    }
    if (!Opts.Recover) {
      R.Err = TreeErr;
      return false;
    }
    Emit.rollback(TreeMark);
    Sem.resetAfterFailure();
    R.Diags.warning(
        strf("recovering via the baseline generator: %s", TreeErr.c_str()));
    DiagnosticSink FallbackDiags;
    {
      // Nested in the Replay scope: the fallback's self time is its own.
      PhaseScope FS(Phase::Fallback, Opts.Budget);
      if (!pccGenStatement(Prog, F, W.Tree, Emit, FallbackDiags,
                           &LocalArena)) {
        // Bottom of the ladder: a module-level diagnostic, never
        // process death — the caller decides what to do with it.
        R.Err = strf("tree failed the table-driven path AND the baseline "
                     "fallback\n  table-driven: %s\n  fallback: %s",
                     TreeErr.c_str(), FallbackDiags.renderAll().c_str());
        R.Diags.error(R.Err);
        return false;
      }
    }
    // Spliced code clobbers condition codes behind the CC tracker's back.
    Sem.invalidateCC();
    ++R.Stats.RecoveredTrees;
    ++R.Stats.StatementTrees;
    return true;
  };

  bool EndsWithRet = false;
  size_t NextTree = 0;
  for (Node *S : F.Body) {
    EndsWithRet = false;
    switch (S->Opcode) {
    case Op::LabelDef:
      Sem.emitLabel(S->Sym);
      break;
    case Op::Jump:
      Sem.emitJump(S->left()->Sym);
      break;
    case Op::Ret:
      if (S->left() && !CompileTree(Trees[NextTree++])) {
        R.Ok = false;
        break;
      }
      Sem.emitRet();
      EndsWithRet = true;
      break;
    case Op::CallStmt: {
      const Node *Call = S->right();
      Sem.emitCall(Call->left()->Sym, static_cast<int>(Call->Value));
      if (S->left() && !CompileTree(Trees[NextTree++]))
        R.Ok = false;
      break;
    }
    default:
      R.Ok = CompileTree(Trees[NextTree++]);
      break;
    }
    if (!R.Ok)
      break;
  }
  PS.reset();
  if (R.Ok) {
    if (!EndsWithRet)
      Sem.emitRet();

    Emit.records()[Prologue].Ops[0].Disp = F.FrameSize;
    if (Opts.Peephole)
      R.Peephole = runPeephole(Emit.records());
    Emit.render(R.Text);
    R.Instructions = Emit.instructionCount();
    R.AsmLines = Emit.lineCount();
  }
  R.Stats.Functions = 1;
  R.Stats.Regs = Sem.regStats();
  R.Stats.Idioms = Sem.idiomStats();
  // The function span carries its trees' detail: the match tally and the
  // self time of each phase the account charged, in nanoseconds.
  if (FnSpan) {
    const MatchTally &T = MR.Tally;
    FnSpan->arg("trees", static_cast<int64_t>(T.Trees));
    FnSpan->arg("tokens", static_cast<int64_t>(T.Tokens.Sum));
    FnSpan->arg("steps", static_cast<int64_t>(T.Steps.Sum));
    FnSpan->arg("max_depth", static_cast<int64_t>(T.Depth.Max));
    for (size_t P = 0; P < NumPhases; ++P)
      if (R.Stats.Phases.Seconds[P] > 0)
        FnSpan->arg(phaseName(static_cast<Phase>(P)),
                    static_cast<int64_t>(R.Stats.Phases.Seconds[P] * 1e9));
  }
  // The function's counts reach the registry once, whether it compiled
  // or failed.
  publishMetrics<MetricWhen::Function>(R.Stats);
  MR.Tally.publish();
}

} // namespace

CodeGenStats &CodeGenStats::operator+=(const CodeGenStats &O) {
  sumMetrics(*this, O);
  MatcherTokens += O.MatcherTokens;
  MatcherSteps += O.MatcherSteps;
  Phases += O.Phases;
  return *this;
}

size_t gg::emitPrologue(const Program &Prog, const Function &F,
                        AsmEmitter &Emit) {
  Emit.blank();
  Emit.directive(".globl " + Prog.Syms.text(F.Name));
  Emit.label(F.Name);
  Emit.directive(".word 0x0fc0"); // entry mask: save r6-r11
  // The frame grows while compiling (spill cells, phase-1 temporaries of
  // later statements): allocate a placeholder size, patched afterwards.
  const size_t At = Emit.records().size();
  Emit.inst("subl2", {Operand::imm(0, Ty::L), Operand::reg(RegSP, Ty::L)});
  return At;
}

void gg::emitDataSection(const Program &Prog, AsmEmitter &Emit) {
  if (Prog.Globals.empty())
    return;
  Emit.directive(".data");
  for (const GlobalVar &G : Prog.Globals) {
    Emit.directive(".align 2");
    Emit.label(G.Name);
    const char *Dir = sizeOfTy(G.ElemTy) == 1   ? ".byte"
                      : sizeOfTy(G.ElemTy) == 2 ? ".word"
                                                : ".long";
    if (G.Init.empty()) {
      Emit.directive(strf(".space %d", G.Count * sizeOfTy(G.ElemTy)));
      continue;
    }
    for (int I = 0; I < G.Count; ++I) {
      int64_t V = I < static_cast<int>(G.Init.size()) ? G.Init[I] : 0;
      Emit.directive(strf("%s %lld", Dir, static_cast<long long>(V)));
    }
  }
}

bool GGCodeGenerator::compile(Program &Prog, std::string &Asm,
                              std::string &Err) {
  Stats = CodeGenStats();
  Stats.Compiles = 1;
  // The compile's own counts reach the registry once, on every exit path
  // (its functions publish theirs in compileOneFunction).
  auto Publish = [this] {
    publishMetrics<MetricWhen::Compile, MetricWhen::GGCompile>(Stats);
  };
  Trace.clear();
  Diags = DiagnosticSink();
  touchMetrics(MetricGroup::Compile);
  tableEvents().noteCompile();
  PhaseAccount Account(Stats.Phases);
  PhaseScope TotalScope(Phase::Total);
  TraceSpan CompileSpan("cg.compile");
  AsmEmitter Emit(Prog.Syms);
  emitDataSection(Prog, Emit);
  Emit.directive(".text");
  internRuntimeRoutines(Prog.Syms);

  // Phase 1 runs serially up front: it allocates from the program's shared
  // node arena, interner and label counter. Code generation proper never
  // touches those, so everything after this point is safe to parallelize.
  // RawTrees (grammar fuzzing): statement forests synthesized directly
  // from the machine grammar are already in post-phase-1 form by
  // construction; canonicalization would rewrite them away from the
  // productions they were built to exercise.
  if (!Opts.Transform.RawTrees) {
    PhaseScope PS(Phase::Transform, Opts.Budget,
                  static_cast<int64_t>(Prog.Functions.size()));
    for (Function &F : Prog.Functions)
      runPhase1(Prog, F, Opts.Transform, Stats.Transform);
  }

  // Phase 1 allocates from the program's shared arena; an exhausted arena
  // here (oom-arena fault or a request memory budget applied by the
  // caller before parsing) is a memory-budget failure for the module.
  if (Prog.Arena && Prog.Arena->exhausted()) {
    if (Opts.Budget)
      Opts.Budget->stop(BudgetStop::Memory);
    Err = strf("node arena byte budget exhausted (%zu bytes) during tree "
               "transformation",
               Prog.Arena->bytes());
    Diags.error(Err);
    Publish();
    return false;
  }

  // Reserve the whole compile's tree-ordinal block and assign each
  // function its slice, reproducing the sequential numbering exactly:
  // the truncate-input fault selects the same trees at any thread count.
  const size_t NumFns = Prog.Functions.size();
  std::vector<uint64_t> OrdinalBase(NumFns + 1);
  for (size_t I = 0; I < NumFns; ++I)
    OrdinalBase[I + 1] =
        OrdinalBase[I] + countStatementTrees(Prog.Functions[I]);
  const uint64_t TotalTrees = OrdinalBase[NumFns];
  uint64_t FirstOrdinal = faultInject().reserveTreeOrdinals(TotalTrees);

  std::vector<FunctionResult> Results(NumFns);

  // Every function runs even if another fails: the failure path then sees
  // identical global counters at any thread count (a worker cannot know
  // whether a source-order-earlier function has failed yet).
  //
  // Pool workers are request-agnostic threads: re-enter the caller's
  // request scope inside each task so per-function spans and flight
  // events carry the same request identity at any thread count.
  const RequestContext ReqCtx = RequestScope::current();
  Stats.Parallel = parallelFor(NumFns, Opts.Parallel, [&](size_t I) {
    RequestScope TaskScope(ReqCtx.Id, ReqCtx.Generation);
    faultInject().stallWorker(I);
    compileOneFunction(Target, Opts, Prog, Prog.Functions[I],
                       FirstOrdinal + OrdinalBase[I],
                       OrdinalBase[I + 1] - OrdinalBase[I], Results[I]);
  });

  // Stitch in source order; on failure report the first failing function,
  // with diagnostics merged up to and including it (serial semantics).
  // The stitch scope runs to function exit: it joins the functions' text
  // behind the module header.
  PhaseScope StitchScope(Phase::Stitch, Opts.Budget,
                         static_cast<int64_t>(NumFns));
  for (size_t I = 0; I < NumFns; ++I) {
    FunctionResult &R = Results[I];
    Diags.append(R.Diags);
    if (!R.Ok) {
      Err = R.Err;
      Publish();
      return false;
    }
    Trace += R.TraceText;
    Stats += R.Stats;
  }
  // Every function rendered in its worker.
  Stats.WorkerEmitSeconds = Stats.Phases[Phase::Emit];

  Emit.render(Asm);
  size_t Bytes = Asm.size();
  for (const FunctionResult &R : Results)
    Bytes += R.Text.size();
  Asm.reserve(Bytes);
  Stats.Instructions = Emit.instructionCount();
  Stats.AsmLines = Emit.lineCount();
  for (FunctionResult &R : Results) {
    Asm += R.Text;
    R.Text = std::string();
    Stats.Instructions += R.Instructions;
    Stats.AsmLines += R.AsmLines;
    Stats.Peephole += R.Peephole;
  }
  // Figure-2 accounting from the phase clock's self times: phase 3 is
  // replay and fallback without the rendering they feed; phase 4 is the
  // rendering of every function and of the module header.
  Stats.TransformSeconds = Stats.Phases[Phase::Transform];
  Stats.MatchSeconds =
      Stats.Phases[Phase::Linearize] + Stats.Phases[Phase::Match];
  Stats.InstrGenSeconds =
      Stats.Phases[Phase::Replay] + Stats.Phases[Phase::Fallback];
  Stats.EmitSeconds = Stats.Phases[Phase::Emit];
  Publish();
  return true;
}
