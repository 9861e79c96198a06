//===- CodeGenerator.cpp - the table-driven code generator --------------------===//

#include "cg/CodeGenerator.h"
#include "ir/Linearize.h"
#include "pcc/PccCodeGen.h"
#include "support/Coverage.h"
#include "support/FaultInject.h"
#include "support/FlightRecorder.h"
#include "support/Phase.h"
#include "support/Profile.h"
#include "support/Stats.h"
#include "support/Strings.h"
#include "support/Trace.h"

#include <memory>

using namespace gg;

namespace {

/// Creates-at-zero every key the code generator's --stats-json schema
/// promises, so consumers (and the golden-schema test) see a stable key
/// set even when a counter legitimately never fires — e.g. the peephole
/// counters with the optimizer off, or regs.spills on spill-free input.
/// match.chooser_invocations is always 0 (there is no tie-chooser hook;
/// ties take the table's default) and stays only to keep gg-stats-v1.
void touchSchemaKeys() {
  static bool Done = [] {
    StatsRegistry &S = gg::stats();
    for (const char *Name :
         {"cg.compiles", "cg.functions", "cg.trees", "cg.blocked_trees",
          "cg.recovered_trees", "cg.parallel.threads", "cg.parallel.tasks",
          "cg.parallel.steals", "match.trees",
          "match.shifts", "match.reduces", "match.dynamic_ties",
          "match.chooser_invocations", "match.syntactic_blocks",
          "match.depth_cap_hits", "match.budget_stops",
          "fault.productions_dropped",
          "fault.trees_truncated", "fault.table_bytes_corrupted",
          "fault.worker_stalls", "fault.arena_exhaustions",
          "phase1.cond_branch_rewrites", "phase1.bool_value_rewrites",
          "phase1.calls_factored", "phase1.constants_folded",
          "phase1.canonicalizations", "phase1.subtrees_swapped",
          "phase1.reverse_ops_used", "phase1.spill_splits",
          "idiom.binding_applied", "idiom.range_applied",
          "idiom.cc_tests_elided", "idiom.pseudo_expansions",
          "regs.allocations", "regs.spills", "regs.unspills",
          "peephole.branch_to_next_removed", "peephole.branches_inverted",
          "peephole.chains_collapsed", "peephole.unreachable_removed",
          "emit.instructions", "emit.asm_lines"})
      S.counter(Name);
    for (const char *Name :
         {"cg.transform_seconds", "cg.match_seconds",
          "cg.instrgen_seconds", "cg.emit_seconds",
          "cg.parallel.worker_emit_seconds"})
      S.value(Name);
    for (const char *Name :
         {"match.stack_depth", "match.tokens_per_tree",
          "match.steps_per_tree", "regs.live"})
      S.histogram(Name);
    return true;
  }();
  (void)Done;
}

/// Everything one function's compilation produces, buffered privately so
/// workers can run concurrently and compile() can stitch the results in
/// source order — the output must be byte-identical at any thread count.
struct FunctionResult {
  std::unique_ptr<AsmEmitter> Emit;
  DiagnosticSink Diags;
  std::string TraceText;
  bool Ok = true;
  std::string Err;
  CodeGenStats Stats; ///< Phases is this function's phase-clock account
};

/// Number of statement trees the per-function walk below will push through
/// the matcher — must mirror its switch exactly. Counted after phase 1 so
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

/// Compiles one function into \p R's private emitter. Runs on a pool
/// worker: it may only touch shared state that is immutable (tables,
/// grammar, phase-1-complete trees) or internally synchronized (the stats
/// registry, the trace recorder). All scratch state — register manager,
/// semantic stack, copy-tree/fallback arena, output buffer — is local.
void compileOneFunction(const VaxTarget &Target, const CodeGenOptions &Opts,
                        Program &Prog, Function &F, uint64_t TreeOrdinal,
                        FunctionResult &R) {
  TraceSpan FnSpan("cg.function " + Prog.Syms.text(F.Name));
  PhaseAccount Account(R.Stats.Phases);
  AsmEmitter &Emit = *R.Emit;
  // Worker-private arena: Ret/CallStmt copy trees and the fallback
  // generator's splitter temporaries must not contend on the program's
  // shared arena while other workers compile. The request budget's byte
  // cap applies to each arena individually.
  NodeArena LocalArena;
  if (Opts.Budget && Opts.Budget->MaxArenaBytes)
    LocalArena.setLimitBytes(Opts.Budget->MaxArenaBytes);

  Emit.blank();
  Emit.directive(strf(".globl %s", Prog.Syms.text(F.Name).c_str()));
  Emit.labelText(Prog.Syms.text(F.Name));
  Emit.directive(".word 0x0fc0"); // entry mask: save r6-r11
  // The frame grows while compiling (spill cells, phase-1 temporaries of
  // later statements): emit a placeholder and patch afterwards.
  size_t PrologueLine = Emit.lines().size();
  Emit.instRaw("subl2", {"$FRAME", "sp"});

  VaxSemantics Sem(Emit, F, Opts.Idioms);

  auto CompileTree = [&](Node *Tree) -> bool {
    // Quarantine checks at tree granularity: a stopped budget or an
    // exhausted arena fails the function outright. Neither runs the PCC
    // fallback — an exhausted request must fail fast, not spend more of
    // its worker on the slower path.
    if (Opts.Budget && Opts.Budget->shouldStop(0)) {
      ++R.Stats.BlockedTrees;
      ++gg::stats().counter("cg.blocked_trees");
      R.Err = strf("request budget exhausted (%s) before tree: %s",
                   budgetStopName(Opts.Budget->Stopped.load(
                       std::memory_order_relaxed)),
                   printLinear(Tree, Prog.Syms).c_str());
      R.Diags.error(R.Err);
      return false;
    }
    if (LocalArena.exhausted()) {
      if (Opts.Budget)
        Opts.Budget->stop(BudgetStop::Memory);
      ++R.Stats.BlockedTrees;
      ++gg::stats().counter("cg.blocked_trees");
      R.Err = strf("node arena byte budget exhausted (%zu bytes) before "
                   "tree: %s",
                   LocalArena.bytes(),
                   printLinear(Tree, Prog.Syms).c_str());
      R.Diags.error(R.Err);
      return false;
    }

    std::vector<LinToken> Input;
    MatchResult MR;
    // Everything this tree emits sits after the mark; a failed tree is
    // rolled back wholesale before the fallback path runs.
    AsmEmitter::Mark TreeMark = Emit.mark();
    {
      PhaseScope PS(Phase::Linearize);
      Input = linearize(Tree);
    }
    {
      PhaseScope PS(Phase::Match, Opts.Budget,
                    static_cast<int64_t>(Input.size()));
      // truncate-input fault: models a phase-1/linearizer bug. A proper
      // prefix of a prefix linearization can never parse to completion,
      // so the matcher blocks instead of accepting a wrong parse. The
      // explicit ordinal keeps the selected trees identical at any
      // thread count.
      Input.resize(
          faultInject().truncatedInputSize(Input.size(), TreeOrdinal++));
      R.Stats.MatcherTokens += Input.size();
      MR = Target.matcher().match(Input, Opts.Budget);
    }
    std::string TreeErr;
    bool TreeOk = MR.Ok;
    if (MR.Ok) {
      R.Stats.MatcherSteps += MR.Steps.size();
      if (Opts.Trace) {
        R.TraceText += printLinear(Tree, Prog.Syms) + "\n";
        R.TraceText += renderTrace(Target.grammar(), Input, MR, Prog.Syms);
        R.TraceText += "\n";
      }
      PhaseScope PS(Phase::Replay, Opts.Budget,
                    static_cast<int64_t>(MR.Steps.size()));
      std::string SemErr;
      TreeOk = Sem.replay(Target.grammar(), Input, MR.Steps, SemErr);
      if (!TreeOk)
        TreeErr = strf("%s\n  while generating: %s", SemErr.c_str(),
                       printLinear(Tree, Prog.Syms).c_str());
    } else {
      TreeErr = strf("%s\n  while matching: %s", MR.Error.c_str(),
                     printLinear(Tree, Prog.Syms).c_str());
    }
    if (TreeOk) {
      ++R.Stats.StatementTrees;
      return true;
    }

    // Degradation ladder: one tree failing the table-driven path must
    // not kill the module. Discard the tree's partial output and
    // per-statement state, then regenerate it through the PCC baseline.
    ++R.Stats.BlockedTrees;
    ++gg::stats().counter("cg.blocked_trees");
    flightRecord(FlightKind::Block,
                 MR.Block ? static_cast<int64_t>(MR.Block->State) : -1);
    if (MR.Block && MR.Block->Why == BlockReport::Cause::Budget) {
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
      PhaseScope PS(Phase::Fallback, Opts.Budget);
      if (!pccGenStatement(Prog, F, Tree, Emit, FallbackDiags, &LocalArena)) {
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
    ++gg::stats().counter("cg.recovered_trees");
    ++R.Stats.StatementTrees;
    return true;
  };

  bool EndsWithRet = false;
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
      if (S->left()) {
        // Return value goes to r0: run "r0 := e" through the matcher.
        Node *Copy = LocalArena.bin(Op::Assign, Ty::L,
                                    LocalArena.dreg(RegR0, Ty::L),
                                    S->left());
        if (!CompileTree(Copy)) {
          R.Ok = false;
          return;
        }
      }
      Sem.emitRet();
      EndsWithRet = true;
      break;
    case Op::CallStmt: {
      const Node *Call = S->right();
      Sem.emitCall(Call->left()->Sym, static_cast<int>(Call->Value));
      if (S->left()) {
        Node *Copy = LocalArena.bin(Op::Assign, S->left()->Type,
                                    S->left(),
                                    LocalArena.dreg(RegR0, Ty::L));
        if (!CompileTree(Copy)) {
          R.Ok = false;
          return;
        }
      }
      break;
    }
    default:
      if (!CompileTree(S)) {
        R.Ok = false;
        return;
      }
      break;
    }
  }
  if (!EndsWithRet)
    Sem.emitRet();

  // Patch the prologue with the final frame size.
  Emit.patchLine(PrologueLine, strf("\tsubl2\t$%d,sp", F.FrameSize));

  R.Stats.Regs = Sem.regStats();
  R.Stats.Idioms = Sem.idiomStats();
}

} // namespace

CodeGenStats &CodeGenStats::operator+=(const CodeGenStats &O) {
  TransformSeconds += O.TransformSeconds;
  MatchSeconds += O.MatchSeconds;
  InstrGenSeconds += O.InstrGenSeconds;
  EmitSeconds += O.EmitSeconds;
  StatementTrees += O.StatementTrees;
  MatcherTokens += O.MatcherTokens;
  MatcherSteps += O.MatcherSteps;
  Instructions += O.Instructions;
  AsmLines += O.AsmLines;
  BlockedTrees += O.BlockedTrees;
  RecoveredTrees += O.RecoveredTrees;
  Regs.Allocations += O.Regs.Allocations;
  Regs.Spills += O.Regs.Spills;
  Regs.Unspills += O.Regs.Unspills;
  Regs.MaxLive = std::max(Regs.MaxLive, O.Regs.MaxLive);
  Idioms.BindingApplied += O.Idioms.BindingApplied;
  Idioms.RangeApplied += O.Idioms.RangeApplied;
  Idioms.CCTestsElided += O.Idioms.CCTestsElided;
  Idioms.PseudoExpansions += O.Idioms.PseudoExpansions;
  Transform += O.Transform;
  Peephole.BranchToNextRemoved += O.Peephole.BranchToNextRemoved;
  Peephole.BranchesInverted += O.Peephole.BranchesInverted;
  Peephole.ChainsCollapsed += O.Peephole.ChainsCollapsed;
  Peephole.UnreachableRemoved += O.Peephole.UnreachableRemoved;
  Parallel.Workers += O.Parallel.Workers;
  Parallel.Tasks += O.Parallel.Tasks;
  Parallel.Steals += O.Parallel.Steals;
  Phases += O.Phases;
  return *this;
}

void gg::emitDataSection(const Program &Prog, AsmEmitter &Emit) {
  if (Prog.Globals.empty())
    return;
  Emit.directive(".data");
  for (const GlobalVar &G : Prog.Globals) {
    Emit.directive(".align 2");
    Emit.labelText(Prog.Syms.text(G.Name));
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
  Trace.clear();
  Diags = DiagnosticSink();
  touchSchemaKeys();
  coverage().noteCompile();
  profile().noteCompile();
  PhaseAccount Account(Stats.Phases);
  PhaseScope TotalScope(Phase::Total);
  TraceSpan CompileSpan("cg.compile");
  AsmEmitter Emit(Prog.Syms);
  Emit.setExplain(Opts.Explain);

  emitDataSection(Prog, Emit);
  Emit.directive(".text");

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
      Stats.Transform += runPhase1(Prog, F, Opts.Transform);
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
    return false;
  }

  // Reserve the whole compile's tree-ordinal block and assign each
  // function its slice, reproducing the sequential numbering exactly:
  // the truncate-input fault selects the same trees at any thread count.
  const size_t NumFns = Prog.Functions.size();
  std::vector<uint64_t> OrdinalBase(NumFns);
  uint64_t TotalTrees = 0;
  for (size_t I = 0; I < NumFns; ++I) {
    OrdinalBase[I] = TotalTrees;
    TotalTrees += countStatementTrees(Prog.Functions[I]);
  }
  uint64_t FirstOrdinal = faultInject().reserveTreeOrdinals(TotalTrees);

  std::vector<FunctionResult> Results(NumFns);
  for (FunctionResult &R : Results) {
    R.Emit = std::make_unique<AsmEmitter>(Prog.Syms);
    R.Emit->setExplain(Opts.Explain);
  }

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
                       FirstOrdinal + OrdinalBase[I], Results[I]);
  });

  // Stitch in source order; on failure report the first failing function,
  // with diagnostics merged up to and including it (serial semantics).
  // The stitch scope runs to function exit: append + peephole + final
  // render are all serial post-join work.
  PhaseScope StitchScope(Phase::Stitch, Opts.Budget,
                         static_cast<int64_t>(NumFns));
  StatsRegistry &Reg = gg::stats();
  for (size_t I = 0; I < NumFns; ++I) {
    FunctionResult &R = Results[I];
    Diags.append(R.Diags);
    if (!R.Ok) {
      Err = R.Err;
      return false;
    }
    Trace += R.TraceText;
    Stats += R.Stats;
    Emit.append(std::move(*R.Emit));

    ++Reg.counter("cg.functions");
    Reg.counter("idiom.binding_applied") += R.Stats.Idioms.BindingApplied;
    Reg.counter("idiom.range_applied") += R.Stats.Idioms.RangeApplied;
    Reg.counter("idiom.cc_tests_elided") += R.Stats.Idioms.CCTestsElided;
    Reg.counter("idiom.pseudo_expansions") += R.Stats.Idioms.PseudoExpansions;
  }

  if (Opts.Peephole)
    Stats.Peephole = runPeephole(Emit.linesMutable());
  // Until the final render every Emit charge came from the workers.
  Reg.value("cg.parallel.worker_emit_seconds") += Stats.Phases[Phase::Emit];

  Stats.Instructions = Emit.instructionCount();
  Asm += Emit.text();
  Stats.AsmLines = Emit.lineCount();
  // Figure-2 accounting from the phase clock's self times: phase 3 is
  // replay and fallback without the formatting nested in them; phase 4
  // is all formatting (instructions, final text rendering).
  Stats.TransformSeconds = Stats.Phases[Phase::Transform];
  Stats.MatchSeconds =
      Stats.Phases[Phase::Linearize] + Stats.Phases[Phase::Match];
  Stats.InstrGenSeconds =
      Stats.Phases[Phase::Replay] + Stats.Phases[Phase::Fallback];
  Stats.EmitSeconds = Stats.Phases[Phase::Emit];

  ++Reg.counter("cg.compiles");
  Reg.counter("cg.trees") += Stats.StatementTrees;
  Reg.counter("emit.asm_lines") += Stats.AsmLines;
  Reg.counter("cg.parallel.threads") += Stats.Parallel.Workers;
  Reg.counter("cg.parallel.tasks") += Stats.Parallel.Tasks;
  Reg.counter("cg.parallel.steals") += Stats.Parallel.Steals;
  Reg.value("cg.transform_seconds") += Stats.TransformSeconds;
  Reg.value("cg.match_seconds") += Stats.MatchSeconds;
  Reg.value("cg.instrgen_seconds") += Stats.InstrGenSeconds;
  Reg.value("cg.emit_seconds") += Stats.EmitSeconds;
  return true;
}
