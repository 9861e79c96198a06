//===- CompileService.cpp - the compile server's handler ----------------------===//

#include "cg/CompileService.h"
#include "frontend/Parser.h"
#include "support/FaultInject.h"
#include "support/Phase.h"
#include "support/Strings.h"
#include "support/Trace.h"
#include "tablegen/Serialize.h"

using namespace gg;

std::shared_ptr<const VaxTarget> CompileService::buildVerified(
    std::string &Err) {
  std::shared_ptr<VaxTarget> Target = VaxTarget::create(Err);
  if (!Target)
    return nullptr;

  // Self-verify the table image through the v2 serializer: the round trip
  // exercises the fingerprint, checksum and bounds checks the loader
  // applies to on-disk tables, so the server never publishes an image
  // that would not survive a save/load cycle. The corrupt-table fault
  // lands here (as it does on run_vax's round-trip path): at startup it
  // is a fatal fault for the supervisor, on reload it keeps the old image
  // serving.
  std::string Text =
      serializeTables(Target->grammar(), Target->build().Tables);
  faultInject().corruptTableBody(Text, tableBodyOffset(Text));
  LRTables Loaded;
  DiagnosticSink Diags;
  if (!deserializeTables(Text, Target->grammar(), Loaded, Diags)) {
    Err = strf("table self-verification failed:\n%s",
               Diags.renderAll().c_str());
    return nullptr;
  }
  return Target;
}

std::unique_ptr<CompileService> CompileService::create(std::string &Err,
                                                       CodeGenOptions Base) {
  auto Svc = std::unique_ptr<CompileService>(new CompileService());
  Svc->BaseOpts = Base;
  Svc->Target = buildVerified(Err);
  if (!Svc->Target)
    return nullptr;
  return Svc;
}

std::pair<std::shared_ptr<const VaxTarget>, uint64_t>
CompileService::snapshot() const {
  std::lock_guard<std::mutex> Lock(TargetM);
  return {Target, TableGeneration};
}

uint64_t CompileService::generation() const {
  std::lock_guard<std::mutex> Lock(TargetM);
  return TableGeneration;
}

std::string CompileService::statusMembers() const {
  auto [Snap, Gen] = snapshot();
  return strf("\"generation\":%llu,\"fingerprint\":\"%s\"",
              static_cast<unsigned long long>(Gen),
              VaxTarget::fingerprint(Snap->grammar(), Snap->packed())
                  .c_str());
}

bool CompileService::reload(uint64_t &NewGeneration, std::string &Err) {
  // Build and verify entirely off to the side; the swap at the end is the
  // only moment the serving state changes, and it is atomic under the
  // snapshot lock. In-flight requests keep their snapshot of the old
  // image — the old shared_ptr stays alive until the last of them drops.
  std::shared_ptr<const VaxTarget> Fresh = buildVerified(Err);
  std::lock_guard<std::mutex> Lock(TargetM);
  if (!Fresh) {
    NewGeneration = TableGeneration; // old image keeps serving
    return false;
  }
  Target = std::move(Fresh);
  NewGeneration = ++TableGeneration;
  return true;
}

/// Maps a budget's stop cause to the wire status (BudgetStop::Cancelled
/// means the watchdog cancelled us at the deadline, so it reports as
/// Deadline; a forced Watchdog status is published by the server itself).
static ResponseStatus statusForStop(BudgetStop S) {
  switch (S) {
  case BudgetStop::Cancelled:
  case BudgetStop::Deadline:
    return ResponseStatus::Deadline;
  case BudgetStop::Steps:
    return ResponseStatus::StepBudget;
  case BudgetStop::Memory:
    return ResponseStatus::MemBudget;
  case BudgetStop::None:
    break;
  }
  return ResponseStatus::CompileError;
}

HandlerResult CompileService::compile(const RequestMsg &Req,
                                      RequestBudget &Budget) const {
  HandlerResult R;

  // Pin the table image for the whole request: a concurrent reload swaps
  // the service's pointer, not ours. The generation is stamped into the
  // response so clients can observe reload progress (and tests can assert
  // byte-identity per generation).
  auto [Snap, Gen] = snapshot();
  R.Generation = Gen;
  // Patch the pinned generation into the thread's request scope, so the
  // phase spans and flight events below carry the generation that is
  // actually serving (the server entered the scope before we pinned).
  RequestScope::setGeneration(Gen);

  // A request that spent its whole deadline queueing is already dead.
  if (Budget.shouldStop(0)) {
    R.Status = statusForStop(Budget.Stopped.load(std::memory_order_relaxed));
    R.Payload = strf("request budget exhausted (%s) before compilation",
                     budgetStopName(
                         Budget.Stopped.load(std::memory_order_relaxed)));
    return R;
  }

  Program Prog;
  if (Budget.MaxArenaBytes)
    Prog.Arena->setLimitBytes(Budget.MaxArenaBytes);
  DiagnosticSink FrontendDiags;
  {
    PhaseScope PS(Phase::Frontend, &Budget);
    if (!compileMiniC(Req.Source, Prog, FrontendDiags)) {
      R.Status = ResponseStatus::CompileError;
      R.Payload = FrontendDiags.renderAll();
      return R;
    }
  }
  if (Prog.Arena->exhausted()) {
    Budget.stop(BudgetStop::Memory);
    R.Status = ResponseStatus::MemBudget;
    R.Payload = strf("node arena byte budget exhausted (%zu bytes) during "
                     "parsing",
                     Prog.Arena->bytes());
    return R;
  }

  // One worker per request: the server parallelizes across requests, so
  // a wedged or slow request can never occupy more than one pool worker.
  CodeGenOptions Opts = BaseOpts;
  Opts.Parallel.Threads = 1;
  Opts.Budget = &Budget;

  GGCodeGenerator CG(*Snap, Opts);
  std::string Asm, Err;
  bool Ok = CG.compile(Prog, Asm, Err);
  R.BlockedTrees = static_cast<uint32_t>(CG.stats().BlockedTrees);
  R.RecoveredTrees = static_cast<uint32_t>(CG.stats().RecoveredTrees);
  if (Ok) {
    R.Status = ResponseStatus::Ok;
    R.Payload = std::move(Asm);
    return R;
  }
  R.Status = statusForStop(Budget.Stopped.load(std::memory_order_relaxed));
  R.Payload = CG.diagnostics().all().empty()
                  ? Err
                  : CG.diagnostics().renderAll();
  return R;
}
