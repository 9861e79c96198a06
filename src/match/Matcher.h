//===- Matcher.h - instruction pattern matcher ------------------*- C++ -*-===//
//
// Part of the Graham-Glanville table-driven code generation reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instruction pattern matcher (paper section 3.3): a table-driven
/// shift/reduce parser invoked once for each expression tree. The matcher
/// consumes the prefix-linearized tree and produces the shift/reduce step
/// sequence; the instruction generation phase replays the reductions,
/// running one semantic action per reduction in the provably correct
/// (bottom-up, left-to-right) order. A caller can match many trees in a
/// row into one step buffer (Matcher::begin, then matchNext per tree):
/// the code generator matches all of a function's trees before it
/// replays any of them.
///
/// The parse itself is the shared LRDriver (match/LRDriver.h); the
/// matcher is that driver plus an observer that records the steps, polls
/// the request budget, builds the BlockReport and charges the telemetry.
/// Reduce/reduce ties among equally long rules always take the table's
/// static default.
///
//===----------------------------------------------------------------------===//

#ifndef GG_MATCH_MATCHER_H
#define GG_MATCH_MATCHER_H

#include "ir/Linearize.h"
#include "match/LRDriver.h"
#include "support/Deadline.h"
#include "support/Stats.h"

#include <optional>
#include <span>
#include <string>
#include <vector>

namespace gg {

/// One step of a match: a shift of input token TokenIndex, or a reduction
/// by production ProdId.
struct MatchStep {
  enum StepKind : uint8_t { Shift, Reduce } Kind;
  int TokenIndex = -1; ///< valid for Shift
  int ProdId = -1;     ///< valid for Reduce

  bool operator==(const MatchStep &) const = default;
};

/// Structured description of a syntactic block (§6.2.2): everything the
/// degradation ladder and a description author need to understand why the
/// matcher wedged, instead of a bare string.
struct BlockReport {
  /// Budget blocks (BudgetWhy says why) are never recovered via fallback.
  using Cause = BlockCause;
  Cause Why = Cause::NoAction;
  /// Valid when Why == Cause::Budget: which budget dimension tripped.
  BudgetStop BudgetWhy = BudgetStop::None;
  int State = -1;           ///< parser state at the block
  size_t TokenPos = 0;      ///< input position of the offending lookahead
  size_t StackDepth = 0;    ///< parse-stack depth at the block
  std::string Lookahead;    ///< offending token, or "$end"
  /// Grammar symbols on the parse stack, bottom to top — the viable prefix
  /// the tables could not extend.
  std::vector<std::string> ViablePrefix;
  /// Terminals for which the blocking state does have an action; the
  /// "nearest shiftable terminals" a description fix would target.
  std::vector<std::string> ShiftableTerms;

  /// One-line human rendering (used as MatchResult::Error).
  std::string render() const;

  bool operator==(const BlockReport &) const = default;
};

/// The matcher's match.* counters and histograms for the trees matched
/// since the last publish(), in plain single-owner fields: a tree adds to
/// them without touching the shared registry, and publish() folds them
/// into it once.
struct MatchTally {
  uint64_t Trees = 0, Shifts = 0, Reduces = 0, Ties = 0, Blocks = 0,
           CapHits = 0, BudgetStops = 0;
  LocalHistogram Depth, Tokens, Steps;

  /// Adds the tally to the stats registry and zeroes it.
  void publish();
};

/// What every tree of a batch shares, read once by Matcher::begin: the
/// request budget, the effective stack cap and the telemetry flags.
struct MatchBatch {
  RequestBudget *Budget = nullptr;
  size_t DepthCap = 0;
  bool Armed = false;     ///< some table-event sink is armed
  bool Profiling = false; ///< ...and it charges ticks
  ProfileTimebase Timebase = ProfileTimebase::Cycles;
};

/// Outcome of matching a batch of trees (Matcher::begin, then matchNext
/// per tree); Matcher::match is a batch of one. A caller that matches many
/// trees keeps one and refills it, so Steps and the parse's state stack
/// keep their storage from batch to batch.
struct MatchResult {
  bool Ok = false;   ///< the last tree matched
  std::string Error; ///< syntactic-block description when !Ok
  std::optional<BlockReport> Block; ///< structured cause when !Ok
  /// The steps of every tree of the batch, tree after tree. A Shift's
  /// TokenIndex counts from its own tree's first token.
  std::vector<MatchStep> Steps;
  /// Storage of the LR state stack, handed back after each match; not part
  /// of the outcome.
  std::vector<int> StateStack;
  /// Counts of every tree matched into this result since its owner last
  /// published them; not part of the outcome.
  MatchTally Tally;
  /// The batch's shared setup; not part of the outcome.
  MatchBatch Batch;
};

/// Tunables for one Matcher instance.
struct MatcherOptions {
  /// Parse-stack depth cap: a pathological or fault-injected input yields a
  /// BlockReport (Cause::DepthCap) instead of unbounded growth. Generous by
  /// default — real trees stay well under 100 (match.stack_depth histogram).
  size_t MaxStackDepth = 10000;
};

/// A reusable matcher bound to one grammar and its packed tables. After
/// construction a Matcher is immutable: match() touches only const state,
/// the caller's MatchResult and the sharded telemetry registries, so one
/// instance serves any number of concurrent code-generation workers.
class Matcher {
public:
  Matcher(const Grammar &G, const PackedTables &T, MatcherOptions Opts = {});

  /// Starts a batch of trees in \p R: clears R.Steps and reads what the
  /// batch's trees share once. \p Budget, when non-null, is the owning
  /// request's quarantine budget: it may only tighten the stack cap.
  void begin(MatchResult &R, RequestBudget *Budget = nullptr) const;

  /// Matches \p Input (a tree linearized through driver().termMap()) as the
  /// next tree of R's batch: appends its steps to R.Steps and sets R's
  /// outcome fields for this tree alone. A parse error here is a syntactic
  /// block: the description failed to cover well-formed input. On failure,
  /// MatchResult::Block carries the structured cause. Thread-safe: may be
  /// called concurrently from multiple workers, each on its own result.
  ///
  /// With the batch's budget, the loop polls cancellation/deadline/steps
  /// every BudgetPollMask+1 of the tree's steps, honors the budget's
  /// tighter stack-depth cap, and charges the tree's total steps to
  /// Budget->StepsUsed on every exit path. A budget stop surfaces as
  /// Cause::Budget, which the degradation ladder treats as non-recoverable
  /// (no PCC fallback: fail fast, free the worker).
  ///
  /// The tree's counts are added to R.Tally, which the caller publishes
  /// (compileOneFunction does so once per function).
  void matchNext(std::span<const LinToken> Input, MatchResult &R) const;

  /// Matches \p Input as a batch of one, refilling \p R: every field of
  /// the outcome is overwritten, so nothing of a previous tree survives.
  void match(std::span<const LinToken> Input, MatchResult &R,
             RequestBudget *Budget = nullptr) const {
    begin(R, Budget);
    R.Steps.reserve(Input.size() * 3);
    matchNext(Input, R);
  }
  /// The same into a fresh result, with the tally published at once (the
  /// fuzzer and tests).
  MatchResult match(std::span<const LinToken> Input,
                    RequestBudget *Budget = nullptr) const {
    MatchResult R;
    match(Input, R, Budget);
    R.Tally.publish();
    return R;
  }

  const Grammar &grammar() const { return D.grammar(); }
  /// The driver match() runs, capped at MaxStackDepth. The fuzzer
  /// simulates parses on this same driver.
  const LRDriver &driver() const { return D; }

private:
  LRDriver D;
};

/// Renders the Appendix-style action listing for one tree's match: one line
/// per shift/reduce step of \p Steps (token indices into \p Input) with the
/// production and its semantic action, then "accept", or the block
/// \p Error when it is non-empty.
std::string renderTrace(const Grammar &G, std::span<const LinToken> Input,
                        std::span<const MatchStep> Steps,
                        const std::string &Error, const Interner &Syms);

} // namespace gg

#endif // GG_MATCH_MATCHER_H
