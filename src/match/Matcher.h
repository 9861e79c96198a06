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
/// (bottom-up, left-to-right) order.
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

/// Outcome of matching one tree. A caller that matches many trees keeps one
/// and refills it (Matcher::match(Input, R)), so Steps and the parse's
/// state stack keep their storage from tree to tree.
struct MatchResult {
  bool Ok = false;
  std::string Error; ///< syntactic-block description when !Ok
  std::optional<BlockReport> Block; ///< structured cause when !Ok
  std::vector<MatchStep> Steps;
  /// Storage of the LR state stack, handed back after each match; not part
  /// of the outcome.
  std::vector<int> StateStack;
  /// Counts of every tree matched into this result since its owner last
  /// published them; not part of the outcome.
  MatchTally Tally;
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

  /// Matches \p Input (a tree linearized through driver().termMap()). A
  /// parse error here is a syntactic block: the description failed to
  /// cover well-formed input. On failure, MatchResult::Block carries the
  /// structured cause. Thread-safe: may be called concurrently from
  /// multiple workers.
  ///
  /// \p Budget, when non-null, is the owning request's quarantine budget:
  /// the loop polls cancellation/deadline/steps every BudgetPollMask+1
  /// steps, honors the budget's tighter stack-depth cap, and charges the
  /// tree's total steps to Budget->StepsUsed on every exit path. A budget
  /// stop surfaces as Cause::Budget, which the degradation ladder treats
  /// as non-recoverable (no PCC fallback: fail fast, free the worker).
  ///
  /// This form refills \p R, reusing its Steps and state-stack storage:
  /// every field of the outcome is overwritten, so nothing of a previous
  /// tree survives. The tree's counts are added to R.Tally, which the
  /// caller publishes (compileOneFunction does so once per function). A
  /// worker keeps one MatchResult per function it compiles; two threads
  /// must not share one.
  void match(const std::vector<LinToken> &Input, MatchResult &R,
             RequestBudget *Budget = nullptr) const;
  /// The same into a fresh result, with the tally published at once (the
  /// fuzzer and tests).
  MatchResult match(const std::vector<LinToken> &Input,
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

/// Renders the Appendix-style action listing for a match: one line per
/// shift/reduce step with the production and its semantic action.
std::string renderTrace(const Grammar &G, const std::vector<LinToken> &Input,
                        const MatchResult &R, const Interner &Syms);

} // namespace gg

#endif // GG_MATCH_MATCHER_H
