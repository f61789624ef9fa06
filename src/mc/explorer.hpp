// Exhaustive small-scope schedule explorer over the litmus DSL
// (docs/MODELCHECK.md). For a 2-4 thread litmus program under one protocol
// it enumerates every resolution of the engine's same-cycle event ties
// (plus, optionally, bounded sync-arrival delays), re-running the program
// from scratch per schedule with the consistency checker's oracle and
// directory invariants active, and reports every schedule whose run
// violates the oracle, a directory invariant, or the program's
// forbid/require conditions.
//
// The search is a stateless DFS over choice prefixes with sleep-set
// partial-order reduction: independent tie candidates (disjoint node
// footprints, known via Event::mc_actor) are not explored in both orders.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/litmus.hpp"
#include "core/params.hpp"
#include "mc/trace.hpp"

namespace lrc::mc {

struct ExploreOptions {
  /// Sync-arrival perturbation window: before each lock/unlock/barrier/
  /// fence the explorer may insert 0..sync_window extra compute cycles
  /// (each choice is a kDelay decision). 0 disables the dimension.
  unsigned sync_window = 0;
  /// Path budget: stop once this many schedules (complete + pruned) have
  /// been examined. The result's `complete` flag reports whether the whole
  /// tree fit in the budget.
  std::uint64_t max_schedules = 1u << 20;
  /// Per-path decision-depth bound; deeper paths are truncated (counted,
  /// and they clear `complete`).
  std::uint32_t max_depth = 512;
  /// Sleep-set partial-order reduction. Off = enumerate every interleaving.
  bool reduce = true;
  /// Stop at the first violating schedule.
  bool stop_at_first = false;
  /// Cap on recorded counterexamples (exploration continues past it).
  std::uint32_t max_counterexamples = 8;
};

struct Counterexample {
  std::vector<Decision> trace;          // full decision trace, replayable
  std::vector<std::string> failures;    // violated forbid/require conditions
  std::vector<std::string> violations;  // oracle / directory violations
};

struct ExploreResult {
  std::uint64_t schedules = 0;     // paths run to completion
  std::uint64_t sleep_pruned = 0;  // paths abandoned sleep-blocked
  std::uint64_t truncated = 0;     // paths abandoned at max_depth
  std::uint64_t decisions = 0;     // distinct decision points visited
  std::uint64_t violating = 0;     // schedules that violated something
  bool complete = false;           // tree exhausted within the budget
  std::vector<Counterexample> counterexamples;

  std::uint64_t examined() const { return schedules + sleep_pruned; }
};

/// Explores `prog` under `kind`. Deterministic: the same inputs yield the
/// same schedule/decision counts and the same counterexamples.
ExploreResult explore(const check::LitmusProgram& prog,
                      core::ProtocolKind kind, const ExploreOptions& opts);

/// Replays one schedule from its choice vector (see choices_of): decision k
/// takes choices[k]; decisions beyond the vector take choice 0. Returns the
/// litmus result; fills `trace` (when non-null) with the decisions
/// re-encountered, which a pinned regression test can compare against the
/// original counterexample. `pre_run`/`post_run` (optional) are forwarded
/// to the underlying run — e.g. enable and dump the machine's message
/// trace around a counterexample replay.
check::LitmusResult replay(const check::LitmusProgram& prog,
                           core::ProtocolKind kind, unsigned sync_window,
                           const Choices& choices,
                           std::vector<Decision>* trace = nullptr,
                           const std::function<void(core::Machine&)>& pre_run = {},
                           const std::function<void(core::Machine&)>& post_run = {});

}  // namespace lrc::mc
