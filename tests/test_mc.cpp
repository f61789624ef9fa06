// Schedule-explorer tests (src/mc/, docs/MODELCHECK.md): the engine's
// arbiter hook, explorer exhaustiveness and determinism, sleep-set
// reduction soundness, and the pinned counterexamples for the two
// schedule-dependent protocol mutations that per-seed litmus runs provably
// miss.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/checker.hpp"
#include "check/litmus.hpp"
#include "mc/explorer.hpp"
#include "sim/engine.hpp"
#include "sim/event.hpp"

namespace {

using lrc::check::LitmusProgram;
using lrc::core::ProtocolKind;
using lrc::mc::Choices;
using lrc::mc::Decision;
using lrc::mc::ExploreOptions;
using lrc::mc::ExploreResult;

// ---- Engine arbiter hook ---------------------------------------------------

// An arbiter that always picks the LAST candidate, recording what it saw.
class LastPicker final : public lrc::sim::ScheduleArbiter {
 public:
  std::size_t pick(lrc::Cycle, const lrc::sim::Event* const* cands,
                   std::size_t n) override {
    widths.push_back(n);
    last_seq = cands[n - 1]->seq();
    return n - 1;
  }
  std::vector<std::size_t> widths;
  std::uint64_t last_seq = 0;
};

TEST(ScheduleArbiter, ControlsTieOrderAndSeesSingletons) {
  lrc::sim::Engine e;
  LastPicker arb;
  e.set_arbiter(&arb);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    e.schedule(5, [&order, i](lrc::Cycle) { order.push_back(i); });
  }
  e.schedule(9, [&order](lrc::Cycle) { order.push_back(9); });
  e.run();
  // Tie at cycle 5 resolved last-first; the lone event at cycle 9 is still
  // reported to the arbiter (width 1) so an explorer can prune paths where
  // a sleeping event fires.
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0, 9}));
  EXPECT_EQ(arb.widths, (std::vector<std::size_t>{3, 2, 1, 1}));
}

TEST(ScheduleArbiter, NoCoEnabledEventsMeansNoDecisionPoints) {
  // Events at pairwise-distinct cycles are never co-enabled: the arbiter
  // only ever sees singleton pops, so there is exactly one schedule — the
  // explorer's "no ties => single schedule" base case.
  lrc::sim::Engine e;
  LastPicker arb;
  e.set_arbiter(&arb);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    e.schedule(static_cast<lrc::Cycle>(10 * i + 1),
               [&order, i](lrc::Cycle) { order.push_back(i); });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(arb.widths, (std::vector<std::size_t>{1, 1, 1, 1}));
}

TEST(ScheduleArbiter, DefaultPickMatchesSeqOrder) {
  // Picking index 0 everywhere must reproduce the engine's native order.
  class FirstPicker final : public lrc::sim::ScheduleArbiter {
   public:
    std::size_t pick(lrc::Cycle, const lrc::sim::Event* const*,
                     std::size_t) override {
      return 0;
    }
  };
  lrc::sim::Engine plain;
  lrc::sim::Engine arbd;
  FirstPicker arb;
  arbd.set_arbiter(&arb);
  std::vector<int> order_plain, order_arbd;
  for (auto* p : {&order_plain, &order_arbd}) {
    lrc::sim::Engine& e = (p == &order_plain) ? plain : arbd;
    for (int i = 0; i < 6; ++i) {
      e.schedule(static_cast<lrc::Cycle>(3 + (i % 2)),
                 [p, i](lrc::Cycle) { p->push_back(i); });
    }
    e.run();
  }
  EXPECT_EQ(order_plain, order_arbd);
}

// ---- Explorer --------------------------------------------------------------

LitmusProgram parse(const std::string& text, const char* name) {
  return LitmusProgram::parse(text, name);
}

TEST(McExplore, OnlyMandatoryStartTieYieldsTwoSchedules) {
  // The DSL floor is two processors, whose fibers are co-enabled at t=0 —
  // that start tie is the one unavoidable decision point. A program whose
  // processors never interact (P1 only burns compute) has no further ties,
  // so the whole tree is exactly the two start orders; the explorer must
  // not invent decision points where the engine has none.
  const auto prog = parse("procs 2\nvars x\nP0: W x 1 ; R x r0\nP1: D 3\n",
                          "solo");
  ExploreOptions opts;
  const ExploreResult res = lrc::mc::explore(prog, ProtocolKind::kLRC, opts);
  EXPECT_EQ(res.schedules, 2u);
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.violating, 0u);
}

TEST(McExplore, ToyPermutationCompleteness) {
  // Three fibers whose only shared decision is the 3-way start tie at t=0:
  // unreduced exploration must produce exactly 3! = 6 schedules. Fibers
  // are mutually dependent (they share the register file), so sleep sets
  // must not remove any of the 6 either.
  const auto prog =
      parse("procs 3\nvars x\nP0: D 1\nP1: D 2\nP2: D 4\n", "toy3");
  ExploreOptions opts;
  opts.reduce = false;
  const ExploreResult raw = lrc::mc::explore(prog, ProtocolKind::kSC, opts);
  EXPECT_EQ(raw.schedules, 6u);
  EXPECT_TRUE(raw.complete);
  opts.reduce = true;
  const ExploreResult red = lrc::mc::explore(prog, ProtocolKind::kSC, opts);
  EXPECT_EQ(red.schedules, 6u);
  EXPECT_TRUE(red.complete);
}

TEST(McExplore, DeterministicAcrossRepeats) {
  const auto prog = LitmusProgram::parse_file(std::string(LRCSIM_LITMUS_DIR) +
                                              "/mc_notice_race.litmus");
  ExploreOptions opts;
  const ExploreResult a = lrc::mc::explore(prog, ProtocolKind::kLRC, opts);
  const ExploreResult b = lrc::mc::explore(prog, ProtocolKind::kLRC, opts);
  EXPECT_EQ(a.schedules, b.schedules);
  EXPECT_EQ(a.sleep_pruned, b.sleep_pruned);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.violating, b.violating);
  EXPECT_EQ(a.counterexamples.size(), b.counterexamples.size());
}

TEST(McExplore, ReductionPreservesViolationsAndSavesWork) {
  // Sleep sets may only skip Mazurkiewicz-equivalent reorderings: the
  // reduced and unreduced explorations must agree on whether the mutation
  // is caught, and reduction must not enumerate more schedules.
  const auto prog = LitmusProgram::parse_file(std::string(LRCSIM_LITMUS_DIR) +
                                              "/mc_notice_race.litmus");
  lrc::check::MutationGuard g(lrc::check::Mutation::kTieDropWriteNotice);
  ExploreOptions opts;
  const ExploreResult red = lrc::mc::explore(prog, ProtocolKind::kLRC, opts);
  opts.reduce = false;
  const ExploreResult raw = lrc::mc::explore(prog, ProtocolKind::kLRC, opts);
  EXPECT_TRUE(red.complete);
  EXPECT_TRUE(raw.complete);
  EXPECT_GT(red.violating, 0u);
  EXPECT_GT(raw.violating, 0u);
  EXPECT_LE(red.schedules, raw.schedules);
}

TEST(McExplore, SmallCorpusCleanUnderAllProtocols) {
  constexpr ProtocolKind kAll[] = {ProtocolKind::kSC, ProtocolKind::kERC,
                                   ProtocolKind::kERCWT, ProtocolKind::kLRC,
                                   ProtocolKind::kLRCExt};
  for (const char* name : {"/sb.litmus", "/mp_lock.litmus"}) {
    const auto prog =
        LitmusProgram::parse_file(std::string(LRCSIM_LITMUS_DIR) + name);
    for (ProtocolKind kind : kAll) {
      const ExploreResult res = lrc::mc::explore(prog, kind, ExploreOptions{});
      EXPECT_TRUE(res.complete) << name << " " << lrc::core::to_string(kind);
      EXPECT_EQ(res.violating, 0u)
          << name << " " << lrc::core::to_string(kind);
    }
  }
}

// ---- Pinned mutation counterexamples --------------------------------------
//
// The two kTie* mutations key on mesh::Message::tie_inverted, which is
// provably false in every default-order run (the engine fires equal-time
// events in ascending seq order): seeded litmus runs cannot catch them.
// The explorer finds them by inverting one same-cycle cross-source arrival
// tie. The decision vectors below are the first counterexamples the
// explorer reports; they are pinned so a protocol or timing change that
// silently breaks the reproduction fails here.

void expect_seeds_miss(const LitmusProgram& prog) {
  for (std::uint64_t seed : {1, 2, 3}) {
    const auto res = lrc::check::run_litmus(prog, ProtocolKind::kLRC, seed);
    EXPECT_TRUE(res.passed()) << "seed " << seed
                              << " unexpectedly caught the mutation";
  }
}

bool any_violation_contains(const std::vector<std::string>& vs,
                            const std::string& needle) {
  for (const auto& v : vs) {
    if (v.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(McMutation, TieDropWriteNoticeCaughtOnlyByExplorer) {
  const auto prog = LitmusProgram::parse_file(std::string(LRCSIM_LITMUS_DIR) +
                                              "/mc_notice_race.litmus");
  lrc::check::MutationGuard g(lrc::check::Mutation::kTieDropWriteNotice);
  expect_seeds_miss(prog);

  const ExploreResult res =
      lrc::mc::explore(prog, ProtocolKind::kLRC, ExploreOptions{});
  EXPECT_TRUE(res.complete);
  ASSERT_GT(res.violating, 0u);
  ASSERT_FALSE(res.counterexamples.empty());
  EXPECT_TRUE(any_violation_contains(res.counterexamples[0].violations,
                                     "stale read"));

  // Pinned replay: inverting the notice/grant arrival tie (decision 3)
  // reproduces the stale read without re-searching.
  const Choices pinned{0, 0, 0, 1};
  std::vector<Decision> trace;
  const auto rr = lrc::mc::replay(prog, ProtocolKind::kLRC, /*sync_window=*/0,
                                  pinned, &trace);
  EXPECT_TRUE(any_violation_contains(rr.violations, "stale read"));
  ASSERT_GE(trace.size(), 4u);
  EXPECT_EQ(trace[3].when, 139u);
  EXPECT_EQ(trace[3].chosen, 1u);
  ASSERT_EQ(trace[3].cands.size(), 2u);
  // Cross-source arrivals at node 2: the write notice from home 0 and the
  // lock grant from sync home 1.
  EXPECT_EQ(trace[3].cands[0].src, 0u);
  EXPECT_EQ(trace[3].cands[1].src, 1u);
  EXPECT_EQ(trace[3].cands[0].actor, 2u);
  EXPECT_EQ(trace[3].cands[1].actor, 2u);
}

TEST(McMutation, TieSkipMembershipRecomputeCaughtOnlyByExplorer) {
  const auto prog = LitmusProgram::parse_file(std::string(LRCSIM_LITMUS_DIR) +
                                              "/mc_member_race.litmus");
  lrc::check::MutationGuard g(
      lrc::check::Mutation::kTieSkipMembershipRecompute);
  expect_seeds_miss(prog);

  const ExploreResult res =
      lrc::mc::explore(prog, ProtocolKind::kLRC, ExploreOptions{});
  EXPECT_TRUE(res.complete);
  ASSERT_GT(res.violating, 0u);
  ASSERT_FALSE(res.counterexamples.empty());
  EXPECT_TRUE(any_violation_contains(res.counterexamples[0].violations,
                                     "state disagrees with masks"));

  // Pinned replay: inverting the InvalNotify/WriteReq arrival tie at home
  // 0 (decision 6) leaves the entry state inconsistent with its masks.
  const Choices pinned{0, 0, 0, 0, 0, 0, 1, 0};
  std::vector<Decision> trace;
  const auto rr = lrc::mc::replay(prog, ProtocolKind::kLRC, /*sync_window=*/0,
                                  pinned, &trace);
  EXPECT_TRUE(any_violation_contains(rr.violations,
                                     "state disagrees with masks"));
  ASSERT_GE(trace.size(), 7u);
  EXPECT_EQ(trace[6].chosen, 1u);
  ASSERT_EQ(trace[6].cands.size(), 2u);
  EXPECT_EQ(trace[6].cands[0].src, 2u);  // InvalNotify from node 2
  EXPECT_EQ(trace[6].cands[1].src, 1u);  // write announce from node 1
  EXPECT_EQ(trace[6].cands[0].actor, 0u);
  EXPECT_EQ(trace[6].cands[1].actor, 0u);
}

TEST(McExplore, ExploredTraceReplaysIdentically) {
  const auto prog = LitmusProgram::parse_file(std::string(LRCSIM_LITMUS_DIR) +
                                              "/mc_member_race.litmus");
  lrc::check::MutationGuard g(
      lrc::check::Mutation::kTieSkipMembershipRecompute);
  const ExploreResult res =
      lrc::mc::explore(prog, ProtocolKind::kLRC, ExploreOptions{});
  ASSERT_FALSE(res.counterexamples.empty());
  const auto& cex = res.counterexamples[0];
  std::vector<Decision> trace;
  const auto rr = lrc::mc::replay(prog, ProtocolKind::kLRC, 0,
                                  lrc::mc::choices_of(cex.trace), &trace);
  EXPECT_EQ(rr.violations, cex.violations);
  ASSERT_EQ(trace.size(), cex.trace.size());
  for (std::size_t k = 0; k < trace.size(); ++k) {
    EXPECT_EQ(trace[k].when, cex.trace[k].when) << "decision " << k;
    EXPECT_EQ(trace[k].chosen, cex.trace[k].chosen) << "decision " << k;
    ASSERT_EQ(trace[k].cands.size(), cex.trace[k].cands.size());
    for (std::size_t i = 0; i < trace[k].cands.size(); ++i) {
      EXPECT_EQ(trace[k].cands[i].seq, cex.trace[k].cands[i].seq);
    }
  }
}

}  // namespace
