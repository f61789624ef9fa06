// Runs every tests/litmus/*.litmus program under all five protocols with a
// few jitter seeds and checks the observed outcome against the program's
// forbid/require conditions. The consistency checker runs alongside: no
// program may produce violations, and programs marked `expect drf` must
// show zero detected races.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/config.hpp"
#include "check/litmus.hpp"
#include "litmus_corpus.hpp"

namespace {

using lrc::check::LitmusProgram;
using lrc::check::LitmusResult;
using lrc::core::ProtocolKind;
using lrc::testutil::litmus_files;

constexpr ProtocolKind kAllKinds[] = {ProtocolKind::kSC, ProtocolKind::kERC,
                                      ProtocolKind::kERCWT, ProtocolKind::kLRC,
                                      ProtocolKind::kLRCExt};

void run_all_under(ProtocolKind kind) {
  const auto files = litmus_files();
  ASSERT_GE(files.size(), 12u) << "litmus corpus went missing";
  for (const auto& path : files) {
    const LitmusProgram prog = LitmusProgram::parse_file(path);
    for (std::uint64_t seed : {1, 2, 3}) {
      const LitmusResult res = lrc::check::run_litmus(prog, kind, seed);
      for (const auto& f : res.failures) {
        ADD_FAILURE() << f << " (seed " << seed << ")";
      }
      EXPECT_TRUE(res.checker_active);
      for (const auto& v : res.violations) {
        ADD_FAILURE() << prog.name << " under " << lrc::core::to_string(kind)
                      << " (seed " << seed << "): checker violation: " << v;
      }
      if (prog.expect_drf) {
        EXPECT_EQ(res.races, 0u)
            << prog.name << " is declared DRF but the checker counted "
            << res.races << " race(s) under " << lrc::core::to_string(kind);
      }
    }
  }
}

TEST(Litmus, SC) { run_all_under(ProtocolKind::kSC); }
TEST(Litmus, ERC) { run_all_under(ProtocolKind::kERC); }
TEST(Litmus, ERCWT) { run_all_under(ProtocolKind::kERCWT); }
TEST(Litmus, LRC) { run_all_under(ProtocolKind::kLRC); }
TEST(Litmus, LRCExt) { run_all_under(ProtocolKind::kLRCExt); }

// The consistency obligations must hold for every cache geometry, not just
// the default single L1: the whole corpus re-runs under 2-level private
// stacks (both inclusion policies) for all five protocols. The checker
// additionally asserts the inclusion/exclusion contract after every handled
// message and at end of run.
void run_all_under_hier(const lrc::cache::CacheConfig& cfg) {
  const auto files = litmus_files();
  ASSERT_GE(files.size(), 12u) << "litmus corpus went missing";
  for (auto kind : kAllKinds) {
    for (const auto& path : files) {
      const LitmusProgram prog = LitmusProgram::parse_file(path);
      for (std::uint64_t seed : {1, 2, 3}) {
        const LitmusResult res = lrc::check::run_litmus(prog, kind, seed, cfg);
        for (const auto& f : res.failures) {
          ADD_FAILURE() << f << " (hier, " << lrc::core::to_string(kind)
                        << ", seed " << seed << ")";
        }
        EXPECT_TRUE(res.checker_active);
        for (const auto& v : res.violations) {
          ADD_FAILURE() << prog.name << " under "
                        << lrc::core::to_string(kind) << " (hier, seed "
                        << seed << "): checker violation: " << v;
        }
      }
    }
  }
}

TEST(LitmusHierarchy, TwoLevelInclusive) {
  // Random L1 replacement exercises the seeded-RNG victim path as well.
  auto cfg = lrc::cache::CacheConfig::with_l2(
      16 * 1024, 4, lrc::cache::InclusionPolicy::kInclusive);
  cfg.l1_ways = 2;
  cfg.l1_replacement = lrc::cache::ReplacementKind::kRandom;
  run_all_under_hier(cfg);
}

TEST(LitmusHierarchy, TwoLevelExclusiveWithLlc) {
  auto cfg = lrc::cache::CacheConfig::with_l2(
                 16 * 1024, 4, lrc::cache::InclusionPolicy::kExclusive)
                 .add_llc(16 * 1024, 4);
  cfg.l2_replacement = lrc::cache::ReplacementKind::kFifo;
  run_all_under_hier(cfg);
}

// The parser rejects malformed programs with a location.
TEST(Litmus, ParserRejectsGarbage) {
  EXPECT_THROW(LitmusProgram::parse("procs 2\nvars x\nP0: Q x r0\n", "t"),
               std::runtime_error);
  EXPECT_THROW(LitmusProgram::parse("vars x\nP0: R x r0\n", "t"),
               std::runtime_error);
  EXPECT_THROW(
      LitmusProgram::parse("procs 2\nvars x\nforbid all\n", "t"),
      std::runtime_error);
}

// Guarded conditions key off the recorded lock-grant order.
TEST(Litmus, LockOrderRecorded) {
  const auto prog = LitmusProgram::parse(
      "procs 2\nvars x\nP0: L 0 ; W x 1 ; U 0\nP1: L 0 ; W x 2 ; U 0\n",
      "order");
  const auto res = lrc::check::run_litmus(prog, ProtocolKind::kLRC, 1);
  ASSERT_EQ(res.lock_order.count(0), 1u);
  EXPECT_EQ(res.lock_order.at(0).size(), 2u);
}

}  // namespace
