// Measures, live, which protocol transitions the dynamic layers exercise:
// a check::TransitionRecorder rides along the litmus corpus (all five
// protocols, three seeds) and the 28 application cells at test scale, and
// the union of the observed (family, state-before, kind) triples is
// written to LRCSIM_OBSERVED_TRANSITIONS. The static_checks ctest reads
// that file for its static-vs-dynamic coverage report (docs/STATIC.md),
// which stays informational.
#include <gtest/gtest.h>

#include <cstdint>

#include "apps/app.hpp"
#include "check/litmus.hpp"
#include "check/transition_recorder.hpp"
#include "core/machine.hpp"
#include "litmus_corpus.hpp"

namespace lrc {
namespace {

using core::ProtocolKind;

TEST(TransitionCoverage, RecordsLiveSet) {
  check::TransitionRecorder rec;

  const auto files = testutil::litmus_files();
  ASSERT_GE(files.size(), 12u) << "litmus corpus went missing";
  for (const auto& path : files) {
    const auto prog = check::LitmusProgram::parse_file(path);
    for (auto kind : {ProtocolKind::kSC, ProtocolKind::kERC,
                      ProtocolKind::kERCWT, ProtocolKind::kLRC,
                      ProtocolKind::kLRCExt}) {
      for (std::uint64_t seed : {1, 2, 3}) {  // the Litmus suite's seeds
        check::LitmusRunOptions opts;
        opts.seed = seed;
        opts.pre_run = [&rec](core::Machine& m) { rec.attach(m); };
        const auto res = check::run_litmus(prog, kind, opts);
        EXPECT_TRUE(res.passed()) << prog.name << " under "
                                  << core::to_string(kind) << " seed " << seed;
      }
    }
  }

  for (const auto& app : apps::registry()) {
    for (auto kind : {ProtocolKind::kSC, ProtocolKind::kERC,
                      ProtocolKind::kLRC, ProtocolKind::kLRCExt}) {
      core::Machine m(core::SystemParams::test_scale(8), kind);
      rec.attach(m);
      apps::AppConfig cfg;
      cfg.n = app.test_n;
      cfg.steps = app.test_steps;
      EXPECT_TRUE(app.run(m, cfg).valid)
          << app.name << " under " << core::to_string(kind);
    }
  }

  rec.write(LRCSIM_OBSERVED_TRANSITIONS);
  // The curated snapshot this measurement replaced held 104 triples, all
  // of which the live set contains.
  EXPECT_GE(rec.size(), 104u);
}

}  // namespace
}  // namespace lrc
