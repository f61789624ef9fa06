// End-to-end application tests: every SPLASH-style workload validates its
// computation under every protocol at test scale.
#include <gtest/gtest.h>

#include "apps/app.hpp"
#include "core/machine.hpp"

namespace lrc::apps {
namespace {

using core::ProtocolKind;

struct Case {
  const char* app;
  ProtocolKind kind;
};

// Without a printer gtest lists the raw bytes of `app`, a pointer, so the
// listed (and CTest-registered) test names would change with every link.
void PrintTo(const Case& c, std::ostream* os) {
  *os << c.app << "/" << core::to_string(c.kind);
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string n = std::string(info.param.app) + "_" +
                  std::string(core::to_string(info.param.kind));
  for (auto& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

class AppRun : public ::testing::TestWithParam<Case> {};

TEST_P(AppRun, ValidatesAtTestScale) {
  const auto* info = find_app(GetParam().app);
  ASSERT_NE(info, nullptr);
  core::Machine m(core::SystemParams::test_scale(8), GetParam().kind);
  AppConfig cfg;
  cfg.n = info->test_n;
  cfg.steps = info->test_steps;
  const AppResult res = info->run(m, cfg);
  EXPECT_TRUE(res.valid) << res.detail;
  const auto r = m.report();
  EXPECT_GT(r.execution_time, 0u);
  EXPECT_GT(r.cache.references(), 0u);
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const auto& a : registry()) {
    for (auto kind : {ProtocolKind::kSC, ProtocolKind::kERC,
                      ProtocolKind::kLRC, ProtocolKind::kLRCExt}) {
      cases.push_back(Case{a.name.data(), kind});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAppsAllProtocols, AppRun,
                         ::testing::ValuesIn(all_cases()), case_name);

TEST(Apps, RegistryHasSevenPaperApplications) {
  ASSERT_EQ(registry().size(), 7u);
  EXPECT_NE(find_app("gauss"), nullptr);
  EXPECT_NE(find_app("fft"), nullptr);
  EXPECT_NE(find_app("blu"), nullptr);
  EXPECT_NE(find_app("barnes"), nullptr);
  EXPECT_NE(find_app("cholesky"), nullptr);
  EXPECT_NE(find_app("locusroute"), nullptr);
  EXPECT_NE(find_app("mp3d"), nullptr);
  EXPECT_EQ(find_app("nonesuch"), nullptr);
}

TEST(Apps, ExecutionTimeIsDeterministic) {
  auto run_once = [] {
    core::Machine m(core::SystemParams::test_scale(4), ProtocolKind::kLRC);
    AppConfig cfg;
    cfg.n = 32;
    run_gauss(m, cfg);
    return m.report().execution_time;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Apps, ScalesWithProcessorCount) {
  auto time_with = [](unsigned procs) {
    core::Machine m(core::SystemParams::paper_default(procs),
                    ProtocolKind::kLRC);
    AppConfig cfg;
    cfg.n = 64;
    run_gauss(m, cfg);
    return m.report().execution_time;
  };
  // More processors must help substantially on gauss at this size.
  EXPECT_LT(time_with(16), time_with(1));
}

TEST(Apps, SeedChangesWorkload) {
  auto checksum_with = [](std::uint64_t seed) {
    core::Machine m(core::SystemParams::test_scale(4), ProtocolKind::kSC);
    AppConfig cfg;
    cfg.n = 32;
    cfg.seed = seed;
    run_gauss(m, cfg);
    return m.report().cache.references();
  };
  // Different seeds give different matrices; reference streams are equal in
  // shape, so just assert both run and validate (checked inside run).
  EXPECT_GT(checksum_with(1), 0u);
  EXPECT_GT(checksum_with(2), 0u);
}

TEST(Apps, RacyAppsStillValidateUnderLaziness) {
  // mp3d and locusroute have intentional data races; the lazy protocols
  // must still produce an acceptable solution (paper §4.2 discussion).
  for (const char* name : {"locusroute", "mp3d"}) {
    const auto* info = find_app(name);
    core::Machine m(core::SystemParams::test_scale(8), ProtocolKind::kLRCExt);
    AppConfig cfg;
    cfg.n = info->test_n;
    cfg.steps = info->test_steps;
    const AppResult res = info->run(m, cfg);
    EXPECT_TRUE(res.valid) << name << ": " << res.detail;
  }
}

}  // namespace
}  // namespace lrc::apps
