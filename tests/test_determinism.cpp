// Bit-reproducibility of whole simulations.
//
// The kernel guarantees a total (time, seq) order on events, so a run is a
// pure function of (app, protocol, seed, parameters).  These tests pin that
// property end to end: repeated runs with one seed must produce identical
// reports, and the parallel experiment scheduler (--jobs N) must produce
// byte-for-byte the same results as a serial sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "cache/config.hpp"
#include "core/report.hpp"
#include "report_digest.hpp"

namespace lrc {
namespace {

// FNV-1a over every counter a Report carries (tests/report_digest.hpp).
// Any divergence between two runs — a single cycle, one extra message —
// changes the digest.
using testutil::report_digest;

std::uint64_t digest(const core::Report& r) { return report_digest(r); }

bench::Options test_options() {
  bench::Options opt;
  opt.scale = bench::Scale::kTest;
  opt.seed = 7;
  opt.validate = false;  // apps are validated elsewhere; keep this fast
  return opt;
}

const std::vector<core::ProtocolKind> kAllKinds = {
    core::ProtocolKind::kSC, core::ProtocolKind::kERC,
    core::ProtocolKind::kLRC, core::ProtocolKind::kLRCExt,
    core::ProtocolKind::kERCWT};

// Same seed, same experiment, run twice in this process: identical reports.
TEST(Determinism, SameSeedSameReport) {
  const auto opt = test_options();
  for (const auto* app : bench::selected_apps(opt)) {
    for (auto kind : kAllKinds) {
      const auto a = bench::run_app(*app, kind, opt);
      const auto b = bench::run_app(*app, kind, opt);
      EXPECT_EQ(digest(a.report), digest(b.report))
          << app->name << " / " << a.report.protocol;
      EXPECT_EQ(a.report.summary(), b.report.summary());
    }
  }
}

// A different seed must actually change something, or the digest (and the
// tests above) would be vacuous.  mp3d's seed drives particle placement and
// thus the sharing pattern itself.
TEST(Determinism, SeedReachesTheSimulation) {
  auto opt = test_options();
  opt.apps = {"mp3d"};
  const auto* app = bench::selected_apps(opt).front();
  const auto a = bench::run_app(*app, core::ProtocolKind::kLRC, opt);
  opt.seed = 99;
  const auto b = bench::run_app(*app, core::ProtocolKind::kLRC, opt);
  EXPECT_NE(digest(a.report), digest(b.report));
}

// The parallel experiment scheduler is an implementation detail: a --jobs N
// sweep must be bit-identical to the serial --jobs 1 sweep, in order.
TEST(Determinism, ParallelSweepMatchesSerial) {
  auto opt = test_options();
  opt.jobs = 1;
  const auto serial = bench::run_matrix(opt, kAllKinds);
  opt.jobs = 4;
  const auto parallel = bench::run_matrix(opt, kAllKinds);

  const auto apps = bench::selected_apps(opt);
  ASSERT_EQ(serial.size(), apps.size());
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].size(), kAllKinds.size());
    ASSERT_EQ(parallel[i].size(), serial[i].size());
    for (std::size_t j = 0; j < serial[i].size(); ++j) {
      EXPECT_EQ(digest(serial[i][j].report), digest(parallel[i][j].report))
          << apps[i]->name << " / " << serial[i][j].report.protocol;
      EXPECT_EQ(serial[i][j].report.summary(),
                parallel[i][j].report.summary());
    }
  }
}

// Golden statistics: the full test-scale matrix (every app x SC/ERC/LRC/
// LRC-ext/ERC-WT, seed 7) pinned by digest. Performance work on the
// memory-system hot path (flat-hash directory/OT, shift-mask address math,
// pooled transients) must leave every protocol statistic bit-identical; any
// behavioural change — intended or not — shows up here as a digest
// mismatch. To regenerate after an *intended* protocol change, run with
// LRCSIM_PRINT_GOLDEN=1 and paste the printed table.
TEST(Determinism, GoldenStatsMatrix) {
  struct Golden {
    const char* app;
    const char* protocol;
    std::uint64_t digest;
  };
  static const Golden kGolden[] = {
      // clang-format off
      {"gauss", "SC", 0x9a2f4806d9eb86d3ull},
      {"gauss", "ERC", 0x75807377d8169720ull},
      {"gauss", "LRC", 0x4f58ab607bf669fcull},
      {"gauss", "LRC-ext", 0x2eef03c1ffee4d56ull},
      {"gauss", "ERC-WT", 0x8b6f1bda06079c5aull},
      {"fft", "SC", 0xa2b01ec89aba2f90ull},
      {"fft", "ERC", 0x32c1a11b59bd9605ull},
      {"fft", "LRC", 0x2d4e5acf08c94bc9ull},
      {"fft", "LRC-ext", 0x6dcc7ce8b3c85e05ull},
      {"fft", "ERC-WT", 0x969d0e3984210780ull},
      {"blu", "SC", 0xf80fc71f4a70bc11ull},
      {"blu", "ERC", 0x0f2105f7fea12f5dull},
      {"blu", "LRC", 0x7c083461f5159ebcull},
      {"blu", "LRC-ext", 0x8c968f07cf8a1107ull},
      {"blu", "ERC-WT", 0xf3edb77e86ab95ddull},
      {"barnes", "SC", 0xd198d5cd2833c1f9ull},
      {"barnes", "ERC", 0xb94647a9e06dea34ull},
      {"barnes", "LRC", 0x7cae7f9f085d7862ull},
      {"barnes", "LRC-ext", 0xc55afa8b4b28b081ull},
      {"barnes", "ERC-WT", 0xe4e29bf0c8edf7c5ull},
      {"cholesky", "SC", 0xa9626d92cd82807eull},
      {"cholesky", "ERC", 0xe2574d64d65c7cfbull},
      {"cholesky", "LRC", 0x7de20d046ff35803ull},
      {"cholesky", "LRC-ext", 0xb2cf14dd65454004ull},
      {"cholesky", "ERC-WT", 0xacfedea208b4cdc3ull},
      {"locusroute", "SC", 0x0c4d0ade05c65cabull},
      {"locusroute", "ERC", 0xce179caa47e500e9ull},
      {"locusroute", "LRC", 0xf385f28b91ebeddeull},
      {"locusroute", "LRC-ext", 0xddcc08625523330full},
      {"locusroute", "ERC-WT", 0x279a7176788f4212ull},
      {"mp3d", "SC", 0x600c44f1b85e095bull},
      {"mp3d", "ERC", 0x1ef7f3314f82277eull},
      {"mp3d", "LRC", 0x88bf0c35b5d71690ull},
      {"mp3d", "LRC-ext", 0x243d9170cc6c4771ull},
      {"mp3d", "ERC-WT", 0x6f1368745abff41eull},
      // clang-format on
  };

  const auto opt = test_options();
  const auto results = bench::run_matrix(opt, kAllKinds);
  const auto apps = bench::selected_apps(opt);

  if (std::getenv("LRCSIM_PRINT_GOLDEN") != nullptr) {
    for (std::size_t i = 0; i < results.size(); ++i)
      for (const auto& cell : results[i])
        std::printf("      {\"%s\", \"%s\", 0x%016llxull},\n",
                    std::string(apps[i]->name).c_str(),
                    cell.report.protocol.c_str(),
                    static_cast<unsigned long long>(digest(cell.report)));
    return;
  }

  std::size_t k = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    for (const auto& cell : results[i]) {
      ASSERT_LT(k, std::size(kGolden));
      EXPECT_EQ(kGolden[k].app, std::string(apps[i]->name));
      EXPECT_EQ(kGolden[k].protocol, cell.report.protocol);
      EXPECT_EQ(kGolden[k].digest, digest(cell.report))
          << apps[i]->name << " / " << cell.report.protocol
          << " (regenerate with LRCSIM_PRINT_GOLDEN=1 only if the "
             "behavioural change is intended)";
      ++k;
    }
  }
  EXPECT_EQ(k, std::size(kGolden));
}

// Golden hierarchy timings: one test-scale app under every protocol behind
// each multi-level private stack (the HierarchySweep shapes: 16 KiB 4-way
// L2, inclusive or exclusive, and inclusive plus a sliced shared LLC).
// The digest pins every protocol-visible statistic; the per-level rows and
// the LLC counters, which the digest does not cover, pin level movement
// (promotions, demotions, back-invalidations) exactly. Cache-hit fast paths
// must leave all of it bit-identical. Regenerate with LRCSIM_PRINT_GOLDEN=1
// only after an intended change.
TEST(Determinism, GoldenHierarchyMatrix) {
  constexpr unsigned kLevelFields = 7;
  constexpr unsigned kLlcFields = 6;
  struct Golden {
    const char* hier;
    const char* protocol;
    std::uint64_t digest;
    std::uint64_t levels[2][kLevelFields];
    std::uint64_t llc[kLlcFields];
  };
  static const Golden kGolden[] = {
      // clang-format off
      {"l2incl", "SC", 0xaf62fec2e96214c5ull,
       {{82466, 37046, 27892, 7365, 0, 0, 0},
        {19585, 17461, 489, 11786, 19585, 27892, 0}},
       {0, 0, 0, 0, 0, 0}},
      {"l2incl", "ERC", 0x1ed3984afb564b1full,
       {{82478, 34339, 27632, 4915, 0, 0, 0},
        {18671, 15668, 576, 9676, 18671, 27632, 0}},
       {0, 0, 0, 0, 0, 0}},
      {"l2incl", "ERC-WT", 0xee8ef20ebb6c6101ull,
       {{83231, 33574, 26767, 5012, 0, 0, 0},
        {17842, 15732, 553, 9624, 17842, 26767, 0}},
       {0, 0, 0, 0, 0, 0}},
      {"l2incl", "LRC", 0x8919fe2afd46650bull,
       {{85209, 32136, 25902, 4606, 0, 0, 0},
        {17808, 14328, 516, 8808, 17808, 25902, 0}},
       {0, 0, 0, 0, 0, 0}},
      {"l2incl", "LRC-ext", 0x442330530a2f5a23ull,
       {{83190, 34117, 27902, 4593, 0, 0, 0},
        {19651, 14466, 507, 8866, 19651, 27902, 0}},
       {0, 0, 0, 0, 0, 0}},
      {"l2excl", "SC", 0x1449e4437664cf2full,
       {{83255, 36240, 27187, 7270, 0, 0, 0},
        {19061, 27187, 46, 4608, 19061, 27187, 0}},
       {0, 0, 0, 0, 0, 0}},
      {"l2excl", "ERC", 0xf920c68d420d07d2ull,
       {{82425, 34287, 27638, 4857, 0, 0, 0},
        {18763, 27638, 62, 5068, 18763, 27638, 0}},
       {0, 0, 0, 0, 0, 0}},
      {"l2excl", "ERC-WT", 0xd4f9263b08c9f65aull,
       {{83061, 33735, 27006, 4938, 0, 0, 0},
        {18326, 27006, 54, 4908, 18326, 27006, 0}},
       {0, 0, 0, 0, 0, 0}},
      {"l2excl", "LRC", 0xf733837afdc9a0a3ull,
       {{84258, 33080, 26834, 4613, 0, 0, 0},
        {18751, 26834, 45, 4415, 18751, 26834, 0}},
       {0, 0, 0, 0, 0, 0}},
      {"l2excl", "LRC-ext", 0xb020c5265d3a6784ull,
       {{84121, 33251, 27035, 4593, 0, 0, 0},
        {18968, 27035, 46, 4430, 18968, 27035, 0}},
       {0, 0, 0, 0, 0, 0}},
      {"l2llc", "SC", 0x29c2c230b782401full,
       {{82670, 36834, 27645, 7424, 0, 0, 0},
        {19521, 17313, 477, 11644, 19521, 27645, 0}},
       {12249, 182, 182, 0, 0, 13495}},
      {"l2llc", "ERC", 0x673ebd7d73117f13ull,
       {{82818, 33998, 27280, 4929, 0, 0, 0},
        {18542, 15456, 577, 9465, 18542, 27280, 0}},
       {12355, 182, 182, 0, 0, 13333}},
      {"l2llc", "ERC-WT", 0x7a69a3c531bf47bdull,
       {{83000, 33993, 27199, 5010, 0, 0, 0},
        {18642, 15351, 538, 9576, 18642, 27199, 0}},
       {12302, 180, 180, 0, 0, 13242}},
      {"l2llc", "LRC", 0x1c63a2a3c590f8fbull,
       {{84501, 32892, 26695, 4489, 0, 0, 0},
        {18460, 14432, 472, 8865, 18460, 26695, 0}},
       {14248, 184, 184, 0, 0, 14267}},
      {"l2llc", "LRC-ext", 0xcafc5fd41910110dull,
       {{84104, 33219, 26996, 4602, 0, 0, 0},
        {18816, 14403, 479, 8726, 18816, 26996, 0}},
       {14219, 184, 184, 0, 0, 14236}},
      // clang-format on
  };
  struct Hier {
    const char* name;
    cache::CacheConfig cfg;
  };
  const auto l2 = [](cache::InclusionPolicy inc) {
    return cache::CacheConfig::with_l2(16 * 1024, 4, inc);
  };
  const Hier hiers[] = {
      {"l2incl", l2(cache::InclusionPolicy::kInclusive)},
      {"l2excl", l2(cache::InclusionPolicy::kExclusive)},
      {"l2llc", l2(cache::InclusionPolicy::kInclusive)
                    .add_llc(32 * 1024, 4, cache::SliceHash::kXorFold)},
  };
  const core::ProtocolKind kinds[] = {
      core::ProtocolKind::kSC, core::ProtocolKind::kERC,
      core::ProtocolKind::kERCWT, core::ProtocolKind::kLRC,
      core::ProtocolKind::kLRCExt};

  const auto opt = test_options();
  const apps::AppInfo* app = apps::find_app("barnes");
  ASSERT_NE(app, nullptr);
  apps::AppConfig cfg;
  cfg.n = app->test_n;
  cfg.steps = app->test_steps;
  cfg.seed = opt.seed;
  cfg.validate = false;

  const bool print = std::getenv("LRCSIM_PRINT_GOLDEN") != nullptr;
  std::size_t k = 0;
  for (const Hier& h : hiers) {
    for (const auto kind : kinds) {
      auto params = bench::make_params(opt);
      params.cache = h.cfg;
      core::Machine m(params, kind);
      app->run(m, cfg);
      const core::Report r = m.report();
      ASSERT_EQ(r.cache_levels.size(), 2u);
      std::uint64_t levels[2][kLevelFields];
      for (unsigned l = 0; l < 2; ++l) {
        const auto& ls = r.cache_levels[l];
        const std::uint64_t row[kLevelFields] = {
            ls.hits,       ls.fills,     ls.evictions, ls.invalidations,
            ls.promotions, ls.demotions, ls.back_invals};
        std::copy(std::begin(row), std::end(row), levels[l]);
      }
      const std::uint64_t llc[kLlcFields] = {
          r.llc.hits,       r.llc.misses,    r.llc.read_fills,
          r.llc.writeback_fills, r.llc.evictions, r.llc.remote_accesses};
      const std::string where = std::string(h.name) + " / " + r.protocol;
      if (print) {
        std::printf("      {\"%s\", \"%s\", 0x%016llxull,\n", h.name,
                    r.protocol.c_str(),
                    static_cast<unsigned long long>(digest(r)));
        for (unsigned l = 0; l < 2; ++l) {
          std::printf(l == 0 ? "       {{" : "        {");
          for (unsigned f = 0; f < kLevelFields; ++f)
            std::printf("%s%llu", f ? ", " : "",
                        static_cast<unsigned long long>(levels[l][f]));
          std::printf(l == 0 ? "},\n" : "}},\n");
        }
        std::printf("       {");
        for (unsigned f = 0; f < kLlcFields; ++f)
          std::printf("%s%llu", f ? ", " : "",
                      static_cast<unsigned long long>(llc[f]));
        std::printf("}},\n");
        continue;
      }
      ASSERT_LT(k, std::size(kGolden)) << where;
      const Golden& g = kGolden[k++];
      EXPECT_EQ(g.hier, std::string(h.name));
      EXPECT_EQ(g.protocol, r.protocol);
      EXPECT_EQ(g.digest, digest(r)) << where;
      for (unsigned l = 0; l < 2; ++l)
        for (unsigned f = 0; f < kLevelFields; ++f)
          EXPECT_EQ(g.levels[l][f], levels[l][f])
              << where << " level " << l << " field " << f;
      for (unsigned f = 0; f < kLlcFields; ++f)
        EXPECT_EQ(g.llc[f], llc[f]) << where << " llc field " << f;
    }
  }
  if (!print) {
    EXPECT_EQ(k, std::size(kGolden));
  }
}

// Past-time schedules indicate a broken component; no app/protocol pair may
// trip the release-mode clamp.
TEST(Determinism, NoPastTimeSchedules) {
  const auto opt = test_options();
  const auto results = bench::run_matrix(opt, kAllKinds);
  for (const auto& row : results) {
    for (const auto& cell : row) {
      EXPECT_EQ(cell.report.sched_past_violations, 0u)
          << cell.report.protocol;
    }
  }
}

}  // namespace
}  // namespace lrc
