// Ablation (paper §4.2): for programs with data races, "the lazy protocol
// can match the performance of the eager protocol simply by adding fence
// operations ... that force the protocol processor to process
// invalidations at regular intervals."
//
// This bench runs the two racy applications (locusroute, mp3d) under LRC
// with fences every {off, 64, 16, 4} work items and prints execution time
// plus the solution-quality line, with ERC as the freshness reference.
#include <cstdio>

#include "bench/harness.hpp"
#include "stats/table.hpp"

static int run_figure(int argc, char** argv) {
  using namespace lrc;
  auto opt = bench::Options::parse(argc, argv);
  if (opt.apps.empty()) opt.apps = {"locusroute", "mp3d"};
  bench::print_header(opt, "Fence-period ablation for racy programs",
                      "paper Sec. 4.2 (fences bound invalidation staleness)");

  stats::Table table({"Application", "Config", "Exec cycles", "vs LRC",
                      "Quality / validation"});
  for (const auto* app : bench::selected_apps(opt)) {
    auto run_with = [&](core::ProtocolKind kind, unsigned fence_every) {
      core::Machine m(bench::make_params(opt), kind);
      apps::AppConfig cfg;
      cfg.seed = opt.seed;
      cfg.n = opt.scale == bench::Scale::kTest ? app->test_n : app->bench_n;
      cfg.steps =
          opt.scale == bench::Scale::kTest ? app->test_steps : app->bench_steps;
      cfg.fence_every = fence_every;
      const auto res = app->run(m, cfg);
      return std::make_pair(m.report().execution_time, res.detail);
    };
    const auto base = run_with(core::ProtocolKind::kLRC, 0);
    auto add = [&](const char* label, std::pair<Cycle, std::string> r) {
      table.add_row({std::string(app->name), label,
                     stats::Table::count(r.first),
                     stats::Table::fixed(static_cast<double>(r.first) /
                                             static_cast<double>(base.first),
                                         3),
                     r.second});
    };
    add("LRC, no fences", base);
    add("LRC, fence/64", run_with(core::ProtocolKind::kLRC, 64));
    add("LRC, fence/16", run_with(core::ProtocolKind::kLRC, 16));
    add("LRC, fence/4", run_with(core::ProtocolKind::kLRC, 4));
    add("ERC (reference)", run_with(core::ProtocolKind::kERC, 0));
    std::fflush(stdout);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Expected: tighter fence periods trade execution time for fresher\n"
      "data (quality approaches the eager reference), per the paper's "
      "remedy.\n");
  return 0;
}

int main(int argc, char** argv) {
  return lrc::bench::run_main(argc, argv, run_figure);
}
