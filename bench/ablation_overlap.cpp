// Ablation (paper §2): "Much of the latency of [acquire-time invalidation]
// can be hidden behind the latency of the lock acquisition itself."
//
// LRC normally starts applying buffered write notices the moment the lock
// request leaves, finishing any stragglers at grant time. This bench turns
// that overlap off (everything processed after the grant arrives) and
// measures the synchronization-time cost on the lock-heavy applications.
#include <cstdio>

#include "bench/harness.hpp"
#include "stats/table.hpp"

static int run_figure(int argc, char** argv) {
  using namespace lrc;
  auto opt = bench::Options::parse(argc, argv);
  if (opt.apps.empty()) opt.apps = {"barnes", "cholesky", "locusroute", "mp3d"};
  bench::print_header(opt, "Acquire-overlap ablation (LRC)",
                      "paper Sec. 2 invalidation/lock-latency overlap");

  stats::Table table({"Application", "Overlap(cycles)", "No overlap",
                      "Slowdown", "Sync overlap", "Sync no-ovl"});
  for (const auto* app : bench::selected_apps(opt)) {
    auto run_with = [&](bool overlap) {
      core::SystemParams p = bench::make_params(opt);
      p.lrc_overlap_acquire = overlap;
      core::Machine m(p, core::ProtocolKind::kLRC);
      apps::AppConfig cfg;
      cfg.seed = opt.seed;
      cfg.n = opt.scale == bench::Scale::kTest ? app->test_n : app->bench_n;
      cfg.steps =
          opt.scale == bench::Scale::kTest ? app->test_steps : app->bench_steps;
      app->run(m, cfg);
      return m.report();
    };
    const auto on = run_with(true);
    const auto off = run_with(false);
    table.add_row(
        {std::string(app->name), stats::Table::count(on.execution_time),
         stats::Table::count(off.execution_time),
         stats::Table::pct(
             (static_cast<double>(off.execution_time) - on.execution_time) /
                 static_cast<double>(on.execution_time),
             1),
         stats::Table::count(on.breakdown[stats::StallKind::kSync]),
         stats::Table::count(off.breakdown[stats::StallKind::kSync])});
    std::fflush(stdout);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Expected: disabling the overlap moves notice processing into the\n"
      "acquire's critical path, inflating synchronization time.\n");
  return 0;
}

int main(int argc, char** argv) {
  return lrc::bench::run_main(argc, argv, run_figure);
}
