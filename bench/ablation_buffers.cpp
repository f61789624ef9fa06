// Ablation (paper Table 1 / §4.2): the relaxed protocols use a 4-entry
// write buffer; the lazy protocols add a 16-entry coalescing buffer. This
// bench sweeps both sizes to show where the paper's defaults sit.
#include <cstdio>

#include "bench/harness.hpp"
#include "stats/table.hpp"

static int run_figure(int argc, char** argv) {
  using namespace lrc;
  auto opt = bench::Options::parse(argc, argv);
  if (opt.apps.empty()) opt.apps = {"blu", "mp3d"};
  bench::print_header(opt, "Write-buffer / coalescing-buffer size sweep",
                      "paper Table 1 buffer parameters");

  auto run_with = [&](const apps::AppInfo& app, core::ProtocolKind kind,
                      unsigned wb, unsigned cb) {
    core::SystemParams p = bench::make_params(opt);
    p.write_buffer_entries = wb;
    p.coalescing_entries = cb;
    core::Machine m(p, kind);
    apps::AppConfig cfg;
    cfg.seed = opt.seed;
    cfg.n = opt.scale == bench::Scale::kTest ? app.test_n : app.bench_n;
    cfg.steps =
        opt.scale == bench::Scale::kTest ? app.test_steps : app.bench_steps;
    app.run(m, cfg);
    return m.report();
  };

  stats::Table wb_table({"Application", "Protocol", "WB=1", "WB=2", "WB=4*",
                         "WB=8", "WB=16"});
  for (const auto* app : bench::selected_apps(opt)) {
    for (auto kind : {core::ProtocolKind::kERC, core::ProtocolKind::kLRC}) {
      std::vector<std::string> row{std::string(app->name),
                                   std::string(core::to_string(kind))};
      double base = 0;
      for (unsigned wb : {1u, 2u, 4u, 8u, 16u}) {
        const auto r = run_with(*app, kind, wb, 16);
        if (wb == 1) base = static_cast<double>(r.execution_time);
        row.push_back(stats::Table::fixed(r.execution_time / base, 3));
      }
      wb_table.add_row(std::move(row));
      std::fflush(stdout);
    }
  }
  std::printf("Write-buffer sweep (execution time normalized to WB=1; the\n"
              "paper's configuration is WB=4):\n%s\n",
              wb_table.to_string().c_str());

  stats::Table cb_table(
      {"Application", "CB=4", "CB=8", "CB=16*", "CB=32", "CB=64"});
  for (const auto* app : bench::selected_apps(opt)) {
    std::vector<std::string> row{std::string(app->name)};
    double base = 0;
    for (unsigned cb : {4u, 8u, 16u, 32u, 64u}) {
      const auto r = run_with(*app, core::ProtocolKind::kLRC, 4, cb);
      if (cb == 4) base = static_cast<double>(r.execution_time);
      row.push_back(stats::Table::fixed(r.execution_time / base, 3));
    }
    cb_table.add_row(std::move(row));
    std::fflush(stdout);
  }
  std::printf("Coalescing-buffer sweep under LRC (normalized to CB=4; the\n"
              "paper's configuration is CB=16):\n%s\n",
              cb_table.to_string().c_str());
  return 0;
}

int main(int argc, char** argv) {
  return lrc::bench::run_main(argc, argv, run_figure);
}
