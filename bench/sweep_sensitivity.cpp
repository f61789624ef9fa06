// Reproduces the §4.3 sensitivity discussion (text, no figure number):
// varying cache line size, memory latency, and bandwidth, and reporting
// the LRC-vs-ERC execution-time gap.
//
// Expected shape: longer lines widen the gap (more false sharing); higher
// latency+bandwidth combinations keep a modest LRC advantage.
#include <cstdio>

#include "bench/harness.hpp"
#include "stats/table.hpp"

namespace {

struct Config {
  const char* label;
  lrc::Cycle mem_setup;
  std::uint32_t bandwidth;
  std::uint32_t line;
};

}  // namespace

static int run_figure(int argc, char** argv) {
  using namespace lrc;
  auto opt = bench::Options::parse(argc, argv);
  if (opt.apps.empty()) {
    // Default to the two most line-size-sensitive apps plus one neutral
    // one; a full 7-app sweep is available with --apps.
    opt.apps = {"blu", "mp3d", "fft"};
  }
  bench::print_header(opt, "Latency/bandwidth/line-size sensitivity",
                      "paper Sec. 4.3 trends discussion");

  static const Config kConfigs[] = {
      {"base (20cy, 2B/cy, 128B)", 20, 2, 128},
      {"long lines (20cy, 2B/cy, 256B)", 20, 2, 256},
      {"short lines (20cy, 2B/cy, 64B)", 20, 2, 64},
      {"high latency (40cy, 2B/cy, 128B)", 40, 2, 128},
      {"high lat+bw (40cy, 4B/cy, 128B)", 40, 4, 128},
      {"future (40cy, 4B/cy, 256B)", 40, 4, 256},
  };

  stats::Table table({"Config", "Application", "ERC(cycles)", "LRC(cycles)",
                      "LRC/ERC gain"});
  for (const auto& cfg : kConfigs) {
    for (const auto* app : bench::selected_apps(opt)) {
      bench::Options o = opt;
      o.line_bytes = cfg.line;
      auto run_with = [&](core::ProtocolKind kind) {
        core::SystemParams p = bench::make_params(o);
        p.mem_setup = cfg.mem_setup;
        p.mem_bandwidth = cfg.bandwidth;
        p.bus_bandwidth = cfg.bandwidth;
        p.net_bandwidth = cfg.bandwidth;
        core::Machine m(p, kind);
        apps::AppConfig ac;
        ac.seed = o.seed;
        ac.n = o.scale == bench::Scale::kTest ? app->test_n : app->bench_n;
        ac.steps =
            o.scale == bench::Scale::kTest ? app->test_steps : app->bench_steps;
        app->run(m, ac);
        return m.report().execution_time;
      };
      const double e = static_cast<double>(run_with(core::ProtocolKind::kERC));
      const double l = static_cast<double>(run_with(core::ProtocolKind::kLRC));
      table.add_row({cfg.label, std::string(app->name),
                     stats::Table::count(static_cast<std::uint64_t>(e)),
                     stats::Table::count(static_cast<std::uint64_t>(l)),
                     stats::Table::pct((e - l) / e, 1)});
      std::fflush(stdout);
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Paper shape check: the gain column grows with line size and with "
      "memory\nlatency (in cycles); it stays positive across "
      "latency/bandwidth combinations\nfor the false-sharing apps.\n");
  return 0;
}

int main(int argc, char** argv) {
  return lrc::bench::run_main(argc, argv, run_figure);
}
