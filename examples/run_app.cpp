// Command-line front end for the seven paper applications: pick an app,
// protocol, size and processor count, run it, and print the full report.
//
//   $ ./build/examples/run_app mp3d LRC --procs 32 --n 2000
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "apps/app.hpp"
#include "bench/harness.hpp"
#include "core/machine.hpp"

static int run_app(int argc, char** argv) {
  using namespace lrc;
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <app> <SC|ERC|LRC|LRC-ext> [--procs N] [--n N]\n"
                 "          [--steps N] [--seed N] [--cache-kb N] [--future]\n"
                 "apps:",
                 argv[0]);
    for (const auto& a : apps::registry()) {
      std::fprintf(stderr, " %s", std::string(a.name).c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const auto* info = apps::find_app(argv[1]);
  if (info == nullptr) {
    std::fprintf(stderr, "unknown app: %s\n", argv[1]);
    return 2;
  }
  core::ProtocolKind kind;
  const std::string pk = argv[2];
  if (pk == "SC") {
    kind = core::ProtocolKind::kSC;
  } else if (pk == "ERC") {
    kind = core::ProtocolKind::kERC;
  } else if (pk == "LRC") {
    kind = core::ProtocolKind::kLRC;
  } else if (pk == "LRC-ext") {
    kind = core::ProtocolKind::kLRCExt;
  } else {
    std::fprintf(stderr, "unknown protocol: %s\n", pk.c_str());
    return 2;
  }

  unsigned procs = 64;
  bool future = false;
  std::uint32_t cache_kb = 32;
  apps::AppConfig cfg;
  cfg.n = info->bench_n;
  cfg.steps = info->bench_steps;
  constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    // A missing or malformed value names the flag (exit 2 via run_main).
    auto next = [&](std::uint64_t lo, std::uint64_t hi) {
      const std::string text = i + 1 < argc ? argv[++i] : "";
      if (const auto v = bench::parse_uint(text, lo, hi)) return *v;
      throw std::invalid_argument(arg + ": invalid value '" + text +
                                  "' (expected " + std::to_string(lo) +
                                  ".." + std::to_string(hi) + ")");
    };
    if (arg == "--procs") {
      procs = static_cast<unsigned>(next(1, kMaxProcs));
    } else if (arg == "--n") {
      cfg.n = static_cast<unsigned>(next(0, kU32Max));
    } else if (arg == "--steps") {
      cfg.steps = static_cast<unsigned>(next(0, kU32Max));
    } else if (arg == "--seed") {
      cfg.seed = next(0, std::numeric_limits<std::uint64_t>::max());
    } else if (arg == "--cache-kb") {
      // Bounded so the byte count fits cache_bytes' 32 bits.
      cache_kb = static_cast<std::uint32_t>(next(1, kU32Max / 1024));
    } else if (arg == "--future") {
      future = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return 2;
    }
  }

  auto params = future ? core::SystemParams::future_machine(procs)
                       : core::SystemParams::paper_default(procs);
  params.cache_bytes = cache_kb * 1024;
  core::Machine m(params, kind);
  const auto res = info->run(m, cfg);
  const auto r = m.report();
  std::printf("%s\nvalidation: %s (%s)\n", r.summary().c_str(),
              res.valid ? "OK" : "FAILED", res.detail.c_str());
  return res.valid ? 0 : 1;
}

int main(int argc, char** argv) {
  return lrc::bench::run_main(argc, argv, run_app);
}
