// Consistency-checker overhead microbenchmark (docs/CHECKER.md): the same
// sync-heavy LRC workload simulated with no observer attached and with the
// checker attached (full value oracle + directory invariants), repeated
// kReps times in alternating order. Reports the median, minimum and
// maximum wall time of each, the slowdown of the medians and the spread
// of the per-repetition slowdowns, with the host's core count and the
// compiler. Writes JSON to stdout and BENCH_checker_overhead.json.
//
//   micro_checker [iters=60]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "check/checker.hpp"
#include "core/machine.hpp"

namespace {

using lrc::core::Cpu;
using lrc::core::Machine;
using lrc::core::ProtocolKind;
using lrc::core::SystemParams;

struct Outcome {
  double millis = 0;
  std::uint64_t reads_checked = 0;
  std::uint64_t writes_tracked = 0;
  std::uint64_t races = 0;
};

// Barrier-phased neighbor exchange plus lock-protected reductions: every
// iteration enters Weak and reverts, so the oracle's shadow bookkeeping,
// HB-frontier joins, and directory invariant sweeps all stay hot.
Outcome run_workload(ProtocolKind kind, unsigned iters, bool with_checker) {
  const unsigned n = 8;
  const unsigned slice = 32;
  Machine m(SystemParams::test_scale(n), kind);
  auto data = m.alloc<std::int64_t>(n * slice, "data");
  auto sums = m.alloc<std::int64_t>(n, "sums");
  auto total = m.alloc<std::int64_t>(1, "total");
  m.poke_mem<std::int64_t>(total.addr(0), 0);

  lrc::check::Checker* ck = nullptr;
  if (with_checker) ck = &m.enable_checker(/*strict=*/true);

  const auto t0 = std::chrono::steady_clock::now();
  m.run([&](Cpu& cpu) {
    const unsigned p = cpu.id();
    for (unsigned it = 0; it < iters; ++it) {
      for (unsigned i = 0; i < slice; ++i) {
        data.put(cpu, p * slice + i, static_cast<std::int64_t>(it + p + i));
      }
      cpu.barrier(0);
      std::int64_t acc = 0;
      const unsigned q = (p + 1) % n;
      for (unsigned i = 0; i < slice; ++i) acc += data.get(cpu, q * slice + i);
      sums.put(cpu, p, acc);
      cpu.barrier(1);
      cpu.lock(3);
      total.put(cpu, 0, total.get(cpu, 0) + sums.get(cpu, p));
      cpu.unlock(3);
      cpu.barrier(2);
    }
  });
  const auto t1 = std::chrono::steady_clock::now();

  Outcome out;
  out.millis = std::chrono::duration<double, std::milli>(t1 - t0).count();
  if (ck != nullptr) {
    out.reads_checked = ck->reads_checked();
    out.writes_tracked = ck->writes_tracked();
    out.races = ck->races();
    if (!ck->violations().empty()) {
      std::fprintf(stderr, "unexpected violation: %s\n",
                   ck->violations()[0].c_str());
      std::exit(1);
    }
  }
  return out;
}

constexpr unsigned kReps = 11;

struct Spread {
  double median = 0, min = 0, max = 0;
};

Spread spread_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return {v[v.size() / 2], v.front(), v.back()};
}

}  // namespace

int main(int argc, char** argv) {
  unsigned iters = 60;
  if (argc > 1) iters = static_cast<unsigned>(std::strtoul(argv[1], nullptr, 10));

  // One throwaway round to warm the allocator, then alternate which
  // configuration runs first so host drift lands on both alike.
  run_workload(ProtocolKind::kLRC, iters / 4 + 1, /*with_checker=*/false);
  std::vector<double> off_ms, on_ms, ratios;
  Outcome on;
  for (unsigned r = 0; r < kReps; ++r) {
    Outcome off;
    if (r % 2 == 0) {
      off = run_workload(ProtocolKind::kLRC, iters, false);
      on = run_workload(ProtocolKind::kLRC, iters, true);
    } else {
      on = run_workload(ProtocolKind::kLRC, iters, true);
      off = run_workload(ProtocolKind::kLRC, iters, false);
    }
    off_ms.push_back(off.millis);
    on_ms.push_back(on.millis);
    ratios.push_back(on.millis / off.millis);
  }
  const Spread off_s = spread_of(off_ms);
  const Spread on_s = spread_of(on_ms);
  const Spread ratio_s = spread_of(ratios);

  char json[1536];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"bench\": \"checker_overhead\",\n"
      "  \"protocol\": \"LRC\",\n"
      "  \"iters\": %u,\n"
      "  \"reps\": %u,\n"
      "  \"host\": {\"cores\": %u, \"compiler\": \"%s\"},\n"
      "  \"checker_off\": {\"median_millis\": %.2f, \"min_millis\": %.2f,\n"
      "                  \"max_millis\": %.2f},\n"
      "  \"checker_on\": {\"median_millis\": %.2f, \"min_millis\": %.2f,\n"
      "                 \"max_millis\": %.2f, \"reads_checked\": %llu,\n"
      "                 \"writes_tracked\": %llu, \"races\": %llu},\n"
      "  \"slowdown\": %.2f,\n"
      "  \"slowdown_per_rep\": {\"median\": %.2f, \"min\": %.2f, "
      "\"max\": %.2f}\n"
      "}\n",
      iters, kReps, std::thread::hardware_concurrency(), __VERSION__,
      off_s.median, off_s.min, off_s.max, on_s.median, on_s.min, on_s.max,
      static_cast<unsigned long long>(on.reads_checked),
      static_cast<unsigned long long>(on.writes_tracked),
      static_cast<unsigned long long>(on.races), on_s.median / off_s.median,
      ratio_s.median, ratio_s.min, ratio_s.max);

  std::fputs(json, stdout);
  if (FILE* f = std::fopen("BENCH_checker_overhead.json", "w")) {
    std::fputs(json, f);
    std::fclose(f);
  }
  return 0;
}
