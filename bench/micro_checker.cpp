// Consistency-checker overhead microbenchmark (docs/CHECKER.md): the same
// sync-heavy LRC workload simulated with the checker disabled (hooks
// compiled in but null) and enabled (full value oracle + directory
// invariants), reporting wall time for each and the slowdown factor.
// Writes JSON to stdout and BENCH_checker_overhead.json.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

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

}  // namespace

int main(int argc, char** argv) {
  unsigned iters = 60;
  if (argc > 1) iters = static_cast<unsigned>(std::strtoul(argv[1], nullptr, 10));

  // One throwaway round to warm the allocator, then measure each config.
  run_workload(ProtocolKind::kLRC, iters / 4 + 1, /*with_checker=*/false);
  const Outcome off = run_workload(ProtocolKind::kLRC, iters, false);
  const Outcome on = run_workload(ProtocolKind::kLRC, iters, true);
  const double slowdown = on.millis / off.millis;

  char json[1024];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"bench\": \"checker_overhead\",\n"
      "  \"protocol\": \"LRC\",\n"
      "  \"iters\": %u,\n"
      "  \"checker_off\": {\"millis\": %.2f},\n"
      "  \"checker_on\": {\"millis\": %.2f, \"reads_checked\": %llu,\n"
      "                 \"writes_tracked\": %llu, \"races\": %llu},\n"
      "  \"slowdown\": %.2f\n"
      "}\n",
      iters, off.millis, on.millis,
      static_cast<unsigned long long>(on.reads_checked),
      static_cast<unsigned long long>(on.writes_tracked),
      static_cast<unsigned long long>(on.races), slowdown);

  std::fputs(json, stdout);
  if (FILE* f = std::fopen("BENCH_checker_overhead.json", "w")) {
    std::fputs(json, f);
    std::fclose(f);
  }
  return 0;
}
