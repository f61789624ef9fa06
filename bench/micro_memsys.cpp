// Memory-system microbenchmark: throughput of the per-access hot path
// (directory, outstanding-transaction table, address mapping) under a
// sharing-heavy LRC workload, plus a component-level comparison of the
// library's containers against the seed's std::unordered_map design.
//
// Three measurements, reported as JSON on stdout and in
// BENCH_micro_memsys.json:
//
//  1. Whole-simulator: simulated-accesses/sec on a 16-node LRC run whose
//     working set is widely shared and cache-hostile, so nearly every
//     access walks the directory/OT path (write notices fan out to ~15
//     sharers, each ack walking the home directory again). Throughput is
//     measured on the marginal iterations (2N vs N runs), which also
//     yields the steady-state heap-allocation rate per access.
//
//  2. Hierarchy: the same workload with a two-level private cache stack
//     (8 KiB L1 + 32 KiB 4-way inclusive L2), reported as a same-run
//     throughput ratio against the single-level run so the figure is
//     host-independent, plus a direct Hierarchy hit-path loop (L1 hits
//     and L2 promotions only) that must allocate nothing in steady state.
//
//  3. Component: an LRC-shaped op stream (directory entry touch + notice
//     collections, OT allocate/merge/drain, address line/word/home math)
//     replayed over (a) a faithful replica of the seed's unordered_map
//     containers and (b) the library's current implementation. The
//     library side must hold a >= 2x ops/sec advantage and allocate
//     nothing in steady state (DESIGN.md "Memory-system hot path").
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <new>
#include <unordered_map>
#include <vector>

#include "bench/harness.hpp"
#include "cache/config.hpp"
#include "cache/hierarchy.hpp"
#include "core/machine.hpp"
#include "core/params.hpp"
#include "mem/address_map.hpp"
#include "cache/ot_table.hpp"
#include "proto/directory.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter (same hook as micro_engine): attributing heap
// traffic without instrumentation.
static std::atomic<std::uint64_t> g_allocs{0};

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace lrc;

// Process-CPU-time clock: the benchmark hosts are often oversubscribed, so
// wall-clock throughput is dominated by scheduler noise. CPU seconds track
// the work this process actually did; all throughput figures use them.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------------------
// Whole-simulator phase.

struct SimTotals {
  std::uint64_t accesses = 0;
  double seconds = 0;
  std::uint64_t allocs = 0;
};

SimTotals run_sim(unsigned iters,
                  const cache::CacheConfig& cfg = cache::CacheConfig::l1_only()) {
  constexpr unsigned kProcs = 16;
  constexpr unsigned kLines = 512;   // 64 KiB footprint, 8 KiB caches
  constexpr unsigned kWordsPerLine = 32;

  core::SystemParams p = core::SystemParams::paper_default(kProcs);
  p.cache_bytes = 8 * 1024;  // cache-hostile: conflict misses + evictions
  p.cache = cfg;
  core::Machine m(p, core::ProtocolKind::kLRC);
  auto data = m.alloc<std::uint32_t>(kLines * kWordsPerLine, "shared");

  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  const double t0 = cpu_seconds();
  m.run([&](core::Cpu& cpu) {
    const unsigned np = cpu.nprocs();
    const unsigned id = cpu.id();
    for (unsigned it = 0; it < iters; ++it) {
      // Every processor sweeps the array: every line widely shared.
      for (unsigned l = 0; l < kLines; ++l) {
        (void)data.get(cpu, l * kWordsPerLine + (id % kWordsPerLine));
      }
      // Strided writers: each write to a shared line turns it Weak and
      // fans write notices out to ~15 sharers (each ack re-walks the
      // home directory entry).
      for (unsigned l = id; l < kLines; l += np) {
        data.put(cpu, l * kWordsPerLine + ((it + id) % kWordsPerLine),
                 it + id);
      }
      // Lock hand-off: release drains (write buffer + OT + write-throughs)
      // and acquire-side notice application.
      cpu.lock(0);
      data.put(cpu, (it % kLines) * kWordsPerLine, it);
      cpu.unlock(0);
      cpu.barrier(0);
    }
  });
  const double t1 = cpu_seconds();

  SimTotals t;
  const auto& cs = m.report().cache;
  t.accesses = cs.read_hits + cs.read_misses + cs.write_hits +
               cs.write_misses + cs.upgrade_misses;
  t.seconds = t1 - t0;
  t.allocs = g_allocs.load(std::memory_order_relaxed) - a0;
  return t;
}

// ---------------------------------------------------------------------------
// Component phase: the seed's containers, replicated faithfully.

struct LegacyDirEntry {
  proto::DirState state = proto::DirState::kUncached;
  ProcMask sharers = 0;
  ProcMask writers = 0;
  ProcMask notified = 0;
  bool busy = false;
  std::vector<mesh::Message> deferred;
  struct NoticeCollection {
    NodeId writer = kInvalidNode;
    unsigned remaining = 0;
  };
  std::vector<NoticeCollection> collections;
  unsigned notices_outstanding = 0;
};

class LegacyDirectory {
 public:
  LegacyDirEntry& entry(LineId line) { return map_[line]; }

 private:
  std::unordered_map<LineId, LegacyDirEntry> map_;
};

class LegacyOtTable {
 public:
  cache::OtEntry& get_or_create(LineId line, bool* created) {
    auto [it, inserted] = map_.try_emplace(line);
    if (inserted) {
      it->second.line = line;
      ++stats_.allocated;
    } else {
      ++stats_.merged;
    }
    if (created != nullptr) *created = inserted;
    return it->second;
  }
  cache::OtEntry* find(LineId line) {
    auto it = map_.find(line);
    return it == map_.end() ? nullptr : &it->second;
  }
  void erase(LineId line) { map_.erase(line); }
  bool empty() const { return map_.empty(); }
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (auto& [line, e] : map_) fn(e);
  }
  cache::OtStats& stats() { return stats_; }

 private:
  std::unordered_map<LineId, cache::OtEntry> map_;
  cache::OtStats stats_;
};

// Seed address math: runtime division/modulo on every call.
class LegacyAddressMap {
 public:
  LegacyAddressMap(unsigned nodes, std::uint32_t line_bytes,
                   std::uint32_t page_bytes)
      : nodes_(nodes), line_bytes_(line_bytes), page_bytes_(page_bytes) {}

  LineId line_of(Addr a) const { return a / line_bytes_; }
  unsigned word_in_line(Addr a) const {
    return static_cast<unsigned>((a % line_bytes_) / 4);
  }
  NodeId home_of(Addr a) const {
    return static_cast<NodeId>((a / page_bytes_) % nodes_);
  }

 private:
  unsigned nodes_;
  std::uint32_t line_bytes_;
  std::uint32_t page_bytes_;
};

// ---------------------------------------------------------------------------
// Notice-collection adapters: the seed entry uses plain std::vector; the
// flat entry uses pooled small-buffer storage. Keeping these as overloads
// lets one driver exercise both.

void push_collection(LegacyDirectory&, LegacyDirEntry& e, NodeId writer,
                     unsigned remaining) {
  e.collections.push_back({writer, remaining});
}

// Decrements every open countdown, dropping the ones that reach zero —
// the home_notice_ack pattern.
unsigned drain_collections_step(LegacyDirectory&, LegacyDirEntry& e) {
  unsigned completed = 0;
  for (auto it = e.collections.begin(); it != e.collections.end();) {
    if (--it->remaining == 0) {
      ++completed;
      it = e.collections.erase(it);
    } else {
      ++it;
    }
  }
  return completed;
}

void push_collection(proto::Directory& dir, proto::DirEntry& e, NodeId writer,
                     unsigned remaining) {
  e.collections.push_back({writer, remaining}, dir.col_pool());
}

unsigned drain_collections_step(proto::Directory& dir, proto::DirEntry& e) {
  unsigned completed = 0;
  e.collections.erase_if(dir.col_pool(),
                         [&](proto::DirEntry::NoticeCollection& c) {
                           if (--c.remaining != 0) return false;
                           ++completed;
                           return true;
                         });
  return completed;
}

// ---------------------------------------------------------------------------
// The op stream: a deterministic transaction-shaped mix over a shared
// working set, mirroring what one write to a shared line costs the memory
// system under LRC. Per transaction: address math (line/word/home), the
// home-side directory touch (home_write_req shape: membership masks plus,
// every 4th transaction, a write-notice collection), the requester-side OT
// allocate/merge, one home re-walk per notice ack (home_notice_ack re-looks
// the entry up and ticks every open countdown), and the reply-side OT
// lookup. Every kDrainPeriod transactions the OT table drains completely
// (the release pattern).

constexpr unsigned kProcsC = 16;
constexpr unsigned kLinesC = 4096;
constexpr std::uint32_t kLineBytes = 128;
constexpr std::uint32_t kPageBytes = 4096;
constexpr unsigned kDrainPeriod = 64;

template <typename Dir, typename Ot, typename Amap>
std::uint64_t drive_ops(Dir& dir, Ot& ot, Amap& amap, std::uint64_t ops) {
  std::uint32_t rng = 0x2545f491u;
  std::uint64_t sink = 0;
  std::vector<LineId> open;  // lines with a live OT entry this period
  open.reserve(kDrainPeriod);
  for (std::uint64_t i = 0; i < ops; ++i) {
    rng = rng * 1664525u + 1013904223u;
    const LineId l = (rng >> 8) % kLinesC;
    const Addr a = static_cast<Addr>(l) * kLineBytes + ((rng >> 3) & 124);
    const NodeId p = rng % kProcsC;

    // Address math (every protocol hook does this).
    const LineId line = amap.line_of(a);
    const unsigned word = amap.word_in_line(a);
    sink += amap.home_of(a) + word;

    // Home-side directory touch (home_write_req shape).
    auto& e = dir.entry(line);
    e.sharers |= proc_bit(p);
    e.writers |= proc_bit(p);
    const unsigned notices = (i & 3) == 0 ? 2 : 0;
    if (notices != 0) {
      e.notices_outstanding += notices;
      push_collection(dir, e, p, notices);
    }
    sink += e.notices_outstanding;

    // Requester-side OT traffic (allocate or merge).
    bool created = false;
    auto& oe = ot.get_or_create(line, &created);
    oe.words |= WordMask{1} << word;
    if (created) {
      oe.acks_pending = 1;
      open.push_back(line);
    }

    // Notice acks: each one re-walks the home entry and ticks the open
    // countdowns (home_notice_ack shape).
    for (unsigned k = 0; k < notices; ++k) {
      auto& ea = dir.entry(line);
      sink += drain_collections_step(dir, ea);
      if (ea.notices_outstanding > 0) --ea.notices_outstanding;
    }

    // Reply arrival: the requester looks its transaction back up.
    if (auto* oa = ot.find(line)) {
      oa->acks_pending = 0;
      sink += static_cast<std::uint64_t>(oa->words & 1);
    }

    if ((i + 1) % kDrainPeriod == 0) {
      // Release: the OT table drains completely.
      for (LineId ln : open) ot.erase(ln);
      open.clear();
    }
  }
  sink += ot.stats().allocated + ot.stats().merged;
  return sink;
}

struct OpsMeasurement {
  double ops_per_sec = 0;
  double allocs_per_op = 0;
  std::uint64_t sink = 0;
};

template <typename Dir, typename Ot, typename Amap>
OpsMeasurement measure_ops(Dir& dir, Ot& ot, Amap& amap, std::uint64_t ops) {
  // Warm up: touch the full working set so growth is done before timing.
  OpsMeasurement m;
  m.sink = drive_ops(dir, ot, amap, kLinesC * 4);

  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  const double t0 = cpu_seconds();
  m.sink += drive_ops(dir, ot, amap, ops);
  const double t1 = cpu_seconds();
  const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);

  const double secs = t1 - t0;
  m.ops_per_sec = static_cast<double>(ops) / secs;
  m.allocs_per_op = static_cast<double>(a1 - a0) / static_cast<double>(ops);
  return m;
}

// ---------------------------------------------------------------------------
// Hierarchy phase.

// Two-level private stack for the hierarchy cell: the same 8 KiB L1 (made
// 2-way to put the set-associative victim pick on the hot path) with a
// 32 KiB 4-way inclusive L2 behind it, so the workload's conflict victims
// land in L2 instead of re-walking the directory.
cache::CacheConfig hier_config() {
  auto cfg = cache::CacheConfig::with_l2(32 * 1024, 4,
                                         cache::InclusionPolicy::kInclusive);
  cfg.l1_ways = 2;
  return cfg;
}

// Direct hit-path loop: a Hierarchy whose working set exactly fills the
// L2 (256 lines over 64 four-way sets), swept in a mixed pseudo-random
// order so every access after warmup is either an L1 hit or an L2
// hit-promotion (which demotes an L1 victim back onto its L2 tag). The
// loop must allocate nothing in steady state: the flat containers'
// zero-allocation property extends to the multi-level cache stack.
OpsMeasurement measure_hier_hit_path(std::uint64_t ops) {
  constexpr std::uint32_t kL1Bytes = 8 * 1024;
  constexpr std::uint32_t kLineB = 128;
  constexpr unsigned kSet = 256;  // == L2 lines: everything fits, nothing exits
  cache::Hierarchy h(hier_config(), kL1Bytes, kLineB, /*node=*/0, /*seed=*/1);

  std::uint32_t rng = 0x9e3779b9u;
  std::uint64_t sink = 0;
  std::uint64_t now = 0;
  auto touch = [&] {
    rng = rng * 1664525u + 1013904223u;
    const LineId line = (rng >> 8) % kSet;
    cache::CacheLine* cl = h.lookup(line, static_cast<Cycle>(now));
    if (cl == nullptr) {
      h.fill(line, cache::LineState::kReadOnly, static_cast<Cycle>(now));
      cl = h.find(line);
    }
    sink += static_cast<std::uint64_t>(cl->state != cache::LineState::kInvalid) +
            h.hit_penalty();
    ++now;
  };

  for (unsigned i = 0; i < 8 * kSet; ++i) touch();  // warmup: fill both levels

  OpsMeasurement m;
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  const double t0 = cpu_seconds();
  for (std::uint64_t i = 0; i < ops; ++i) touch();
  const double t1 = cpu_seconds();
  const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);

  m.sink = sink;
  m.ops_per_sec = static_cast<double>(ops) / (t1 - t0);
  m.allocs_per_op = static_cast<double>(a1 - a0) / static_cast<double>(ops);
  return m;
}

// Allocations of the second half of a doubled run. Signed: when the first
// (half) run is the one that grows a thread-local pool, the doubled run
// allocates less than it, and an unsigned difference would wrap around.
double marginal_allocs(const SimTotals& half, const SimTotals& full) {
  return static_cast<double>(static_cast<std::int64_t>(full.allocs) -
                             static_cast<std::int64_t>(half.allocs));
}

}  // namespace

int main(int argc, char** argv) {
  unsigned iters = 24;
  std::uint64_t ops = 4'000'000;
  if (argc > 1) iters = static_cast<unsigned>(std::strtoul(argv[1], nullptr, 10));
  if (argc > 2) ops = std::strtoull(argv[2], nullptr, 10);

  // ---- Whole-simulator phase ----------------------------------------------
  // The marginal cost of the second half of a doubled run removes machine
  // construction, pool growth, and first-touch effects from both the
  // throughput and the allocation rate. Best of three measurement pairs:
  // even process-CPU time fluctuates on an oversubscribed host (cache and
  // memory-bandwidth contention), and the least-interfered run is the one
  // that reflects the code.
  double accesses_per_sec = 0.0;
  double allocs_per_access = 0.0;
  std::uint64_t sim_accesses = 0;
  (void)run_sim(2 * iters);  // untimed: grows the thread-local pools
  for (int rep = 0; rep < 3; ++rep) {
    const SimTotals half = run_sim(iters);
    const SimTotals full = run_sim(2 * iters);
    const double d_acc = static_cast<double>(full.accesses - half.accesses);
    const double aps = d_acc / (full.seconds - half.seconds);
    if (aps > accesses_per_sec) {
      accesses_per_sec = aps;
      allocs_per_access = marginal_allocs(half, full) / d_acc;
      sim_accesses = full.accesses - half.accesses;
    }
  }

  // ---- Hierarchy phase ----------------------------------------------------
  // Same workload behind the two-level private stack. Throughput is
  // reported as a ratio against the single-level run measured seconds
  // earlier in this same process, so the figure survives host changes;
  // the direct hit-path loop pins the zero-allocation property of the
  // lookup / promotion / demotion path.
  double hier_accesses_per_sec = 0.0;
  double hier_allocs_per_access = 0.0;
  std::uint64_t hier_accesses = 0;
  const lrc::cache::CacheConfig hcfg = hier_config();
  (void)run_sim(2 * iters, hcfg);  // untimed pool warm-up, as above
  for (int rep = 0; rep < 3; ++rep) {
    const SimTotals half = run_sim(iters, hcfg);
    const SimTotals full = run_sim(2 * iters, hcfg);
    const double d_acc = static_cast<double>(full.accesses - half.accesses);
    const double aps = d_acc / (full.seconds - half.seconds);
    if (aps > hier_accesses_per_sec) {
      hier_accesses_per_sec = aps;
      hier_allocs_per_access = marginal_allocs(half, full) / d_acc;
      hier_accesses = full.accesses - half.accesses;
    }
  }
  const double hier_ratio =
      accesses_per_sec > 0 ? hier_accesses_per_sec / accesses_per_sec : 0.0;
  const OpsMeasurement hit_path = measure_hier_hit_path(ops);

  // ---- Component phase ----------------------------------------------------
  LegacyDirectory ldir;
  LegacyOtTable lot;
  LegacyAddressMap lamap(kProcsC, kLineBytes, kPageBytes);
  const OpsMeasurement legacy = measure_ops(ldir, lot, lamap, ops);

  lrc::proto::Directory fdir;
  lrc::cache::OtTable fot;
  lrc::mem::AddressMap famap(kProcsC, kLineBytes, kPageBytes);
  const OpsMeasurement flat = measure_ops(fdir, fot, famap, ops);

  const double container_speedup = flat.ops_per_sec / legacy.ops_per_sec;

  // ---- Macro phase: wall clock of the fig4 run_matrix -------------------
  // End-to-end check that the flattening shows up at figure scale: the full
  // seven-app x {SC, ERC, LRC} matrix at test scale, same configuration the
  // tier-1 suite runs.
  lrc::bench::Options mopt;
  mopt.scale = lrc::bench::Scale::kTest;
  mopt.seed = 7;
  mopt.validate = false;
  const double m0 = cpu_seconds();
  const auto matrix = lrc::bench::run_matrix(
      mopt, {lrc::core::ProtocolKind::kSC, lrc::core::ProtocolKind::kERC,
             lrc::core::ProtocolKind::kLRC});
  const double fig4_seconds = cpu_seconds() - m0;  // summed across workers
  std::uint64_t fig4_cycles = 0;
  for (const auto& row : matrix) {
    for (const auto& r : row) fig4_cycles += r.report.execution_time;
  }

  char json[3072];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"bench\": \"micro_memsys\",\n"
      "  \"sim\": {\"accesses\": %llu, \"accesses_per_sec\": %.0f,\n"
      "          \"allocs_per_access\": %.3f},\n"
      "  \"hier\": {\"accesses\": %llu, \"accesses_per_sec\": %.0f,\n"
      "           \"speedup\": %.2f, \"allocs_per_access\": %.3f,\n"
      "           \"hit_path_ops_per_sec\": %.0f,\n"
      "           \"hit_path_allocs_per_op\": %.4f},\n"
      "  \"container\": {\"legacy_ops_per_sec\": %.0f,\n"
      "                \"flat_ops_per_sec\": %.0f, \"speedup\": %.2f,\n"
      "                \"legacy_allocs_per_op\": %.4f,\n"
      "                \"flat_allocs_per_op\": %.4f},\n"
      "  \"fig4_matrix\": {\"scale\": \"test\", \"apps\": %u, \"kinds\": 3,\n"
      "                 \"cpu_seconds\": %.3f, \"simulated_cycles\": %llu}\n"
      "}\n",
      static_cast<unsigned long long>(sim_accesses),
      accesses_per_sec, allocs_per_access,
      static_cast<unsigned long long>(hier_accesses), hier_accesses_per_sec,
      hier_ratio, hier_allocs_per_access, hit_path.ops_per_sec,
      hit_path.allocs_per_op,
      legacy.ops_per_sec, flat.ops_per_sec,
      container_speedup, legacy.allocs_per_op, flat.allocs_per_op,
      static_cast<unsigned>(matrix.size()), fig4_seconds,
      static_cast<unsigned long long>(fig4_cycles));

  std::fputs(json, stdout);
  std::fprintf(stdout,
               "// component sinks: legacy=%llu flat=%llu %s hier=%llu\n",
               static_cast<unsigned long long>(legacy.sink),
               static_cast<unsigned long long>(flat.sink),
               legacy.sink == flat.sink ? "(match)" : "(MISMATCH)",
               static_cast<unsigned long long>(hit_path.sink));

  // Acceptance: steady-state directory/OT handling allocates nothing.
  // (The seed containers allocate on every insert; the flat rewrite must
  // not. Enforced here so CI catches regressions.)
  if (flat.allocs_per_op > 0.0005) {
    std::fprintf(stderr,
                 "FAIL: flat memory-system containers allocated %.4f/op in "
                 "steady state (expected 0)\n",
                 flat.allocs_per_op);
    return 1;
  }
  if (hit_path.allocs_per_op > 0.0005) {
    std::fprintf(stderr,
                 "FAIL: hierarchy hit path allocated %.4f/op in steady state "
                 "(expected 0)\n",
                 hit_path.allocs_per_op);
    return 1;
  }
  // The whole-simulator marginal rate covers everything the component
  // loops cannot see (protocol bookkeeping, NIC, events). A small slack
  // absorbs one-off growth of flat tables to their high-water capacity;
  // anything above it means a per-access allocation crept back into the
  // sim path (pending-invalidation sets were 0.5/access before they moved
  // to util::FlatSet).
  if (allocs_per_access > 0.02 || hier_allocs_per_access > 0.02) {
    std::fprintf(stderr,
                 "FAIL: whole-sim marginal allocation rate %.3f/access "
                 "(single-level) / %.3f/access (two-level); expected ~0\n",
                 allocs_per_access, hier_allocs_per_access);
    return 1;
  }

  if (FILE* f = std::fopen("BENCH_micro_memsys.json", "w")) {
    std::fputs(json, f);
    std::fclose(f);
  }
  return 0;
}
