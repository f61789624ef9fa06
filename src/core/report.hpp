// Run report: everything the paper's tables and figures are built from.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cache/cache.hpp"
#include "cache/hierarchy.hpp"
#include "mem/dram.hpp"
#include "mem/llc.hpp"
#include "mesh/nic.hpp"
#include "proto/sync_manager.hpp"
#include "stats/counters.hpp"
#include "stats/histogram.hpp"
#include "stats/miss_classifier.hpp"

namespace lrc::core {

struct Report {
  std::string protocol;
  unsigned nprocs = 0;

  /// Parallel execution time: max over processors of their finish time.
  Cycle execution_time = 0;

  /// Aggregate (summed over processors) cycle breakdown.
  stats::CpuBreakdown breakdown;
  std::vector<stats::CpuBreakdown> per_cpu;

  /// Aggregate stall-latency distributions per category.
  std::array<stats::Histogram, stats::kStallKinds> stall_hist;

  /// Cache behaviour aggregated over processors (protocol-visible totals;
  /// this is the struct pinned by the golden digests).
  cache::CacheStats cache;
  stats::MissCounts miss_classes;

  /// Per-level movement accounting aggregated over processors: [0] = L1,
  /// [1] = L2 when configured. Not part of the golden digest.
  std::vector<cache::LevelStats> cache_levels;

  /// Shared LLC behaviour (all slices summed), when configured.
  bool has_llc = false;
  mem::LlcStats llc;

  /// Traffic and memory-system behaviour.
  mesh::NicStats nic;
  mem::DramStats dram;

  std::uint64_t lock_acquires = 0;
  std::uint64_t barrier_episodes = 0;
  proto::SyncStats sync;

  /// Kernel health: events the engine had to clamp because a component
  /// scheduled them in the past (must be 0; see Engine::past_violations).
  std::uint64_t sched_past_violations = 0;
  /// Total events the engine executed for this run.
  std::uint64_t events_executed = 0;

  double miss_rate() const { return cache.miss_rate(); }

  /// Pretty multi-line summary for examples and debugging.
  std::string summary() const;
};

}  // namespace lrc::core
