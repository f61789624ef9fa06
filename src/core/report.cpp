#include "core/report.hpp"

#include <sstream>

#include "stats/table.hpp"

namespace lrc::core {

std::string Report::summary() const {
  std::ostringstream os;
  os << "=== " << protocol << " on " << nprocs << " processors ===\n";
  os << "execution time: " << execution_time << " cycles\n";
  os << "references: " << cache.references() << "  misses: " << cache.misses()
     << "  miss rate: " << stats::Table::pct(miss_rate(), 2) << "\n";

  // Per-level hierarchy lines only when there is a hierarchy: the default
  // single-L1 summary stays byte-identical to the pre-hierarchy format.
  if (cache_levels.size() > 1) {
    for (std::size_t l = 0; l < cache_levels.size(); ++l) {
      const auto& ls = cache_levels[l];
      os << "L" << (l + 1) << ": hits=" << ls.hits << " fills=" << ls.fills
         << " evictions=" << ls.evictions
         << " invalidations=" << ls.invalidations
         << " promotions=" << ls.promotions << " demotions=" << ls.demotions
         << " back-invals=" << ls.back_invals << "\n";
    }
  }
  if (has_llc) {
    os << "LLC: hits=" << llc.hits << " misses=" << llc.misses
       << " read-fills=" << llc.read_fills
       << " wb-fills=" << llc.writeback_fills
       << " evictions=" << llc.evictions
       << " remote=" << llc.remote_accesses << "\n";
  }

  const double total = static_cast<double>(breakdown.total());
  os << "aggregate cycles by category:";
  for (std::size_t i = 0; i < stats::kStallKinds; ++i) {
    const auto k = static_cast<stats::StallKind>(i);
    os << "  " << to_string(k) << "="
       << stats::Table::pct(total > 0 ? breakdown[k] / total : 0.0, 1);
  }
  os << "\n";

  const double misses = static_cast<double>(miss_classes.total());
  if (misses > 0) {
    os << "miss classes:";
    for (std::size_t i = 0; i < stats::kMissClasses; ++i) {
      const auto c = static_cast<stats::MissClass>(i);
      os << "  " << to_string(c) << "="
         << stats::Table::pct(miss_classes[c] / misses, 1);
    }
    os << "\n";
  }

  for (std::size_t i = 1; i < stats::kStallKinds; ++i) {
    const auto k = static_cast<stats::StallKind>(i);
    if (stall_hist[i].count() > 0) {
      os << to_string(k) << "-stall latency: " << stall_hist[i].summary()
         << "\n";
    }
  }

  os << "messages: " << nic.messages << " (" << nic.control_messages
     << " control, " << nic.data_messages << " data, " << nic.payload_bytes
     << " payload bytes)\n";
  os << "locks acquired: " << lock_acquires
     << "  barrier episodes: " << barrier_episodes << "\n";
  os << "engine events: " << events_executed;
  if (sched_past_violations > 0) {
    os << "  PAST-TIME SCHEDULES CLAMPED: " << sched_past_violations;
  }
  os << "\n";
  return os.str();
}

}  // namespace lrc::core
