// Shared FNV-1a digest over core::Report, used by the determinism and
// trace-replay equivalence tests. Any divergence between two runs — a
// single cycle, one extra message — changes the digest.
#pragma once

#include <cstdint>
#include <string>

#include "core/report.hpp"

namespace lrc::testutil {

class Digest {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void mix(const std::string& s) {
    mix(s.size());
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 1099511628211ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// Every counter a Report carries. The engine's schedule-order event order
/// makes each field a pure function of (app, protocol, seed, parameters).
inline std::uint64_t report_digest(const core::Report& r) {
  Digest d;
  d.mix(r.protocol);
  d.mix(r.nprocs);
  d.mix(r.execution_time);
  for (auto c : r.breakdown.cycles) d.mix(c);
  d.mix(r.per_cpu.size());
  for (const auto& b : r.per_cpu)
    for (auto c : b.cycles) d.mix(c);
  for (const auto& h : r.stall_hist) {
    d.mix(h.count());
    d.mix(h.sum());
    d.mix(h.max());
    for (unsigned b = 0; b < stats::Histogram::kBuckets; ++b)
      d.mix(h.bucket(b));
  }
  d.mix(r.cache.read_hits);
  d.mix(r.cache.read_misses);
  d.mix(r.cache.write_hits);
  d.mix(r.cache.write_misses);
  d.mix(r.cache.upgrade_misses);
  d.mix(r.cache.evictions);
  d.mix(r.cache.invalidations);
  for (auto v : r.miss_classes.n) d.mix(v);
  d.mix(r.nic.messages);
  d.mix(r.nic.control_messages);
  d.mix(r.nic.data_messages);
  d.mix(r.nic.payload_bytes);
  d.mix(r.nic.batched_arrivals);
  d.mix(r.nic.send_contention);
  d.mix(r.nic.recv_contention);
  d.mix(r.dram.reads);
  d.mix(r.dram.writes);
  d.mix(r.dram.bytes);
  d.mix(r.dram.contention);
  d.mix(r.dram.busy);
  d.mix(r.lock_acquires);
  d.mix(r.barrier_episodes);
  d.mix(r.sync.lock_requests);
  d.mix(r.sync.lock_grants);
  d.mix(r.sync.queued_requests);
  d.mix(r.sync.max_queue);
  d.mix(r.sync.barrier_arrivals);
  d.mix(r.sched_past_violations);
  d.mix(r.events_executed);
  return d.value();
}

}  // namespace lrc::testutil
