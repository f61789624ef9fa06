// System parameters. Defaults reproduce Table 1 of the paper; the
// future-machine preset reproduces the §4.3 trend experiment
// (40-cycle memory startup, 4 bytes/cycle, 256-byte lines).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "cache/config.hpp"
#include "mem/address_map.hpp"
#include "sim/types.hpp"

namespace lrc::core {

enum class ProtocolKind : std::uint8_t { kSC, kERC, kLRC, kLRCExt, kERCWT };

std::string_view to_string(ProtocolKind k);

struct SystemParams {
  unsigned nprocs = 64;

  // Cache organization (Table 1). cache_bytes sizes the L1; associativity,
  // replacement policy and further levels (private L2, shared LLC) live in
  // `cache` below. The Table-1 default is ways=1, i.e. direct-mapped.
  std::uint32_t line_bytes = 128;
  std::uint32_t cache_bytes = 128 * 1024;  // L1 capacity
  std::uint32_t page_bytes = 4096;

  // Hierarchy composition: L1 shape plus optional private L2 and optional
  // sliced shared LLC. The default (single direct-mapped L1) reproduces
  // the paper machine bit-for-bit.
  cache::CacheConfig cache;

  // Memory system (Table 1).
  Cycle mem_setup = 20;             // "memory setup time"
  std::uint32_t mem_bandwidth = 2;  // bytes/cycle
  std::uint32_t bus_bandwidth = 2;  // bytes/cycle (node-local fill)

  // Network (Table 1).
  std::uint32_t net_bandwidth = 2;  // bytes/cycle, bidirectional
  Cycle switch_latency = 2;
  Cycle wire_latency = 1;

  // Protocol processor costs (Table 1).
  Cycle write_notice_cost = 4;   // receive-side write-notice processing
  Cycle lrc_dir_cost = 25;       // LRC directory access
  Cycle erc_dir_cost = 15;       // ERC (and SC) directory access
  Cycle sync_op_cost = 4;        // lock/barrier manager processing (see docs)
  Cycle dir_update_cost = 4;     // LRC sharer-list upkeep (evict/inval notify)

  // Buffering (§3/§4.2 of the paper).
  unsigned write_buffer_entries = 4;
  unsigned coalescing_entries = 16;

  // Protocol ablation knobs (DESIGN.md / EXPERIMENTS.md ablations).
  // LRC: overlap buffered-notice processing with the lock-grant latency
  // (§2 of the paper); false defers all invalidations to grant time.
  bool lrc_overlap_acquire = true;

  // Simulator knobs (not part of the modeled machine).
  Cycle runahead_quantum = 100;  // max hit-run cycles before a fiber yields
  mem::HomePolicy home_policy = mem::HomePolicy::kRoundRobin;
  std::uint64_t seed = 1;        // workload-generator seed

  /// Paper Table 1 defaults at a given processor count.
  static SystemParams paper_default(unsigned nprocs = 64);

  /// §4.3 "future hypothetical machine": high latency, high bandwidth,
  /// long cache lines.
  static SystemParams future_machine(unsigned nprocs = 64);

  /// Scaled-down variant used by unit/integration tests (small cache so
  /// sharing behaviour appears with tiny inputs).
  static SystemParams test_scale(unsigned nprocs = 8);

  std::string describe() const;

  /// Rejects inconsistent geometry (non-power-of-two sizes/ways,
  /// line_bytes > page_bytes, inclusive L2 smaller than L1, ...) with a
  /// std::invalid_argument naming the offending field. Machine
  /// construction calls this; tests may call it directly.
  void validate() const;
};

inline std::string_view to_string(ProtocolKind k) {
  switch (k) {
    case ProtocolKind::kSC: return "SC";
    case ProtocolKind::kERC: return "ERC";
    case ProtocolKind::kLRC: return "LRC";
    case ProtocolKind::kLRCExt: return "LRC-ext";
    case ProtocolKind::kERCWT: return "ERC-WT";
  }
  return "?";
}

}  // namespace lrc::core
