// Coherence-protocol interface. One Protocol instance serves the whole
// machine. The processor-side entry points return CpuOp coroutines
// (proto/cpu_op.hpp): the op body runs in the context of whichever front
// end drives it — the workload fiber (core::Cpu::drive) or the trace
// replayer's event-driven decode loop — suspending at Wait whenever the
// memory model requires the processor to stall. Cache hits, the common
// case, skip the coroutine: both front ends first try read_hit/write_hit,
// plain calls that complete an access the cache can serve in place.
// `handle` runs in event context when a message wins the destination
// node's protocol processor.
#pragma once

#include <memory>
#include <string_view>

#include "mesh/message.hpp"
#include "proto/cpu_op.hpp"
#include "sim/types.hpp"

namespace lrc::core {
class Cpu;
class Machine;
enum class ProtocolKind : std::uint8_t;
}  // namespace lrc::core

namespace lrc::cache {
struct CacheLine;
}  // namespace lrc::cache

namespace lrc::proto {

class Protocol {
 public:
  virtual ~Protocol() = default;

  virtual std::string_view name() const = 0;

  /// Timed shared-memory access of `bytes` at `a`; the returned op blocks
  /// the cpu as required by the memory model.
  virtual CpuOp cpu_read(core::Cpu& cpu, Addr a, std::uint32_t bytes) = 0;
  virtual CpuOp cpu_write(core::Cpu& cpu, Addr a, std::uint32_t bytes) = 0;

  /// Frame-free cache-hit paths, tried by the front ends before cpu_read/
  /// cpu_write. Each either completes the access exactly as the op's hit
  /// branch would (same helper, same statistics, recency and tick) and
  /// returns true, or changes nothing and returns false, in which case the
  /// caller drives the op. A read hits when the private stack holds the
  /// line at any level; a write only when L1 holds it writable.
  virtual bool read_hit(core::Cpu& cpu, Addr a) = 0;
  virtual bool write_hit(core::Cpu& cpu, Addr a, std::uint32_t bytes) = 0;

  /// Synchronization entry points.
  virtual CpuOp acquire(core::Cpu& cpu, SyncId s) = 0;
  virtual CpuOp release(core::Cpu& cpu, SyncId s) = 0;
  virtual CpuOp barrier(core::Cpu& cpu, SyncId s) = 0;

  /// Consistency fence: applies buffered write notices now, giving acquire
  /// semantics without a lock. The paper's §4.2 proposes fences for racy
  /// programs (e.g. chaotic relaxation) whose solution quality degrades
  /// when invalidations are postponed to the next acquire. Only the lazy
  /// protocols buffer notices, so only Lrc::fence overrides this (LRC-ext
  /// inherits it); SC, ERC, and ERC-WT invalidate eagerly at write time and
  /// use this default no-op.
  virtual CpuOp fence(core::Cpu& cpu) {
    (void)cpu;
    co_return;
  }

  /// End-of-program drain: leaves no outstanding transactions so statistics
  /// settle.
  virtual CpuOp finalize(core::Cpu& cpu) = 0;

  /// Processes `msg` at its destination's protocol processor starting at
  /// `start`; returns the processor-occupancy cost in cycles.
  virtual Cycle handle(const mesh::Message& msg, Cycle start) = 0;

  /// A valid line left processor `p`'s private cache stack entirely
  /// (displaced by a fill or a hierarchy-internal demotion cascade). The
  /// protocol issues the same transactions a coherence invalidation would
  /// need: writebacks for dirty data, eviction notices where membership is
  /// tracked exactly. Runs in whichever context performed the fill.
  virtual void evict_victim(NodeId p, const cache::CacheLine& victim,
                            Cycle at) = 0;
};

/// Factory used by core::Machine.
std::unique_ptr<Protocol> make_protocol(core::ProtocolKind kind,
                                        core::Machine& m);

}  // namespace lrc::proto
