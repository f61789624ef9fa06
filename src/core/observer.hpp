// The machine's one observation seam. An Observer attached with
// Machine::add_observer() sees the run's events in host execution order;
// every method has an empty default, so an observer overrides only what it
// watches. Observers watch and never steer: attaching one must leave every
// simulated counter unchanged. The runtime checker (check::Checker), trace
// capture (trace::CaptureLog) and the transition recorder
// (check::TransitionRecorder) are observers.
//
// Call sites loop over the attached observers, so an unobserved machine
// pays one inline emptiness test per event.
#pragma once

#include <cstdint>

#include "mesh/message.hpp"
#include "sim/types.hpp"

namespace lrc::core {

enum class SyncOp : std::uint8_t { kLock, kUnlock, kBarrier, kFence };

class Observer {
 public:
  virtual ~Observer() = default;

  // ---- Processor events (fiber front end only; replay fires none) --------

  /// A timed shared-memory access on processor `p` completed.
  virtual void on_access(NodeId /*p*/, bool /*write*/, Addr /*a*/,
                         std::uint32_t /*bytes*/) {}

  /// Processor `p` is about to charge `n` cycles of local computation.
  virtual void on_compute(NodeId /*p*/, Cycle /*n*/) {}

  /// Synchronization on processor `p`. Begin fires before the protocol
  /// call and end after it returns, so the host order of these events
  /// matches simulated happens-before (`s` is 0 for kFence).
  virtual void on_sync_begin(NodeId /*p*/, SyncOp /*op*/, SyncId /*s*/) {}
  virtual void on_sync_end(NodeId /*p*/, SyncOp /*op*/, SyncId /*s*/) {}

  // ---- Message events -----------------------------------------------------

  /// Message `msg` was delivered at `t` and is about to be handled
  /// (redelivered messages fire again).
  virtual void on_message(const mesh::Message& /*msg*/, Cycle /*t*/) {}

  /// The handler for `msg` returned.
  virtual void on_handled(const mesh::Message& /*msg*/) {}

  // ---- Cache-copy events --------------------------------------------------

  /// `line` was filled into p's cache.
  virtual void on_fill(NodeId /*p*/, LineId /*line*/) {}

  /// p's copy of `line` died (eviction, invalidation or applied notice).
  virtual void on_copy_dropped(NodeId /*p*/, LineId /*line*/) {}
};

}  // namespace lrc::core
