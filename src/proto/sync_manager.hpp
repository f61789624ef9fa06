// Queue-based lock and centralized barrier service. Each synchronization
// variable is homed at node (id % nprocs); requests, grants, releases and
// barrier traffic travel over the mesh and occupy protocol processors like
// any other coherence message. Protocols hook grant/release delivery to run
// their acquire-side work (e.g. LRC applies buffered write notices there).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "mesh/message.hpp"
#include "sim/types.hpp"

namespace lrc::core {
class Machine;
}

namespace lrc::proto {

/// Aggregate synchronization statistics (reported per run).
struct SyncStats {
  std::uint64_t lock_requests = 0;
  std::uint64_t lock_grants = 0;
  std::uint64_t queued_requests = 0;  // granted only after waiting in line
  std::uint64_t max_queue = 0;        // deepest waiter queue observed
  std::uint64_t barrier_arrivals = 0;
};

class SyncManager {
 public:
  explicit SyncManager(core::Machine& m);

  NodeId home_of(SyncId s) const;

  /// Fiber-context senders (non-blocking; the protocol blocks the cpu and
  /// the callbacks below complete the operation).
  void request_lock(NodeId p, SyncId s, Cycle t);
  void release_lock(NodeId p, SyncId s, Cycle t);
  void barrier_arrive(NodeId p, SyncId s, Cycle t);

  /// True for message kinds this service owns. The synchronization kinds
  /// form the contiguous tail of MsgKind (kLockReq..kBarrierRelease), so
  /// the per-delivery ownership test is a single compare (static_asserted
  /// in sync_manager.cpp).
  static bool owns(mesh::MsgKind k) { return k >= mesh::MsgKind::kLockReq; }

  /// Event-context processing; returns protocol-processor cost.
  Cycle handle(const mesh::Message& msg, Cycle start);

  /// Invoked at the *requesting* node when its grant/release message has
  /// been processed. Installed by the protocol.
  std::function<void(NodeId p, SyncId s, Cycle t)> on_lock_granted;
  std::function<void(NodeId p, SyncId s, Cycle t)> on_barrier_released;

  // Introspection for tests and reports. stats() sums the per-node rows in
  // node order (max_queue merges with max); node_stats() keeps the rows
  // apart so hot-spot reports can name the homes whose locks convoyed.
  bool lock_held(SyncId s) const;
  std::size_t lock_queue_len(SyncId s) const;
  SyncStats stats() const;
  const SyncStats& node_stats(NodeId n) const { return stats_[n]; }

 private:
  struct LockState {
    bool held = false;
    NodeId holder = kInvalidNode;
    std::deque<NodeId> waiters;
  };
  struct BarrierState {
    unsigned arrived = 0;
  };

  core::Machine& m_;
  // Lock/barrier state is partitioned by home node (home_of(s) is the only
  // node that ever touches variable s's entry), and counters by acting
  // node, which is the attribution per-node hot-spot reports need.
  // det-lint: ok(keyed access only — nothing ever iterates these maps, so
  //   their unspecified order cannot reach stats or reports; values hold a
  //   deque, which FlatMap's trivially-copyable constraint rules out)
  std::vector<std::unordered_map<SyncId, LockState>> locks_;    // [home]
  // det-lint: ok(keyed access only, never iterated; see locks_ above)
  std::vector<std::unordered_map<SyncId, BarrierState>> barriers_;  // [home]
  std::vector<SyncStats> stats_;  // [acting node]
};

}  // namespace lrc::proto
