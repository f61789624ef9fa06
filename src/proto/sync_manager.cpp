#include "proto/sync_manager.hpp"

#include <algorithm>
#include <cassert>

#include "core/machine.hpp"

namespace lrc::proto {

using mesh::Message;
using mesh::MsgKind;

SyncManager::SyncManager(core::Machine& m)
    : m_(m),
      locks_(m.nprocs()),
      barriers_(m.nprocs()),
      stats_(m.nprocs()) {}

NodeId SyncManager::home_of(SyncId s) const {
  return static_cast<NodeId>(s % m_.nprocs());
}

// owns() relies on the sync kinds being the contiguous tail of MsgKind:
// kLockReq, kLockGrant, kLockRel, kBarrierArrive, kBarrierRelease, kCount.
static_assert(static_cast<int>(MsgKind::kCount) -
                      static_cast<int>(MsgKind::kLockReq) == 5 &&
              static_cast<int>(MsgKind::kBarrierRelease) -
                      static_cast<int>(MsgKind::kLockReq) == 4,
              "sync kinds must stay the contiguous tail of MsgKind");

void SyncManager::request_lock(NodeId p, SyncId s, Cycle t) {
  Message msg;
  msg.kind = MsgKind::kLockReq;
  msg.src = p;
  msg.dst = home_of(s);
  msg.sync = s;
  m_.nic().send(t, msg);
}

void SyncManager::release_lock(NodeId p, SyncId s, Cycle t) {
  Message msg;
  msg.kind = MsgKind::kLockRel;
  msg.src = p;
  msg.dst = home_of(s);
  msg.sync = s;
  m_.nic().send(t, msg);
}

void SyncManager::barrier_arrive(NodeId p, SyncId s, Cycle t) {
  Message msg;
  msg.kind = MsgKind::kBarrierArrive;
  msg.src = p;
  msg.dst = home_of(s);
  msg.sync = s;
  m_.nic().send(t, msg);
}

Cycle SyncManager::handle(const Message& msg, Cycle start) {
  const Cycle cost = m_.params().sync_op_cost;
  const Cycle done = start + cost;
  switch (msg.kind) {
    case MsgKind::kLockReq: {
      LockState& l = locks_[msg.dst][msg.sync];
      SyncStats& st = stats_[msg.dst];
      ++st.lock_requests;
      if (!l.held) {
        l.held = true;
        l.holder = msg.src;
        Message grant;
        grant.kind = MsgKind::kLockGrant;
        grant.src = msg.dst;
        grant.dst = msg.src;
        grant.sync = msg.sync;
        m_.nic().send(done, grant);
      } else {
        l.waiters.push_back(msg.src);
        ++st.queued_requests;
        st.max_queue = std::max<std::uint64_t>(st.max_queue,
                                               l.waiters.size());
      }
      break;
    }
    case MsgKind::kLockRel: {
      LockState& l = locks_[msg.dst][msg.sync];
      assert(l.held && l.holder == msg.src && "unlock of lock not held");
      if (l.waiters.empty()) {
        l.held = false;
        l.holder = kInvalidNode;
      } else {
        l.holder = l.waiters.front();
        l.waiters.pop_front();
        Message grant;
        grant.kind = MsgKind::kLockGrant;
        grant.src = msg.dst;
        grant.dst = l.holder;
        grant.sync = msg.sync;
        m_.nic().send(done, grant);
      }
      break;
    }
    case MsgKind::kLockGrant: {
      m_.note_lock_acquire();
      ++stats_[msg.dst].lock_grants;
      if (on_lock_granted) on_lock_granted(msg.dst, msg.sync, done);
      break;
    }
    case MsgKind::kBarrierArrive: {
      ++stats_[msg.dst].barrier_arrivals;
      BarrierState& b = barriers_[msg.dst][msg.sync];
      if (++b.arrived == m_.nprocs()) {
        b.arrived = 0;
        m_.note_barrier_episode();
        for (NodeId p = 0; p < m_.nprocs(); ++p) {
          Message rel;
          rel.kind = MsgKind::kBarrierRelease;
          rel.src = msg.dst;
          rel.dst = p;
          rel.sync = msg.sync;
          m_.nic().send(done, rel);
        }
      }
      break;
    }
    case MsgKind::kBarrierRelease: {
      if (on_barrier_released) on_barrier_released(msg.dst, msg.sync, done);
      break;
    }
    // proto-lint: unreachable(* : Machine::dispatch routes here only when
    //   owns() holds, i.e. the kind is in the sync tail of MsgKind)
    default:
      assert(false && "not a sync message");
  }
  return cost;
}

bool SyncManager::lock_held(SyncId s) const {
  const auto& home = locks_[home_of(s)];
  auto it = home.find(s);
  return it != home.end() && it->second.held;
}

std::size_t SyncManager::lock_queue_len(SyncId s) const {
  const auto& home = locks_[home_of(s)];
  auto it = home.find(s);
  return it == home.end() ? 0 : it->second.waiters.size();
}

SyncStats SyncManager::stats() const {
  SyncStats total;
  for (const SyncStats& s : stats_) {
    total.lock_requests += s.lock_requests;
    total.lock_grants += s.lock_grants;
    total.queued_requests += s.queued_requests;
    total.max_queue = std::max(total.max_queue, s.max_queue);
    total.barrier_arrivals += s.barrier_arrivals;
  }
  return total;
}

}  // namespace lrc::proto
