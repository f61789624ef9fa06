// Distributed full-map directory. One entry per cache line that has ever
// been cached; the entry logically lives at the line's home node (all
// protocol processing for it is charged there). States follow §2 of the
// paper: Uncached, Shared, Dirty, Weak — the MSI-style protocols (SC, ERC)
// simply never use Weak.
//
// Beyond the stable state, an entry carries the transient bookkeeping the
// protocols need: the MSI protocols use busy/pending_* plus a deferred-
// message queue (requests arriving mid-transaction are replayed when the
// transaction completes); the LRC protocols use per-writer write-notice
// countdowns (`collections` / `notices_outstanding`) and are never busy.
//
// Storage is built for the per-access hot path (DESIGN.md "Memory-system
// hot path"): a flat-hash index maps the line number to a slot in chunked
// stable storage (entry addresses never move, so protocol code may hold a
// DirEntry& across nested directory operations), and the per-entry
// transients use inline small-buffer storage backed by directory-wide
// overflow pools — steady-state protocol handling allocates nothing.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <string_view>
#include <vector>

#include "mesh/message.hpp"
#include "sim/types.hpp"
#include "util/flat_hash.hpp"
#include "util/small_vec.hpp"

namespace lrc::proto {

enum class DirState : std::uint8_t { kUncached, kShared, kDirty, kWeak };

std::string_view to_string(DirState s);

struct DirEntry {
  // Field order is deliberate: the fields every LRC directory operation
  // touches (state + membership masks + write-notice accounting) pack into
  // the entry's first 64 bytes, so the common home-side walk reads one
  // cache line; the MSI transients below are cold under LRC.
  DirState state = DirState::kUncached;
  ProcMask sharers = 0;   // every processor caching the line
  ProcMask writers = 0;   // subset currently writing it (LRC)
  ProcMask notified = 0;  // subset informed that the line is Weak (LRC)

  // LRC write-notice accounting. A writer's release may depend on every
  // notice outstanding when its write reaches the home (those sharers must
  // be informed before the write is "globally performed"), but NOT on
  // notices generated by later writers. Each writer therefore gets its own
  // countdown, initialized to outstanding-notices + newly-sent notices;
  // every NoticeAck decrements all open countdowns. Countdowns complete in
  // join order, so early writers never wait on late ones.
  struct NoticeCollection {
    NodeId writer = kInvalidNode;
    unsigned remaining = 0;
  };
  unsigned notices_outstanding = 0;
  // Live countdowns are bounded by concurrent writers; two inline covers
  // nearly all of them, the rest spill to Directory::col_pool().
  util::SmallVec<NoticeCollection, 2> collections;

  // MSI transient state: a transaction (invalidation collection or dirty
  // forward) is in flight; conflicting requests queue in `deferred`.
  bool busy = false;
  NodeId pending_requester = kInvalidNode;
  NodeId pending_owner = kInvalidNode;  // forward target, for race recovery
  mesh::MsgKind pending_kind{};
  Cycle pending_mem_done = 0;  // overlap: memory fetched while acks collect
  // MSI: outstanding invalidation acknowledgements for the busy transaction.
  unsigned pending_acks = 0;
  // One request inline (the common case is a single racer behind a busy
  // transaction); more spill to Directory::msg_pool().
  util::SmallVec<mesh::Message, 1> deferred;

  unsigned sharer_count() const {
    return static_cast<unsigned>(std::popcount(sharers));
  }
  unsigned writer_count() const {
    return static_cast<unsigned>(std::popcount(writers));
  }
  bool is_sharer(NodeId p) const { return (sharers & proc_bit(p)) != 0; }
  bool is_writer(NodeId p) const { return (writers & proc_bit(p)) != 0; }

  /// Owner of a Dirty line (single sharer by invariant).
  NodeId owner() const {
    return static_cast<NodeId>(std::countr_zero(sharers));
  }

  /// Recomputes the stable state from the membership masks (used by the LRC
  /// protocols after evict/invalidate notifications — this is the paper's
  /// Weak -> Shared -> Uncached reversion rule).
  void recompute_lrc_state() {
    if (sharers == 0) {
      state = DirState::kUncached;
      writers = 0;
      notified = 0;
    } else if (writers == 0) {
      state = DirState::kShared;
      notified = 0;
    } else if (sharers == writers && sharer_count() == 1) {
      state = DirState::kDirty;
      notified = 0;
    } else {
      state = DirState::kWeak;
    }
  }
};

class Directory {
 public:
  using MsgPool = util::OverflowPool<mesh::Message>;
  using ColPool = util::OverflowPool<DirEntry::NoticeCollection>;

  /// Entry accessor; creates an Uncached entry on first touch. The returned
  /// reference is stable for the lifetime of the directory (entries live in
  /// chunked slabs and are never moved or removed).
  DirEntry& entry(LineId line) {
    bool created = false;
    std::uint32_t& slot = index_.get_or_create(line, &created);
    if (created) {
      slot = slabs_.acquire();
      lines_.push_back(line);
    }
    return slabs_[slot];
  }

  DirEntry* find(LineId line) {
    const std::uint32_t* slot = index_.find(line);
    return slot == nullptr ? nullptr : &slabs_[*slot];
  }

  std::size_t size() const { return lines_.size(); }

  /// Visits every entry in creation order (deterministic).
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::uint32_t i = 0; i < lines_.size(); ++i) fn(lines_[i], slabs_[i]);
  }

  /// Overflow pools for the per-entry transients. Shared by all entries;
  /// pass to SmallVec operations on `deferred` / `collections`.
  MsgPool& msg_pool() { return msg_pool_; }
  const MsgPool& msg_pool() const { return msg_pool_; }
  ColPool& col_pool() { return col_pool_; }
  const ColPool& col_pool() const { return col_pool_; }

 private:
  util::FlatMap<std::uint32_t> index_;  // line -> slab slot
  util::StableSlabs<DirEntry> slabs_;   // slot i created i-th, never freed
  std::vector<LineId> lines_;           // slot -> line (for for_each)
  MsgPool msg_pool_;
  ColPool col_pool_;
};

inline std::string_view to_string(DirState s) {
  switch (s) {
    case DirState::kUncached: return "Uncached";
    case DirState::kShared: return "Shared";
    case DirState::kDirty: return "Dirty";
    case DirState::kWeak: return "Weak";
  }
  return "?";
}

}  // namespace lrc::proto
