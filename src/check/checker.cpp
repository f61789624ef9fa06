#include "check/checker.hpp"

#include <algorithm>
#include <bit>

#include "core/machine.hpp"
#include "proto/base.hpp"
#include "proto/sync_manager.hpp"

namespace lrc::check {

namespace {
Mutation g_mutation = Mutation::kNone;
}  // namespace

Mutation active_mutation() { return g_mutation; }
void set_mutation(Mutation m) { g_mutation = m; }

Checker::Checker(core::Machine& m, bool strict)
    : m_(m),
      base_(dynamic_cast<proto::ProtocolBase*>(&m.protocol())),
      lazy_family_(m.protocol_kind() == core::ProtocolKind::kLRC ||
                   m.protocol_kind() == core::ProtocolKind::kLRCExt),
      strict_(strict),
      nprocs_(m.nprocs()),
      words_per_line_(m.amap().words_per_line()),
      observed_(m.nprocs()) {
  vc_.assign(nprocs_, std::vector<std::uint64_t>(nprocs_, 0));
  for (unsigned p = 0; p < nprocs_; ++p) vc_[p][p] = 1;
}

Checker::LineShadow& Checker::shadow(LineId line) {
  LineShadow& ls = shadow_[line];
  if (ls.words.empty()) ls.words.resize(words_per_line_);
  return ls;
}

void Checker::join(std::vector<std::uint64_t>& into,
                   const std::vector<std::uint64_t>& from) {
  if (from.empty()) return;
  for (unsigned q = 0; q < nprocs_; ++q) into[q] = std::max(into[q], from[q]);
}

void Checker::violation(std::string msg) {
  if (violations_.size() < 200) violations_.push_back(std::move(msg));
}

// ---- Value oracle ----------------------------------------------------------

void Checker::on_access(NodeId p, bool write, Addr a, std::uint32_t bytes) {
  if (write) {
    on_write(p, a, bytes);
  } else {
    on_read(p, a, bytes);
  }
}

void Checker::on_read(NodeId p, Addr a, std::uint32_t bytes) {
  const LineId line = m_.amap().line_of(a);
  WordMask mask = m_.amap().word_mask(a, bytes);
  LineShadow& ls = shadow(line);
  auto obs_it = observed_[p].find(line);
  ++reads_checked_;

  while (mask != 0) {
    const unsigned wi = static_cast<unsigned>(std::countr_zero(mask));
    mask &= mask - 1;
    WordCell& cell = ls.words[wi];

    // Record the read for write-after-read race detection.
    if (cell.read_epochs.empty()) cell.read_epochs.resize(nprocs_, 0);
    cell.read_epochs[p] = vc_[p][p];

    if (cell.version == 0) continue;  // only the initial value ever written
    const bool hb = cell.writer == p || vc_[p][cell.writer] >= cell.write_epoch;
    if (!hb) {
      // Data race (read concurrent with the latest write): under release
      // consistency a stale value is legal here; count, don't flag.
      ++racy_reads_;
      continue;
    }
    const std::uint64_t seen =
        (obs_it != observed_[p].end() && obs_it->second[wi] != 0)
            ? obs_it->second[wi]
            : 0;
    if (seen < cell.version) {
      violation("stale read: cpu " + std::to_string(p) + " addr " +
                std::to_string(a) + " (line " + std::to_string(line) +
                " word " + std::to_string(wi) + ") observes version " +
                std::to_string(seen) + " but version " +
                std::to_string(cell.version) + " by cpu " +
                std::to_string(cell.writer) + " happens-before this read");
    }
  }
}

void Checker::on_write(NodeId p, Addr a, std::uint32_t bytes) {
  const LineId line = m_.amap().line_of(a);
  WordMask mask = m_.amap().word_mask(a, bytes);
  LineShadow& ls = shadow(line);
  auto& obs = observed_[p][line];
  if (obs.empty()) obs.resize(words_per_line_, 0);
  ++writes_tracked_;

  while (mask != 0) {
    const unsigned wi = static_cast<unsigned>(std::countr_zero(mask));
    mask &= mask - 1;
    WordCell& cell = ls.words[wi];

    // Write-write race: previous write to the word not ordered before us.
    if (cell.version != 0 && cell.writer != p &&
        vc_[p][cell.writer] < cell.write_epoch) {
      ++racy_writes_;
    }
    // Write-read race: someone read the word and that read is not ordered
    // before this write.
    if (!cell.read_epochs.empty()) {
      for (unsigned q = 0; q < nprocs_; ++q) {
        if (q != p && cell.read_epochs[q] != 0 &&
            vc_[p][q] < cell.read_epochs[q]) {
          ++racy_writes_;
          break;
        }
      }
    }

    ++cell.version;
    cell.writer = p;
    cell.write_epoch = vc_[p][p];
    obs[wi] = cell.version;  // writers see their own writes (read bypass)
  }
}

void Checker::on_fill(NodeId p, LineId line) {
  LineShadow& ls = shadow(line);
  auto& obs = observed_[p][line];
  obs.assign(words_per_line_, 0);
  for (unsigned wi = 0; wi < words_per_line_; ++wi) {
    obs[wi] = ls.words[wi].version;
  }
}

void Checker::on_copy_dropped(NodeId p, LineId line) {
  // Deliberately keeps the last-observed versions. A loaded value may be
  // consumed by the processor after its line was filled but before the
  // fiber resumes — an invalidation landing in that window must not make
  // the (architecturally legal) load look stale. Erasure is also not
  // needed to catch real staleness: a protocol that fails to invalidate
  // leaves the OLD version in `observed_`, which the version comparison in
  // on_read flags, while a properly invalidated copy can only be read
  // again through a refill that refreshes `observed_` via on_fill. The
  // same reasoning legalizes write-buffer read bypass (on_write records
  // the buffered write's version immediately).
  (void)p;
  (void)line;
  ++copies_dropped_;
}

// ---- Happens-before frontier ----------------------------------------------

void Checker::on_sync_begin(NodeId p, core::SyncOp op, SyncId s) {
  if (op == core::SyncOp::kUnlock) {
    auto& lc = lock_clock_[s];
    if (lc.empty()) lc.assign(nprocs_, 0);
    join(lc, vc_[p]);
    ++vc_[p][p];
  } else if (op == core::SyncOp::kBarrier) {
    BarrierState& b = barriers_[s];
    if (b.arrived == nprocs_) {  // previous episode complete; start fresh
      b.accum.clear();
      b.arrived = 0;
    }
    if (b.accum.empty()) b.accum.assign(nprocs_, 0);
    join(b.accum, vc_[p]);
    ++vc_[p][p];
    if (++b.arrived == nprocs_) b.snapshot = b.accum;
  }
}

void Checker::on_sync_end(NodeId p, core::SyncOp op, SyncId s) {
  switch (op) {
    case core::SyncOp::kLock:
      if (auto it = lock_clock_.find(s); it != lock_clock_.end()) {
        join(vc_[p], it->second);
      }
      return;
    case core::SyncOp::kUnlock:
      check_drained(m_.cpu(p), "unlock");
      return;
    case core::SyncOp::kBarrier:
      check_drained(m_.cpu(p), "barrier");
      join(vc_[p], barriers_[s].snapshot);
      return;
    case core::SyncOp::kFence:
      return;
  }
}

// ---- Drain-before-release ---------------------------------------------------

void Checker::check_drained(core::Cpu& cpu, const char* where) {
  std::string bad;
  if (!cpu.wb().empty()) bad += " write-buffer";
  if (!cpu.ot().empty()) bad += " ot-table";
  if (!cpu.cb().empty()) bad += " coalescing-buffer";
  if (cpu.wt_outstanding != 0) bad += " write-throughs";
  if (!bad.empty()) {
    violation("release not drained: cpu " + std::to_string(cpu.id()) +
              " at " + where + " still has" + bad);
  }
}

// ---- Directory invariants ---------------------------------------------------

void Checker::on_handled(const mesh::Message& msg) {
  if (base_ == nullptr || proto::SyncManager::owns(msg.kind)) return;
  check_hierarchy_line(msg.dst, msg.line);
  proto::DirEntry* e = base_->directory().find(msg.line);
  if (e == nullptr) return;
  check_entry(msg.line, *e);
}

void Checker::check_hierarchy_line(NodeId p, LineId line) {
  const auto& h = m_.cpu(p).dcache();
  if (h.levels() < 2) return;
  const cache::CacheLine* l1 = h.l1().find(line);
  const cache::CacheLine* l2 = h.l2()->find(line);
  if (h.inclusive()) {
    if (l1 != nullptr && l2 == nullptr) {
      violation("inclusion violated: cpu " + std::to_string(p) + " line " +
                std::to_string(line) + " resident in L1 without an L2 tag");
    } else if (l1 != nullptr && l2->dirty != 0) {
      violation("inclusion authority violated: cpu " + std::to_string(p) +
                " line " + std::to_string(line) +
                " L2 tag carries dirty words under a live L1 copy");
    }
  } else if (l1 != nullptr && l2 != nullptr) {
    violation("exclusion violated: cpu " + std::to_string(p) + " line " +
              std::to_string(line) + " resident in both L1 and L2");
  }
}

void Checker::check_entry(LineId line, const proto::DirEntry& e) {
  using proto::DirState;
  auto fail = [&](const std::string& what) {
    violation("directory invariant: line " + std::to_string(line) + " [" +
              std::string(to_string(e.state)) + "] " + what);
  };

  if ((e.writers & ~e.sharers) != 0) fail("writers not a subset of sharers");
  if ((e.notified & ~e.sharers) != 0) fail("notified not a subset of sharers");

  if (lazy_family_) {
    // The LRC directory is never busy and never defers: every transition is
    // a single atomic entry update at the home.
    if (e.busy) fail("busy set (LRC directory has no busy transactions)");
    if (e.pending_acks != 0) fail("pending_acks nonzero under LRC");
    if (!e.deferred.empty()) fail("deferred queue nonempty under LRC");

    // Stable state must agree with the membership masks (the paper's
    // Weak -> Shared -> Uncached reversion rule).
    proto::DirEntry probe = e;
    probe.recompute_lrc_state();
    if (probe.state != e.state) {
      fail("state disagrees with masks (recompute says " +
           std::string(to_string(probe.state)) + ")");
    }
    if (e.state != DirState::kWeak && e.notified != 0) {
      fail("notified bits outside Weak state");
    }

    // Write-notice countdowns: join order implies remaining counts are
    // non-decreasing front-to-back, and none exceeds the outstanding total.
    unsigned prev = 0;
    const auto& col_pool = base_->directory().col_pool();
    e.collections.for_each(
        col_pool, [&](const proto::DirEntry::NoticeCollection& c) {
          if (c.remaining == 0) fail("collection with zero remaining");
          if (c.remaining < prev) {
            fail("collection countdowns out of join order");
          }
          if (c.remaining > e.notices_outstanding) {
            fail("collection remaining exceeds notices outstanding");
          }
          prev = c.remaining;
        });
    if (!e.collections.empty() && e.notices_outstanding == 0) {
      fail("collections open with no notices outstanding");
    }

    // Weak bookkeeping: notified bits are monotone while the line stays
    // Weak — they are only cleared by membership updates (evict/inval).
    auto& snap = dir_snap_.get_or_create(line);
    if (snap.state == DirState::kWeak && e.state == DirState::kWeak) {
      if (((snap.notified & e.sharers) & ~e.notified) != 0) {
        fail("notified bit lost while Weak without a membership update");
      }
    }
    snap.state = e.state;
    snap.notified = e.notified;
  } else {
    // MSI family (SC / ERC / ERC-WT).
    if (e.state == DirState::kWeak) fail("Weak state under an MSI protocol");
    if (e.notified != 0) fail("notified bits under an MSI protocol");
    if (!e.collections.empty() || e.notices_outstanding != 0) {
      fail("LRC write-notice accounting under an MSI protocol");
    }
    if (!e.busy) {
      if (e.pending_acks != 0) fail("pending_acks outside a busy transaction");
      if (!e.deferred.empty()) fail("deferred messages while not busy");
      switch (e.state) {
        case DirState::kUncached:
          if (e.sharers != 0) fail("Uncached with sharers");
          if (e.writers != 0) fail("Uncached with writers");
          break;
        case DirState::kShared:
          if (e.writers != 0) fail("Shared with writers");
          break;
        case DirState::kDirty:
          if (e.sharer_count() != 1) fail("Dirty without exactly one sharer");
          if (e.writers != e.sharers) fail("Dirty owner not the writer");
          break;
        case DirState::kWeak:
          break;  // already failed above
      }
    }
  }
}

// ---- End-of-run quiescent checks -------------------------------------------

void Checker::final_check() {
  for (unsigned p = 0; p < nprocs_; ++p) {
    check_drained(m_.cpu(p), "end of run");
    // Full inclusion/exclusion sweep: every line either level holds must
    // satisfy the boundary contract (the per-message check only sees lines
    // the protocol touched).
    const auto& h = m_.cpu(p).dcache();
    if (h.levels() >= 2) {
      h.l1().for_each_valid([&](const cache::CacheLine& cl) {
        check_hierarchy_line(p, cl.line);
      });
      h.l2()->for_each_valid([&](const cache::CacheLine& cl) {
        check_hierarchy_line(p, cl.line);
      });
    }
  }
  if (base_ == nullptr) return;
  base_->directory().for_each([&](LineId line, proto::DirEntry& e) {
    check_entry(line, e);
    auto fail = [&](const std::string& what) {
      violation("quiescent directory: line " + std::to_string(line) + " " +
                what);
    };
    if (e.busy || !e.deferred.empty()) fail("busy transaction at end of run");
    if (!e.collections.empty() || e.notices_outstanding != 0) {
      fail("write-notice accounting open at end of run");
    }
    for (unsigned p = 0; p < nprocs_; ++p) {
      const bool cached = m_.cpu(p).dcache().find(line) != nullptr;
      const bool listed = e.is_sharer(p);
      if (cached && !listed) fail("cpu " + std::to_string(p) +
                                  " caches the line but is not a sharer");
      // The LRC directory tracks membership exactly (evict/inval notify);
      // the MSI family may keep stale sharers (silent clean evictions).
      if (lazy_family_ && listed && !cached) {
        fail("cpu " + std::to_string(p) +
             " listed as sharer but holds no copy (LRC tracks exactly)");
      }
    }
  });
}

void Checker::throw_if_violations() {
  if (!strict_ || violations_.empty()) return;
  std::string what = "consistency check failed (" +
                     std::to_string(violations_.size()) + " violation(s)):";
  const std::size_t show = std::min<std::size_t>(violations_.size(), 10);
  for (std::size_t i = 0; i < show; ++i) what += "\n  " + violations_[i];
  if (violations_.size() > show) what += "\n  ...";
  throw ViolationError(what);
}

}  // namespace lrc::check
