// Runtime consistency checker, opt-in per Machine via enable_checker().
//
// An observer (core/observer.hpp) with three layers, all driven by events
// the simulator fires in host execution order (which the protocols
// guarantee matches the simulated happens-before order for synchronized
// operations — see docs/CHECKER.md):
//
//  1. Value oracle: a vector clock per processor plus word-granularity
//     shadow memory tracks the happens-before frontier implied by
//     acquire/release/barrier events. Every cpu_read is checked against the
//     release-consistency legal-value rule: if the latest write to the word
//     happens-before the read, the reader's cached copy must reflect a
//     version at least that new. Reads/writes not ordered by synchronization
//     are data races; they are counted (the paper's racy-program discussion,
//     §4.2) but are not consistency violations.
//  2. Directory invariants: after every Protocol::handle the touched entry
//     is checked — sharer/writer/notified mask agreement, Weak entry/exit
//     bookkeeping, write-notice countdown monotonicity, and the MSI
//     busy-transaction rules. A quiescent whole-directory check runs at the
//     end of Machine::run.
//  3. Drain-before-release: after every release/barrier/finalize drain the
//     write buffer, outstanding-transaction table, coalescing buffer, and
//     write-through counter must be empty.
//
// Violations are collected, never thrown from fiber/event context; in
// strict mode Machine::run rethrows them as ViolationError once the engine
// has stopped.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/observer.hpp"
#include "mesh/message.hpp"
#include "proto/directory.hpp"
#include "sim/types.hpp"
#include "util/flat_hash.hpp"

namespace lrc::core {
class Cpu;
class Machine;
}  // namespace lrc::core

namespace lrc::proto {
class ProtocolBase;
}

namespace lrc::check {

/// Deliberate protocol bugs for negative tests: the checker must catch
/// every mutation. Default runs leave it at kNone.
enum class Mutation : std::uint8_t {
  kNone,
  /// LRC/LRC-ext: drop buffered write notices instead of invalidating at
  /// acquire — the paper's central correctness obligation.
  kSkipAcquireInvalidation,
  /// LRC/LRC-ext, schedule-dependent: a write notice that lost a same-cycle
  /// arrival race at its sink (mesh::Message::tie_inverted) is acked but its
  /// invalidation is never buffered — models a handler that assumes arrival
  /// order within a cycle. Unreachable in default runs (ties always resolve
  /// in ascending seq order there); the src/mc explorer reaches it and the
  /// value oracle reports the resulting stale read.
  kTieDropWriteNotice,
  /// LRC/LRC-ext, schedule-dependent: an evict/inval membership update that
  /// lost a same-cycle arrival race clears its masks but skips the
  /// Weak->Shared->Uncached state recomputation. Same reachability story;
  /// caught by the directory invariant "state disagrees with masks".
  kTieSkipMembershipRecompute,
};

Mutation active_mutation();
void set_mutation(Mutation m);

/// RAII guard for tests.
struct MutationGuard {
  explicit MutationGuard(Mutation m) { set_mutation(m); }
  ~MutationGuard() { set_mutation(Mutation::kNone); }
};

/// Thrown by Machine::run (strict mode) after the engine stops, if any
/// violation was recorded.
class ViolationError : public std::runtime_error {
 public:
  explicit ViolationError(const std::string& what)
      : std::runtime_error(what) {}
};

class Checker final : public core::Observer {
 public:
  explicit Checker(core::Machine& m, bool strict);

  // ---- Observer events (host execution order) ----------------------------

  /// Reads are checked against the legal-value rule; writes advance the
  /// word's shadow version.
  void on_access(NodeId p, bool write, Addr a, std::uint32_t bytes) override;

  /// Release side (unlock, barrier arrival) before the protocol call.
  void on_sync_begin(NodeId p, core::SyncOp op, SyncId s) override;
  /// Acquire side (lock grant, barrier departure) and the drain check
  /// after the protocol call returned.
  void on_sync_end(NodeId p, core::SyncOp op, SyncId s) override;

  /// Directory invariants for msg.line after Protocol::handle(msg).
  void on_handled(const mesh::Message& msg) override;

  /// A line filled into p's cache: p's copy now reflects memory, which is
  /// current w.r.t. every write that happens-before any synchronized read
  /// p can perform on it (release drains guarantee this for DRF traces).
  void on_fill(NodeId p, LineId line) override;

  /// p's cached copy died (eviction, invalidation, or applied write notice).
  void on_copy_dropped(NodeId p, LineId line) override;

  /// Quiescent end-of-run checks (normal context; safe to throw later).
  void final_check();

  /// Strict mode: throw ViolationError if anything was recorded.
  void throw_if_violations();

  // ---- Results ------------------------------------------------------------

  const std::vector<std::string>& violations() const { return violations_; }
  std::uint64_t racy_reads() const { return racy_reads_; }
  std::uint64_t racy_writes() const { return racy_writes_; }
  std::uint64_t races() const { return racy_reads_ + racy_writes_; }
  std::uint64_t reads_checked() const { return reads_checked_; }
  std::uint64_t writes_tracked() const { return writes_tracked_; }
  std::uint64_t copies_dropped() const { return copies_dropped_; }
  bool strict() const { return strict_; }

 private:
  struct WordCell {
    std::uint64_t version = 0;      // 0 = only the initial (untimed) value
    std::uint64_t write_epoch = 0;  // writer's scalar clock at the write
    NodeId writer = kInvalidNode;
    std::vector<std::uint64_t> read_epochs;  // per-proc last-read epochs
  };
  struct LineShadow {
    std::vector<WordCell> words;  // sized words_per_line on first touch
  };
  struct BarrierState {
    std::vector<std::uint64_t> accum;     // join of arrivals this episode
    std::vector<std::uint64_t> snapshot;  // fixed when the last proc arrives
    unsigned arrived = 0;
  };
  // Last observed (state, notified) per line, for Weak-state monotonicity.
  struct DirSnap {
    proto::DirState state = proto::DirState::kUncached;
    ProcMask notified = 0;
  };

  void on_read(NodeId p, Addr a, std::uint32_t bytes);
  void on_write(NodeId p, Addr a, std::uint32_t bytes);
  /// After release/barrier/finalize returned: all store buffering drained.
  void check_drained(core::Cpu& cpu, const char* where);

  LineShadow& shadow(LineId line);
  void join(std::vector<std::uint64_t>& into,
            const std::vector<std::uint64_t>& from);
  void violation(std::string msg);
  void check_entry(LineId line, const proto::DirEntry& e);
  /// Inclusion/exclusion contract for one line of p's private stack:
  /// inclusive ⇒ an L1-resident line has an L2 tag with dirty == 0 (L1 is
  /// authoritative); exclusive ⇒ never resident in both levels.
  void check_hierarchy_line(NodeId p, LineId line);

  core::Machine& m_;
  proto::ProtocolBase* base_;  // directory access
  bool lazy_family_;           // LRC / LRC-ext
  bool strict_;
  unsigned nprocs_;
  unsigned words_per_line_;

  std::vector<std::vector<std::uint64_t>> vc_;  // vc_[p][q]
  // det-lint: ok(keyed access only — no loop ever walks these three maps,
  //   so their order cannot reach a report; their vector-valued payloads
  //   do not satisfy FlatMap's trivially-copyable constraint)
  std::unordered_map<SyncId, std::vector<std::uint64_t>> lock_clock_;
  // det-lint: ok(keyed access only, never iterated; see lock_clock_ above)
  std::unordered_map<SyncId, BarrierState> barriers_;

  // det-lint: ok(keyed access only, never iterated; see lock_clock_ above)
  std::unordered_map<LineId, LineShadow> shadow_;
  // observed_[p][line][word] = shadow version p's cached copy reflects.
  // det-lint: ok(keyed access only, never iterated; see lock_clock_ above)
  std::vector<std::unordered_map<LineId, std::vector<std::uint64_t>>>
      observed_;

  util::FlatMap<DirSnap> dir_snap_;

  std::vector<std::string> violations_;
  std::uint64_t racy_reads_ = 0;
  std::uint64_t racy_writes_ = 0;
  std::uint64_t reads_checked_ = 0;
  std::uint64_t writes_tracked_ = 0;
  std::uint64_t copies_dropped_ = 0;
};

}  // namespace lrc::check
