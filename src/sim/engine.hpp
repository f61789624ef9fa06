// Deterministic discrete-event engine. Events are (time, sequence) keyed
// intrusive objects executed in nondecreasing time order; ties break by
// schedule order, which makes every simulation run bit-reproducible.
//
// Hot-path design (see DESIGN.md "Simulation kernel"):
//  * Pooled allocation — pooled events live in engine-owned slabs carved
//    into small fixed-size slots recycled through per-class freelists, so
//    the steady state allocates nothing. Oversized events fall back to the
//    heap; caller-owned "external" events are never allocated at all.
//  * Calendar queue — a ring of one-cycle buckets covering the near future
//    (the common case for protocol latencies) gives O(1) insert and pop;
//    events beyond the horizon wait in a (when, seq) min-heap and migrate
//    into the ring as the scan front advances.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "sim/types.hpp"

// The freelist recycles raw storage across event types; poison recycled
// slots under AddressSanitizer so stale-event pointer bugs trap instead of
// silently reading the next occupant.
#if defined(__SANITIZE_ADDRESS__)
#define LRC_ENGINE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LRC_ENGINE_ASAN 1
#endif
#endif

#ifdef LRC_ENGINE_ASAN
#include <sanitizer/asan_interface.h>
#define LRC_POISON(p, n) __asan_poison_memory_region((p), (n))
#define LRC_UNPOISON(p, n) __asan_unpoison_memory_region((p), (n))
#else
#define LRC_POISON(p, n) (void)0
#define LRC_UNPOISON(p, n) (void)0
#endif

namespace lrc::sim {

/// Schedule-control hook for the model-checking explorer (src/mc/): when
/// installed via Engine::set_arbiter, every decision point — two or more
/// co-enabled events, i.e. pending events sharing the earliest timestamp —
/// is resolved by pick() instead of the default lowest-seq rule. The ring
/// invariant (one timestamp per bucket, appended in ascending seq) makes
/// the candidate set exactly the head bucket's chain, presented in seq
/// order. pick(idx == 0) reproduces the uninstalled behaviour exactly.
class ScheduleArbiter {
 public:
  virtual ~ScheduleArbiter() = default;

  /// Chooses which of the `n >= 2` co-enabled events (seq order) fires
  /// next. Must return an index < n. May throw to abandon the run (the
  /// engine's destructor releases every still-pending event).
  virtual std::size_t pick(Cycle when, const Event* const* cands,
                           std::size_t n) = 0;
};

/// Kernel health counters (reports, microbenches, regression tests).
struct EngineStats {
  std::uint64_t executed = 0;         // events fired
  std::uint64_t past_violations = 0;  // schedules with when < now(), clamped
  std::uint64_t pool_events = 0;      // pooled events served from a slab slot
  std::uint64_t heap_events = 0;      // oversized pooled events (plain new)
  std::uint64_t overflow_events = 0;  // inserts landing beyond the horizon
  std::uint64_t max_pending = 0;      // high-water mark of the queue
};

class Engine {
 public:
  /// Largest event the slab pool serves; bigger types fall back to the heap.
  static constexpr std::size_t kMaxPooledBytes = 256;

  Engine() = default;
  ~Engine();

  /// Releases every still-pending event (ring + overflow). The destructor
  /// does this too, but owners whose events live inside other members —
  /// Machine's Cpus hold their reusable resume events — must drain before
  /// those members die, since releasing touches the event's header.
  void drop_pending();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Schedules callable `fn(Cycle)` at absolute time `when` (>= now()).
  /// The callable is moved into a pooled event (small-buffer: no heap
  /// allocation for captures up to the largest slot class).
  template <typename F>
  void schedule(Cycle when, F&& fn) {
    using E = LambdaEvent<std::decay_t<F>>;
    schedule_make<E>(when, std::forward<F>(fn));
  }

  /// Creates a pooled event of type T in place and schedules it. The
  /// returned pointer stays valid until the event fires (it is destroyed
  /// and recycled afterwards); use it only for pre-fire mutation — e.g.
  /// NIC same-cycle batching — guarded by pending()/seq()/last_seq().
  template <typename T, typename... Args>
  T* schedule_make(Cycle when, Args&&... args) {
    static_assert(std::is_base_of_v<Event, T>);
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "over-aligned event types are not supported by the pool");
    std::uint8_t slot = 0;
    void* mem = pool_alloc(sizeof(T), slot);
    T* ev = new (mem) T(std::forward<Args>(args)...);
    static_cast<Event*>(ev)->slot_ = slot;
    enqueue(ev, when);
    return ev;
  }

  /// Schedules a caller-owned event. The engine never destroys it; the
  /// caller keeps it alive until it fires and may then reschedule it.
  /// An external event must not be scheduled again while still pending.
  void schedule_external(Cycle when, Event& ev) {
    assert(!ev.pending_ && "external event already scheduled");
    ev.slot_ = kExternalSlot;
    enqueue(&ev, when);
  }

  /// Runs events until the queue is empty or `stop()` is called.
  void run();

  /// Runs at most `max_events` events; returns the number executed.
  std::size_t run_some(std::size_t max_events);

  void stop() { stopped_ = true; }

  /// Time of the event currently executing (or last executed).
  Cycle now() const { return now_; }

  bool empty() const { return pending_count_ == 0; }
  std::size_t pending() const { return pending_count_; }
  std::uint64_t events_executed() const { return stats_.executed; }

  /// Schedules that tried to run in the past (clamped to now()); nonzero
  /// means a component computed an inconsistent timestamp (debug asserts).
  std::uint64_t past_violations() const { return stats_.past_violations; }

  const EngineStats& stats() const { return stats_; }

  /// Sequence id handed to the most recently scheduled event. Batching
  /// callers compare this with a held event's seq() to prove that no other
  /// event could interleave (consecutive seqs at one time fire back to
  /// back, so appending work to the held event preserves exact order).
  std::uint64_t last_seq() const { return next_seq_ - 1; }

  /// Sequence id of the event currently firing (or last fired). Together
  /// with now() this identifies the running event's (time, seq) key —
  /// the coordinates the model-checking explorer records in decision
  /// traces and the tie-order mutations test against.
  std::uint64_t current_seq() const { return cur_seq_; }

  /// Installs (or clears, with nullptr) the explorer's decision-point
  /// hook. With no arbiter installed pop order is untouched; the default
  /// path pays one pointer test per pop of a multi-event bucket.
  void set_arbiter(ScheduleArbiter* a) { arbiter_ = a; }
  ScheduleArbiter* arbiter() const { return arbiter_; }

 private:
  template <typename F>
  class LambdaEvent final : public Event {
   public:
    explicit LambdaEvent(F fn) : fn_(std::move(fn)) {}
    void fire(Cycle now) override { fn_(now); }

   private:
    F fn_;
  };

  // ---- Pool --------------------------------------------------------------
  // Slot classes cover the event sizes the simulator actually makes:
  // 64 B fits plain continuation lambdas, 128 B message-carrying events,
  // 256 B the NIC's batched arrivals. Larger types go to the heap.
  static constexpr std::size_t kSlotSizes[] = {64, 128, 256};
  static constexpr unsigned kSlotClasses = 3;
  static constexpr std::size_t kSlotsPerSlab = 512;
  static constexpr std::uint8_t kHeapSlot = 0xFE;
  static constexpr std::uint8_t kExternalSlot = 0xFF;
  static_assert(kSlotSizes[kSlotClasses - 1] == kMaxPooledBytes);

  struct FreeNode {
    FreeNode* next;
  };
  struct Slab {
    std::unique_ptr<std::byte[]> mem;
    std::size_t bytes;
  };

  /// Inline so the slot-class selection constant-folds at each
  /// schedule_make call site (sizeof(T) is a compile-time constant).
  void* pool_alloc(std::size_t bytes, std::uint8_t& slot_out) {
    unsigned c;
    if (bytes <= kSlotSizes[0]) {
      c = 0;
    } else if (bytes <= kSlotSizes[1]) {
      c = 1;
    } else if (bytes <= kSlotSizes[2]) {
      c = 2;
    } else {
      slot_out = kHeapSlot;
      ++stats_.heap_events;
      return ::operator new(bytes);
    }
    slot_out = static_cast<std::uint8_t>(c);
    ++stats_.pool_events;
    if (free_[c] == nullptr) refill_pool(c);
    FreeNode* n = free_[c];
    free_[c] = n->next;
    LRC_UNPOISON(n, kSlotSizes[c]);
    return n;
  }
  void pool_free(void* mem, std::uint8_t slot) {
    auto* n = reinterpret_cast<FreeNode*>(mem);
    n->next = free_[slot];
    free_[slot] = n;
    LRC_POISON(static_cast<std::byte*>(mem) + sizeof(FreeNode),
               kSlotSizes[slot] - sizeof(FreeNode));
  }
  /// Cold path: carves a new slab into freelist slots for class `c`.
  void refill_pool(unsigned c);

  /// Destroys a fired (or abandoned) event according to its ownership.
  void release(Event* ev);

  // ---- Calendar queue ----------------------------------------------------
  static constexpr std::size_t kBucketBits = 11;  // 2048 one-cycle buckets
  static constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;
  static constexpr std::size_t kBucketMask = kBuckets - 1;

  struct Bucket {
    Event* head = nullptr;
    Event* tail = nullptr;
  };

  /// Guard + key assignment + insert. Clamp past times (assert in debug).
  void enqueue(Event* ev, Cycle when);
  void bucket_append(Event* ev);
  void push_overflow(Event* ev);
  /// Moves overflow events whose time entered the horizon into the ring.
  void migrate_overflow();
  /// Next event in (when, seq) order, or nullptr. Advances base_.
  /// With an arbiter installed, multi-event buckets pop the arbiter's
  /// choice instead of the head (cold path, explorer runs only).
  Event* pop_min();
  /// Unlinks the arbiter-chosen event from the current head bucket.
  Event* pop_arbitrated(Bucket& b);

  // ---- Bucket occupancy bitmap -------------------------------------------
  // One bit per ring bucket lets pop_min jump a whole span of empty buckets
  // with a couple of countr_zero scans instead of probing them one by one
  // (the dominant cost when event times are sparse, e.g. memory latencies
  // of tens of cycles between consecutive events).
  static constexpr std::size_t kOccWords = kBuckets / 64;

  void occ_set(std::size_t bucket) {
    occ_[bucket >> 6] |= std::uint64_t{1} << (bucket & 63);
  }
  void occ_clear(std::size_t bucket) {
    occ_[bucket >> 6] &= ~(std::uint64_t{1} << (bucket & 63));
  }
  /// Absolute cycle of the first non-empty bucket after `from` (exclusive).
  /// Requires ring_count_ > 0.
  Cycle next_occupied(Cycle from) const {
    const std::size_t start = (from + 1) & kBucketMask;
    std::size_t w = start >> 6;
    std::uint64_t word = occ_[w] & (~std::uint64_t{0} << (start & 63));
    for (;;) {
      if (word != 0) {
        const std::size_t pos =
            (w << 6) | static_cast<std::size_t>(std::countr_zero(word));
        const Cycle delta =
            static_cast<Cycle>((pos - (from & kBucketMask)) & kBucketMask);
        assert(delta != 0 && "current bucket must be empty");
        return from + delta;
      }
      w = (w + 1) & (kOccWords - 1);
      word = occ_[w];
    }
  }

  std::array<Bucket, kBuckets> ring_{};
  std::array<std::uint64_t, kOccWords> occ_{};
  std::size_t ring_count_ = 0;
  std::vector<Event*> overflow_;  // min-heap on (when, seq)
  Cycle base_ = 0;                // scan front: all events < base_ fired
  std::size_t pending_count_ = 0;

  Cycle now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t cur_seq_ = 0;
  bool stopped_ = false;
  EngineStats stats_;

  ScheduleArbiter* arbiter_ = nullptr;
  std::vector<Event*> arb_cands_;  // scratch candidate list (explorer runs)

  std::array<FreeNode*, kSlotClasses> free_{};
  std::vector<Slab> slabs_;
};

}  // namespace lrc::sim
