// Packet-level discrete-event simulation engine (paper §4.1).
//
// The paper's simulator models propagation delay between routers but not
// loss or queuing; ours does the same in the experiments, while the channel
// layer (channel.h) can additionally inject loss to exercise the protocol's
// retransmission machinery in tests.
//
// Engine layout (see docs/PROTOCOL.md, "Event engine"):
//  * events live in a slab pool of reusable slots — scheduling in steady
//    state allocates nothing, and callbacks up to the inline budget of
//    sim::Simulator::Callback are stored in place. The callbacks sit in
//    fixed-size chunks that never move, so an event fires where it was
//    scheduled: its slot is retired (generation bumped, key freed) before
//    the call and returns to the free list only after it, and a callback
//    that schedules can neither reuse nor move its own storage;
//  * a monotone radix queue orders them (Ahuja, Mehlhorn, Orlin and
//    Tarjan, "Faster algorithms for the shortest path problem", JACM 1990).
//    Event times never go backwards, and the bit patterns of non-negative
//    doubles sort like the doubles, so each event is keyed on its time's
//    bits and sits in the FIFO bucket of the highest bit in which its key
//    differs from the queue's base key; bucket 0 holds the keys equal to
//    the base. The buckets are doubly-linked lists threaded through the
//    per-slot metadata: scheduling is one append, and cancelling is one
//    unlink (a channel disarms an acked packet's retransmit timer in O(1),
//    with no tombstone left behind);
//  * firing pops the head of bucket 0. When bucket 0 is empty, the queue
//    first rebases on the smallest key of the lowest non-empty bucket and
//    redistributes that bucket, in list order, into the buckets below it,
//    which are all empty. Equal keys always share a bucket, keep their
//    insertion order inside it, and only move together into an empty one,
//    so events fire in (time, insertion order) without a sequence number:
//    ties fire FIFO, and runs are deterministic;
//  * each bucket records its smallest key as appends fill it. Cancelling
//    the event that holds it marks the bucket stale, and only a stale
//    bucket is walked for its minimum; the minimum is the same either way,
//    so the fire order is too.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "sim/callback.h"

namespace decseq::sim {

/// Simulated time in milliseconds.
using Time = double;

/// A minimal event-queue simulator. Events fire in (time, insertion order):
/// ties are broken FIFO so runs are deterministic.
class Simulator {
 public:
  /// Inline budget covers the runtime's hottest captures: a channel's
  /// [this, seq] retransmit pair and an in-flight protocol::Message moved
  /// into a delivery leg. Bigger captures fall back to the heap (counted in
  /// callback_heap_spills()).
  using Callback = InlineCallback<120>;

  /// Handle to a scheduled event; valid until the event fires or is
  /// cancelled. Generation-tagged, so a stale handle never cancels a slot
  /// that was recycled for a newer event.
  class TimerId {
   public:
    constexpr TimerId() = default;
    [[nodiscard]] constexpr bool valid() const {
      return slot_ != kInvalidSlot;
    }

   private:
    friend class Simulator;
    constexpr TimerId(std::uint32_t slot, std::uint32_t gen)
        : slot_(slot), gen_(gen) {}
    static constexpr std::uint32_t kInvalidSlot = 0xffffffffu;
    std::uint32_t slot_ = kInvalidSlot;
    std::uint32_t gen_ = 0;
  };

  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `cb` at absolute time `t` (>= now). Returns a handle usable
  /// with cancel(); callers that never cancel may ignore it. Takes the
  /// callable by forwarding reference so it is constructed once, directly
  /// in its pool slot.
  template <typename F>
  TimerId schedule_at(Time t, F&& cb) {
    DECSEQ_CHECK_MSG(t >= now_, "scheduling into the past: " << t << " < "
                                                             << now_);
    const std::uint32_t slot = acquire_slot();
    Callback& stored = callback(slot);
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      stored = std::forward<F>(cb);
    } else {
      stored.emplace(std::forward<F>(cb));
    }
    ++events_scheduled_;
    if (stored.heap_allocated()) ++callback_heap_spills_;
    // -0.0 passes the check at time 0, but its sign bit would sort it after
    // every positive time; adding +0.0 turns it into +0.0.
    meta_[slot].key = std::bit_cast<std::uint64_t>(t + 0.0);
    append(slot);
    ++pending_;
    return TimerId(slot, meta_[slot].gen);
  }

  /// Schedule `cb` after `delay` milliseconds.
  template <typename F>
  TimerId schedule_after(Time delay, F&& cb) {
    DECSEQ_CHECK(delay >= 0.0);
    return schedule_at(now_ + delay, std::forward<F>(cb));
  }

  /// Cancel a pending event. Returns true iff the handle named an event
  /// that had not yet fired (the callback is destroyed, never invoked).
  /// Safe to call with stale or default handles.
  bool cancel(TimerId id) {
    if (id.slot_ >= meta_.size()) return false;
    const SlotMeta& meta = meta_[id.slot_];
    if (meta.gen != id.gen_ || meta.key == kFreeKey) return false;
    unlink(id.slot_);
    retire_slot(id.slot_);
    free_slot(id.slot_);
    ++timers_cancelled_;
    return true;
  }

  /// Run until the event queue drains. Returns the number of events fired.
  std::size_t run() {
    std::size_t fired = 0;
    while (!idle()) {
      fire_next();
      ++fired;
    }
    return fired;
  }

  /// Run until simulated time exceeds `deadline` or the queue drains.
  std::size_t run_until(Time deadline) {
    std::size_t fired = 0;
    while (!idle() && next_event_time() <= deadline) {
      fire_next();
      ++fired;
    }
    if (now_ < deadline) now_ = deadline;
    return fired;
  }

  /// Time of the earliest pending event; +infinity when idle. A peek only:
  /// the base moves when an event fires, never here, so callers may still
  /// schedule at any time from now() up to the answer.
  [[nodiscard]] Time next_event_time() const {
    if (idle()) return std::numeric_limits<Time>::infinity();
    if ((occupied_ & 1u) != 0) return std::bit_cast<Time>(base_);
    return std::bit_cast<Time>(bucket_min(lowest_bucket()));
  }

  [[nodiscard]] bool idle() const { return occupied_ == 0; }
  [[nodiscard]] std::size_t pending() const { return pending_; }

  /// True iff no pending event is due at now(), in O(1). Inside a callback
  /// the answer is exact: the base is the firing event's key, so bucket 0
  /// holds exactly the other events due at now(). Outside one, run_until()
  /// may have moved the clock past the base; then only an idle queue
  /// answers true, and false means "cannot tell", not "an event is due".
  [[nodiscard]] bool nothing_due_now() const {
    return occupied_ == 0 || ((occupied_ & 1u) == 0 &&
                              std::bit_cast<std::uint64_t>(now_) == base_);
  }

  // --- Event counters (cumulative over the simulator's lifetime). ---
  [[nodiscard]] std::size_t events_fired() const { return events_fired_; }
  [[nodiscard]] std::size_t events_scheduled() const {
    return events_scheduled_;
  }
  [[nodiscard]] std::size_t timers_cancelled() const {
    return timers_cancelled_;
  }
  /// Scheduled callbacks too large for the inline buffer (allocation proxy).
  [[nodiscard]] std::size_t callback_heap_spills() const {
    return callback_heap_spills_;
  }

 private:
  /// Keys never exceed the bits of +infinity, so bit 63 never differs
  /// from the base's and buckets 0..63 cover every key.
  static constexpr unsigned kBuckets = 64;
  static constexpr std::uint32_t kNil = 0xffffffffu;
  /// Key of a slot with no pending event (above every time's bits).
  static constexpr std::uint64_t kFreeKey = ~std::uint64_t{0};
  /// Callbacks per chunk (128 bytes each, 32 KiB a chunk).
  static constexpr std::uint32_t kChunkSlots = 256;

  /// Per-slot bookkeeping, kept apart from the 128-byte callbacks so the
  /// bucket walks stay dense: the event's key and its bucket-list links. A
  /// free slot's `next` links the free list.
  struct SlotMeta {
    std::uint64_t key = kFreeKey;
    std::uint32_t gen = 0;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  /// Returns a fired event's slot to the free list when its callback
  /// returns or throws.
  class SlotReturn {
   public:
    SlotReturn(Simulator& sim, std::uint32_t slot) : sim_(sim), slot_(slot) {}
    SlotReturn(const SlotReturn&) = delete;
    SlotReturn& operator=(const SlotReturn&) = delete;
    ~SlotReturn() { sim_.free_slot(slot_); }

   private:
    Simulator& sim_;
    std::uint32_t slot_;
  };

  [[nodiscard]] Callback& callback(std::uint32_t slot) {
    return chunks_[slot / kChunkSlots][slot % kChunkSlots];
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNil) {
      const std::uint32_t slot = free_head_;
      free_head_ = meta_[slot].next;
      return slot;
    }
    const auto slot = static_cast<std::uint32_t>(meta_.size());
    if (slot / kChunkSlots == chunks_.size()) {
      chunks_.push_back(std::make_unique<Callback[]>(kChunkSlots));
    }
    meta_.emplace_back();
    return slot;
  }

  /// Mark a slot as holding no pending event; bumping the generation
  /// invalidates every outstanding TimerId for it.
  void retire_slot(std::uint32_t slot) {
    meta_[slot].key = kFreeKey;
    ++meta_[slot].gen;
  }

  /// Destroy a retired slot's callback and put the slot on the free list.
  void free_slot(std::uint32_t slot) {
    callback(slot).reset();
    meta_[slot].next = free_head_;
    free_head_ = slot;
  }

  /// 0 when `key` equals the base, else one plus the index of the highest
  /// bit in which they differ.
  [[nodiscard]] unsigned bucket_of(std::uint64_t key) const {
    return static_cast<unsigned>(std::bit_width(key ^ base_));
  }

  [[nodiscard]] unsigned lowest_bucket() const {
    return static_cast<unsigned>(std::countr_zero(occupied_));
  }

  void append(std::uint32_t slot) {
    SlotMeta& meta = meta_[slot];
    const unsigned b = bucket_of(meta.key);
    const std::uint64_t bit = std::uint64_t{1} << b;
    meta.next = kNil;
    if ((occupied_ & bit) != 0) {
      meta.prev = tail_[b];
      meta_[tail_[b]].next = slot;
      min_[b] = std::min(min_[b], meta.key);
    } else {
      meta.prev = kNil;
      head_[b] = slot;
      occupied_ |= bit;
      min_[b] = meta.key;
      stale_ &= ~bit;
    }
    tail_[b] = slot;
  }

  void unlink(std::uint32_t slot) {
    const SlotMeta& meta = meta_[slot];
    const unsigned b = bucket_of(meta.key);
    const std::uint64_t bit = std::uint64_t{1} << b;
    if (meta.prev == kNil) {
      head_[b] = meta.next;
    } else {
      meta_[meta.prev].next = meta.next;
    }
    if (meta.next == kNil) {
      tail_[b] = meta.prev;
    } else {
      meta_[meta.next].prev = meta.prev;
    }
    if (meta.prev == kNil && meta.next == kNil) occupied_ &= ~bit;
    // The bucket's recorded minimum may have left with this key; until a
    // walk or an append into the emptied bucket, it is only a lower bound.
    if (meta.key == min_[b]) stale_ |= bit;
    --pending_;
  }

  /// Smallest key in non-empty bucket b: the recorded minimum, or a walk
  /// of the bucket when a cancel made it stale.
  [[nodiscard]] std::uint64_t bucket_min(unsigned b) const {
    if ((stale_ & (std::uint64_t{1} << b)) == 0) return min_[b];
    std::uint64_t min = kFreeKey;
    for (std::uint32_t s = head_[b]; s != kNil; s = meta_[s].next) {
      min = std::min(min, meta_[s].key);
    }
    return min;
  }

  /// Make the smallest pending key the base. Every key in the lowest
  /// non-empty bucket b agrees with the new base above bit b-1, so each
  /// lands in a bucket below b, all of them empty; keys in higher buckets
  /// differ from the new base where they differed from the old one, so
  /// they stay put.
  void rebase() {
    const unsigned b = lowest_bucket();
    base_ = bucket_min(b);
    occupied_ &= ~(std::uint64_t{1} << b);
    for (std::uint32_t s = head_[b]; s != kNil;) {
      const std::uint32_t next = meta_[s].next;
      append(s);
      s = next;
    }
  }

  /// Fire the earliest event, the head of bucket 0 (whose key is the
  /// base), in place. The slot is retired before the call, so cancelling
  /// its handle from inside returns false, and it joins the free list only
  /// once the callback has returned or thrown, so a callback that
  /// schedules never overwrites itself; new chunks never move old ones.
  void fire_next() {
    if ((occupied_ & 1u) == 0) rebase();
    const std::uint32_t slot = head_[0];
    now_ = std::bit_cast<Time>(base_);
    unlink(slot);
    retire_slot(slot);
    ++events_fired_;
    const SlotReturn give_back(*this, slot);
    callback(slot)();
  }

  Time now_ = 0.0;
  /// The key bucket indices are taken against: the last fired event's (0
  /// before the first). No pending key is below it.
  std::uint64_t base_ = 0;
  /// Bit b set iff bucket b holds an event; an empty bucket's head_ and
  /// tail_ are stale.
  std::uint64_t occupied_ = 0;
  /// Bit b set iff bucket b's min_ may be below its true minimum (its
  /// minimum was cancelled).
  std::uint64_t stale_ = 0;
  std::uint32_t head_[kBuckets] = {};
  std::uint32_t tail_[kBuckets] = {};
  /// Smallest key appended to bucket b since it was last empty.
  std::uint64_t min_[kBuckets] = {};
  /// Head of the free-slot list, linked through SlotMeta::next.
  std::uint32_t free_head_ = kNil;
  std::size_t pending_ = 0;
  std::size_t events_fired_ = 0;
  std::size_t events_scheduled_ = 0;
  std::size_t timers_cancelled_ = 0;
  std::size_t callback_heap_spills_ = 0;
  /// Callback storage: slot s is chunks_[s / kChunkSlots][s % kChunkSlots].
  std::vector<std::unique_ptr<Callback[]>> chunks_;
  std::vector<SlotMeta> meta_;
};

}  // namespace decseq::sim
