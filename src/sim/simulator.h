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
//    sim::Simulator::Callback are stored in place;
//  * a 4-ary min-heap of (time, insertion sequence, slot) entries orders
//    events — ties fire FIFO, so runs are deterministic, and sift
//    comparisons stay inside the contiguous heap array;
//  * every slot records its heap position, which makes cancellation O(log n)
//    removal instead of a tombstone draining through the queue. Channels use
//    this to disarm a packet's retransmit timer the moment it is acked;
//  * an event scheduled for the current instant (most often a zero-delay
//    hop between colocated atoms, or its ack) skips the heap: it joins the
//    back of a FIFO lane, and fire_next() fires the heap's entries due now,
//    then the lane, and only then advances the clock. Every lane event was
//    scheduled after every heap entry due now and is due before every other
//    heap entry, so the (time, insertion sequence) fire order is exactly the
//    heap-only one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/ring_buffer.h"
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
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      pool_[slot] = std::forward<F>(cb);
    } else {
      pool_[slot].emplace(std::forward<F>(cb));
    }
    ++events_scheduled_;
    if (pool_[slot].heap_allocated()) ++callback_heap_spills_;
    if (t == now_) {
      meta_[slot].heap_pos = kInLane;
      lane_.push_back(LaneEntry{slot, meta_[slot].gen});
      ++lane_live_;
    } else {
      heap_push(HeapEntry{t, static_cast<std::uint32_t>(next_seq_++), slot});
    }
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
    SlotMeta& meta = meta_[id.slot_];
    if (meta.gen != id.gen_ || meta.heap_pos == kNpos) return false;
    if (meta.heap_pos == kInLane) {
      // The ring entry stays until popped; its generation no longer
      // matches once the slot is released, so fire_lane_front() skips it.
      lane_release_one();
    } else {
      heap_remove(meta.heap_pos);
    }
    release_slot(id.slot_);
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

  /// Fire every event strictly before `deadline` and stop, WITHOUT bumping
  /// the clock to the deadline (now() stays at the last fired event). This
  /// is the sharded runtime's slice primitive: a worker shard runs its
  /// events up to — but excluding — the next coordination fence, and the
  /// coordinator advances every clock to the fence together (advance_to),
  /// so events *at* the fence time still fire after the fence's control
  /// events, exactly like the single-simulator FIFO tie-break.
  std::size_t run_before(Time deadline) {
    std::size_t fired = 0;
    while (!idle() && next_event_time() < deadline) {
      fire_next();
      ++fired;
    }
    return fired;
  }

  /// Time of the earliest pending event; +infinity when idle.
  [[nodiscard]] Time next_event_time() const {
    if (lane_live_ != 0) return now_;
    return heap_.empty() ? std::numeric_limits<Time>::infinity()
                         : heap_.front().time;
  }

  /// Jump the clock forward to `t` (no-op if already past it). Only legal
  /// when no pending event would thereby fire late — the virtual-time
  /// coordination fence: every shard is advanced to the fence before any
  /// fence-time mutation (channel recovery, fence-time publishes) runs, so
  /// those mutations observe the same now() they would in a single
  /// simulator.
  void advance_to(Time t) {
    DECSEQ_CHECK_MSG(idle() || next_event_time() >= t,
                     "advance_to(" << t << ") would skip an event at "
                                   << next_event_time());
    if (now_ < t) now_ = t;
  }

  [[nodiscard]] bool idle() const { return heap_.empty() && lane_live_ == 0; }
  [[nodiscard]] std::size_t pending() const {
    return heap_.size() + lane_live_;
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
  static constexpr std::uint32_t kNpos = 0xffffffffu;
  /// heap_pos of a slot waiting in the lane rather than the heap.
  static constexpr std::uint32_t kInLane = 0xfffffffeu;

  /// Per-slot bookkeeping for cancel(), kept in a dense side array: sift
  /// operations rewrite heap_pos constantly, and an 8-byte-stride array
  /// stays cache-resident where the callback pool (one cache line per slot)
  /// would not.
  struct SlotMeta {
    std::uint32_t gen = 0;
    std::uint32_t heap_pos = kNpos;
  };

  /// Heap entries carry their own sort keys, so sift comparisons never
  /// leave the contiguous heap array. 16 bytes — four entries per cache
  /// line. The insertion sequence is truncated to 32 bits and compared in
  /// a wraparound window (serial-number arithmetic): FIFO tie-breaking
  /// only ever compares events scheduled for the same instant, which are
  /// never 2^31 schedule calls apart.
  struct HeapEntry {
    Time time;
    std::uint32_t seq;
    std::uint32_t slot;
  };

  /// A lane event: its slot and the generation it was scheduled under.
  /// Lane events need no sort key, since they fire in ring order.
  struct LaneEntry {
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };

  [[nodiscard]] static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return static_cast<std::int32_t>(a.seq - b.seq) < 0;
  }

  std::uint32_t acquire_slot() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    pool_.emplace_back();
    meta_.emplace_back();
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }

  /// Return a slot to the free list; bumping the generation invalidates
  /// every outstanding TimerId for it.
  void release_slot(std::uint32_t slot) {
    pool_[slot].reset();
    meta_[slot].heap_pos = kNpos;
    ++meta_[slot].gen;
    free_.push_back(slot);
  }

  // 4-ary implicit heap of (time, seq, slot) entries: children of i are
  // 4i+1..4i+4. Shallower than a binary heap, and the sort keys travel with
  // the entries, so sift comparisons never leave the heap array.
  void heap_push(HeapEntry entry) {
    meta_[entry.slot].heap_pos = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back(entry);
    sift_up(static_cast<std::uint32_t>(heap_.size() - 1));
  }

  void heap_remove(std::uint32_t pos) {
    const std::uint32_t last = static_cast<std::uint32_t>(heap_.size() - 1);
    if (pos != last) {
      heap_[pos] = heap_[last];
      meta_[heap_[pos].slot].heap_pos = pos;
    }
    heap_.pop_back();
    if (pos < heap_.size()) {
      // The element moved into `pos` may belong either further down or
      // further up; one of the two sifts is a no-op.
      const std::uint32_t moved = heap_[pos].slot;
      sift_down(pos);
      sift_up(meta_[moved].heap_pos);
    }
  }

  void sift_up(std::uint32_t pos) {
    const HeapEntry entry = heap_[pos];
    while (pos > 0) {
      const std::uint32_t parent = (pos - 1) / 4;
      if (!before(entry, heap_[parent])) break;
      heap_[pos] = heap_[parent];
      meta_[heap_[pos].slot].heap_pos = pos;
      pos = parent;
    }
    heap_[pos] = entry;
    meta_[entry.slot].heap_pos = pos;
  }

  void sift_down(std::uint32_t pos) {
    const std::uint32_t size = static_cast<std::uint32_t>(heap_.size());
    const HeapEntry entry = heap_[pos];
    while (true) {
      const std::uint32_t first_child = 4 * pos + 1;
      if (first_child >= size) break;
      std::uint32_t best = first_child;
      const std::uint32_t last_child =
          std::min(first_child + 3, size - 1);
      for (std::uint32_t c = first_child + 1; c <= last_child; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], entry)) break;
      heap_[pos] = heap_[best];
      meta_[heap_[pos].slot].heap_pos = pos;
      pos = best;
    }
    heap_[pos] = entry;
    meta_[entry.slot].heap_pos = pos;
  }

  /// Fire the earliest event. Heap entries due now go first: they were all
  /// scheduled before the clock reached now, so before every lane event.
  /// The lane then empties before the clock may move on.
  void fire_next() {
    if (lane_live_ != 0 && (heap_.empty() || heap_.front().time != now_)) {
      fire_lane_front();
      return;
    }
    const HeapEntry front = heap_.front();
    now_ = front.time;
    // Move the callback out and free the slot before invoking: the callback
    // may schedule new events (and reuse this very slot).
    Callback cb = std::move(pool_[front.slot]);
    heap_remove(0);
    release_slot(front.slot);
    ++events_fired_;
    cb();
  }

  /// Fire the oldest live lane event, dropping the entries of cancelled
  /// ones on the way (a released slot's generation has moved on).
  void fire_lane_front() {
    LaneEntry entry = lane_.front();
    lane_.pop_front();
    while (meta_[entry.slot].gen != entry.gen) {
      entry = lane_.front();
      lane_.pop_front();
    }
    lane_release_one();
    Callback cb = std::move(pool_[entry.slot]);
    release_slot(entry.slot);
    ++events_fired_;
    cb();
  }

  /// One live lane event fired or was cancelled. With none left, the
  /// ring's remaining entries are all stale: drop them, so none outlives
  /// its instant.
  void lane_release_one() {
    if (--lane_live_ == 0) lane_.clear();
  }

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t events_fired_ = 0;
  std::size_t events_scheduled_ = 0;
  std::size_t timers_cancelled_ = 0;
  std::size_t callback_heap_spills_ = 0;
  std::vector<Callback> pool_;
  std::vector<SlotMeta> meta_;
  std::vector<std::uint32_t> free_;
  std::vector<HeapEntry> heap_;
  /// Events due at now_, in scheduling order, plus the not-yet-popped
  /// entries of cancelled ones; lane_live_ counts the live entries. Grows
  /// to its high-water mark and then stops allocating.
  common::RingBuffer<LaneEntry> lane_;
  std::size_t lane_live_ = 0;
};

}  // namespace decseq::sim
