// Lock-free bounded rings for inter-shard handoff (sharded runtime).
//
// Two variants grown from the single-threaded common/ring_buffer.h idiom
// (power-of-two storage, index masking), but built for cross-thread use:
//
//  * SpscRing<T>  — single producer, single consumer. One worker shard
//    streams delivery events to the coordinator, which may drain them while
//    the worker is still running. Head and tail live on separate cache
//    lines; the producer publishes a slot with a release store of tail and
//    the consumer acquires it, so the element write happens-before the
//    consumer's read — the classic Lamport queue with C11 atomics.
//
//  * MpscRing<T>  — multiple producers, single consumer (Vyukov's bounded
//    queue, MPMC-safe but used MPSC here). Publishers enqueue ingress items
//    to the owning shard without a global lock: each cell carries its own
//    sequence number, producers claim a ticket with a CAS on tail, write
//    the element, then release the cell by bumping its sequence; the
//    consumer spins only on the one cell it expects next.
//
// Both rings are bounded and never allocate after construction: push()
// returns false on a full ring and the caller falls back to its own
// overflow storage (drained at the next coordination barrier), so a slow
// consumer degrades to batching instead of blocking the hot path.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "common/check.h"

namespace decseq::runtime {

/// Destructive-interference distance. A constant rather than
/// std::hardware_destructive_interference_size, whose value follows -mtune
/// and would make the layout of these rings depend on the build flags.
inline constexpr std::size_t kCacheLine = 64;

/// Round up to the next power of two (minimum 2).
[[nodiscard]] constexpr std::size_t ring_capacity_for(std::size_t n) {
  std::size_t cap = 2;
  while (cap < n) cap <<= 1;
  return cap;
}

/// Single-producer single-consumer bounded FIFO. Exactly one thread may
/// call push() and exactly one thread may call pop()/empty(); the two may
/// run concurrently.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t min_capacity)
      : mask_(ring_capacity_for(min_capacity) - 1),
        slots_(mask_ + 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

  /// Producer side. Returns false if the ring is full (caller keeps the
  /// element and retries or falls back to overflow storage).
  [[nodiscard]] bool push(T value) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    // head_cache_ avoids an acquire load of head_ on every push; refresh it
    // only when the ring looks full.
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) return false;
    }
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false if the ring is empty.
  [[nodiscard]] bool pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer-side emptiness probe (may race with a concurrent push; a
  /// false "empty" is resolved by the caller's next poll).
  [[nodiscard]] bool empty() const {
    return head_.load(std::memory_order_relaxed) ==
           tail_.load(std::memory_order_acquire);
  }

 private:
  const std::size_t mask_;
  std::vector<T> slots_;
  alignas(kCacheLine) std::atomic<std::size_t> head_{0};  // consumer index
  alignas(kCacheLine) std::size_t tail_cache_ = 0;        // consumer-owned
  alignas(kCacheLine) std::atomic<std::size_t> tail_{0};  // producer index
  alignas(kCacheLine) std::size_t head_cache_ = 0;        // producer-owned
};

/// Multi-producer single-consumer bounded FIFO (Vyukov bounded queue).
/// Any thread may push(); exactly one thread may pop().
template <typename T>
class MpscRing {
 public:
  explicit MpscRing(std::size_t min_capacity)
      : mask_(ring_capacity_for(min_capacity) - 1), cells_(mask_ + 1) {
    for (std::size_t i = 0; i <= mask_; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

  /// Returns false if the ring is full.
  [[nodiscard]] bool push(T value) {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    while (true) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const std::ptrdiff_t diff = static_cast<std::ptrdiff_t>(seq) -
                                  static_cast<std::ptrdiff_t>(pos);
      if (diff == 0) {
        // The cell is free at this ticket; claim it.
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.value = std::move(value);
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS failure reloaded pos; retry with the new ticket.
      } else if (diff < 0) {
        return false;  // full: the cell still holds an unconsumed element
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Consumer side. Returns false if the ring is empty.
  [[nodiscard]] bool pop(T& out) {
    Cell& cell = cells_[head_ & mask_];
    const std::size_t seq = cell.seq.load(std::memory_order_acquire);
    if (static_cast<std::ptrdiff_t>(seq) -
            static_cast<std::ptrdiff_t>(head_ + 1) <
        0) {
      return false;  // the next cell has not been released by a producer
    }
    out = std::move(cell.value);
    // Free the cell for the producer one lap ahead.
    cell.seq.store(head_ + mask_ + 1, std::memory_order_release);
    ++head_;
    return true;
  }

  /// Consumer-side probe (racy like SpscRing::empty, same contract).
  [[nodiscard]] bool empty() const {
    const Cell& cell = cells_[head_ & mask_];
    return static_cast<std::ptrdiff_t>(
               cell.seq.load(std::memory_order_acquire)) -
               static_cast<std::ptrdiff_t>(head_ + 1) <
           0;
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  const std::size_t mask_;
  std::vector<Cell> cells_;
  alignas(kCacheLine) std::atomic<std::size_t> tail_{0};  // producers
  alignas(kCacheLine) std::size_t head_ = 0;              // consumer-owned
};

}  // namespace decseq::runtime
