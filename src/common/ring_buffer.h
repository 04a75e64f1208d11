// Flat circular FIFO with random access — the steady-state replacement for
// std::deque on hot paths.
//
// libstdc++'s deque allocates and frees a ~512-byte node every few elements
// as a flow-through workload marches the iterators across node boundaries,
// so a warmed-up channel buffer still churns the heap forever. This ring
// keeps one power-of-two vector and two indexes: once grown to the
// workload's high-water mark it never touches the allocator again, which is
// what the zero-allocation benches and tests pin.
//
// Semantics match the subset of deque the runtime uses: push_back (or
// emplace_back, which hands back the new slot to fill in place)/pop_front,
// front/back, operator[] indexed from the front, grow-only resize(). T must
// be default-constructible and move-assignable; pop_front() resets the
// vacated slot to T() immediately, so resources held by popped elements
// (payload references, pooled blocks) are released at pop time, not when
// the slot is eventually overwritten.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"

namespace decseq::common {

template <typename T>
class RingBuffer {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

  [[nodiscard]] T& operator[](std::size_t i) {
    DECSEQ_CHECK(i < size_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    DECSEQ_CHECK(i < size_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }
  [[nodiscard]] T& front() { return (*this)[0]; }
  [[nodiscard]] const T& front() const { return (*this)[0]; }
  [[nodiscard]] T& back() { return (*this)[size_ - 1]; }
  [[nodiscard]] const T& back() const { return (*this)[size_ - 1]; }

  void push_back(T value) { emplace_back() = std::move(value); }

  /// Append a slot and return it for the caller to fill in place. Every
  /// vacant slot holds T() (fresh slots are default-built, popped ones
  /// reset), so this is push_back(T()) without building and moving a
  /// temporary: a caller assigns only the fields it needs.
  T& emplace_back() {
    if (size_ == buf_.size()) grow();
    T& slot = buf_[(head_ + size_) & (buf_.size() - 1)];
    ++size_;
    return slot;
  }

  void pop_front() {
    DECSEQ_CHECK(size_ > 0);
    buf_[head_] = T();  // release the element's resources now
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

  /// Grow-only resize, default-filling new back slots (the reorder-window
  /// idiom: extend to cover an out-of-order arrival's index).
  void resize(std::size_t n) {
    DECSEQ_CHECK(n >= size_);
    while (size_ < n) emplace_back();
  }

  void clear() {
    while (size_ > 0) pop_front();
  }

 private:
  void grow() {
    const std::size_t cap = buf_.empty() ? 8 : buf_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move((*this)[i]);
    }
    buf_ = std::move(next);
    head_ = 0;
  }

  /// Power-of-two storage; slot (head_ + i) & (capacity - 1) holds the
  /// i-th element from the front.
  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace decseq::common
