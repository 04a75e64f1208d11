// Inline small-vector: a contiguous sequence with `N` elements of storage
// inside the object, spilling to the heap only past that.
//
// The protocol's hot containers are bounded-but-variable: a message's stamp
// list is bounded by its group's overlap degree, and application bodies are
// usually tens of bytes. Keeping them inline makes a Message a flat,
// allocation-free object that moves with a memcpy — the std::vector
// versions paid one heap allocation per list per message per hop. Lists do
// outgrow the inline storage: the paper deployment's longest paths cross 37
// atoms and stamp more than 16 of them, and such a list allocates when it
// spills. clear() keeps any heap capacity, so pooled objects that recycle a
// SmallVector stay allocation-free even when their content once spilled.
//
// Elements must be trivially copyable (body bytes, stamps), so every copy,
// inline move and growth is one memcpy and nothing is ever destroyed. An
// element-wise loop over `std::uint8_t` cannot be vectorised, because a
// byte store may alias `size_` and `data_`; the compiler reloads `data_`
// and reloads and stores `size_` for every byte of a message body.
//
// Only the operations the library needs; not a drop-in std::vector.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <new>
#include <type_traits>
#include <utility>

#include "common/check.h"

namespace decseq::common {

template <typename T, std::size_t N>
class SmallVector {
  static_assert(N > 0, "inline capacity must be positive");
  static_assert(std::is_trivially_copyable_v<T>,
                "elements are copied and moved as bytes");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVector() = default;

  SmallVector(std::initializer_list<T> init) { assign(init.begin(), init.end()); }

  SmallVector(const SmallVector& other) { assign(other.begin(), other.end()); }

  SmallVector(SmallVector&& other) noexcept { steal_from(other); }

  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }

  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      release_heap();
      steal_from(other);
    }
    return *this;
  }

  SmallVector& operator=(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
    return *this;
  }

  ~SmallVector() { release_heap(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// True while the elements still live in the inline buffer.
  [[nodiscard]] bool is_inline() const { return data_ == inline_data(); }

  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] iterator begin() { return data_; }
  [[nodiscard]] iterator end() { return data_ + size_; }
  [[nodiscard]] const_iterator begin() const { return data_; }
  [[nodiscard]] const_iterator end() const { return data_ + size_; }

  [[nodiscard]] T& operator[](std::size_t i) {
    DECSEQ_CHECK(i < size_);
    return data_[i];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    DECSEQ_CHECK(i < size_);
    return data_[i];
  }
  [[nodiscard]] T& front() { return (*this)[0]; }
  [[nodiscard]] const T& front() const { return (*this)[0]; }
  [[nodiscard]] T& back() { return (*this)[size_ - 1]; }
  [[nodiscard]] const T& back() const { return (*this)[size_ - 1]; }

  void reserve(std::size_t wanted) {
    if (wanted > capacity_) grow_to(wanted);
  }

  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) grow_to(capacity_ * 2);
    T* slot = data_ + size_;
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void pop_back() {
    DECSEQ_CHECK(size_ > 0);
    --size_;
  }

  /// Drops the elements but keeps the current storage (inline or heap), so
  /// recycled owners refill without reallocating.
  void clear() { size_ = 0; }

  void assign(const T* first, const T* last) {
    const auto count = static_cast<std::size_t>(last - first);
    clear();
    reserve(count);
    copy_bytes(data_, first, count);
    size_ = count;
  }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  /// memcpy of `count` elements; an empty range may come from a null
  /// pointer (an empty std::vector's data()), which memcpy must not get.
  static void copy_bytes(T* dst, const T* src, std::size_t count) {
    if (count != 0) std::memcpy(dst, src, count * sizeof(T));
  }

  [[nodiscard]] T* inline_data() {
    return reinterpret_cast<T*>(inline_storage_);
  }
  [[nodiscard]] const T* inline_data() const {
    return reinterpret_cast<const T*>(inline_storage_);
  }

  void release_heap() {
    if (data_ != inline_data()) {
      ::operator delete(data_);
      data_ = inline_data();
      capacity_ = N;
    }
  }

  void grow_to(std::size_t wanted) {
    const std::size_t new_capacity = std::max(wanted, capacity_ * 2);
    T* fresh = static_cast<T*>(::operator new(new_capacity * sizeof(T)));
    copy_bytes(fresh, data_, size_);
    if (data_ != inline_data()) ::operator delete(data_);
    data_ = fresh;
    capacity_ = new_capacity;
  }

  /// Move: steal the heap block when there is one, copy the inline bytes
  /// otherwise. `other` is left empty with inline storage either way.
  void steal_from(SmallVector& other) noexcept {
    if (!other.is_inline()) {
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
    } else {
      data_ = inline_data();
      capacity_ = N;
      size_ = other.size_;
      copy_bytes(data_, other.data_, size_);
    }
    other.data_ = other.inline_data();
    other.size_ = 0;
    other.capacity_ = N;
  }

  alignas(T) unsigned char inline_storage_[N * sizeof(T)];
  T* data_ = inline_data();
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

}  // namespace decseq::common
