// Recycled byte buffers for flow-through traffic: transport frames waiting
// for their ack, datagrams in flight on the simulated fabric, payloads
// parked in a reorder window.
//
// A stage acquires a buffer when bytes enter it and releases the buffer
// when they leave; a released buffer keeps its capacity for the next
// acquire. Free buffers are binned by power-of-two capacity class, and a
// fresh buffer is reserved to its class's full size, so a recycled buffer
// always fits any request of its class without growing: mixed sizes (the
// 24-byte ACK next to a data frame) cannot shuffle a small buffer into a
// large request and reallocate, and a warm pool stops touching the
// allocator. Like common/ring_buffer.h, the pool holds no more buffers per
// class than were once live at the same time — its in-flight high-water
// mark — and each at most twice the bytes it carried.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace decseq::common {

class BufferPool {
 public:
  using Buffer = std::vector<std::uint8_t>;

  /// A buffer of exactly `size` bytes, contents unspecified.
  [[nodiscard]] Buffer acquire(std::size_t size) {
    const std::size_t cls = class_of(size);
    Buffer buffer;
    if (cls < kClasses && !free_[cls].empty()) {
      buffer = std::move(free_[cls].back());
      free_[cls].pop_back();
    } else {
      buffer.reserve(cls < kClasses ? std::size_t{1} << cls : size);
    }
    buffer.resize(size);
    return buffer;
  }

  /// Hand a buffer back for reuse. Buffers too large for any class are
  /// freed instead.
  void release(Buffer&& buffer) {
    if (buffer.capacity() == 0) return;
    // Floor: a buffer of capacity c serves every request of class
    // floor(log2 c), whatever grew it.
    const auto cls =
        static_cast<std::size_t>(std::bit_width(buffer.capacity()) - 1);
    if (cls < kClasses) free_[cls].push_back(std::move(buffer));
  }

 private:
  /// Classes 2^0 .. 2^17 bytes: the largest covers a 64 KiB UDP payload
  /// plus its frame header.
  static constexpr std::size_t kClasses = 18;

  /// Smallest class whose capacity holds `size` bytes.
  [[nodiscard]] static std::size_t class_of(std::size_t size) {
    return size <= 1 ? 0 : static_cast<std::size_t>(std::bit_width(size - 1));
  }

  std::array<std::vector<Buffer>, kClasses> free_;
};

}  // namespace decseq::common
