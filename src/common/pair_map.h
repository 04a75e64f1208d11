// Flat open-addressing map keyed by a packed pair of 32-bit ids
// (first << 32 | second).
//
// Two hot tables use it: the overlap build's pair-count accumulator, which
// takes O(Σ_node k_node²) increments, and the distance oracle's memo of
// settled router pairs. A node/bucket map would pay an allocation and a
// pointer chase per distinct pair; this pays one mixed probe into two flat
// arrays, and a lookup never allocates.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace decseq::common {

template <typename Value>
class PairMap {
 public:
  /// Keys pack two valid ids, so all-ones can't occur.
  static constexpr std::uint64_t kEmpty =
      std::numeric_limits<std::uint64_t>::max();

  explicit PairMap(std::size_t expected = 0) {
    std::size_t cap = 64;
    while (cap < expected * 2) cap <<= 1;
    keys_.assign(cap, kEmpty);
    values_.assign(cap, Value{});
  }

  /// The value under `key`, value-initialized (and the table grown, past a
  /// 3/4 load) if the key is new.
  Value& operator[](std::uint64_t key) {
    if (grows_on_insert()) grow();
    const std::size_t slot = find_slot(key);
    if (keys_[slot] == kEmpty) {
      keys_[slot] = key;
      ++size_;
    }
    return values_[slot];
  }

  [[nodiscard]] const Value* find(std::uint64_t key) const {
    const std::size_t slot = find_slot(key);
    return keys_[slot] == kEmpty ? nullptr : &values_[slot];
  }

  /// True when inserting one more new key would double the table.
  [[nodiscard]] bool grows_on_insert() const {
    return (size_ + 1) * 4 > keys_.size() * 3;
  }

  /// Empty the table, keeping its capacity.
  void clear() {
    std::fill(keys_.begin(), keys_.end(), kEmpty);
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t memory_bytes() const {
    return keys_.size() * (sizeof(std::uint64_t) + sizeof(Value));
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] != kEmpty) fn(keys_[i], values_[i]);
    }
  }

 private:
  /// splitmix64 finalizer.
  [[nodiscard]] static std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  [[nodiscard]] std::size_t find_slot(std::uint64_t key) const {
    const std::size_t mask = keys_.size() - 1;
    std::size_t slot = mix(key) & mask;
    while (keys_[slot] != kEmpty && keys_[slot] != key) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  void grow() {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<Value> old_values = std::move(values_);
    keys_.assign(old_keys.size() * 2, kEmpty);
    values_.assign(old_values.size() * 2, Value{});
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmpty) continue;
      const std::size_t slot = find_slot(old_keys[i]);
      keys_[slot] = old_keys[i];
      values_[slot] = std::move(old_values[i]);
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<Value> values_;
  std::size_t size_ = 0;
};

/// The overlap build's accumulator: shared-member counts per group pair.
using PairCountMap = PairMap<std::uint32_t>;

}  // namespace decseq::common
