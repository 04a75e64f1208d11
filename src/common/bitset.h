// DynamicBitset: a plain mutable bitmap with word-parallel AND+popcount.
// The overlap index's materialized reference build holds one per group.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace decseq {

class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(std::size_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0) {}

  [[nodiscard]] std::size_t size() const { return bits_; }

  void set(std::size_t i) {
    DECSEQ_CHECK(i < bits_);
    words_[i >> 6] |= 1ULL << (i & 63);
  }
  void reset(std::size_t i) {
    DECSEQ_CHECK(i < bits_);
    words_[i >> 6] &= ~(1ULL << (i & 63));
  }
  [[nodiscard]] bool test(std::size_t i) const {
    DECSEQ_CHECK(i < bits_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  [[nodiscard]] std::size_t count() const {
    std::size_t total = 0;
    for (const std::uint64_t w : words_) {
      total += static_cast<std::size_t>(std::popcount(w));
    }
    return total;
  }

  /// Number of positions set in both (|a ∩ b|); sizes must match.
  [[nodiscard]] std::size_t intersection_count(const DynamicBitset& other) const {
    DECSEQ_CHECK(bits_ == other.bits_);
    std::size_t total = 0;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      total += static_cast<std::size_t>(
          std::popcount(words_[w] & other.words_[w]));
    }
    return total;
  }

  /// True iff every bit set here is also set in `other` (this ⊆ other).
  [[nodiscard]] bool is_subset_of(const DynamicBitset& other) const {
    DECSEQ_CHECK(bits_ == other.bits_);
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if ((words_[w] & ~other.words_[w]) != 0) return false;
    }
    return true;
  }

  /// Indices of set bits, ascending.
  [[nodiscard]] std::vector<std::size_t> set_bits() const {
    std::vector<std::size_t> result;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int bit = std::countr_zero(word);
        result.push_back(w * 64 + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
    return result;
  }

  /// Indices set in both, ascending.
  [[nodiscard]] std::vector<std::size_t> intersection_bits(
      const DynamicBitset& other) const {
    DECSEQ_CHECK(bits_ == other.bits_);
    std::vector<std::size_t> result;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w] & other.words_[w];
      while (word != 0) {
        const int bit = std::countr_zero(word);
        result.push_back(w * 64 + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
    return result;
  }

  friend bool operator==(const DynamicBitset& a, const DynamicBitset& b) {
    return a.bits_ == b.bits_ && a.words_ == b.words_;
  }

 private:
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace decseq
