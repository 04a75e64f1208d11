#include <gtest/gtest.h>

#include <vector>

#include "common/bitset.h"
#include "common/rng.h"

namespace decseq {
namespace {

TEST(DynamicBitset, SetTestReset) {
  DynamicBitset b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_FALSE(b.test(63));
  b.set(63);
  b.set(64);
  b.set(99);
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(99));
  EXPECT_EQ(b.count(), 3u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2u);
  EXPECT_THROW(b.set(100), CheckFailure);
}

TEST(DynamicBitset, IntersectionCountAcrossWordBoundaries) {
  DynamicBitset a(130), b(130);
  for (const std::size_t i : {0u, 63u, 64u, 127u, 128u, 129u}) a.set(i);
  for (const std::size_t i : {1u, 63u, 64u, 100u, 129u}) b.set(i);
  EXPECT_EQ(a.intersection_count(b), 3u);  // 63, 64, 129
  const auto bits = a.intersection_bits(b);
  EXPECT_EQ(bits, (std::vector<std::size_t>{63, 64, 129}));
}

TEST(DynamicBitset, SubsetRelation) {
  DynamicBitset small(70), large(70);
  small.set(3);
  small.set(66);
  large.set(3);
  large.set(66);
  large.set(10);
  EXPECT_TRUE(small.is_subset_of(large));
  EXPECT_FALSE(large.is_subset_of(small));
  EXPECT_TRUE(small.is_subset_of(small));
}

TEST(DynamicBitset, SetBitsEnumeration) {
  DynamicBitset b(200);
  const std::vector<std::size_t> expected{0, 5, 64, 128, 199};
  for (const std::size_t i : expected) b.set(i);
  EXPECT_EQ(b.set_bits(), expected);
}

TEST(DynamicBitset, MismatchedSizesRejected) {
  DynamicBitset a(10), b(20);
  EXPECT_THROW((void)a.intersection_count(b), CheckFailure);
  EXPECT_THROW((void)a.is_subset_of(b), CheckFailure);
}

TEST(DynamicBitset, RandomizedAgainstReference) {
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.next_below(300);
    DynamicBitset a(n), b(n);
    std::vector<bool> ra(n, false), rb(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.next_bool(0.3)) {
        a.set(i);
        ra[i] = true;
      }
      if (rng.next_bool(0.3)) {
        b.set(i);
        rb[i] = true;
      }
    }
    std::size_t expected = 0;
    bool subset = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (ra[i] && rb[i]) ++expected;
      if (ra[i] && !rb[i]) subset = false;
    }
    EXPECT_EQ(a.intersection_count(b), expected);
    EXPECT_EQ(a.is_subset_of(b), subset);
    EXPECT_EQ(a.intersection_bits(b).size(), expected);
  }
}

}  // namespace
}  // namespace decseq
