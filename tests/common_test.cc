#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/ring_buffer.h"
#include "common/rng.h"
#include "common/small_vector.h"
#include "common/stats.h"
#include "common/zipf.h"
#include "protocol/message.h"
#include "tests/alloc_probe.h"

namespace decseq {
namespace {

TEST(Ids, DefaultIsInvalid) {
  NodeId id;
  EXPECT_FALSE(id.valid());
  EXPECT_TRUE(NodeId(0).valid());
  EXPECT_TRUE(NodeId(7).valid());
}

TEST(Ids, ComparesByValue) {
  EXPECT_EQ(GroupId(3), GroupId(3));
  EXPECT_NE(GroupId(3), GroupId(4));
  EXPECT_LT(GroupId(3), GroupId(4));
}

TEST(Ids, HashableAndDistinctTypes) {
  std::unordered_set<NodeId> nodes{NodeId(1), NodeId(2), NodeId(1)};
  EXPECT_EQ(nodes.size(), 2u);
  // GroupId and NodeId must not be interchangeable; this is a compile-time
  // property, asserted here by construction of both.
  static_assert(!std::is_convertible_v<NodeId, GroupId>);
}

TEST(Check, ThrowsWithLocation) {
  try {
    DECSEQ_CHECK_MSG(1 == 2, "math broke " << 42);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math broke 42"), std::string::npos);
    EXPECT_NE(what.find("common_test.cc"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a(), vb = b();
    EXPECT_EQ(va, vb);
  }
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) {
    if (a2() != c()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(10), 10u);
    EXPECT_EQ(rng.next_below(1), 0u);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BoolProbabilityRoughlyHolds) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<int> original = v;
  rng.shuffle(v);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), original.begin()));
}

TEST(Rng, ForkIndependent) {
  Rng rng(17);
  Rng child = rng.fork();
  EXPECT_NE(child(), rng());
}

TEST(Zipf, HarmonicNumbers) {
  EXPECT_DOUBLE_EQ(harmonic_number(1, 1.0), 1.0);
  EXPECT_NEAR(harmonic_number(4, 1.0), 1.0 + 0.5 + 1.0 / 3 + 0.25, 1e-12);
  EXPECT_NEAR(harmonic_number(3, 2.0), 1.0 + 0.25 + 1.0 / 9, 1e-12);
}

TEST(Zipf, GroupSizesMonotoneAndClamped) {
  const auto sizes = zipf_group_sizes(16, 128, 40);
  ASSERT_EQ(sizes.size(), 16u);
  EXPECT_EQ(sizes[0], 40u);  // rank 1 gets max_size
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_LE(sizes[i], sizes[i - 1]);  // Zipf is decreasing in rank
    EXPECT_GE(sizes[i], 2u);            // never below the overlap-useful floor
  }
}

TEST(Zipf, SamplerFavorsLowRanks) {
  ZipfSampler sampler(50, 1.0);
  Rng rng(23);
  std::size_t rank1 = 0, rank50 = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::size_t r = sampler.sample(rng);
    ASSERT_GE(r, 1u);
    ASSERT_LE(r, 50u);
    if (r == 1) ++rank1;
    if (r == 50) ++rank50;
  }
  EXPECT_GT(rank1, rank50 * 10);
}

TEST(Stats, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({2.0, 4.0, 6.0}), 4.0);
  EXPECT_DOUBLE_EQ(stddev({5.0}), 0.0);
  EXPECT_NEAR(stddev({2.0, 4.0, 6.0}), 2.0, 1e-12);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
}

TEST(Stats, PercentileUnsortedInput) {
  EXPECT_DOUBLE_EQ(percentile({9.0, 1.0, 5.0}, 50.0), 5.0);
}

TEST(Stats, EmpiricalCdfMonotone) {
  const auto cdf = empirical_cdf({3.0, 1.0, 2.0});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1.0);
  EXPECT_NEAR(cdf[0].fraction, 1.0 / 3, 1e-12);
  EXPECT_DOUBLE_EQ(cdf[2].value, 3.0);
  EXPECT_DOUBLE_EQ(cdf[2].fraction, 1.0);
}

TEST(RingBuffer, FifoAcrossWraparoundAndGrowth) {
  common::RingBuffer<int> ring;
  EXPECT_TRUE(ring.empty());
  // Net +1 element per round: the head index laps the storage repeatedly
  // while the buffer also grows through several capacity doublings.
  int next_push = 0;
  int next_pop = 0;
  for (int round = 0; round < 100; ++round) {
    ring.push_back(next_push++);
    ring.push_back(next_push++);
    EXPECT_EQ(ring.front(), next_pop);
    ring.pop_front();
    ++next_pop;
  }
  ASSERT_EQ(ring.size(), 100u);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i], next_pop + static_cast<int>(i));
  }
  EXPECT_EQ(ring.back(), next_push - 1);
  ring.clear();
  EXPECT_TRUE(ring.empty());
}

TEST(RingBuffer, PopReleasesElementResourcesImmediately) {
  // The channel parks payload-holding elements in rings; a popped slot must
  // drop its resources at pop time (so pooled payload blocks recycle), not
  // when the slot happens to be overwritten.
  common::RingBuffer<std::shared_ptr<int>> ring;
  auto p = std::make_shared<int>(7);
  ring.push_back(p);
  EXPECT_EQ(p.use_count(), 2);
  ring.pop_front();
  EXPECT_EQ(p.use_count(), 1) << "slot must be reset at pop time";
}

TEST(RingBuffer, EmplaceBackHandsOutResetSlots) {
  // The channel fills its output slot in place; the slot it gets must be
  // T() whether it is fresh, recycled by a pop, or moved by a growth.
  common::RingBuffer<std::string> ring;
  for (int i = 0; i < 40; ++i) {
    std::string& slot = ring.emplace_back();
    EXPECT_TRUE(slot.empty()) << "slot " << i;
    slot = "payload-" + std::to_string(i);
    if (i % 3 == 0) ring.pop_front();
  }
  ASSERT_EQ(ring.size(), 26u);
  EXPECT_EQ(ring.front(), "payload-14");
  EXPECT_EQ(ring.back(), "payload-39");
}

TEST(RingBuffer, ResizeDefaultFillsAndSteadyStateStopsAllocating) {
  common::RingBuffer<std::uint32_t> ring;
  ring.resize(5);  // the reorder-window idiom
  ASSERT_EQ(ring.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(ring[i], 0u);
  ring.clear();

  // Flow-through at a bounded occupancy: once grown to the high-water
  // mark, the ring never touches the allocator again (the property that
  // lets channel buffers sit on the zero-allocation delivery path). One
  // warm push/pop first — the loop peaks at 17 elements, one above the
  // resting occupancy, and that high-water growth is part of warmup.
  for (std::uint32_t i = 0; i < 16; ++i) ring.push_back(i);
  ring.push_back(16);
  ring.pop_front();
  const std::size_t allocs_before = test::alloc_count();
  for (std::uint32_t i = 0; i < 10000; ++i) {
    ring.push_back(i);
    ring.pop_front();
  }
  EXPECT_EQ(test::alloc_count() - allocs_before, 0u);
  EXPECT_EQ(ring.size(), 16u);
}

/// A SmallVector case: element type, inline capacity and the i-th value.
template <typename T, std::size_t Inline>
struct SmallVectorCase {
  using Vec = common::SmallVector<T, Inline>;
  static constexpr std::size_t kInline = Inline;
  static T value(std::size_t i);
};

template <>
std::uint8_t SmallVectorCase<std::uint8_t, 64>::value(std::size_t i) {
  return static_cast<std::uint8_t>(7 * i + 1);
}

template <>
protocol::Stamp SmallVectorCase<protocol::Stamp, 8>::value(std::size_t i) {
  return {AtomId(static_cast<std::uint32_t>(i)), 3 * i + 1};
}

template <typename Case>
class SmallVectorTest : public ::testing::Test {
 protected:
  using Vec = typename Case::Vec;
  using T = typename Vec::value_type;
  static constexpr std::size_t kN = Case::kInline;

  static std::vector<T> values(std::size_t count, std::size_t offset = 0) {
    std::vector<T> out;
    for (std::size_t i = 0; i < count; ++i) {
      out.push_back(Case::value(i + offset));
    }
    return out;
  }

  static Vec filled(std::size_t count, std::size_t offset = 0) {
    const std::vector<T> src = values(count, offset);
    Vec v;
    v.assign(src.data(), src.data() + src.size());
    return v;
  }

  static void expect_holds(const Vec& v, const std::vector<T>& want) {
    ASSERT_EQ(v.size(), want.size());
    EXPECT_EQ(v.empty(), want.empty());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(v[i] == want[i]) << "element " << i;
    }
  }
};

using SmallVectorCases =
    ::testing::Types<SmallVectorCase<std::uint8_t, 64>,
                     SmallVectorCase<protocol::Stamp, 8>>;
TYPED_TEST_SUITE(SmallVectorTest, SmallVectorCases);

TYPED_TEST(SmallVectorTest, AssignsPointerRanges) {
  using Vec = typename TestFixture::Vec;
  constexpr std::size_t n = TestFixture::kN;
  const auto src = TestFixture::values(3 * n);
  for (const std::size_t count : {std::size_t{0}, std::size_t{1}, n - 1, n,
                                  n + 1, 3 * n}) {
    SCOPED_TRACE("count " + std::to_string(count));
    Vec v;
    v.assign(src.data(), src.data() + count);
    TestFixture::expect_holds(
        v, {src.begin(), src.begin() + static_cast<std::ptrdiff_t>(count)});
    EXPECT_EQ(v.is_inline(), count <= n);
    // Refill the same vector from another offset.
    v.assign(src.data() + 1, src.data() + 1 + count / 2);
    TestFixture::expect_holds(
        v, {src.begin() + 1,
            src.begin() + 1 + static_cast<std::ptrdiff_t>(count / 2)});
  }
  // An empty std::vector's data() may be null; the copy must not pass it on.
  const std::vector<typename TestFixture::T> none;
  Vec v = TestFixture::filled(2);
  v.assign(none.data(), none.data());
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(v.is_inline());
}

TYPED_TEST(SmallVectorTest, CopiesInlineAndSpilled) {
  using Vec = typename TestFixture::Vec;
  constexpr std::size_t n = TestFixture::kN;
  for (const std::size_t count : {n, 3 * n}) {
    SCOPED_TRACE("count " + std::to_string(count));
    const auto want = TestFixture::values(count);
    const Vec source = TestFixture::filled(count);
    const Vec copied(source);
    TestFixture::expect_holds(copied, want);
    EXPECT_EQ(copied.is_inline(), count <= n);
    TestFixture::expect_holds(source, want);
    EXPECT_TRUE(copied == source);

    Vec assigned = TestFixture::filled(1, 100);
    assigned = source;
    TestFixture::expect_holds(assigned, want);
    Vec& alias = assigned;
    assigned = alias;  // self-assignment keeps the contents
    TestFixture::expect_holds(assigned, want);
  }
  // A shorter vector assigned into a spilled one keeps the heap block.
  Vec spilled = TestFixture::filled(3 * n);
  const std::size_t capacity = spilled.capacity();
  const Vec shorter = TestFixture::filled(2, 50);
  spilled = shorter;
  TestFixture::expect_holds(spilled, TestFixture::values(2, 50));
  EXPECT_FALSE(spilled.is_inline());
  EXPECT_EQ(spilled.capacity(), capacity);
}

TYPED_TEST(SmallVectorTest, MovesInlineAndSpilled) {
  using Vec = typename TestFixture::Vec;
  constexpr std::size_t n = TestFixture::kN;
  for (const std::size_t count : {std::size_t{0}, n - 1, n, 3 * n}) {
    SCOPED_TRACE("count " + std::to_string(count));
    const auto want = TestFixture::values(count);

    Vec source = TestFixture::filled(count);
    const auto* heap = source.is_inline() ? nullptr : source.data();
    Vec moved(std::move(source));
    TestFixture::expect_holds(moved, want);
    EXPECT_EQ(moved.is_inline(), count <= n);
    if (heap != nullptr) {
      EXPECT_EQ(moved.data(), heap) << "the heap block is stolen";
    }
    EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(source.is_inline());

    // Move-assign into a spilled vector, then refill the moved-from one.
    Vec target = TestFixture::filled(3 * n, 200);
    target = std::move(moved);
    TestFixture::expect_holds(target, want);
    EXPECT_EQ(target.is_inline(), count <= n);
    EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(moved.is_inline());
    moved = TestFixture::filled(n + 1, 300);
    TestFixture::expect_holds(moved, TestFixture::values(n + 1, 300));
  }
}

TEST(Stats, SummaryFields) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
}

}  // namespace
}  // namespace decseq
