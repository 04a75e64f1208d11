// Golden property test for the overlap index.
//
// The build — the delta from an empty index with every live group dirty
// (per-group co-subscription counting over the inverted index, shared
// members materialized for confirmed pairs only) — must give exactly the
// overlaps, order, shared-member lists, adjacency and components that a
// brute-force reference (a bitset per group, every pair intersected) gave
// on the same memberships. That reference ran beside the build until its
// answer was recorded as one digest (pubsub/epoch_digest.h); the test now
// compares with the recording. 200 seeded random memberships cover dead
// groups (tombstoned and drained), singleton overlaps (one shared member —
// not a double overlap), and disconnected overlap components.
#include <gtest/gtest.h>

#include <vector>

#include "common/fnv1a.h"
#include "common/rng.h"
#include "membership/generators.h"
#include "membership/membership.h"
#include "membership/overlap.h"
#include "pubsub/epoch_digest.h"

namespace decseq::membership {
namespace {

/// The overlap layer of all 200 seeds below, folded in order, as the
/// brute-force reference built it. Regenerate only for a deliberate change
/// of the overlap build.
constexpr std::uint64_t kOverlapDigest = 0x81b615418ae856f2ULL;

GroupMembership random_membership(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t num_nodes = 4 + rng.next_below(60);
  GroupMembership m(num_nodes);

  // A few disjoint node clusters force disconnected overlap components;
  // groups drawn within one cluster can never overlap another's.
  const std::size_t num_clusters = 1 + rng.next_below(3);
  const std::size_t num_groups = 2 + rng.next_below(24);
  std::vector<GroupId> created;
  for (std::size_t g = 0; g < num_groups; ++g) {
    const std::size_t cluster = rng.next_below(num_clusters);
    const std::size_t lo = cluster * num_nodes / num_clusters;
    const std::size_t hi = (cluster + 1) * num_nodes / num_clusters;
    std::vector<NodeId> members;
    for (std::size_t n = lo; n < hi; ++n) {
      // High enough that double overlaps are common, low enough that
      // singleton overlaps (exactly one shared member) also appear.
      if (rng.next_bool(0.4)) {
        members.push_back(NodeId(static_cast<NodeId::underlying_type>(n)));
      }
    }
    if (members.empty()) continue;
    created.push_back(m.add_group(std::move(members)));
  }

  // Tombstone some groups two ways: remove_group, and draining members one
  // by one until the last leave kills the group.
  for (const GroupId g : created) {
    if (!m.is_alive(g)) continue;
    const double dice = rng.next_double();
    if (dice < 0.15) {
      m.remove_group(g);
    } else if (dice < 0.25) {
      while (m.is_alive(g)) m.remove_member(g, m.members(g).front());
    }
  }
  return m;
}

TEST(OverlapDifferential, DeltaFromEmptyMatchesBruteForceOn200Seeds) {
  std::size_t total_overlaps = 0, total_singletons = 0, multi_component = 0,
              dead_slots = 0;
  std::uint64_t digest = kFnvOffsetBasis;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const GroupMembership m = random_membership(seed);
    const OverlapIndex built(m);
    digest = pubsub::fold_overlaps(digest, built, m);

    // The digest names no seed; these invariants do. Every listed overlap
    // shares two or more members, every live pair that does is listed, and
    // a dead group has no overlaps.
    for (const Overlap& o : built.overlaps()) {
      ASSERT_GE(o.members.size(), 2u) << "seed " << seed;
    }
    const std::vector<GroupId> live = m.live_groups();
    std::size_t doubles = 0;
    for (std::size_t i = 0; i < live.size(); ++i) {
      for (std::size_t j = i + 1; j < live.size(); ++j) {
        const std::size_t shared = m.intersect(live[i], live[j]).size();
        doubles += shared >= 2;
        total_singletons += shared == 1;
      }
    }
    ASSERT_EQ(built.num_overlaps(), doubles) << "seed " << seed;
    for (std::size_t slot = 0; slot < m.num_group_slots(); ++slot) {
      const GroupId g(static_cast<GroupId::underlying_type>(slot));
      if (!m.is_alive(g)) {
        ++dead_slots;
        ASSERT_TRUE(built.overlaps_of(g).empty()) << "seed " << seed;
      }
    }

    // Coverage accounting so the generator can't silently degenerate.
    total_overlaps += built.num_overlaps();
    if (built.components().size() > 1) ++multi_component;
  }
  EXPECT_GT(total_overlaps, 1000u) << "workload must produce real overlaps";
  EXPECT_GT(total_singletons, 100u)
      << "workload must exercise singleton (non-double) overlaps";
  EXPECT_GT(multi_component, 20u)
      << "workload must exercise disconnected components";
  EXPECT_GT(dead_slots, 100u) << "workload must exercise tombstoned groups";
  EXPECT_EQ(digest, kOverlapDigest);
}

TEST(OverlapDifferential, DeltaFromEmptyCountsEachCoSubscriptionOnce) {
  Rng rng(7);
  const auto m = zipf_membership({.num_nodes = 256, .num_groups = 64}, rng);
  const OverlapIndex idx(m);
  const auto& stats = idx.build_stats();

  // Each co-subscription is counted from one of its two groups only, so
  // pair_increments is exactly Σ_node k_node·(k_node-1)/2 (counting a pair
  // of dirty groups from both sides would double it), and candidate_pairs
  // is exactly the number of distinct group pairs sharing a member.
  std::size_t increments = 0;
  for (std::size_t n = 0; n < m.num_nodes(); ++n) {
    const std::size_t k =
        m.subscriptions(NodeId(static_cast<NodeId::underlying_type>(n)))
            .size();
    increments += k * (k - 1) / 2;
  }
  std::size_t co_subscribed = 0;
  const auto live = m.live_groups();
  for (std::size_t i = 0; i < live.size(); ++i) {
    for (std::size_t j = i + 1; j < live.size(); ++j) {
      if (!m.intersect(live[i], live[j]).empty()) ++co_subscribed;
    }
  }
  EXPECT_GT(increments, 0u);
  EXPECT_EQ(stats.pair_increments, increments);
  EXPECT_EQ(stats.candidate_pairs, co_subscribed);
  EXPECT_GT(stats.candidate_pairs, idx.num_overlaps());
  EXPECT_EQ(stats.delta_recomputed, idx.num_overlaps());
  EXPECT_EQ(stats.delta_copied, 0u);
}

}  // namespace
}  // namespace decseq::membership
