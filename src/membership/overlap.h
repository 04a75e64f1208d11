// Double-overlap index.
//
// The paper's core insight (§1, §3): only messages to groups that share two
// or more subscribers can be observed to arrive out of order, so one
// sequencing atom per *double-overlapped pair of groups* suffices. This
// module computes those pairs, their shared members, the group-level
// overlap graph, and its connected components (groups in different
// components never need mutual ordering).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "membership/membership.h"

namespace decseq::membership {

/// One double overlap: an unordered pair of groups sharing >= 2 members.
struct Overlap {
  GroupId first;                 ///< smaller GroupId of the pair
  GroupId second;                ///< larger GroupId of the pair
  std::vector<NodeId> members;   ///< sorted shared subscribers (size >= 2)

  [[nodiscard]] bool involves(GroupId g) const {
    return g == first || g == second;
  }
  [[nodiscard]] GroupId other(GroupId g) const {
    DECSEQ_CHECK(involves(g));
    return g == first ? second : first;
  }
};

/// How the index is built.
enum class OverlapBuild {
  /// The delta build run from an empty index with every live group dirty:
  /// each group counts its co-subscriptions over the inverted node→groups
  /// index, skipping groups already counted, so cost is
  /// O(Σ_node k_node²) on the co-subscription structure — independent of
  /// the host universe — and shared-member lists are materialized only for
  /// the confirmed double overlaps. Scales to 1M hosts × 100k groups.
  kDeltaFromEmpty,
  /// The original materialized pairwise product: one bitset per group,
  /// every pair intersected — O(G² · N/64). Retained as the differential
  /// oracle for tests and as the scale bench's reference.
  kMaterializedReference,
};

/// Index over all double overlaps of a membership snapshot. Both build
/// modes produce identical results (same overlaps in the same order, same
/// shared-member lists, same components) — asserted by a differential
/// property test.
class OverlapIndex {
 public:
  /// An empty index over no groups: the previous index of a full build,
  /// and a target for rebuild_delta().
  OverlapIndex() = default;
  explicit OverlapIndex(const GroupMembership& membership,
                        OverlapBuild mode = OverlapBuild::kDeltaFromEmpty);

  /// Delta rebuild: recompute only the overlaps incident to `dirty` groups,
  /// carrying every other overlap over from `previous` verbatim (a group's
  /// overlaps and shared-member lists can only change when its own
  /// membership does). `membership` is the post-change table; `previous`
  /// must have been built against the same table before the dirty groups
  /// changed. Produces an index identical to a fresh build — same overlaps
  /// in the same order, same members, same components (asserted by a
  /// differential test) — at cost O(E + Σ_{n ∈ members(dirty)} k_n). A
  /// full build is this delta from an empty index with every live group
  /// dirty.
  OverlapIndex(const OverlapIndex& previous, const GroupMembership& membership,
               const std::vector<GroupId>& dirty);

  /// The delta rebuild in place: make this index the delta of `previous`
  /// (as the constructor above does), reusing this index's own lists and
  /// scratch, and moving each surviving overlap's member list out of
  /// `previous` instead of copying it. `previous` keeps its pairs, its
  /// adjacency and its components — all a graph delta reads of the old
  /// index — but loses its member lists. A caller that alternates two
  /// indexes (build into the spare, swap) allocates only for the
  /// recomputed overlaps once both have grown.
  void rebuild_delta(OverlapIndex& previous, const GroupMembership& membership,
                     const std::vector<GroupId>& dirty);

  [[nodiscard]] std::size_t num_overlaps() const { return overlaps_.size(); }
  [[nodiscard]] const std::vector<Overlap>& overlaps() const {
    return overlaps_;
  }
  [[nodiscard]] const Overlap& overlap(std::size_t i) const {
    DECSEQ_CHECK(i < overlaps_.size());
    return overlaps_[i];
  }

  /// Indices (into overlaps()) of every overlap involving group g.
  [[nodiscard]] const std::vector<std::size_t>& overlaps_of(GroupId g) const;

  /// True if g participates in at least one double overlap.
  [[nodiscard]] bool has_overlaps(GroupId g) const {
    return !overlaps_of(g).empty();
  }

  /// Connected components of the group overlap graph (vertices: live groups
  /// with >= 1 overlap; edges: double overlaps). Groups without overlaps are
  /// not listed — they need only an ingress-only sequencer.
  [[nodiscard]] const std::vector<std::vector<GroupId>>& components() const {
    return components_;
  }

  /// Component index of a group, or SIZE_MAX if it has no overlaps.
  [[nodiscard]] std::size_t component_of(GroupId g) const;

  /// Build instrumentation (delta builds; zeros for the reference build).
  /// Each co-subscription involving a dirty group is counted once, from
  /// whichever of its two groups is counted first, so a full build reads
  /// pair_increments = Σ_node k_node·(k_node-1)/2 and candidate_pairs =
  /// the distinct co-subscribed group pairs.
  struct BuildStats {
    std::size_t candidate_pairs = 0;  ///< distinct co-subscribed pairs counted
    std::size_t pair_increments = 0;  ///< co-subscriptions counted
    std::size_t delta_copied = 0;     ///< overlaps carried over
    std::size_t delta_recomputed = 0; ///< overlaps recomputed
  };
  [[nodiscard]] const BuildStats& build_stats() const { return stats_; }

  /// Heap bytes held by the index (overlap lists, adjacency, components,
  /// and the delta scratch of an index rebuilt in place).
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  void build_reference(const GroupMembership& membership);
  /// The one delta implementation: `Previous` is `const OverlapIndex`
  /// (survivors are copied) or `OverlapIndex` (survivors are moved).
  template <typename Previous>
  void build_delta(Previous& previous, const GroupMembership& membership,
                   const std::vector<GroupId>& dirty);
  void build_adjacency_and_components(const GroupMembership& membership);
  /// The constructors build once, and nothing rebuilds their index in
  /// place (rebuild_delta() does that), so they keep neither the delta
  /// scratch nor the overlap list's growth slack.
  void release_build_state();

  std::vector<Overlap> overlaps_;
  std::vector<std::vector<std::size_t>> by_group_;  // slot-indexed
  std::vector<std::vector<GroupId>> components_;
  std::vector<std::size_t> component_of_;           // slot-indexed
  std::vector<std::size_t> empty_;
  BuildStats stats_;
  /// Delta-build scratch, kept so an index rebuilt in place
  /// (rebuild_delta()) reuses it: per-slot dirty marks (2: dirty and
  /// counted) and co-subscription counts with the slots they touched, the
  /// BFS frontier, and spare member and component lists to refill. The
  /// constructors build once and release it (release_build_state()).
  struct Scratch {
    std::vector<char> dirty;
    std::vector<std::uint32_t> count;
    std::vector<std::uint32_t> touched;
    std::vector<GroupId> frontier;
    std::vector<std::vector<NodeId>> spare_members;
    std::vector<std::vector<GroupId>> spare_components;
  };
  Scratch scratch_;
};

}  // namespace decseq::membership
