// The group membership matrix: which end hosts subscribe to which groups.
//
// The paper assumes this matrix is globally known (kept in a DHT or provided
// by the pub/sub layer, §3); graph construction and placement read it
// directly. Members are kept sorted so intersections and subset tests are
// linear merges. Alongside the group→members rows an inverted node→groups
// index is maintained incrementally, so per-node queries (groups_of,
// subscription_count) cost O(k_node) instead of scanning every group slot —
// at 100k-group scale the difference between microseconds and seconds — and
// the overlap index can stream co-subscription pairs straight off it.
#pragma once

#include <cstddef>
#include <vector>

#include "common/check.h"
#include "common/ids.h"

namespace decseq::membership {

/// Immutable-by-convention snapshot of group memberships. Groups have dense
/// ids [0, num_groups); removing a group leaves a tombstone (empty member
/// list flagged dead) so existing GroupIds stay stable, matching the lazy
/// retirement story in §3.2.
class GroupMembership {
 public:
  explicit GroupMembership(std::size_t num_nodes)
      : num_nodes_(num_nodes), node_subs_(num_nodes) {}

  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }
  /// Total group slots, including dead ones (iterate with is_alive()).
  [[nodiscard]] std::size_t num_group_slots() const { return groups_.size(); }
  /// Number of live groups.
  [[nodiscard]] std::size_t num_groups() const { return live_groups_; }

  /// Create a group with the given members (need not be sorted; duplicates
  /// are rejected). Returns its id.
  GroupId add_group(std::vector<NodeId> members);

  /// Delete a group. Its id becomes dead; members are dropped.
  void remove_group(GroupId g);

  /// Add one subscriber to an existing group.
  void add_member(GroupId g, NodeId node);

  /// Remove one subscriber; removing the last member kills the group
  /// (paper §3.2: a group with no subscribers is deleted).
  void remove_member(GroupId g, NodeId node);

  [[nodiscard]] bool is_alive(GroupId g) const {
    return g.valid() && g.value() < groups_.size() && groups_[g.value()].alive;
  }

  /// Sorted member list of a live group.
  [[nodiscard]] const std::vector<NodeId>& members(GroupId g) const;

  [[nodiscard]] bool is_member(GroupId g, NodeId node) const;

  /// All live groups that `node` subscribes to.
  [[nodiscard]] std::vector<GroupId> groups_of(NodeId node) const;

  /// Same as groups_of, as a reference into the maintained inverted index
  /// (sorted ascending, live groups only) — no per-call allocation. The
  /// reference is invalidated by any mutation; `node` must be in range.
  [[nodiscard]] const std::vector<GroupId>& subscriptions(NodeId node) const {
    DECSEQ_CHECK(node.valid() && node.value() < num_nodes_);
    return node_subs_[node.value()];
  }

  /// All live group ids.
  [[nodiscard]] std::vector<GroupId> live_groups() const;

  /// Sorted intersection of two groups' member lists.
  [[nodiscard]] std::vector<NodeId> intersect(GroupId a, GroupId b) const;
  /// The same, written over `out` (its capacity is reused).
  void intersect(GroupId a, GroupId b, std::vector<NodeId>& out) const;

  /// Number of live groups `node` subscribes to (its receive fan-in is
  /// proportional to this — the receiver-load bound in the scalability
  /// argument of §1.2).
  [[nodiscard]] std::size_t subscription_count(NodeId node) const;

  /// Heap bytes held by the matrix (forward rows + inverted index); the
  /// scale bench's bytes-per-subscription accounting.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  struct Slot {
    std::vector<NodeId> members;  // sorted
    bool alive = false;
  };

  const Slot& slot(GroupId g) const {
    DECSEQ_CHECK_MSG(is_alive(g), "group " << g << " is not alive");
    return groups_[g.value()];
  }

  /// True iff `node` indexes a row of the inverted index.
  [[nodiscard]] bool in_range(NodeId node) const {
    return node.valid() && node.value() < num_nodes_;
  }

  std::size_t num_nodes_;
  std::size_t live_groups_ = 0;
  std::vector<Slot> groups_;
  /// Inverted index: per-node sorted list of live groups it subscribes to.
  std::vector<std::vector<GroupId>> node_subs_;
};

}  // namespace decseq::membership
