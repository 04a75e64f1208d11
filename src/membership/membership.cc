#include "membership/membership.h"

#include <algorithm>

namespace decseq::membership {

GroupId GroupMembership::add_group(std::vector<NodeId> members) {
  // A group exists because a subscriber registered its subscription (§3.2);
  // an empty group cannot exist.
  DECSEQ_CHECK_MSG(!members.empty(), "group must have at least one member");
  std::sort(members.begin(), members.end());
  DECSEQ_CHECK_MSG(
      std::adjacent_find(members.begin(), members.end()) == members.end(),
      "duplicate member in group");
  for (const NodeId m : members) {
    DECSEQ_CHECK_MSG(m.valid() && m.value() < num_nodes_,
                     "member " << m << " out of range");
  }
  const GroupId g(static_cast<GroupId::underlying_type>(groups_.size()));
  // New ids are strictly increasing, so appending keeps every inverted row
  // sorted.
  for (const NodeId m : members) node_subs_[m.value()].push_back(g);
  groups_.push_back({std::move(members), /*alive=*/true});
  ++live_groups_;
  return g;
}

void GroupMembership::remove_group(GroupId g) {
  DECSEQ_CHECK(is_alive(g));
  for (const NodeId m : groups_[g.value()].members) {
    auto& subs = node_subs_[m.value()];
    subs.erase(std::lower_bound(subs.begin(), subs.end(), g));
  }
  groups_[g.value()].members.clear();
  groups_[g.value()].alive = false;
  --live_groups_;
}

void GroupMembership::add_member(GroupId g, NodeId node) {
  DECSEQ_CHECK(is_alive(g));
  DECSEQ_CHECK(node.valid() && node.value() < num_nodes_);
  auto& members = groups_[g.value()].members;
  const auto it = std::lower_bound(members.begin(), members.end(), node);
  DECSEQ_CHECK_MSG(it == members.end() || *it != node,
                   "node " << node << " already in group " << g);
  members.insert(it, node);
  auto& subs = node_subs_[node.value()];
  subs.insert(std::lower_bound(subs.begin(), subs.end(), g), g);
}

void GroupMembership::remove_member(GroupId g, NodeId node) {
  DECSEQ_CHECK(is_alive(g));
  auto& members = groups_[g.value()].members;
  const auto it = std::lower_bound(members.begin(), members.end(), node);
  DECSEQ_CHECK_MSG(it != members.end() && *it == node,
                   "node " << node << " not in group " << g);
  members.erase(it);
  auto& subs = node_subs_[node.value()];
  subs.erase(std::lower_bound(subs.begin(), subs.end(), g));
  if (members.empty()) {
    groups_[g.value()].alive = false;
    --live_groups_;
  }
}

const std::vector<NodeId>& GroupMembership::members(GroupId g) const {
  return slot(g).members;
}

bool GroupMembership::is_member(GroupId g, NodeId node) const {
  const auto& m = slot(g).members;
  if (!in_range(node)) return false;
  // Binary-search whichever side is shorter: a node's subscription list is
  // usually far shorter than a popular group's member list.
  const auto& subs = node_subs_[node.value()];
  if (subs.size() < m.size()) {
    return std::binary_search(subs.begin(), subs.end(), g);
  }
  return std::binary_search(m.begin(), m.end(), node);
}

std::vector<GroupId> GroupMembership::groups_of(NodeId node) const {
  if (!in_range(node)) return {};
  return node_subs_[node.value()];
}

std::vector<GroupId> GroupMembership::live_groups() const {
  std::vector<GroupId> result;
  result.reserve(live_groups_);
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    if (groups_[i].alive) {
      result.push_back(GroupId(static_cast<GroupId::underlying_type>(i)));
    }
  }
  return result;
}

std::vector<NodeId> GroupMembership::intersect(GroupId a, GroupId b) const {
  std::vector<NodeId> out;
  intersect(a, b, out);
  return out;
}

void GroupMembership::intersect(GroupId a, GroupId b,
                                std::vector<NodeId>& out) const {
  const auto& ma = slot(a).members;
  const auto& mb = slot(b).members;
  const auto& small = ma.size() <= mb.size() ? ma : mb;
  const auto& large = ma.size() <= mb.size() ? mb : ma;
  out.clear();
  // Skewed sizes (a hot group vs a niche one): probing the large side per
  // small member costs small*log(large) instead of a small+large merge.
  if (large.size() / 16 > small.size()) {
    for (const NodeId n : small) {
      if (std::binary_search(large.begin(), large.end(), n)) out.push_back(n);
    }
    return;
  }
  std::set_intersection(ma.begin(), ma.end(), mb.begin(), mb.end(),
                        std::back_inserter(out));
}

std::size_t GroupMembership::subscription_count(NodeId node) const {
  return in_range(node) ? node_subs_[node.value()].size() : 0;
}

std::size_t GroupMembership::memory_bytes() const {
  std::size_t total = groups_.capacity() * sizeof(Slot) +
                      node_subs_.capacity() * sizeof(std::vector<GroupId>);
  for (const Slot& s : groups_) total += s.members.capacity() * sizeof(NodeId);
  for (const auto& subs : node_subs_) {
    total += subs.capacity() * sizeof(GroupId);
  }
  return total;
}

}  // namespace decseq::membership
