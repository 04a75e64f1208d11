#include "membership/overlap.h"

#include <algorithm>
#include <limits>
#include <type_traits>
#include <utility>

namespace decseq::membership {

OverlapIndex::OverlapIndex(const GroupMembership& membership)
    : OverlapIndex(OverlapIndex(), membership, membership.live_groups()) {}

OverlapIndex::OverlapIndex(const OverlapIndex& previous,
                           const GroupMembership& membership,
                           const std::vector<GroupId>& dirty) {
  build_delta(previous, membership, dirty);
  release_build_state();
}

void OverlapIndex::release_build_state() {
  scratch_ = Scratch{};
  overlaps_.shrink_to_fit();
}

void OverlapIndex::rebuild_delta(OverlapIndex& previous,
                                 const GroupMembership& membership,
                                 const std::vector<GroupId>& dirty) {
  DECSEQ_CHECK(&previous != this);
  build_delta(previous, membership, dirty);
}

template <typename Previous>
void OverlapIndex::build_delta(Previous& previous,
                               const GroupMembership& membership,
                               const std::vector<GroupId>& dirty) {
  constexpr bool kMove = !std::is_const_v<Previous>;
  const std::size_t slots = membership.num_group_slots();
  stats_ = BuildStats{};
  overlaps_.clear();
  by_group_.resize(slots);
  for (auto& list : by_group_) list.clear();
  component_of_.assign(slots, std::numeric_limits<std::size_t>::max());

  std::vector<char>& is_dirty = scratch_.dirty;
  is_dirty.assign(slots, 0);
  for (const GroupId g : dirty) {
    if (g.valid() && g.value() < slots) is_dirty[g.value()] = 1;
  }

  // Survivors: overlaps touching no dirty group carry over verbatim —
  // neither endpoint's membership changed, so the pair and its shared
  // member list are unchanged. (Endpoints of `previous` overlaps always
  // fit the new slot table: slots are never reused.) Moving, the dropped
  // overlaps' lists become spares for the recomputed ones.
  for (auto& o : previous.overlaps_) {
    if (is_dirty[o.first.value()] || is_dirty[o.second.value()]) {
      if constexpr (kMove) {
        scratch_.spare_members.push_back(std::move(o.members));
      }
      continue;
    }
    if constexpr (kMove) {
      overlaps_.push_back(std::move(o));
    } else {
      overlaps_.push_back(o);
    }
    ++stats_.delta_copied;
  }

  // Recompute each dirty live group's overlaps from the inverted index:
  // count co-subscriptions of its members, confirm pairs with >= 2 shared
  // nodes. A group counted before this one (2) already counted their
  // co-subscriptions, so it is skipped: each pair is found once, and a
  // build from empty counts Σ_node k_node·(k_node-1)/2 increments.
  std::vector<std::uint32_t>& count = scratch_.count;
  std::vector<std::uint32_t>& touched = scratch_.touched;
  if (count.size() < slots) count.resize(slots, 0);
  for (const GroupId d : dirty) {
    if (!d.valid() || !membership.is_alive(d)) continue;
    if (is_dirty[d.value()] == 2) continue;  // duplicate dirty entry
    is_dirty[d.value()] = 2;
    touched.clear();
    for (const NodeId n : membership.members(d)) {
      for (const GroupId g : membership.subscriptions(n)) {
        if (is_dirty[g.value()] == 2) continue;  // d itself, or counted
        if (count[g.value()]++ == 0) touched.push_back(g.value());
        ++stats_.pair_increments;
      }
    }
    stats_.candidate_pairs += touched.size();
    for (const std::uint32_t other_slot : touched) {
      const std::uint32_t shared = count[other_slot];
      count[other_slot] = 0;
      if (shared < 2) continue;
      const GroupId other(static_cast<GroupId::underlying_type>(other_slot));
      const GroupId a = d.value() < other_slot ? d : other;
      const GroupId b = d.value() < other_slot ? other : d;
      std::vector<NodeId> members;
      if (!scratch_.spare_members.empty()) {
        members = std::move(scratch_.spare_members.back());
        scratch_.spare_members.pop_back();
      }
      members.reserve(shared);
      membership.intersect(a, b, members);
      DECSEQ_CHECK(members.size() == shared);
      overlaps_.push_back({a, b, std::move(members)});
      ++stats_.delta_recomputed;
    }
  }

  // Restore the fresh build's (first, second) order; survivors and
  // recomputed pairs are disjoint sets, so this is a pure reordering.
  std::sort(overlaps_.begin(), overlaps_.end(),
            [](const Overlap& x, const Overlap& y) {
              if (x.first != y.first) return x.first.value() < y.first.value();
              return x.second.value() < y.second.value();
            });
  build_adjacency_and_components(membership);
}

void OverlapIndex::build_adjacency_and_components(
    const GroupMembership& membership) {
  for (std::size_t idx = 0; idx < overlaps_.size(); ++idx) {
    by_group_[overlaps_[idx].first.value()].push_back(idx);
    by_group_[overlaps_[idx].second.value()].push_back(idx);
  }

  // Connected components over the group overlap graph via union-find-free
  // BFS (the graph is small relative to the overlap list), in slot order.
  // A group is visited once it has a component; the previous components'
  // lists are refilled.
  for (auto& component : components_) {
    component.clear();
    scratch_.spare_components.push_back(std::move(component));
  }
  components_.clear();
  constexpr std::size_t kUnvisited = std::numeric_limits<std::size_t>::max();
  std::vector<GroupId>& frontier = scratch_.frontier;
  for (std::size_t s = 0; s < membership.num_group_slots(); ++s) {
    const GroupId g(static_cast<GroupId::underlying_type>(s));
    if (!membership.is_alive(g) || component_of_[s] != kUnvisited ||
        by_group_[s].empty()) {
      continue;
    }
    std::vector<GroupId> component;
    if (!scratch_.spare_components.empty()) {
      component = std::move(scratch_.spare_components.back());
      scratch_.spare_components.pop_back();
    }
    const std::size_t c = components_.size();
    frontier.assign(1, g);
    component_of_[s] = c;
    while (!frontier.empty()) {
      const GroupId cur = frontier.back();
      frontier.pop_back();
      component.push_back(cur);
      for (const std::size_t idx : by_group_[cur.value()]) {
        const GroupId next = overlaps_[idx].other(cur);
        if (component_of_[next.value()] == kUnvisited) {
          component_of_[next.value()] = c;
          frontier.push_back(next);
        }
      }
    }
    components_.push_back(std::move(component));
  }
}

const std::vector<std::size_t>& OverlapIndex::overlaps_of(GroupId g) const {
  DECSEQ_CHECK(g.valid());
  if (g.value() >= by_group_.size()) return empty_;
  return by_group_[g.value()];
}

std::size_t OverlapIndex::component_of(GroupId g) const {
  DECSEQ_CHECK(g.valid() && g.value() < component_of_.size());
  return component_of_[g.value()];
}

std::size_t OverlapIndex::memory_bytes() const {
  std::size_t total = overlaps_.capacity() * sizeof(Overlap) +
                      by_group_.capacity() * sizeof(std::vector<std::size_t>) +
                      components_.capacity() * sizeof(std::vector<GroupId>) +
                      component_of_.capacity() * sizeof(std::size_t);
  for (const Overlap& o : overlaps_) {
    total += o.members.capacity() * sizeof(NodeId);
  }
  for (const auto& list : by_group_) {
    total += list.capacity() * sizeof(std::size_t);
  }
  for (const auto& component : components_) {
    total += component.capacity() * sizeof(GroupId);
  }
  total += scratch_.dirty.capacity() +
           (scratch_.count.capacity() + scratch_.touched.capacity()) *
               sizeof(std::uint32_t) +
           scratch_.frontier.capacity() * sizeof(GroupId) +
           scratch_.spare_members.capacity() * sizeof(std::vector<NodeId>) +
           scratch_.spare_components.capacity() *
               sizeof(std::vector<GroupId>);
  for (const auto& list : scratch_.spare_members) {
    total += list.capacity() * sizeof(NodeId);
  }
  for (const auto& list : scratch_.spare_components) {
    total += list.capacity() * sizeof(GroupId);
  }
  return total;
}

}  // namespace decseq::membership
