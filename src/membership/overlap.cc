#include "membership/overlap.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/bitset.h"
#include "common/pair_map.h"

namespace decseq::membership {

namespace {

/// Threshold above which a group's member list is worth compiling into a
/// rank/select row for O(1) probing (instead of per-pair binary searches).
constexpr std::size_t kProbeRowThreshold = 512;

}  // namespace

OverlapIndex::OverlapIndex(const GroupMembership& membership,
                           OverlapBuild mode) {
  by_group_.resize(membership.num_group_slots());
  component_of_.assign(membership.num_group_slots(),
                       std::numeric_limits<std::size_t>::max());
  if (mode == OverlapBuild::kStreaming) {
    build_streaming(membership);
  } else {
    build_reference(membership);
  }
  build_adjacency_and_components(membership);
}

OverlapIndex::OverlapIndex(const OverlapIndex& previous,
                           const GroupMembership& membership,
                           const std::vector<GroupId>& dirty) {
  by_group_.resize(membership.num_group_slots());
  component_of_.assign(membership.num_group_slots(),
                       std::numeric_limits<std::size_t>::max());

  std::vector<char> is_dirty(membership.num_group_slots(), 0);
  for (const GroupId g : dirty) {
    if (g.valid() && g.value() < is_dirty.size()) is_dirty[g.value()] = 1;
  }

  // Survivors: overlaps touching no dirty group carry over verbatim —
  // neither endpoint's membership changed, so the pair and its shared
  // member list are unchanged. (Endpoints of `previous` overlaps always
  // fit the new slot table: slots are never reused.)
  for (const Overlap& o : previous.overlaps_) {
    if (is_dirty[o.first.value()] || is_dirty[o.second.value()]) continue;
    overlaps_.push_back(o);
    ++stats_.delta_copied;
  }

  // Recompute each dirty live group's overlaps from the inverted index:
  // count co-subscriptions of its members, confirm pairs with >= 2 shared
  // nodes. A dirty-dirty pair is found from both sides; keep the
  // lower-slot orientation only.
  std::vector<char> recomputed(membership.num_group_slots(), 0);
  for (const GroupId d : dirty) {
    if (!d.valid() || !membership.is_alive(d)) continue;
    if (recomputed[d.value()] != 0) continue;  // duplicate dirty entry
    recomputed[d.value()] = 1;
    std::unordered_map<std::uint32_t, std::uint32_t> counts;
    for (const NodeId n : membership.members(d)) {
      for (const GroupId g : membership.subscriptions(n)) {
        if (g == d) continue;
        ++counts[g.value()];
        ++stats_.pair_increments;
      }
    }
    for (const auto& [other_slot, count] : counts) {
      if (count < 2) continue;
      const GroupId other(static_cast<GroupId::underlying_type>(other_slot));
      if (is_dirty[other_slot] && d.value() > other_slot) continue;
      const GroupId a = d.value() < other_slot ? d : other;
      const GroupId b = d.value() < other_slot ? other : d;
      overlaps_.push_back({a, b, membership.intersect(a, b)});
      ++stats_.delta_recomputed;
    }
  }
  stats_.candidate_pairs = stats_.delta_recomputed;

  // Restore the fresh build's (first, second) order; survivors and
  // recomputed pairs are disjoint sets, so this is a pure reordering.
  std::sort(overlaps_.begin(), overlaps_.end(),
            [](const Overlap& x, const Overlap& y) {
              if (x.first != y.first) return x.first.value() < y.first.value();
              return x.second.value() < y.second.value();
            });
  build_adjacency_and_components(membership);
}

void OverlapIndex::build_streaming(const GroupMembership& membership) {
  // Phase 1 — streaming candidate generation: every node emits its
  // co-subscription pairs into the flat accumulator. Total work is
  // O(Σ_node k_node²) on the inverted index, independent of how many hosts
  // exist or how many group pairs *don't* co-occur anywhere.
  common::PairCountMap counts(membership.num_groups() * 2);
  for (std::size_t n = 0; n < membership.num_nodes(); ++n) {
    const auto& subs =
        membership.subscriptions(NodeId(static_cast<NodeId::underlying_type>(n)));
    const std::size_t k = subs.size();
    if (k < 2) continue;
    stats_.pair_increments += k * (k - 1) / 2;
    for (std::size_t i = 0; i + 1 < k; ++i) {
      const std::uint64_t hi = std::uint64_t{subs[i].value()} << 32;
      for (std::size_t j = i + 1; j < k; ++j) {
        ++counts[hi | subs[j].value()];
      }
    }
  }
  stats_.candidate_pairs = counts.size();

  // Phase 2 — confirmed double overlaps (>= 2 shared members), sorted into
  // the same (first, second) order the pairwise reference scan produces.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> confirmed;
  counts.for_each([&](std::uint64_t key, std::uint32_t count) {
    if (count >= 2) confirmed.emplace_back(key, count);
  });
  std::sort(confirmed.begin(), confirmed.end());

  // Phase 3 — materialize shared-member lists, only for confirmed pairs
  // (the only thing seqgraph/placement consume). Groups reused across many
  // overlaps get a succinct probe row: build cost O(|g|) once, then each
  // pair costs |small| O(1) probes instead of an O(|small|+|large|) merge.
  std::vector<std::uint32_t> occurrences(membership.num_group_slots(), 0);
  for (const auto& [key, count] : confirmed) {
    ++occurrences[key >> 32];
    ++occurrences[key & 0xffffffffu];
  }
  std::unordered_map<std::uint32_t, RankSelectBitset> rows;
  const auto row_for = [&](GroupId g) -> const RankSelectBitset& {
    const auto [it, inserted] = rows.try_emplace(g.value());
    if (inserted) {
      const auto& members = membership.members(g);
      std::vector<std::uint32_t> positions;
      positions.reserve(members.size());
      for (const NodeId m : members) positions.push_back(m.value());
      it->second =
          RankSelectBitset::from_sorted(positions, membership.num_nodes());
      ++stats_.rows_built;
      stats_.row_bytes += it->second.memory_bytes();
    }
    return it->second;
  };

  overlaps_.reserve(confirmed.size());
  for (const auto& [key, count] : confirmed) {
    const GroupId a(static_cast<GroupId::underlying_type>(key >> 32));
    const GroupId b(static_cast<GroupId::underlying_type>(key & 0xffffffffu));
    const auto& ma = membership.members(a);
    const auto& mb = membership.members(b);
    const bool a_small = ma.size() <= mb.size();
    const auto& small = a_small ? ma : mb;
    const GroupId large_id = a_small ? b : a;
    const std::size_t large_size = a_small ? mb.size() : ma.size();

    std::vector<NodeId> shared;
    shared.reserve(count);
    if (large_size >= kProbeRowThreshold &&
        occurrences[large_id.value()] >= 2) {
      const RankSelectBitset& row = row_for(large_id);
      for (const NodeId m : small) {
        if (row.test(m.value())) shared.push_back(m);
      }
    } else {
      shared = membership.intersect(a, b);
    }
    DECSEQ_CHECK_MSG(shared.size() == count,
                     "pair count " << count << " != |" << a << " ∩ " << b
                                   << "| = " << shared.size());
    overlaps_.push_back({a, b, std::move(shared)});
  }
}

void OverlapIndex::build_reference(const GroupMembership& membership) {
  const std::vector<GroupId> groups = membership.live_groups();

  // Bitset per group: the pairwise scan is then word-parallel
  // (O(G^2 * N/64)) and the member list is materialized only for actual
  // double overlaps.
  std::vector<DynamicBitset> member_bits;
  member_bits.reserve(groups.size());
  for (const GroupId g : groups) {
    DynamicBitset bits(membership.num_nodes());
    for (const NodeId m : membership.members(g)) bits.set(m.value());
    member_bits.push_back(std::move(bits));
  }

  for (std::size_t i = 0; i < groups.size(); ++i) {
    for (std::size_t j = i + 1; j < groups.size(); ++j) {
      if (member_bits[i].intersection_count(member_bits[j]) < 2) continue;
      std::vector<NodeId> shared;
      for (const std::size_t bit :
           member_bits[i].intersection_bits(member_bits[j])) {
        shared.push_back(NodeId(static_cast<NodeId::underlying_type>(bit)));
      }
      overlaps_.push_back({groups[i], groups[j], std::move(shared)});
    }
  }
}

void OverlapIndex::build_adjacency_and_components(
    const GroupMembership& membership) {
  for (std::size_t idx = 0; idx < overlaps_.size(); ++idx) {
    by_group_[overlaps_[idx].first.value()].push_back(idx);
    by_group_[overlaps_[idx].second.value()].push_back(idx);
  }

  // Connected components over the group overlap graph via union-find-free
  // BFS (the graph is small relative to the overlap list).
  std::vector<bool> visited(membership.num_group_slots(), false);
  for (const GroupId g : membership.live_groups()) {
    if (visited[g.value()] || by_group_[g.value()].empty()) continue;
    std::vector<GroupId> component;
    std::vector<GroupId> frontier{g};
    visited[g.value()] = true;
    while (!frontier.empty()) {
      const GroupId cur = frontier.back();
      frontier.pop_back();
      component.push_back(cur);
      component_of_[cur.value()] = components_.size();
      for (const std::size_t idx : by_group_[cur.value()]) {
        const GroupId next = overlaps_[idx].other(cur);
        if (!visited[next.value()]) {
          visited[next.value()] = true;
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
  return total;
}

}  // namespace decseq::membership
