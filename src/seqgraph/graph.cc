// CSR/flat-scratch implementation of the sequencing-graph build.
//
// The construction itself (affinity ordering, barycenter chain sort, local
// search, greedy tree) is the same algorithm as seqgraph/legacy.cc — the
// differential test pins bit-identical output — but every map/set has been
// replaced by stamped flat arrays and pooled buffers (a BuildScratch), and
// component layout is computed in parallel:
//
//   - Layout of one overlap component is a pure function of the component's
//     group list, its overlaps, and the options (no RNG, no global state),
//     so components are computed concurrently into per-component result
//     slots and then *materialized serially in component order* — AtomIds,
//     tree-edge order, and path contents are identical for any thread count,
//     including the serial fallback (see runtime/parallel.h).
//   - Stamped arrays (value valid iff stamp matches the current generation)
//     make per-component "clears" O(1) over group-slot- and overlap-indexed
//     maps, so a 100k-group compile never pays per-component O(slots) work.
#include "seqgraph/graph.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/log.h"
#include "runtime/parallel.h"

namespace decseq::seqgraph {

namespace {

using membership::GroupMembership;
using membership::Overlap;
using membership::OverlapIndex;

constexpr std::uint32_t kNone32 = 0xffffffffu;

/// Total component-group count below which layout runs serially: tiny
/// rebuilds (the fuzz corpus, most delta compiles) lose more to thread
/// spawn than they gain.
constexpr std::size_t kParallelGroupThreshold = 512;

/// Stamped flat map over a dense key space (group slots, overlap indices):
/// bump() invalidates every entry in O(1).
struct StampedMap {
  std::vector<std::uint32_t> val;
  std::vector<std::uint32_t> stamp;
  std::uint32_t cur = 0;

  void ensure(std::size_t n) {
    if (val.size() < n) {
      val.resize(n);
      stamp.resize(n, 0);
    }
  }
  void bump() {
    if (++cur == 0) {  // wraparound: everything stale again
      std::fill(stamp.begin(), stamp.end(), 0u);
      cur = 1;
    }
  }
  void set(std::size_t k, std::uint32_t v) {
    val[k] = v;
    stamp[k] = cur;
  }
  [[nodiscard]] bool has(std::size_t k) const {
    return k < stamp.size() && stamp[k] == cur;
  }
  [[nodiscard]] std::uint32_t get(std::size_t k) const { return val[k]; }
};

struct ChainEntry {
  std::size_t overlap_index;
  std::size_t lo, hi;     // positions of the two groups in group_order
  std::size_t label = 0;  // co-location label (same label = same machine)
  double label_key = 0.0; // mean barycenter of the label's atoms
};

/// One component's computed layout, in *local* atom indices (0..k-1 in
/// emission order); materialization turns locals into AtomIds.
struct ComponentLayout {
  bool tree = false;
  /// Overlap index of each atom, in emission order.
  std::vector<std::size_t> atom_overlaps;
  /// Undirected tree edges (local, local) in the exact order the legacy
  /// builder appended adjacency entries — tree_neighbors order is part of
  /// the pinned output.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  /// Tree strategy: per-group full paths, in group layout order.
  std::vector<std::pair<GroupId, std::vector<std::uint32_t>>> tree_paths;
  /// Chain strategy: per-group [first, last] emission-index range, in
  /// component order.
  std::vector<std::pair<GroupId, std::pair<std::uint32_t, std::uint32_t>>>
      chain_ranges;

  void reset() {
    tree = false;
    atom_overlaps.clear();
    edges.clear();
    tree_paths.clear();
    chain_ranges.clear();
  }
};

/// Per-worker layout scratch. Every container is reused across components
/// and builds; stamped maps never need clearing.
struct WorkerScratch {
  StampedMap dense_of_slot;  ///< group slot -> dense index in component
  StampedMap pos_of_slot;    ///< group slot -> position in group_order
  StampedMap visited_slot;   ///< BFS visited flags (value unused)
  StampedMap local_of_oi;    ///< overlap index -> local atom index

  // order_groups
  std::vector<std::uint32_t> adj_off;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> adj;  // (j, weight)
  std::vector<char> placed;
  std::vector<char> exhausted;
  std::vector<std::uint32_t> order;  // dense indices
  std::vector<GroupId> group_order;

  // chain layout
  std::vector<ChainEntry> chain;
  std::vector<std::pair<std::size_t, std::uint32_t>> label_pairs;
  std::vector<std::vector<std::uint32_t>> span_pos;
  std::vector<std::uint32_t> range_first, range_last;

  // tree layout
  std::vector<std::vector<std::uint32_t>> atoms_of_group;  // dense-indexed
  std::vector<GroupId> bfs_order;
  std::vector<std::vector<std::uint32_t>> tree_adj;
  std::vector<char> tree_placed;
  std::unordered_map<std::uint64_t, int> edge_dir;
  std::vector<std::uint32_t> parent, bfs_queue;
  std::vector<std::uint32_t> path_buf, best_buf, full_path;
  std::vector<std::uint32_t> placed_atoms, new_atoms;

  void ensure(std::size_t group_slots, std::size_t num_overlaps) {
    dense_of_slot.ensure(group_slots);
    pos_of_slot.ensure(group_slots);
    visited_slot.ensure(group_slots);
    local_of_oi.ensure(num_overlaps);
  }
};

/// Greedy affinity ordering of one component's groups — same selection and
/// tie rules as the legacy dense-matrix version (seed: max total mass,
/// first-wins; step: strongest unplaced link from the tail scanning dense
/// neighbor index ascending; fallback: the first placed dense index with
/// any unplaced positive-weight neighbor, its max-weight first neighbor) —
/// but on a per-component CSR adjacency, so a component never allocates
/// O(n^2).
void order_groups(const std::vector<GroupId>& component,
                  const OverlapIndex& overlaps, WorkerScratch& ws,
                  std::vector<GroupId>& out) {
  const std::size_t n = component.size();
  ws.dense_of_slot.bump();
  for (std::size_t i = 0; i < n; ++i) {
    ws.dense_of_slot.set(component[i].value(),
                         static_cast<std::uint32_t>(i));
  }

  // CSR adjacency in dense indices, each row sorted by neighbor index so
  // "first j with the maximum weight" matches the legacy ascending scan.
  ws.adj.clear();
  ws.adj_off.resize(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    ws.adj_off[i] = static_cast<std::uint32_t>(ws.adj.size());
    for (const std::size_t oi : overlaps.overlaps_of(component[i])) {
      const Overlap& o = overlaps.overlap(oi);
      const GroupId other = o.other(component[i]);
      if (ws.dense_of_slot.has(other.value())) {
        ws.adj.emplace_back(ws.dense_of_slot.get(other.value()),
                            static_cast<std::uint64_t>(o.members.size()));
      }
    }
    std::sort(ws.adj.begin() + ws.adj_off[i], ws.adj.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
  }
  ws.adj_off[n] = static_cast<std::uint32_t>(ws.adj.size());

  ws.placed.assign(n, 0);
  ws.exhausted.assign(n, 0);
  out.clear();
  out.reserve(n);

  // Seed: heaviest total overlap mass (strict >, first index wins).
  std::size_t seed = 0;
  std::uint64_t best_mass = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t mass = 0;
    for (std::uint32_t e = ws.adj_off[i]; e < ws.adj_off[i + 1]; ++e) {
      mass += ws.adj[e].second;
    }
    if (mass > best_mass) {
      best_mass = mass;
      seed = i;
    }
  }
  ws.placed[seed] = 1;
  out.push_back(component[seed]);
  std::size_t tail = seed;

  for (std::size_t step = 1; step < n; ++step) {
    std::size_t best = n;
    std::uint64_t best_w = 0;
    // Prefer the strongest link from the tail...
    for (std::uint32_t e = ws.adj_off[tail]; e < ws.adj_off[tail + 1]; ++e) {
      const auto [j, w] = ws.adj[e];
      if (ws.placed[j] == 0 && w > best_w) {
        best = j;
        best_w = w;
      }
    }
    // ...otherwise the strongest link from the first placed group (dense
    // order) that still has unplaced neighbors. Once a group's neighbors
    // are all placed it can never un-exhaust, so the memo keeps the
    // fallback scan amortized linear.
    if (best == n) {
      for (std::size_t i = 0; i < n && best == n; ++i) {
        if (ws.placed[i] == 0 || ws.exhausted[i] != 0) continue;
        bool any_unplaced = false;
        for (std::uint32_t e = ws.adj_off[i]; e < ws.adj_off[i + 1]; ++e) {
          const auto [j, w] = ws.adj[e];
          if (ws.placed[j] == 0) {
            any_unplaced = true;
            if (w > best_w) {
              best = j;
              best_w = w;
            }
          }
        }
        if (!any_unplaced) ws.exhausted[i] = 1;
      }
    }
    DECSEQ_CHECK_MSG(best != n, "component not connected");
    ws.placed[best] = 1;
    out.push_back(component[best]);
    tail = best;
  }
}

/// Span positions as per-group sorted vectors (the legacy multiset, flat).
/// Local-search moves shift one occurrence by +-1; replacing the last
/// (resp. first) occurrence keeps the vector sorted without re-sorting.
struct SpanTracker {
  std::vector<std::vector<std::uint32_t>>& pos;

  void insert_ascending(std::size_t group, std::uint32_t p) {
    pos[group].push_back(p);  // caller inserts in ascending order
  }
  void move(std::size_t group, std::uint32_t from, std::uint32_t to) {
    auto& v = pos[group];
    if (to > from) {
      auto it = std::upper_bound(v.begin(), v.end(), from);
      DECSEQ_CHECK(it != v.begin() && *(it - 1) == from);
      *(it - 1) = to;
    } else {
      auto it = std::lower_bound(v.begin(), v.end(), from);
      DECSEQ_CHECK(it != v.end() && *it == from);
      *it = to;
    }
  }
  [[nodiscard]] std::size_t span(std::size_t group) const {
    const auto& v = pos[group];
    if (v.empty()) return 0;
    return v.back() - v.front() + 1;
  }
};

/// Greedy tree layout; false => caller falls back to the chain strategy.
bool try_tree_layout(const std::vector<GroupId>& component,
                     const OverlapIndex& overlaps, WorkerScratch& ws,
                     ComponentLayout& out) {
  const std::size_t n = component.size();

  // Local indexing of the component's overlaps (first-seen order over
  // (component order, overlaps_of order) — emission order) and per-group
  // local atom lists.
  ws.dense_of_slot.bump();
  for (std::size_t i = 0; i < n; ++i) {
    ws.dense_of_slot.set(component[i].value(),
                         static_cast<std::uint32_t>(i));
  }
  ws.local_of_oi.bump();
  if (ws.atoms_of_group.size() < n) ws.atoms_of_group.resize(n);
  for (std::size_t i = 0; i < n; ++i) ws.atoms_of_group[i].clear();
  out.atom_overlaps.clear();
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::size_t oi : overlaps.overlaps_of(component[i])) {
      if (!ws.local_of_oi.has(oi)) {
        ws.local_of_oi.set(
            oi, static_cast<std::uint32_t>(out.atom_overlaps.size()));
        out.atom_overlaps.push_back(oi);
      }
      ws.atoms_of_group[i].push_back(ws.local_of_oi.get(oi));
    }
  }
  const std::size_t num_locals = out.atom_overlaps.size();
  if (ws.tree_adj.size() < num_locals) ws.tree_adj.resize(num_locals);
  for (std::size_t a = 0; a < num_locals; ++a) ws.tree_adj[a].clear();

  // Groups in BFS order over the overlap graph from the highest-degree
  // group (strict >, component order wins ties), so each group after the
  // first already has placed atoms.
  ws.bfs_order.clear();
  {
    GroupId seed = component.front();
    for (const GroupId g : component) {
      if (overlaps.overlaps_of(g).size() >
          overlaps.overlaps_of(seed).size()) {
        seed = g;
      }
    }
    ws.visited_slot.bump();
    ws.visited_slot.set(seed.value(), 1);
    ws.bfs_order.push_back(seed);
    for (std::size_t head = 0; head < ws.bfs_order.size(); ++head) {
      for (const std::size_t oi :
           overlaps.overlaps_of(ws.bfs_order[head])) {
        const GroupId next = overlaps.overlap(oi).other(ws.bfs_order[head]);
        if (!ws.visited_slot.has(next.value())) {
          ws.visited_slot.set(next.value(), 1);
          ws.bfs_order.push_back(next);
        }
      }
    }
    if (ws.bfs_order.size() != n) return false;
  }

  ws.tree_placed.assign(num_locals, 0);
  ws.edge_dir.clear();
  const auto edge_key = [](std::uint32_t lo, std::uint32_t hi) {
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  };

  auto link = [&](std::uint32_t a, std::uint32_t b) {
    ws.tree_adj[a].push_back(b);
    ws.tree_adj[b].push_back(a);
  };
  auto record_direction = [&](const std::vector<std::uint32_t>& path) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const std::uint32_t lo = std::min(path[i], path[i + 1]);
      const std::uint32_t hi = std::max(path[i], path[i + 1]);
      const int dir = path[i] < path[i + 1] ? +1 : -1;
      const auto [it, inserted] = ws.edge_dir.insert({edge_key(lo, hi), dir});
      if (!inserted && it->second != dir) return false;
    }
    return true;
  };
  auto direction_compatible = [&](const std::vector<std::uint32_t>& path) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const std::uint32_t lo = std::min(path[i], path[i + 1]);
      const std::uint32_t hi = std::max(path[i], path[i + 1]);
      const int dir = path[i] < path[i + 1] ? +1 : -1;
      const auto it = ws.edge_dir.find(edge_key(lo, hi));
      if (it != ws.edge_dir.end() && it->second != dir) return false;
    }
    return true;
  };
  // BFS path between two locals in the current forest; false (and an empty
  // out buffer) if disconnected.
  auto forest_path = [&](std::uint32_t from, std::uint32_t to,
                         std::vector<std::uint32_t>& path) {
    path.clear();
    if (from == to) {
      path.push_back(from);
      return true;
    }
    ws.parent.assign(num_locals, kNone32);
    ws.bfs_queue.clear();
    ws.bfs_queue.push_back(from);
    ws.parent[from] = from;
    for (std::size_t head = 0; head < ws.bfs_queue.size(); ++head) {
      const std::uint32_t u = ws.bfs_queue[head];
      for (const std::uint32_t v : ws.tree_adj[u]) {
        if (ws.parent[v] != kNone32) continue;
        ws.parent[v] = u;
        if (v == to) {
          path.push_back(to);
          for (std::uint32_t cur = to; cur != from; cur = ws.parent[cur]) {
            path.push_back(ws.parent[cur]);
          }
          std::reverse(path.begin(), path.end());
          return true;
        }
        ws.bfs_queue.push_back(v);
      }
    }
    return false;
  };

  out.tree_paths.clear();
  for (const GroupId g : ws.bfs_order) {
    const auto& atoms =
        ws.atoms_of_group[ws.dense_of_slot.get(g.value())];
    ws.placed_atoms.clear();
    ws.new_atoms.clear();
    for (const std::uint32_t a : atoms) {
      (ws.tree_placed[a] != 0 ? ws.placed_atoms : ws.new_atoms).push_back(a);
    }

    ws.full_path.clear();
    if (ws.placed_atoms.empty()) {
      // First group of the component: its atoms form a fresh chain.
      ws.full_path = ws.new_atoms;
      for (std::size_t i = 0; i + 1 < ws.full_path.size(); ++i) {
        link(ws.full_path[i], ws.full_path[i + 1]);
      }
    } else {
      // Minimal covering path of the placed atoms: the longest pairwise
      // path must contain them all (otherwise they span a branching
      // subtree and no single path covers them).
      ws.best_buf.clear();
      for (std::size_t i = 0; i < ws.placed_atoms.size(); ++i) {
        for (std::size_t j = i; j < ws.placed_atoms.size(); ++j) {
          if (!forest_path(ws.placed_atoms[i], ws.placed_atoms[j],
                           ws.path_buf)) {
            return false;  // different trees
          }
          if (ws.path_buf.size() > ws.best_buf.size()) {
            std::swap(ws.best_buf, ws.path_buf);
          }
        }
      }
      for (const std::uint32_t a : ws.placed_atoms) {
        if (std::find(ws.best_buf.begin(), ws.best_buf.end(), a) ==
            ws.best_buf.end()) {
          return false;  // branching: not on one path
        }
      }
      // Orient so FIFO edge directions stay consistent; try both ways.
      if (!direction_compatible(ws.best_buf)) {
        std::reverse(ws.best_buf.begin(), ws.best_buf.end());
        if (!direction_compatible(ws.best_buf)) return false;
      }
      // Append the new atoms as a chain at the path's end.
      ws.full_path = ws.best_buf;
      for (const std::uint32_t a : ws.new_atoms) {
        link(ws.full_path.back(), a);
        ws.full_path.push_back(a);
      }
    }
    if (!record_direction(ws.full_path)) return false;
    for (const std::uint32_t a : ws.new_atoms) ws.tree_placed[a] = 1;
    if (ws.placed_atoms.empty()) {
      for (const std::uint32_t a : ws.full_path) ws.tree_placed[a] = 1;
    }
    out.tree_paths.emplace_back(g, ws.full_path);
  }

  // Edges in the legacy materialization order: local index ascending,
  // adjacency (link push) order, each undirected edge at its a < b visit.
  out.edges.clear();
  for (std::uint32_t a = 0; a < num_locals; ++a) {
    for (const std::uint32_t b : ws.tree_adj[a]) {
      if (a < b) out.edges.emplace_back(a, b);
    }
  }
  out.tree = true;
  return true;
}

/// Chain layout of one component (the always-works fallback and the default
/// strategy): affinity order, barycenter sort, local search.
void chain_layout(const std::vector<GroupId>& component,
                  const OverlapIndex& overlaps, const BuildOptions& options,
                  WorkerScratch& ws, ComponentLayout& out) {
  // 1. Order the component's groups by affinity (no-op for the ablation
  //    strategy, which keeps discovery order).
  const bool ordered = options.strategy != BuildStrategy::kChainUnordered;
  const std::vector<GroupId>* group_order = &component;
  if (ordered) {
    order_groups(component, overlaps, ws, ws.group_order);
    group_order = &ws.group_order;
  }
  const std::size_t n = group_order->size();
  ws.pos_of_slot.bump();
  for (std::size_t i = 0; i < n; ++i) {
    ws.pos_of_slot.set((*group_order)[i].value(),
                       static_cast<std::uint32_t>(i));
  }

  // 2. Collect the component's overlaps, keyed for the barycenter sort.
  ws.chain.clear();
  for (const GroupId g : component) {
    for (const std::size_t oi : overlaps.overlaps_of(g)) {
      const Overlap& o = overlaps.overlap(oi);
      if (o.first != g) continue;  // visit each overlap exactly once
      const std::size_t pa = ws.pos_of_slot.get(o.first.value());
      const std::size_t pb = ws.pos_of_slot.get(o.second.value());
      const std::size_t label = options.colocation_labels != nullptr
                                    ? (*options.colocation_labels)[oi]
                                    : 0;
      ws.chain.push_back(
          {oi, std::min(pa, pb), std::max(pa, pb), label, 0.0});
    }
  }
  if (options.colocation_labels != nullptr) {
    // Anchor each co-location cluster at the mean barycenter of its atoms.
    // Stable-sorting (label, chain position) keeps each label's terms in
    // chain order, so the double sums match the legacy map accumulation
    // bit for bit.
    ws.label_pairs.clear();
    ws.label_pairs.reserve(ws.chain.size());
    for (std::size_t p = 0; p < ws.chain.size(); ++p) {
      ws.label_pairs.emplace_back(ws.chain[p].label,
                                  static_cast<std::uint32_t>(p));
    }
    std::stable_sort(
        ws.label_pairs.begin(), ws.label_pairs.end(),
        [](const auto& x, const auto& y) { return x.first < y.first; });
    for (std::size_t start = 0; start < ws.label_pairs.size();) {
      std::size_t end = start;
      double sum = 0.0;
      while (end < ws.label_pairs.size() &&
             ws.label_pairs[end].first == ws.label_pairs[start].first) {
        const ChainEntry& e = ws.chain[ws.label_pairs[end].second];
        sum += static_cast<double>(e.lo + e.hi);
        ++end;
      }
      const double key = sum / static_cast<double>(end - start);
      for (std::size_t k = start; k < end; ++k) {
        ws.chain[ws.label_pairs[k].second].label_key = key;
      }
      start = end;
    }
  }
  if (ordered) {
    std::sort(ws.chain.begin(), ws.chain.end(),
              [](const ChainEntry& x, const ChainEntry& y) {
                // Cluster anchor first (machine-contiguous layout), then
                // barycenter of the two group positions, ties broken
                // lexicographically — keeps each group's atoms clustered.
                if (x.label_key != y.label_key) return x.label_key < y.label_key;
                if (x.label != y.label) return x.label < y.label;
                const auto bx = x.lo + x.hi, by = y.lo + y.hi;
                if (bx != by) return bx < by;
                if (x.lo != y.lo) return x.lo < y.lo;
                return x.hi < y.hi;
              });
  }

  // 3. Local search: adjacent swaps that shrink the total group span.
  if (ordered && ws.chain.size() > 2) {
    if (ws.span_pos.size() < n) ws.span_pos.resize(n);
    for (std::size_t i = 0; i < n; ++i) ws.span_pos[i].clear();
    SpanTracker tracker{ws.span_pos};
    for (std::size_t p = 0; p < ws.chain.size(); ++p) {
      tracker.insert_ascending(ws.chain[p].lo, static_cast<std::uint32_t>(p));
      tracker.insert_ascending(ws.chain[p].hi, static_cast<std::uint32_t>(p));
    }
    for (std::size_t pass = 0; pass < options.local_search_passes; ++pass) {
      bool improved = false;
      for (std::size_t p = 0; p + 1 < ws.chain.size(); ++p) {
        // Swaps may not break machine contiguity.
        if (ws.chain[p].label != ws.chain[p + 1].label) continue;
        const auto up = static_cast<std::uint32_t>(p);
        const std::size_t before = tracker.span(ws.chain[p].lo) +
                                   tracker.span(ws.chain[p].hi) +
                                   tracker.span(ws.chain[p + 1].lo) +
                                   tracker.span(ws.chain[p + 1].hi);
        tracker.move(ws.chain[p].lo, up, up + 1);
        tracker.move(ws.chain[p].hi, up, up + 1);
        tracker.move(ws.chain[p + 1].lo, up + 1, up);
        tracker.move(ws.chain[p + 1].hi, up + 1, up);
        const std::size_t after = tracker.span(ws.chain[p].lo) +
                                  tracker.span(ws.chain[p].hi) +
                                  tracker.span(ws.chain[p + 1].lo) +
                                  tracker.span(ws.chain[p + 1].hi);
        if (after < before) {
          std::swap(ws.chain[p], ws.chain[p + 1]);
          improved = true;
        } else {
          // Revert.
          tracker.move(ws.chain[p].lo, up + 1, up);
          tracker.move(ws.chain[p].hi, up + 1, up);
          tracker.move(ws.chain[p + 1].lo, up, up + 1);
          tracker.move(ws.chain[p + 1].hi, up, up + 1);
        }
      }
      if (!improved) break;
    }
  }

  // 4. Emit: atoms in chain order, consecutive edges, per-group ranges in
  //    one pass (first/last emission index of each group's stamping atoms).
  out.atom_overlaps.clear();
  out.edges.clear();
  out.chain_ranges.clear();
  const std::uint32_t k = static_cast<std::uint32_t>(ws.chain.size());
  ws.range_first.assign(n, k);
  ws.range_last.assign(n, 0);
  for (std::uint32_t p = 0; p < k; ++p) {
    const ChainEntry& e = ws.chain[p];
    out.atom_overlaps.push_back(e.overlap_index);
    if (p + 1 < k) out.edges.emplace_back(p, p + 1);
    const Overlap& o = overlaps.overlap(e.overlap_index);
    for (const GroupId g : {o.first, o.second}) {
      const std::uint32_t i = ws.pos_of_slot.get(g.value());
      ws.range_first[i] = std::min(ws.range_first[i], p);
      ws.range_last[i] = std::max(ws.range_last[i], p);
    }
  }
  for (const GroupId g : component) {
    const std::uint32_t i = ws.pos_of_slot.get(g.value());
    DECSEQ_CHECK_MSG(ws.range_first[i] <= ws.range_last[i],
                     "group " << g << " has no atoms");
    out.chain_ranges.emplace_back(
        g, std::make_pair(ws.range_first[i], ws.range_last[i]));
  }
}

/// Layout of one component into its result slot: a pure function of
/// (component, overlaps, options) — safe to run on any worker.
void compute_component_layout(const std::vector<GroupId>& component,
                              const OverlapIndex& overlaps,
                              const BuildOptions& options, WorkerScratch& ws,
                              ComponentLayout& out) {
  out.reset();
  if (options.strategy == BuildStrategy::kGreedyTree &&
      try_tree_layout(component, overlaps, ws, out)) {
    return;
  }
  // Greedy tree failed (or the strategy is a chain): the chain always works.
  chain_layout(component, overlaps, options, ws, out);
}

/// Mutable views into a SequencingGraph under construction, so the
/// per-component layout is shared between the full builder and the delta
/// builder (both are friends; internal-linkage helpers are not).
struct GraphParts {
  std::vector<Atom>& atoms;
  std::vector<std::vector<AtomId>>& paths;
  std::vector<std::vector<AtomId>>& tree;
  std::vector<char>& retired;
  std::size_t& num_overlap_atoms;
  std::size_t& tree_components;
  std::size_t& chain_components;
};

AtomId append_atom(GraphParts& gp, GroupId a, GroupId b,
                   std::vector<NodeId> members, std::size_t overlap_index) {
  const AtomId id(static_cast<AtomId::underlying_type>(gp.atoms.size()));
  gp.atoms.push_back({id, a, b, std::move(members), overlap_index});
  gp.tree.emplace_back();
  gp.retired.push_back(0);
  return id;
}

/// Serial materialization of one computed layout: assigns AtomIds (emission
/// order), appends tree adjacency in the pinned order, writes paths.
void materialize_layout(GraphParts& gp, const ComponentLayout& layout,
                        const OverlapIndex& overlaps) {
  const std::size_t base = gp.atoms.size();
  const auto atom_of_local = [base](std::uint32_t local) {
    return AtomId(static_cast<AtomId::underlying_type>(base + local));
  };
  for (const std::size_t oi : layout.atom_overlaps) {
    const Overlap& o = overlaps.overlap(oi);
    (void)append_atom(gp, o.first, o.second, o.members, oi);
    ++gp.num_overlap_atoms;
  }
  for (const auto& [a, b] : layout.edges) {
    gp.tree[atom_of_local(a).value()].push_back(atom_of_local(b));
    gp.tree[atom_of_local(b).value()].push_back(atom_of_local(a));
  }
  if (layout.tree) {
    for (const auto& [g, locals] : layout.tree_paths) {
      auto& path = gp.paths[g.value()];
      path.clear();
      path.reserve(locals.size());
      for (const std::uint32_t a : locals) path.push_back(atom_of_local(a));
    }
    ++gp.tree_components;
  } else {
    for (const auto& [g, range] : layout.chain_ranges) {
      auto& path = gp.paths[g.value()];
      path.clear();
      path.reserve(range.second - range.first + 1);
      for (std::uint32_t p = range.first; p <= range.second; ++p) {
        path.push_back(atom_of_local(p));
      }
    }
    ++gp.chain_components;
  }
}

}  // namespace

struct BuildScratch::Impl {
  std::vector<WorkerScratch> workers;
  std::vector<ComponentLayout> layouts;
  std::vector<std::size_t> todo;

  /// Lay out and materialize the components selected by `todo` (already
  /// filled; indices into `components`): parallel compute into per-
  /// component slots, serial materialization in component order.
  void compile(GraphParts& gp,
               const std::vector<std::vector<GroupId>>& components,
               const OverlapIndex& overlaps, const BuildOptions& options,
               std::size_t group_slots) {
    std::size_t total_groups = 0;
    for (const std::size_t c : todo) total_groups += components[c].size();
    std::size_t threads = 1;
    if (todo.size() >= 2 && total_groups >= kParallelGroupThreshold) {
      threads = std::min(runtime::compile_threads(), todo.size());
    }
    if (workers.size() < threads) workers.resize(threads);
    for (std::size_t w = 0; w < threads; ++w) {
      workers[w].ensure(group_slots, overlaps.overlaps().size());
    }
    if (layouts.size() < todo.size()) layouts.resize(todo.size());

    runtime::parallel_for(
        todo.size(), threads, [&](std::size_t i, std::size_t worker) {
          compute_component_layout(components[todo[i]], overlaps, options,
                                   workers[worker], layouts[i]);
        });
    for (std::size_t i = 0; i < todo.size(); ++i) {
      materialize_layout(gp, layouts[i], overlaps);
    }
  }
};

BuildScratch::BuildScratch() : impl_(std::make_unique<Impl>()) {}
BuildScratch::~BuildScratch() = default;
// A moved-from scratch re-arms on next use instead of holding a null impl.
BuildScratch::BuildScratch(BuildScratch&& other) noexcept
    : impl_(std::move(other.impl_)) {
  other.impl_ = std::make_unique<Impl>();
}
BuildScratch& BuildScratch::operator=(BuildScratch&& other) noexcept {
  if (this != &other) {
    impl_ = std::move(other.impl_);
    other.impl_ = std::make_unique<Impl>();
  }
  return *this;
}

std::vector<AtomId> SequencingGraph::stamping_atoms(GroupId g) const {
  std::vector<AtomId> result;
  for (const AtomId id : path(g)) {
    if (atom(id).stamps(g)) result.push_back(id);
  }
  return result;
}

SequencingGraph SequencingGraph::make_for_testing(
    std::vector<Atom> atoms, std::vector<std::vector<AtomId>> paths,
    std::vector<std::vector<AtomId>> tree, std::size_t num_overlap_atoms) {
  SequencingGraph graph;
  graph.atoms_ = std::move(atoms);
  graph.paths_ = std::move(paths);
  graph.tree_ = std::move(tree);
  graph.num_overlap_atoms_ = num_overlap_atoms;
  DECSEQ_CHECK(graph.tree_.size() == graph.atoms_.size());
  return graph;
}

std::vector<GroupId> SequencingGraph::groups() const {
  std::vector<GroupId> result;
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    if (!paths_[i].empty()) {
      result.push_back(GroupId(static_cast<GroupId::underlying_type>(i)));
    }
  }
  return result;
}

SequencingGraph build_sequencing_graph(const GroupMembership& membership,
                                       const OverlapIndex& overlaps,
                                       const BuildOptions& options) {
  SequencingGraph graph;
  graph.paths_.resize(membership.num_group_slots());
  GraphParts gp{graph.atoms_,          graph.paths_,
                graph.tree_,           graph.retired_,
                graph.num_overlap_atoms_, graph.tree_components_,
                graph.chain_components_};

  // One chain (or greedy tree) per connected component of the group
  // overlap graph.
  BuildScratch transient;
  BuildScratch::Impl& impl =
      (options.scratch != nullptr ? *options.scratch : transient).impl();
  const auto& components = overlaps.components();
  impl.todo.clear();
  for (std::size_t c = 0; c < components.size(); ++c) impl.todo.push_back(c);
  impl.compile(gp, components, overlaps, options,
               membership.num_group_slots());

  // Ingress-only atoms for live groups with no double overlaps.
  for (const GroupId g : membership.live_groups()) {
    if (!overlaps.has_overlaps(g)) {
      const AtomId id =
          append_atom(gp, g, GroupId{}, {}, static_cast<std::size_t>(-1));
      graph.paths_[g.value()] = {id};
    }
  }

  DECSEQ_LOG(kDebug, "seqgraph",
             "built " << graph.num_atoms() << " atoms ("
                      << graph.num_overlap_atoms_ << " overlap, "
                      << graph.num_atoms() - graph.num_overlap_atoms_
                      << " ingress-only) for " << membership.num_groups()
                      << " groups");
  return graph;
}

SequencingGraph build_sequencing_graph_delta(
    SequencingGraph graph, const OverlapIndex& old_overlaps,
    const GroupMembership& membership, const OverlapIndex& new_overlaps,
    const std::vector<GroupId>& dirty, const BuildOptions& options,
    DeltaBuildStats* stats) {
  const std::size_t slots = membership.num_group_slots();

  // Affected closure, computed in one pass: seeds are the dirty groups plus
  // every group sharing an OLD overlap component with one; a new component
  // is re-laid iff it contains a seed, and all its groups join the closure.
  // One pass suffices because overlap edges only change incident to dirty
  // groups: a new component without a seed is *equal* to an old component
  // that contained no dirty group, so nothing outside the closure can have
  // gained, lost, or re-laid an atom.
  std::vector<char> affected(slots, 0);
  for (const GroupId g : dirty) {
    if (!g.valid() || g.value() >= slots) continue;
    affected[g.value()] = 1;
    // overlaps_of is range-safe for slots the old index never saw.
    if (!old_overlaps.overlaps_of(g).empty()) {
      const std::size_t c = old_overlaps.component_of(g);
      for (const GroupId m : old_overlaps.components()[c]) {
        affected[m.value()] = 1;
      }
    }
  }
  const auto& new_components = new_overlaps.components();
  std::vector<char> relay(new_components.size(), 0);
  for (std::size_t c = 0; c < new_components.size(); ++c) {
    for (const GroupId g : new_components[c]) {
      if (affected[g.value()] != 0) {
        relay[c] = 1;
        break;
      }
    }
  }
  for (std::size_t c = 0; c < new_components.size(); ++c) {
    if (relay[c] == 0) continue;
    for (const GroupId g : new_components[c]) affected[g.value()] = 1;
  }

  // Edit the old graph in place: same atoms, same AtomIds, same tree.
  const std::size_t old_num_atoms = graph.atoms_.size();
  const std::size_t old_num_retired = graph.num_retired_;
  graph.retired_.resize(old_num_atoms, 0);
  graph.paths_.resize(slots);

  // Retire the closure's atoms; remap every surviving overlap atom's index
  // into the new OverlapIndex (both lists are (first, second)-sorted, so a
  // binary search finds it). Retired atoms keep their groups — in-flight
  // old-epoch stamps still validate against them — but sequence nothing.
  const auto& new_list = new_overlaps.overlaps();
  const auto retire = [&](Atom& atom) {
    graph.retired_[atom.id.value()] = 1;
    ++graph.num_retired_;
    if (!atom.is_ingress_only()) {
      DECSEQ_CHECK(graph.num_overlap_atoms_ > 0);
      --graph.num_overlap_atoms_;
    }
    atom.overlap_index = static_cast<std::size_t>(-1);
    if (stats != nullptr) ++stats->atoms_retired;
  };
  for (Atom& atom : graph.atoms_) {
    if (graph.retired_[atom.id.value()] != 0) continue;
    if (atom.is_ingress_only()) {
      const GroupId g = atom.group_a;
      if (!membership.is_alive(g) || new_overlaps.has_overlaps(g)) {
        retire(atom);
      }
      continue;
    }
    if (affected[atom.group_a.value()] != 0 ||
        affected[atom.group_b.value()] != 0) {
      retire(atom);
      continue;
    }
    const auto it = std::lower_bound(
        new_list.begin(), new_list.end(),
        std::make_pair(atom.group_a, atom.group_b),
        [](const Overlap& o, const std::pair<GroupId, GroupId>& key) {
          if (o.first != key.first) return o.first.value() < key.first.value();
          return o.second.value() < key.second.value();
        });
    DECSEQ_CHECK_MSG(it != new_list.end() && it->first == atom.group_a &&
                         it->second == atom.group_b,
                     "surviving atom " << atom.id << " (" << atom.group_a
                                       << "," << atom.group_b
                                       << ") lost its overlap");
    atom.overlap_index = static_cast<std::size_t>(it - new_list.begin());
  }

  // Paths: groups outside the closure keep their old path verbatim (the
  // AtomIds are still valid — zero disruption); an affected group keeps its
  // path only if it is its own surviving ingress-only atom (alive and
  // overlap-free before and after). Every other path slot is cleared:
  // removed groups, and affected groups the layout below re-lays.
  for (std::size_t s = 0; s < slots; ++s) {
    auto& path = graph.paths_[s];
    if (path.empty()) continue;
    const GroupId g(static_cast<GroupId::underlying_type>(s));
    const bool keep =
        membership.is_alive(g) &&
        (affected[s] == 0 ||
         (path.size() == 1 && graph.retired_[path[0].value()] == 0 &&
          graph.atoms_[path[0].value()].is_ingress_only()));
    if (!keep) path.clear();
  }

  // Re-lay the affected components with the shared layout — identical
  // output to a full rebuild for the same component content.
  GraphParts gp{graph.atoms_,          graph.paths_,
                graph.tree_,           graph.retired_,
                graph.num_overlap_atoms_, graph.tree_components_,
                graph.chain_components_};
  BuildScratch transient;
  BuildScratch::Impl& impl =
      (options.scratch != nullptr ? *options.scratch : transient).impl();
  impl.todo.clear();
  for (std::size_t c = 0; c < new_components.size(); ++c) {
    if (relay[c] != 0) impl.todo.push_back(c);
  }
  impl.compile(gp, new_components, new_overlaps, options, slots);
  if (stats != nullptr) {
    stats->components_relaid = impl.todo.size();
    stats->components_copied = new_components.size() - impl.todo.size();
  }

  // Fresh ingress-only atoms for live overlap-free groups left pathless
  // (newly created, or their overlaps all dissolved).
  for (const GroupId g : membership.live_groups()) {
    if (!new_overlaps.has_overlaps(g) && graph.paths_[g.value()].empty()) {
      const AtomId id =
          append_atom(gp, g, GroupId{}, {}, static_cast<std::size_t>(-1));
      graph.paths_[g.value()] = {id};
    }
  }

  if (stats != nullptr) {
    stats->atoms_created = graph.atoms_.size() - old_num_atoms;
    for (std::size_t s = 0; s < slots; ++s) {
      if (affected[s] != 0) {
        stats->affected_groups.push_back(
            GroupId(static_cast<GroupId::underlying_type>(s)));
      }
    }
  }
  DECSEQ_LOG(kDebug, "seqgraph",
             "delta rebuilt " << (graph.atoms_.size() - old_num_atoms)
                              << " atoms, retired "
                              << (graph.num_retired_ - old_num_retired)
                              << " (total " << graph.num_atoms() << " atoms, "
                              << graph.num_retired_ << " retired)");
  return graph;
}

}  // namespace decseq::seqgraph
