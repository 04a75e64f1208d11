#include "placement/colocation.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

namespace decseq::placement {

namespace {

using membership::Overlap;
using membership::OverlapIndex;
using seqgraph::Atom;
using seqgraph::SequencingGraph;

/// Inverted index: subscriber node value -> overlap indices containing it
/// (CSR, overlap index ascending per node). Both co-location steps are
/// member-driven — a subset candidate shares every member with its seed, a
/// step-2 merge candidate contains the drawn pivot member — so candidate
/// sets come from these lists instead of scans over all overlaps/clusters.
struct MemberIndex {
  std::vector<std::uint32_t> off;
  std::vector<std::uint32_t> oi;
  std::vector<std::uint32_t> cursor;
  std::size_t node_limit = 0;

  void build(const OverlapIndex& overlaps) {
    const std::size_t n = overlaps.num_overlaps();
    node_limit = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (const NodeId v : overlaps.overlap(i).members) {
        node_limit = std::max(node_limit,
                              static_cast<std::size_t>(v.value()) + 1);
      }
    }
    off.assign(node_limit + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (const NodeId v : overlaps.overlap(i).members) ++off[v.value()];
    }
    std::uint32_t total = 0;
    for (std::size_t v = 0; v < node_limit; ++v) {
      const std::uint32_t count = off[v];
      off[v] = total;
      total += count;
    }
    off[node_limit] = total;
    oi.resize(total);
    cursor.assign(off.begin(), off.end() - 1);
    for (std::size_t i = 0; i < n; ++i) {
      for (const NodeId v : overlaps.overlap(i).members) {
        oi[cursor[v.value()]++] = static_cast<std::uint32_t>(i);
      }
    }
  }

  template <typename Fn>
  void for_each_overlap_of(NodeId v, Fn&& fn) const {
    if (static_cast<std::size_t>(v.value()) >= node_limit) return;
    for (std::uint32_t e = off[v.value()]; e < off[v.value() + 1]; ++e) {
      fn(static_cast<std::size_t>(oi[e]));
    }
  }
};

}  // namespace

struct ColocationScratch::Impl {
  MemberIndex index;
  /// Overlap indices, largest member set first.
  std::vector<std::size_t> order;
  /// Step 1: clusters as one list of overlap indices, cluster c spanning
  /// [cluster_begin[c], cluster_begin[c + 1]), its defining (largest)
  /// overlap first.
  std::vector<std::size_t> cluster_items;
  std::vector<std::size_t> cluster_begin;
  std::vector<char> clustered;
  std::vector<std::uint32_t> member_mark;
  std::vector<std::uint32_t> overlap_seen;
  /// Step 2.
  std::vector<std::uint32_t> cluster_of;
  std::vector<std::size_t> visit;
  std::vector<char> merged;
  std::vector<std::uint32_t> cluster_seen;
};

ColocationScratch::ColocationScratch() : impl_(std::make_unique<Impl>()) {}
ColocationScratch::~ColocationScratch() = default;

std::vector<std::size_t> colocate_overlaps(const OverlapIndex& overlaps,
                                           const ColocationOptions& options,
                                           Rng& rng) {
  ColocationScratch scratch;
  std::vector<std::size_t> labels;
  colocate_overlaps(overlaps, options, rng, scratch, labels);
  return labels;
}

void colocate_overlaps(const OverlapIndex& overlaps,
                       const ColocationOptions& options, Rng& rng,
                       ColocationScratch& scratch,
                       std::vector<std::size_t>& labels) {
  ColocationScratch::Impl& sc = scratch.impl();
  const std::size_t n = overlaps.num_overlaps();

  // Clusters under construction: step 1 groups overlaps, step 2 merges
  // clusters. Every overlap index appears in exactly one cluster.
  sc.cluster_items.clear();
  sc.cluster_begin.clear();

  // Overlap indices, largest member set first, so each subset chain
  // collapses onto its largest overlap.
  std::vector<std::size_t>& order = sc.order;
  order.resize(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    const auto sx = overlaps.overlap(x).members.size();
    const auto sy = overlaps.overlap(y).members.size();
    if (sx != sy) return sx > sy;
    return x < y;
  });

  const bool need_index = options.mode != ColocationMode::kNone && n > 0;
  const MemberIndex& index = sc.index;
  if (need_index) sc.index.build(overlaps);

  if (!need_index) {  // kNone, or no overlaps to cluster
    for (const std::size_t oi : order) {
      sc.cluster_begin.push_back(sc.cluster_items.size());
      sc.cluster_items.push_back(oi);
    }
  } else {
    // --- Step 1: subset rule. A subset of the seed contains only seed
    //     members, so candidates come from the seed members' inverted
    //     lists; the subset test walks stamped member marks. Selected
    //     candidates join the seed's cluster after it, in the order the
    //     lists meet them: every member of a cluster takes one label, and
    //     step 2 pivots on the seed, so no other place reaches a label or
    //     a draw.
    sc.clustered.assign(n, 0);
    sc.member_mark.assign(index.node_limit, 0);
    sc.overlap_seen.assign(n, 0);
    std::uint32_t gen = 0;
    for (const std::size_t seed : order) {
      if (sc.clustered[seed] != 0) continue;
      sc.cluster_begin.push_back(sc.cluster_items.size());
      sc.cluster_items.push_back(seed);
      sc.clustered[seed] = 1;
      const auto& seed_members = overlaps.overlap(seed).members;
      ++gen;
      for (const NodeId v : seed_members) sc.member_mark[v.value()] = gen;
      for (const NodeId v : seed_members) {
        index.for_each_overlap_of(v, [&](std::size_t other) {
          if (sc.overlap_seen[other] == gen) return;
          sc.overlap_seen[other] = gen;
          if (sc.clustered[other] != 0) return;
          const auto& members = overlaps.overlap(other).members;
          const bool subset =
              std::all_of(members.begin(), members.end(), [&](NodeId m) {
                return sc.member_mark[m.value()] == gen;
              });
          if (!subset) return;
          sc.cluster_items.push_back(other);
          sc.clustered[other] = 1;
        });
      }
    }
  }
  const std::size_t num_clusters = sc.cluster_begin.size();
  sc.cluster_begin.push_back(sc.cluster_items.size());
  const auto label_cluster = [&](std::size_t c, std::size_t node) {
    for (std::size_t i = sc.cluster_begin[c]; i < sc.cluster_begin[c + 1];
         ++i) {
      labels[sc.cluster_items[i]] = node;
    }
  };

  // --- Step 2: shared-member rule — merge clusters containing a randomly
  //     chosen member of the pivot cluster's defining overlap. The
  //     "co-located only once" restriction: merged clusters are final.
  //     Merge candidates (clusters with an overlap containing v) come from
  //     v's inverted list and all take the pivot's node, in whatever order
  //     the list meets them. The RNG draws
  //     are one shuffle of the clusters, then one pick per unmerged pivot
  //     in the shuffled order; the recorded digests fold the next draw, so
  //     they pin this sequence. Each merged set is one sequencing node,
  //     numbered in visit order.
  labels.assign(n, 0);
  if (options.mode == ColocationMode::kFull) {
    sc.cluster_of.resize(n);
    for (std::size_t c = 0; c < num_clusters; ++c) {
      for (std::size_t i = sc.cluster_begin[c]; i < sc.cluster_begin[c + 1];
           ++i) {
        sc.cluster_of[sc.cluster_items[i]] = static_cast<std::uint32_t>(c);
      }
    }
    std::vector<std::size_t>& visit = sc.visit;
    visit.resize(num_clusters);
    std::iota(visit.begin(), visit.end(), std::size_t{0});
    rng.shuffle(visit);
    sc.merged.assign(num_clusters, 0);
    sc.cluster_seen.assign(num_clusters, 0);
    std::uint32_t gen = 0;
    std::size_t node = 0;
    for (const std::size_t ci : visit) {
      if (sc.merged[ci] != 0) continue;
      sc.merged[ci] = 1;
      label_cluster(ci, node);
      const auto& pivot_members =
          overlaps.overlap(sc.cluster_items[sc.cluster_begin[ci]]).members;
      const NodeId v = rng.pick(pivot_members);
      ++gen;
      index.for_each_overlap_of(v, [&](std::size_t oi) {
        const std::uint32_t cj = sc.cluster_of[oi];
        if (sc.cluster_seen[cj] == gen) return;
        sc.cluster_seen[cj] = gen;
        if (sc.merged[cj] != 0) return;
        sc.merged[cj] = 1;
        label_cluster(cj, node);
      });
      ++node;
    }
  } else {
    for (std::size_t c = 0; c < num_clusters; ++c) label_cluster(c, c);
  }
}

Colocation::Colocation(std::vector<std::vector<AtomId>> nodes,
                       std::vector<SeqNodeId> node_of_atom)
    : nodes_(std::move(nodes)), node_of_atom_(std::move(node_of_atom)) {
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    DECSEQ_CHECK_MSG(!nodes_[n].empty(), "empty sequencing node " << n);
    for (const AtomId a : nodes_[n]) {
      DECSEQ_CHECK(node_of_atom_[a.value()].value() == n);
    }
  }
}

void Colocation::extend(const SequencingGraph& graph,
                        std::size_t first_new_atom,
                        const std::vector<std::size_t>& labels) {
  ExtendScratch scratch;
  extend(graph, first_new_atom, labels, scratch);
}

void Colocation::extend(const SequencingGraph& graph,
                        std::size_t first_new_atom,
                        const std::vector<std::size_t>& labels,
                        ExtendScratch& scratch) {
  DECSEQ_CHECK_MSG(node_of_atom_.size() == first_new_atom,
                   "colocation extension must start at the first appended "
                   "atom");
  node_of_atom_.resize(graph.num_atoms());
  // A new stamp empties the label map in O(1), a throwing call's too.
  if (scratch.label_stamp.size() < labels.size()) {
    scratch.label_stamp.resize(labels.size(), 0);
    scratch.label_node.resize(labels.size());
  }
  if (++scratch.stamp == 0) {
    std::fill(scratch.label_stamp.begin(), scratch.label_stamp.end(), 0u);
    scratch.stamp = 1;
  }
  for (std::size_t i = first_new_atom; i < graph.num_atoms(); ++i) {
    const Atom& atom = graph.atoms()[i];
    std::size_t node;
    if (atom.is_ingress_only()) {
      node = nodes_.size();
      nodes_.emplace_back();
    } else {
      DECSEQ_CHECK(atom.overlap_index < labels.size());
      const std::size_t label = labels[atom.overlap_index];
      DECSEQ_CHECK(label < labels.size());
      if (scratch.label_stamp[label] != scratch.stamp) {
        scratch.label_stamp[label] = scratch.stamp;
        scratch.label_node[label] = nodes_.size();
        nodes_.emplace_back();
      }
      node = scratch.label_node[label];
    }
    nodes_[node].push_back(atom.id);
    node_of_atom_[i] =
        SeqNodeId(static_cast<SeqNodeId::underlying_type>(node));
  }
}

std::size_t Colocation::num_overlap_nodes(
    const SequencingGraph& graph) const {
  std::size_t count = 0;
  for (const auto& atoms : nodes_) {
    const bool has_overlap_atom =
        std::any_of(atoms.begin(), atoms.end(), [&](AtomId a) {
          return !graph.atom(a).is_ingress_only();
        });
    if (has_overlap_atom) ++count;
  }
  return count;
}

Colocation apply_labels(const SequencingGraph& graph,
                        const std::vector<std::size_t>& labels) {
  Colocation colocation;
  colocation.extend(graph, 0, labels);
  return colocation;
}

Colocation colocate_atoms(const SequencingGraph& graph,
                          const OverlapIndex& overlaps,
                          const ColocationOptions& options, Rng& rng) {
  return apply_labels(graph, colocate_overlaps(overlaps, options, rng));
}

}  // namespace decseq::placement
