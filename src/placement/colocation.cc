#include "placement/colocation.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>

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
  std::size_t node_limit = 0;

  explicit MemberIndex(const OverlapIndex& overlaps) {
    const std::size_t n = overlaps.num_overlaps();
    for (std::size_t i = 0; i < n; ++i) {
      for (const NodeId v : overlaps.overlap(i).members) {
        node_limit = std::max(node_limit,
                              static_cast<std::size_t>(v.value()) + 1);
      }
    }
    std::vector<std::uint32_t> count(node_limit + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (const NodeId v : overlaps.overlap(i).members) ++count[v.value()];
    }
    off.resize(node_limit + 1, 0);
    std::uint32_t total = 0;
    for (std::size_t v = 0; v < node_limit; ++v) {
      off[v] = total;
      total += count[v];
    }
    off[node_limit] = total;
    oi.resize(total);
    std::vector<std::uint32_t> cursor(off.begin(), off.end() - 1);
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

std::vector<std::size_t> colocate_overlaps(const OverlapIndex& overlaps,
                                           const ColocationOptions& options,
                                           Rng& rng) {
  const std::size_t n = overlaps.num_overlaps();

  // Clusters under construction: step 1 groups overlaps, step 2 merges
  // groups. Every overlap index appears in exactly one cluster.
  struct Cluster {
    std::vector<std::size_t> overlaps;  // first = defining (largest) overlap
    bool merged_in_step2 = false;
  };
  std::vector<Cluster> clusters;

  // Overlap indices, largest member set first, so each subset chain
  // collapses onto its largest overlap.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    const auto sx = overlaps.overlap(x).members.size();
    const auto sy = overlaps.overlap(y).members.size();
    if (sx != sy) return sx > sy;
    return x < y;
  });
  std::vector<std::uint32_t> pos_in_order(n);
  for (std::size_t p = 0; p < n; ++p) {
    pos_in_order[order[p]] = static_cast<std::uint32_t>(p);
  }

  const bool need_index = options.mode != ColocationMode::kNone && n > 0;
  std::optional<MemberIndex> index;
  if (need_index) index.emplace(overlaps);

  if (!need_index) {  // kNone, or no overlaps to cluster
    for (const std::size_t oi : order) clusters.push_back({{oi}, false});
  } else {
    // --- Step 1: subset rule. A subset of the seed contains only seed
    //     members, so candidates come from the seed members' inverted
    //     lists; the subset test walks stamped member marks. Selected
    //     candidates join the cluster in `order` position order — exactly
    //     the legacy full scan's visit order.
    std::vector<bool> clustered(n, false);
    std::vector<std::uint32_t> member_mark(index->node_limit, 0);
    std::vector<std::uint32_t> overlap_seen(n, 0);
    std::uint32_t gen = 0;
    std::vector<std::size_t> cand;
    for (const std::size_t seed : order) {
      if (clustered[seed]) continue;
      Cluster cluster{{seed}, false};
      clustered[seed] = true;
      const auto& seed_members = overlaps.overlap(seed).members;
      ++gen;
      for (const NodeId v : seed_members) member_mark[v.value()] = gen;
      cand.clear();
      for (const NodeId v : seed_members) {
        index->for_each_overlap_of(v, [&](std::size_t other) {
          if (overlap_seen[other] == gen) return;
          overlap_seen[other] = gen;
          if (clustered[other]) return;
          const auto& members = overlaps.overlap(other).members;
          const bool subset =
              std::all_of(members.begin(), members.end(), [&](NodeId m) {
                return member_mark[m.value()] == gen;
              });
          if (subset) cand.push_back(other);
        });
      }
      std::sort(cand.begin(), cand.end(),
                [&](std::size_t x, std::size_t y) {
                  return pos_in_order[x] < pos_in_order[y];
                });
      for (const std::size_t other : cand) {
        cluster.overlaps.push_back(other);
        clustered[other] = true;
      }
      clusters.push_back(std::move(cluster));
    }
  }

  // --- Step 2: shared-member rule — merge clusters containing a randomly
  //     chosen member of the pivot cluster's defining overlap. The
  //     "co-located only once" restriction: merged clusters are final.
  //     Merge candidates (clusters with an overlap containing v) come from
  //     v's inverted list, visited in cluster-index order like the legacy
  //     full scan. The RNG draw sequence (shuffle + one pick per unmerged
  //     pivot) is unchanged.
  std::vector<std::vector<std::size_t>> final_nodes;
  if (options.mode == ColocationMode::kFull) {
    std::vector<std::uint32_t> cluster_of(n, 0);
    for (std::size_t c = 0; c < clusters.size(); ++c) {
      for (const std::size_t oi : clusters[c].overlaps) {
        cluster_of[oi] = static_cast<std::uint32_t>(c);
      }
    }
    std::vector<std::size_t> visit(clusters.size());
    std::iota(visit.begin(), visit.end(), std::size_t{0});
    rng.shuffle(visit);
    std::vector<std::uint32_t> cluster_seen(clusters.size(), 0);
    std::uint32_t gen = 0;
    std::vector<std::uint32_t> cand;
    for (const std::size_t ci : visit) {
      if (clusters[ci].merged_in_step2) continue;
      clusters[ci].merged_in_step2 = true;
      std::vector<std::size_t> merged = clusters[ci].overlaps;
      const auto& pivot_members =
          overlaps.overlap(clusters[ci].overlaps.front()).members;
      const NodeId v = rng.pick(pivot_members);
      ++gen;
      cand.clear();
      index->for_each_overlap_of(v, [&](std::size_t oi) {
        const std::uint32_t cj = cluster_of[oi];
        if (cluster_seen[cj] == gen) return;
        cluster_seen[cj] = gen;
        if (!clusters[cj].merged_in_step2) cand.push_back(cj);
      });
      std::sort(cand.begin(), cand.end());
      for (const std::uint32_t cj : cand) {
        clusters[cj].merged_in_step2 = true;
        merged.insert(merged.end(), clusters[cj].overlaps.begin(),
                      clusters[cj].overlaps.end());
      }
      final_nodes.push_back(std::move(merged));
    }
  } else {
    for (Cluster& c : clusters) final_nodes.push_back(std::move(c.overlaps));
  }

  std::vector<std::size_t> labels(n, 0);
  for (std::size_t node = 0; node < final_nodes.size(); ++node) {
    for (const std::size_t oi : final_nodes[node]) labels[oi] = node;
  }
  return labels;
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
  DECSEQ_CHECK_MSG(node_of_atom_.size() == first_new_atom,
                   "colocation extension must start at the first appended "
                   "atom");
  node_of_atom_.resize(graph.num_atoms());
  std::vector<std::size_t> dense(labels.size(), static_cast<std::size_t>(-1));
  for (std::size_t i = first_new_atom; i < graph.num_atoms(); ++i) {
    const Atom& atom = graph.atoms()[i];
    std::size_t node;
    if (atom.is_ingress_only()) {
      node = nodes_.size();
      nodes_.emplace_back();
    } else {
      DECSEQ_CHECK(atom.overlap_index < labels.size());
      std::size_t& d = dense[labels[atom.overlap_index]];
      if (d == static_cast<std::size_t>(-1)) {
        d = nodes_.size();
        nodes_.emplace_back();
      }
      node = d;
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
  // Dense-renumber the labels that actually occur, then append one node per
  // ingress-only atom.
  std::vector<std::vector<AtomId>> nodes;
  std::vector<SeqNodeId> node_of_atom(graph.num_atoms());
  std::vector<std::size_t> dense(labels.size(), static_cast<std::size_t>(-1));
  for (const Atom& atom : graph.atoms()) {
    std::size_t node;
    if (atom.is_ingress_only()) {
      node = nodes.size();
      nodes.emplace_back();
    } else {
      DECSEQ_CHECK(atom.overlap_index < labels.size());
      std::size_t& d = dense[labels[atom.overlap_index]];
      if (d == static_cast<std::size_t>(-1)) {
        d = nodes.size();
        nodes.emplace_back();
      }
      node = d;
    }
    nodes[node].push_back(atom.id);
    node_of_atom[atom.id.value()] =
        SeqNodeId(static_cast<SeqNodeId::underlying_type>(node));
  }
  return Colocation(std::move(nodes), std::move(node_of_atom));
}

Colocation colocate_atoms(const SequencingGraph& graph,
                          const OverlapIndex& overlaps,
                          const ColocationOptions& options, Rng& rng) {
  return apply_labels(graph, colocate_overlaps(overlaps, options, rng));
}

}  // namespace decseq::placement
