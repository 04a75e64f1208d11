// Differential tests pinning the scaled routing control plane to the legacy
// implementations it replaced (PR "million-host control plane"): the
// CSR/arena sequencing-graph builder (full and delta), the inverted-index
// overlap co-location, and the closed-form machine assignment must produce
// *identical* output — same atoms, paths, labels, machines — and consume
// identical RNG draw sequences, over 200 seeds of randomized workloads.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "membership/generators.h"
#include "membership/membership.h"
#include "membership/overlap.h"
#include "placement/assignment.h"
#include "placement/colocation.h"
#include "placement/legacy.h"
#include "seqgraph/graph.h"
#include "seqgraph/legacy.h"
#include "tests/test_util.h"
#include "topology/hosts.h"
#include "topology/transit_stub.h"

namespace decseq {
namespace {

using membership::GroupMembership;
using membership::OverlapIndex;
using seqgraph::BuildOptions;
using seqgraph::BuildStrategy;
using seqgraph::SequencingGraph;

constexpr int kSeeds = 200;

void expect_same_graph(const SequencingGraph& a, const SequencingGraph& b,
                       int seed) {
  ASSERT_EQ(a.num_atoms(), b.num_atoms()) << "seed " << seed;
  for (std::size_t i = 0; i < a.num_atoms(); ++i) {
    const seqgraph::Atom& x = a.atoms()[i];
    const seqgraph::Atom& y = b.atoms()[i];
    ASSERT_EQ(x.id, y.id) << "seed " << seed << " atom " << i;
    ASSERT_EQ(x.group_a, y.group_a) << "seed " << seed << " atom " << i;
    ASSERT_EQ(x.group_b, y.group_b) << "seed " << seed << " atom " << i;
    ASSERT_EQ(x.overlap_members, y.overlap_members)
        << "seed " << seed << " atom " << i;
    ASSERT_EQ(x.overlap_index, y.overlap_index)
        << "seed " << seed << " atom " << i;
    ASSERT_EQ(a.is_retired(x.id), b.is_retired(y.id))
        << "seed " << seed << " atom " << i;
    ASSERT_EQ(a.tree_neighbors(x.id), b.tree_neighbors(y.id))
        << "seed " << seed << " atom " << i;
  }
  ASSERT_EQ(a.groups(), b.groups()) << "seed " << seed;
  for (const GroupId g : a.groups()) {
    ASSERT_EQ(a.path(g), b.path(g)) << "seed " << seed << " group " << g;
  }
  EXPECT_EQ(a.num_overlap_atoms(), b.num_overlap_atoms()) << "seed " << seed;
  EXPECT_EQ(a.num_retired_atoms(), b.num_retired_atoms()) << "seed " << seed;
  EXPECT_EQ(a.tree_components(), b.tree_components()) << "seed " << seed;
  EXPECT_EQ(a.chain_components(), b.chain_components()) << "seed " << seed;
}

/// A delta build against the legacy one: the graphs, every group slot's
/// path (removed and created groups included) and the delta stats.
void expect_same_delta(const SequencingGraph& got,
                       const seqgraph::DeltaBuildStats& got_stats,
                       const SequencingGraph& want,
                       const seqgraph::DeltaBuildStats& want_stats,
                       const GroupMembership& m, int seed) {
  expect_same_graph(got, want, seed);
  for (std::size_t s = 0; s < m.num_group_slots(); ++s) {
    const GroupId g(static_cast<GroupId::underlying_type>(s));
    ASSERT_EQ(got.has_path(g), want.has_path(g))
        << "seed " << seed << " slot " << s;
    if (got.has_path(g)) {
      ASSERT_EQ(got.path(g), want.path(g)) << "seed " << seed << " slot " << s;
    }
  }
  EXPECT_EQ(got_stats.affected_groups, want_stats.affected_groups)
      << "seed " << seed;
  EXPECT_EQ(got_stats.components_relaid, want_stats.components_relaid)
      << "seed " << seed;
  EXPECT_EQ(got_stats.components_copied, want_stats.components_copied)
      << "seed " << seed;
  EXPECT_EQ(got_stats.atoms_created, want_stats.atoms_created)
      << "seed " << seed;
  EXPECT_EQ(got_stats.atoms_retired, want_stats.atoms_retired)
      << "seed " << seed;
}

GroupMembership workload(int seed) {
  Rng rng(static_cast<std::uint64_t>(seed) * 0x9e3779b9u + 1);
  return membership::zipf_membership(
      {.num_nodes = 24 + static_cast<std::size_t>(seed % 5) * 8,
       .num_groups = 6 + static_cast<std::size_t>(seed % 4) * 2,
       .scale = 1.0 + 0.25 * static_cast<double>(seed % 3)},
      rng);
}

BuildOptions options_for(int seed) {
  BuildOptions options;
  switch (seed % 3) {
    case 0: options.strategy = BuildStrategy::kChain; break;
    case 1: options.strategy = BuildStrategy::kChainUnordered; break;
    default: options.strategy = BuildStrategy::kGreedyTree; break;
  }
  return options;
}

TEST(RoutingScale, FullBuildMatchesLegacyOver200Seeds) {
  // One scratch shared across all seeds: reuse across workloads of
  // different shapes must not leak state between compiles.
  seqgraph::BuildScratch scratch;
  for (int seed = 0; seed < kSeeds; ++seed) {
    const GroupMembership m = workload(seed);
    const OverlapIndex idx(m);
    BuildOptions options = options_for(seed);
    std::vector<std::size_t> labels;
    if (seed % 2 == 0) {
      Rng label_rng(static_cast<std::uint64_t>(seed) + 77);
      labels = placement::colocate_overlaps(idx, {}, label_rng);
      options.colocation_labels = &labels;
    }
    BuildOptions new_options = options;
    if (seed % 4 < 2) new_options.scratch = &scratch;
    const SequencingGraph got =
        seqgraph::build_sequencing_graph(m, idx, new_options);
    const SequencingGraph want =
        seqgraph::legacy_build_sequencing_graph(m, idx, options);
    expect_same_graph(got, want, seed);
  }
}

TEST(RoutingScale, DeltaBuildMatchesLegacyMidReconfigure) {
  seqgraph::BuildScratch scratch;
  for (int seed = 0; seed < kSeeds; ++seed) {
    GroupMembership m = workload(seed);
    const OverlapIndex idx(m);
    BuildOptions options = options_for(seed);
    BuildOptions new_options = options;
    new_options.scratch = &scratch;
    const SequencingGraph base =
        seqgraph::build_sequencing_graph(m, idx, new_options);
    const SequencingGraph legacy_base =
        seqgraph::legacy_build_sequencing_graph(m, idx, options);
    expect_same_graph(base, legacy_base, seed);

    // One membership mutation, then the delta rebuild both ways — the path
    // a live reconfigure_async compiles mid-transition.
    Rng rng(static_cast<std::uint64_t>(seed) + 31);
    const auto live = m.live_groups();
    std::vector<GroupId> dirty;
    const std::size_t kind = rng.next_below(3);
    if (kind == 0 || live.empty()) {
      std::vector<NodeId> members;
      const std::size_t size = 2 + rng.next_below(3);
      while (members.size() < size) {
        const NodeId cand(static_cast<NodeId::underlying_type>(
            rng.next_below(m.num_nodes())));
        bool dup = false;
        for (const NodeId v : members) dup = dup || v == cand;
        if (!dup) members.push_back(cand);
      }
      dirty.push_back(m.add_group(std::move(members)));
    } else if (kind == 1) {
      const GroupId g = live[rng.next_below(live.size())];
      m.remove_group(g);
      dirty.push_back(g);
    } else {
      const GroupId g = live[rng.next_below(live.size())];
      NodeId joiner;
      for (std::size_t probe = 0; probe < m.num_nodes(); ++probe) {
        const NodeId cand(static_cast<NodeId::underlying_type>(probe));
        if (!m.is_member(g, cand)) {
          joiner = cand;
          break;
        }
      }
      if (!joiner.valid()) continue;  // the group spans every node
      m.add_member(g, joiner);
      dirty.push_back(g);
    }

    const OverlapIndex new_idx(idx, m, dirty);
    seqgraph::DeltaBuildStats got_stats, want_stats;
    const SequencingGraph got = seqgraph::build_sequencing_graph_delta(
        base, idx, m, new_idx, dirty, new_options, &got_stats);
    const SequencingGraph want = seqgraph::legacy_build_sequencing_graph_delta(
        legacy_base, idx, m, new_idx, dirty, options, &want_stats);
    expect_same_delta(got, got_stats, want, want_stats, m, seed);

    // The form PubSubSystem uses: the old graph moved in and edited in
    // place rather than copied.
    SequencingGraph consumed = base;
    seqgraph::DeltaBuildStats moved_stats;
    const SequencingGraph moved = seqgraph::build_sequencing_graph_delta(
        std::move(consumed), idx, m, new_idx, dirty, new_options,
        &moved_stats);
    expect_same_delta(moved, moved_stats, want, want_stats, m, seed);
  }
}

TEST(RoutingScale, ColocationMatchesLegacyOver200Seeds) {
  constexpr placement::ColocationMode kModes[] = {
      placement::ColocationMode::kNone, placement::ColocationMode::kSubsetOnly,
      placement::ColocationMode::kFull};
  for (int seed = 0; seed < kSeeds; ++seed) {
    const GroupMembership m = workload(seed);
    const OverlapIndex idx(m);
    const placement::ColocationOptions options{kModes[seed % 3]};
    Rng got_rng(static_cast<std::uint64_t>(seed) + 5);
    Rng want_rng(static_cast<std::uint64_t>(seed) + 5);
    const auto got = placement::colocate_overlaps(idx, options, got_rng);
    const auto want =
        placement::legacy_colocate_overlaps(idx, options, want_rng);
    ASSERT_EQ(got, want) << "seed " << seed;
    // Both must consume the exact same RNG draw sequence: the streams stay
    // aligned for everything the pipeline draws afterwards.
    EXPECT_EQ(got_rng(), want_rng()) << "seed " << seed;
  }
}

TEST(RoutingScale, AssignmentMatchesLegacyOver200Seeds) {
  Rng topo_rng(11);
  const auto topo =
      topology::generate_transit_stub(test::small_topology(), topo_rng);
  const auto hosts = topology::attach_hosts(
      topo, {.num_hosts = 64, .num_clusters = 8}, topo_rng);
  for (int seed = 0; seed < kSeeds; ++seed) {
    const GroupMembership m = workload(seed);
    const OverlapIndex idx(m);
    BuildOptions options = options_for(seed);
    Rng label_rng(static_cast<std::uint64_t>(seed) + 13);
    const auto labels = placement::colocate_overlaps(idx, {}, label_rng);
    options.colocation_labels = &labels;
    const SequencingGraph graph =
        seqgraph::build_sequencing_graph(m, idx, options);
    const placement::Colocation colocation =
        placement::apply_labels(graph, labels);
    placement::AssignmentOptions assign_options;
    assign_options.mode = seed % 4 == 3 ? placement::AssignmentMode::kAllRandom
                                        : placement::AssignmentMode::kPaperHeuristic;
    assign_options.seed = seed % 2 == 0 ? placement::SeedPolicy::kGroupMember
                                        : placement::SeedPolicy::kRandomRouter;
    Rng got_rng(static_cast<std::uint64_t>(seed) + 19);
    Rng want_rng(static_cast<std::uint64_t>(seed) + 19);
    const placement::Assignment got =
        placement::assign_machines(graph, colocation, m, hosts, topo.graph,
                                   assign_options, got_rng);
    const placement::Assignment want = placement::legacy_assign_machines(
        graph, colocation, m, hosts, topo.graph, assign_options, want_rng);
    ASSERT_EQ(got.num_nodes(), want.num_nodes()) << "seed " << seed;
    for (std::size_t n = 0; n < got.num_nodes(); ++n) {
      const SeqNodeId id(static_cast<SeqNodeId::underlying_type>(n));
      ASSERT_EQ(got.assigned(id), want.assigned(id))
          << "seed " << seed << " node " << n;
      if (got.assigned(id)) {
        ASSERT_EQ(got.machine_of(id), want.machine_of(id))
            << "seed " << seed << " node " << n;
      }
    }
    EXPECT_EQ(got_rng(), want_rng()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace decseq
