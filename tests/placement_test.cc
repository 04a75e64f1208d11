#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "membership/generators.h"
#include "membership/overlap.h"
#include "placement/assignment.h"
#include "placement/colocation.h"
#include "seqgraph/graph.h"
#include "tests/test_util.h"
#include "topology/hosts.h"

namespace decseq::placement {
namespace {

using membership::GroupMembership;
using membership::OverlapIndex;
using test::G;
using test::N;

struct Built {
  GroupMembership membership;
  OverlapIndex overlaps;
  seqgraph::SequencingGraph graph;
};

Built build(const GroupMembership& m) {
  OverlapIndex idx(m);
  auto graph = seqgraph::build_sequencing_graph(m, idx, {});
  return {m, std::move(idx), std::move(graph)};
}

TEST(Colocation, EveryAtomAssignedExactlyOnce) {
  Rng rng(1);
  const auto b = build(test::make_membership(
      8, {{0, 1, 2, 3}, {0, 1, 4, 5}, {2, 3, 4, 5}, {1, 2, 5, 6}}));
  const Colocation c = colocate_atoms(b.graph, b.overlaps, {}, rng);
  std::set<AtomId> seen;
  for (std::size_t n = 0; n < c.num_nodes(); ++n) {
    for (const AtomId a : c.atoms_of(SeqNodeId(static_cast<unsigned>(n)))) {
      EXPECT_TRUE(seen.insert(a).second) << "atom " << a << " placed twice";
      EXPECT_EQ(c.node_of(a).value(), n);
    }
  }
  EXPECT_EQ(seen.size(), b.graph.num_atoms());
}

TEST(Colocation, SubsetRuleMergesNestedOverlaps) {
  // Overlap {0,1,2} (g0∩g1) strictly contains overlap {0,1} (g0∩g2 and
  // g1∩g2 give {0,1}); subset-only mode must co-locate them.
  const auto b = build(test::make_membership(
      8, {{0, 1, 2, 3, 4}, {0, 1, 2, 5, 6}, {0, 1, 7}}));
  Rng rng(2);
  const Colocation c =
      colocate_atoms(b.graph, b.overlaps, {.mode = ColocationMode::kSubsetOnly}, rng);
  // Three overlaps: (g0,g1)={0,1,2}, (g0,g2)={0,1}, (g1,g2)={0,1}.
  ASSERT_EQ(b.graph.num_overlap_atoms(), 3u);
  EXPECT_EQ(c.num_overlap_nodes(b.graph), 1u)
      << "all three overlaps nest within {0,1,2}";
}

TEST(Colocation, NoneModeKeepsAtomsApart) {
  const auto b = build(test::make_membership(
      8, {{0, 1, 2, 3, 4}, {0, 1, 2, 5, 6}, {0, 1, 7}}));
  Rng rng(3);
  const Colocation c =
      colocate_atoms(b.graph, b.overlaps, {.mode = ColocationMode::kNone}, rng);
  EXPECT_EQ(c.num_overlap_nodes(b.graph), b.graph.num_overlap_atoms());
}

TEST(Colocation, FullModeNeverWorseThanSubsetOnly) {
  Rng data_rng(4);
  const auto m = membership::zipf_membership(
      {.num_nodes = 64, .num_groups = 20, .scale = 2.0}, data_rng);
  const auto b = build(m);
  Rng r1(5), r2(5);
  const auto subset =
      colocate_atoms(b.graph, b.overlaps, {.mode = ColocationMode::kSubsetOnly}, r1);
  const auto full =
      colocate_atoms(b.graph, b.overlaps, {.mode = ColocationMode::kFull}, r2);
  EXPECT_LE(full.num_overlap_nodes(b.graph),
            subset.num_overlap_nodes(b.graph));
}

TEST(Colocation, GroupsOnANodeShareHistory) {
  // Full-mode nodes merge only clusters sharing the pivot member: every
  // step-2 merge has a witness node present in some atom of each merged
  // cluster. Weak but checkable proxy: each sequencing node's atoms span a
  // connected "shares a member" relation graph.
  Rng data_rng(6);
  const auto m = membership::zipf_membership(
      {.num_nodes = 48, .num_groups = 16, .scale = 2.0}, data_rng);
  const auto b = build(m);
  Rng rng(7);
  const Colocation c = colocate_atoms(b.graph, b.overlaps, {}, rng);
  for (std::size_t n = 0; n < c.num_nodes(); ++n) {
    const auto& atoms = c.atoms_of(SeqNodeId(static_cast<unsigned>(n)));
    if (atoms.size() < 2) continue;
    // Union of members must be smaller than the sum of sizes (some sharing).
    std::set<NodeId> all;
    std::size_t total = 0;
    for (const AtomId a : atoms) {
      const auto& mem = b.graph.atom(a).overlap_members;
      all.insert(mem.begin(), mem.end());
      total += mem.size();
    }
    EXPECT_LT(all.size(), total)
        << "sequencing node " << n << " hosts unrelated atoms";
  }
}

TEST(Colocation, IngressOnlyAtomsGetOwnNodes) {
  const auto b = build(test::make_membership(6, {{0, 1}, {2, 3}, {4, 5}}));
  Rng rng(8);
  const Colocation c = colocate_atoms(b.graph, b.overlaps, {}, rng);
  EXPECT_EQ(c.num_nodes(), 3u);
  EXPECT_EQ(c.num_overlap_nodes(b.graph), 0u);
}

TEST(Colocation, NoOverlapsInEveryMode) {
  // Groups sharing at most one member: the index holds no double overlaps,
  // which is what every PubSubSystem constructor's empty epoch compiles.
  const OverlapIndex idx(test::make_membership(6, {{0, 1, 2}, {2, 3}, {4, 5}}));
  ASSERT_EQ(idx.num_overlaps(), 0u);
  for (const ColocationMode mode :
       {ColocationMode::kNone, ColocationMode::kSubsetOnly,
        ColocationMode::kFull}) {
    Rng rng(9), untouched(9);
    EXPECT_TRUE(colocate_overlaps(idx, {.mode = mode}, rng).empty());
    EXPECT_EQ(rng(), untouched()) << "an empty epoch drew from the RNG";
  }
}

class AssignmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng topo_rng(11);
    topo_ = topology::generate_transit_stub(test::small_topology(), topo_rng);
    hosts_ = std::make_unique<topology::HostMap>(topology::attach_hosts(
        topo_, {.num_hosts = 16, .num_clusters = 4}, topo_rng));
    oracle_ = std::make_unique<topology::DistanceOracle>(topo_.graph);
  }

  topology::TransitStubTopology topo_;
  std::unique_ptr<topology::HostMap> hosts_;
  std::unique_ptr<topology::DistanceOracle> oracle_;
};

TEST_F(AssignmentTest, EverySeqNodeGetsAMachine) {
  Rng rng(12);
  const auto m = membership::zipf_membership(
      {.num_nodes = 16, .num_groups = 8, .scale = 2.0}, rng);
  const auto b = build(m);
  const Colocation c = colocate_atoms(b.graph, b.overlaps, {}, rng);
  const Assignment a = assign_machines(b.graph, c, b.membership, *hosts_,
                                       topo_.graph, {}, rng);
  for (std::size_t n = 0; n < c.num_nodes(); ++n) {
    const RouterId r = a.machine_of(SeqNodeId(static_cast<unsigned>(n)));
    EXPECT_TRUE(r.valid());
    EXPECT_LT(r.value(), topo_.graph.num_routers());
  }
}

TEST_F(AssignmentTest, HeuristicPlacesPathNeighborsNearby) {
  Rng rng(13);
  const auto m = membership::zipf_membership(
      {.num_nodes = 16, .num_groups = 10, .scale = 3.0}, rng);
  const auto b = build(m);
  // Force atoms apart so group paths cross several sequencing nodes.
  const Colocation c =
      colocate_atoms(b.graph, b.overlaps, {.mode = ColocationMode::kNone}, rng);

  Rng rng_h(14), rng_r(14);
  const Assignment heuristic =
      assign_machines(b.graph, c, b.membership, *hosts_, topo_.graph,
                      {.mode = AssignmentMode::kPaperHeuristic}, rng_h);
  const Assignment random =
      assign_machines(b.graph, c, b.membership, *hosts_, topo_.graph,
                      {.mode = AssignmentMode::kAllRandom}, rng_r);

  auto total_path_delay = [&](const Assignment& a) {
    double total = 0.0;
    for (const GroupId g : b.graph.groups()) {
      const auto path = seq_node_path(b.graph, c, g);
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        total += oracle_->distance(a.machine_of(path[i]),
                                   a.machine_of(path[i + 1]));
      }
    }
    return total;
  };
  const double h = total_path_delay(heuristic);
  const double r = total_path_delay(random);
  if (r > 0.0) {
    EXPECT_LT(h, r) << "the proximity heuristic should beat random placement";
  }
}

TEST_F(AssignmentTest, SeqNodePathCollapsesColocatedAtoms) {
  Rng rng(15);
  const auto b = build(test::make_membership(
      8, {{0, 1, 2, 3, 4}, {0, 1, 2, 5, 6}, {0, 1, 7}}));
  const Colocation c = colocate_atoms(b.graph, b.overlaps, {}, rng);
  for (const GroupId g : b.graph.groups()) {
    const auto path = seq_node_path(b.graph, c, g);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      EXPECT_NE(path[i], path[i + 1]);
    }
  }
}

}  // namespace
}  // namespace decseq::placement
