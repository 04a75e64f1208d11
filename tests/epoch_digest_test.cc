// The compiled-epoch digest (pubsub/epoch_digest.h): a golden for the
// paper deployment, and a mutation check showing that one change to any
// layer of an epoch moves the digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include "placement/assignment.h"
#include "placement/colocation.h"
#include "pubsub/epoch_digest.h"
#include "seqgraph/graph.h"
#include "tests/test_util.h"
#include "topology/hosts.h"
#include "topology/transit_stub.h"

namespace decseq::pubsub {
namespace {

using membership::GroupMembership;
using membership::OverlapIndex;
using seqgraph::SequencingGraph;

TEST(EpochDigest, PaperSystemMatchesGoldenDigest) {
  // The epoch every figure's paper deployment compiles first. Regenerate
  // only for a deliberate change of the control plane's output.
  EXPECT_EQ(epoch_digest(*test::paper_system()), 0x785e120222e7c79eULL);
}

/// Overlaps A–B {1, 2, 3} and B–C {3, 4} in one component (A–C shares
/// node 3 only), D–E {9, 10} in another; node 15 is in no group.
GroupMembership small_membership() {
  return test::make_membership(16, {{0, 1, 2, 3},
                                    {1, 2, 3, 4},
                                    {3, 4, 5, 6},
                                    {8, 9, 10},
                                    {9, 10, 11}});
}

/// One epoch compiled layer by layer, so a check can swap one layer for a
/// changed copy and fold the rest as they are.
struct Epoch {
  GroupMembership membership;
  OverlapIndex overlaps;
  std::vector<std::size_t> labels;
  SequencingGraph graph;
  placement::Colocation colocation;
  placement::Assignment assignment;

  [[nodiscard]] std::uint64_t digest() const {
    return epoch_digest(membership, overlaps, &labels, graph, colocation,
                        assignment);
  }
};

class EpochDigestMutation : public ::testing::Test {
 protected:
  EpochDigestMutation()
      : topo_rng_(5),
        topo_(topology::generate_transit_stub(test::small_topology(),
                                              topo_rng_)),
        hosts_(topology::attach_hosts(
            topo_, {.num_hosts = 16, .num_clusters = 4}, topo_rng_)) {}

  /// The full compile of `m`, drawing labels and machines from `seed`.
  [[nodiscard]] Epoch compile(GroupMembership m, std::uint64_t seed) const {
    Rng rng(seed);
    OverlapIndex overlaps(m);
    std::vector<std::size_t> labels =
        placement::colocate_overlaps(overlaps, {}, rng);
    seqgraph::BuildOptions options;
    options.colocation_labels = &labels;
    SequencingGraph graph =
        seqgraph::build_sequencing_graph(m, overlaps, options);
    placement::Colocation colocation = placement::apply_labels(graph, labels);
    placement::Assignment assignment = placement::assign_machines(
        graph, colocation, m, hosts_, topo_.graph, {}, rng);
    return {std::move(m),     std::move(overlaps),   std::move(labels),
            std::move(graph), std::move(colocation), std::move(assignment)};
  }

  Rng topo_rng_;
  topology::TransitStubTopology topo_;
  topology::HostMap hosts_;
};

TEST_F(EpochDigestMutation, OneOverlapMemberMovesTheDigest) {
  const Epoch base = compile(small_membership(), 1);
  // Node 1 leaves A and B and node 15 joins both: A–B's members become
  // {2, 3, 15}, and every other overlap keeps its members.
  GroupMembership changed = small_membership();
  for (const GroupId g : {GroupId(0), GroupId(1)}) {
    changed.remove_member(g, NodeId(1));
    changed.add_member(g, NodeId(15));
  }
  const OverlapIndex overlaps(changed);
  ASSERT_EQ(overlaps.num_overlaps(), base.overlaps.num_overlaps());
  std::size_t replaced = 0;
  for (std::size_t i = 0; i < overlaps.num_overlaps(); ++i) {
    const auto& now = overlaps.overlap(i).members;
    const auto& before = base.overlaps.overlap(i).members;
    ASSERT_EQ(now.size(), before.size());
    std::vector<NodeId> gone;
    std::set_difference(before.begin(), before.end(), now.begin(), now.end(),
                        std::back_inserter(gone));
    replaced += gone.size();
  }
  ASSERT_EQ(replaced, 1u);

  EXPECT_NE(epoch_digest(base.membership, overlaps, &base.labels, base.graph,
                         base.colocation, base.assignment),
            base.digest());
}

TEST_F(EpochDigestMutation, OneLabelMovesTheDigest) {
  const Epoch base = compile(small_membership(), 1);
  ASSERT_FALSE(base.labels.empty());
  std::vector<std::size_t> labels = base.labels;
  labels.back() += 1;
  EXPECT_NE(epoch_digest(base.membership, base.overlaps, &labels, base.graph,
                         base.colocation, base.assignment),
            base.digest());
}

TEST_F(EpochDigestMutation, SwappingTwoPathAtomsMovesTheDigest) {
  const Epoch base = compile(small_membership(), 1);
  std::vector<std::vector<AtomId>> paths(base.membership.num_group_slots());
  for (const GroupId g : base.graph.groups()) {
    paths[g.value()] = base.graph.path(g);
  }
  std::vector<std::vector<AtomId>> tree;
  for (const seqgraph::Atom& atom : base.graph.atoms()) {
    tree.push_back(base.graph.tree_neighbors(atom.id));
  }
  const auto rebuilt = [&](const std::vector<std::vector<AtomId>>& with) {
    const SequencingGraph graph = SequencingGraph::make_for_testing(
        base.graph.atoms(), with, tree, base.graph.num_overlap_atoms());
    return epoch_digest(base.membership, base.overlaps, &base.labels, graph,
                        base.colocation, base.assignment);
  };
  // B's path holds the A–B and B–C atoms.
  ASSERT_GE(paths[1].size(), 2u);
  std::vector<std::vector<AtomId>> swapped = paths;
  std::swap(swapped[1][0], swapped[1][1]);
  EXPECT_NE(rebuilt(swapped), rebuilt(paths));
}

TEST_F(EpochDigestMutation, MovingOneAtomToAnotherNodeMovesTheDigest) {
  const Epoch base = compile(small_membership(), 1);
  const std::size_t num_nodes = base.colocation.num_nodes();
  ASSERT_GE(num_nodes, 2u);
  std::vector<std::vector<AtomId>> nodes;
  for (std::size_t n = 0; n < num_nodes; ++n) {
    nodes.push_back(base.colocation.atoms_of(
        SeqNodeId(static_cast<SeqNodeId::underlying_type>(n))));
  }
  std::vector<SeqNodeId> node_of;
  for (const seqgraph::Atom& atom : base.graph.atoms()) {
    node_of.push_back(base.colocation.node_of(atom.id));
  }
  const auto rebuilt = [&](std::vector<std::vector<AtomId>> n,
                           std::vector<SeqNodeId> of) {
    const placement::Colocation colocation(std::move(n), std::move(of));
    return epoch_digest(base.membership, base.overlaps, &base.labels,
                        base.graph, colocation, base.assignment);
  };
  ASSERT_EQ(rebuilt(nodes, node_of), base.digest());

  // Atom 0 leaves its node for the next one.
  const AtomId atom(0);
  const SeqNodeId from = node_of[0];
  const SeqNodeId to(static_cast<SeqNodeId::underlying_type>(
      (from.value() + 1) % num_nodes));
  auto& list = nodes[from.value()];
  ASSERT_GE(list.size(), 2u) << "the move would empty node " << from;
  list.erase(std::find(list.begin(), list.end(), atom));
  nodes[to.value()].push_back(atom);
  node_of[0] = to;
  EXPECT_NE(rebuilt(nodes, node_of), base.digest());
}

TEST_F(EpochDigestMutation, OneMachineMovesTheDigest) {
  const Epoch base = compile(small_membership(), 1);
  std::vector<RouterId> machines;
  for (std::size_t n = 0; n < base.assignment.num_nodes(); ++n) {
    machines.push_back(base.assignment.machine_of(
        SeqNodeId(static_cast<SeqNodeId::underlying_type>(n))));
  }
  const auto rebuilt = [&](std::vector<RouterId> with) {
    return epoch_digest(base.membership, base.overlaps, &base.labels,
                        base.graph, base.colocation,
                        placement::Assignment(std::move(with)));
  };
  ASSERT_EQ(rebuilt(machines), base.digest());
  machines[0] = RouterId(
      static_cast<RouterId::underlying_type>((machines[0].value() + 1) %
                                             topo_.graph.num_routers()));
  EXPECT_NE(rebuilt(machines), base.digest());
}

TEST_F(EpochDigestMutation, AnotherAssignmentSeedMovesTheDigest) {
  // The small epoch's hosts sit at four routers, so two seeds may well
  // place it alike; the paper deployment's sit at 32.
  const auto system = test::paper_system();
  const auto digest_with_seed = [&](std::uint64_t seed) {
    Rng rng(seed);
    const placement::Assignment assignment = placement::assign_machines(
        system->graph(), system->colocation(), system->membership(),
        system->hosts(), system->topology_graph(), {}, rng);
    return epoch_digest(system->membership(), system->overlaps(), nullptr,
                        system->graph(), system->colocation(), assignment);
  };
  EXPECT_NE(digest_with_seed(1), digest_with_seed(2));
}

}  // namespace
}  // namespace decseq::pubsub
