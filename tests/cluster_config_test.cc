// The decseqd rank map (app/cluster_config.h): every sequencing node runs
// on the rank holding the most members of the live groups whose paths
// visit it, and a tie goes to the lowest rank. Hand-built cases pin each
// clause; the paper
// deployment checks the majority property on a compiled epoch; and the
// text format keeps every rank the rule chose.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "app/cluster_config.h"
#include "placement/colocation.h"
#include "pubsub/system.h"
#include "tests/test_util.h"

namespace decseq::app {
namespace {

AtomId A(unsigned a) { return AtomId(a); }

TEST(ClusterConfigRanks, NodeTakesItsGroupsMajorityRank) {
  // Nine hosts, three per rank: hosts 0-2 on rank 0, 3-5 on rank 1, 6-8
  // on rank 2. Sequencing node 0 holds atoms 0 and 1, node 1 atom 2.
  ClusterConfig config;
  config.num_ranks = 3;
  for (std::uint32_t h = 0; h < 9; ++h) config.hosts.push_back({h / 3, {}, {}});
  config.groups.resize(3);
  // Node 0: g0 brings two members on rank 2 and one on rank 1; g1 two on
  // rank 0 and one on rank 2. Rank 2 holds 3 of the 6, so the node runs
  // there. g1's path visits the node twice but counts once: counted per
  // hop, ranks 0 and 2 would tie at 4 and the node would go to rank 0.
  config.groups[0] = {{NodeId(6), NodeId(7), NodeId(3)}, {{A(0), true, 0}}};
  config.groups[1] = {{NodeId(0), NodeId(1), NodeId(8)},
                      {{A(0), true, 0}, {A(1), true, 0}}};
  // Node 1: one member on rank 2 and one on rank 1, a tie, so the lower
  // rank 1 takes it.
  config.groups[2] = {{NodeId(7), NodeId(4)}, {{A(2), false, 0}}};

  const placement::Colocation colocation(
      {{A(0), A(1)}, {A(2)}}, {SeqNodeId(0), SeqNodeId(0), SeqNodeId(1)});
  EXPECT_EQ(sequencing_node_ranks(config, colocation),
            (std::vector<std::uint32_t>{2, 1}));
}

/// Sum over the distinct live groups visiting each sequencing node of their
/// members on each rank: [node][rank].
std::vector<std::vector<std::uint64_t>> member_votes(
    const ClusterConfig& config, const placement::Colocation& colocation) {
  std::vector<std::vector<std::uint64_t>> votes(
      colocation.num_nodes(),
      std::vector<std::uint64_t>(config.num_ranks, 0));
  for (const GroupEntry& group : config.groups) {
    std::set<std::uint32_t> nodes;
    for (const HopEntry& hop : group.path) {
      nodes.insert(colocation.node_of(hop.atom).value());
    }
    for (const std::uint32_t node : nodes) {
      for (const NodeId member : group.members) {
        ++votes[node][config.hosts[member.value()].rank];
      }
    }
  }
  return votes;
}

TEST(ClusterConfigRanks, PaperNodesRunWhereMostOfTheirMembersAre) {
  const auto system = test::paper_system();
  const placement::Colocation& colocation = system->colocation();
  for (const std::uint32_t ranks : {2u, 3u, 4u}) {
    SCOPED_TRACE(std::to_string(ranks) + " ranks");
    const ClusterConfig config =
        build_cluster_config(*system, ranks, 50.0, 200, 1);
    const auto votes = member_votes(config, colocation);
    std::size_t hops = 0;
    for (const GroupEntry& group : config.groups) {
      for (const HopEntry& hop : group.path) {
        ++hops;
        const std::uint32_t node = colocation.node_of(hop.atom).value();
        const std::vector<std::uint64_t>& v = votes[node];
        for (std::uint32_t r = 0; r < ranks; ++r) {
          EXPECT_GE(v[hop.rank], v[r])
              << "node " << node << " on rank " << hop.rank << ", rank " << r
              << " holds more of its groups' members";
        }
      }
    }
    EXPECT_GT(hops, 0u);
  }
}

TEST(ClusterConfigRanks, TextRoundTripKeepsEveryRank) {
  const auto system = test::paper_system();
  const ClusterConfig config =
      build_cluster_config(*system, 3, 50.0, 200, 1);
  std::ostringstream out;
  write_cluster_config(config, out);
  std::istringstream in(out.str());
  const ClusterConfig loaded = read_cluster_config(in);

  ASSERT_EQ(loaded.num_ranks, config.num_ranks);
  ASSERT_EQ(loaded.hosts.size(), config.hosts.size());
  for (std::size_t h = 0; h < config.hosts.size(); ++h) {
    EXPECT_EQ(loaded.hosts[h].rank, config.hosts[h].rank) << "host " << h;
  }
  ASSERT_EQ(loaded.groups.size(), config.groups.size());
  std::set<std::uint32_t> ranks_used;
  for (std::size_t g = 0; g < config.groups.size(); ++g) {
    const auto& want = config.groups[g].path;
    const auto& got = loaded.groups[g].path;
    ASSERT_EQ(got.size(), want.size()) << "group " << g;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].atom, want[i].atom) << "group " << g << " hop " << i;
      EXPECT_EQ(got[i].rank, want[i].rank) << "group " << g << " hop " << i;
      ranks_used.insert(want[i].rank);
    }
  }
  EXPECT_EQ(ranks_used.size(), 3u) << "every rank runs some hop";
}

}  // namespace
}  // namespace decseq::app
