#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/test_util.h"
#include "topology/multicast_tree.h"
#include "topology/shortest_path.h"
#include "topology/transit_stub.h"

namespace decseq::topology {
namespace {

/// Line graph a-b-c-d plus a spur b-e.
struct LineFixture {
  RouterId a{0}, b{1}, c{2}, d{3}, e{4};
  Graph g{5, std::vector<Link>{
                 {a, b, 1.0}, {b, c, 2.0}, {c, d, 3.0}, {b, e, 4.0}}};
};

TEST(MulticastTree, SharedPrefixCountedOnce) {
  LineFixture f;
  const MulticastTree tree(f.g, f.a, {f.d, f.e});
  // Paths a-b-c-d (3 links) and a-b-e (2 links) share link a-b.
  EXPECT_EQ(tree.num_links(), 4u);
  EXPECT_EQ(tree.unicast_links(), 5u);
}

TEST(MulticastTree, DelaysEqualUnicast) {
  LineFixture f;
  const MulticastTree tree(f.g, f.a, {f.d, f.e});
  DistanceOracle oracle(f.g);
  EXPECT_DOUBLE_EQ(tree.delay_to(f.d), oracle.distance(f.a, f.d));
  EXPECT_DOUBLE_EQ(tree.delay_to(f.e), oracle.distance(f.a, f.e));
}

TEST(MulticastTree, PathEdgesFollowTree) {
  LineFixture f;
  const MulticastTree tree(f.g, f.a, {f.d});
  const auto path = tree.path_edges(f.d);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], std::make_pair(f.a, f.b));
  EXPECT_EQ(path[2], std::make_pair(f.c, f.d));
}

TEST(MulticastTree, SourceOnlyTree) {
  LineFixture f;
  const MulticastTree tree(f.g, f.a, {f.a});
  EXPECT_EQ(tree.num_links(), 0u);
  EXPECT_DOUBLE_EQ(tree.delay_to(f.a), 0.0);
  EXPECT_TRUE(tree.path_edges(f.a).empty());
}

TEST(MulticastTree, UnknownDestinationRejected) {
  LineFixture f;
  const MulticastTree tree(f.g, f.a, {f.b});
  EXPECT_THROW((void)tree.delay_to(f.d), CheckFailure);
  EXPECT_THROW((void)tree.path_edges(f.d), CheckFailure);
}

TEST(MulticastTree, NeverMoreLinksThanUnicast) {
  Rng rng(3);
  const auto topo = generate_transit_stub(test::small_topology(), rng);
  const HostMap hosts =
      attach_hosts(topo, {.num_hosts = 12, .num_clusters = 3}, rng);
  std::vector<RouterId> dests;
  for (unsigned h = 1; h < 12; ++h) dests.push_back(hosts.router_of(NodeId(h)));
  const MulticastTree tree(topo.graph, hosts.router_of(NodeId(0)), dests);
  EXPECT_LE(tree.num_links(), tree.unicast_links());
  EXPECT_GT(tree.num_links(), 0u);
  // Every destination is reachable through the tree with unicast delay.
  DistanceOracle oracle(topo.graph);
  for (const RouterId d : dests) {
    EXPECT_DOUBLE_EQ(tree.delay_to(d),
                     oracle.distance(hosts.router_of(NodeId(0)), d));
  }
}

TEST(LinkStress, AccumulatesPerLink) {
  LineFixture f;
  LinkStress stress;
  const MulticastTree tree(f.g, f.a, {f.d, f.e});
  stress.add_tree(tree);
  stress.add_tree(tree);
  EXPECT_EQ(stress.links_used(), 4u);
  EXPECT_EQ(stress.max_stress(), 2u);
  EXPECT_EQ(stress.total_messages(), 8u);
}

TEST(LinkStress, DirectionalLinks) {
  LinkStress stress;
  stress.add(RouterId(1), RouterId(2));
  stress.add(RouterId(2), RouterId(1));
  EXPECT_EQ(stress.links_used(), 2u);
  EXPECT_EQ(stress.max_stress(), 1u);
}

}  // namespace
}  // namespace decseq::topology
