// Integration tests at the paper's full scale and beyond: the 10,000-router
// topology with 128 hosts and live traffic, plus a membership-plane-only
// tier at 100k hosts (1M × 100k under DECSEQ_SCALE_FULL=1) that exercises
// the succinct membership engine at ROADMAP scale. Slower than the unit
// tests (~1-2 s) but proves the experiment configuration itself upholds the
// guarantees the small-scale property tests check.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>

#include "common/rng.h"
#include "membership/generators.h"
#include "membership/overlap.h"
#include "pubsub/system.h"
#include "tests/test_util.h"

namespace decseq {
namespace {

TEST(PaperScale, FullConfigurationOrdersConsistently) {
  pubsub::SystemConfig config;
  config.seed = 20060101;
  config.hosts.num_hosts = 128;
  config.hosts.num_clusters = 32;
  pubsub::PubSubSystem system(config);
  ASSERT_EQ(system.topology_graph().num_routers(), 10000u);

  Rng rng(7);
  const auto snapshot = membership::zipf_membership(
      {.num_nodes = 128, .num_groups = 32}, rng);
  std::vector<std::vector<NodeId>> lists;
  for (const GroupId g : snapshot.live_groups()) {
    lists.push_back(snapshot.members(g));
  }
  system.create_groups(std::move(lists));
  EXPECT_GT(system.overlaps().num_overlaps(), 10u)
      << "the paper workload must create a real overlap structure";

  // Concurrent traffic: every node one message to each of its groups, all
  // within a 100ms window.
  auto& sim = system.simulator();
  std::map<MsgId, GroupId> sent;
  for (std::size_t n = 0; n < 128; ++n) {
    const NodeId sender(static_cast<unsigned>(n));
    for (const GroupId g : system.membership().groups_of(sender)) {
      sim.schedule_at(rng.next_double() * 100.0, [&system, &sent, sender, g] {
        sent[system.publish(sender, g)] = g;
      });
    }
  }
  system.run();

  // Exactly-once to every member; consistent everywhere.
  std::map<MsgId, std::set<NodeId>> delivered_to;
  for (const auto& d : system.deliveries()) {
    ASSERT_TRUE(delivered_to[d.message].insert(d.receiver).second);
  }
  for (const auto& [msg, group] : sent) {
    EXPECT_EQ(delivered_to[msg].size(),
              system.membership().members(group).size());
  }
  EXPECT_EQ(system.network().buffered_at_receivers(), 0u);
  const auto violation = test::find_order_violation(system.deliveries());
  EXPECT_FALSE(violation.has_value()) << *violation;

  // The §1.2 scalability claim, at scale: no sequencing machine handles an
  // order of magnitude more messages than the busiest receiver.
  std::size_t max_seq = 0, max_recv = 0;
  for (const std::size_t l : system.network().seqnode_load()) {
    max_seq = std::max(max_seq, l);
  }
  for (std::size_t n = 0; n < 128; ++n) {
    max_recv = std::max(
        max_recv,
        system.network().deliveries(NodeId(static_cast<unsigned>(n))));
  }
  EXPECT_LE(max_seq, max_recv * 2)
      << "sequencing load must track receiver load (paper §1.2)";
}

// The membership plane alone, far beyond the paper's 128 hosts. Quick tier
// (100k hosts × 10k groups, ~1 s) by default; set DECSEQ_SCALE_FULL=1 to
// run the full ROADMAP tier (1M hosts × 100k groups) locally.
TEST(PaperScale, SuccinctMembershipEngineAtScale) {
  const bool full = []() {
    const char* v = std::getenv("DECSEQ_SCALE_FULL");
    return v != nullptr && v[0] == '1';
  }();
  const std::size_t hosts = full ? 1000000 : 100000;
  const std::size_t groups = full ? 100000 : 10000;

  Rng rng(20060101);
  const auto membership = membership::zipf_membership(
      {.num_nodes = hosts,
       .num_groups = groups,
       .selection = membership::MemberSelection::kUniform},
      rng);

  const membership::OverlapIndex index(membership);
  const auto& stats = index.build_stats();

  // Zipf(1) sizes: a handful of huge groups, a long tail of size-2 ones.
  // The build's work is bounded by per-node co-subscriptions, not by the
  // G² pairwise product.
  EXPECT_GT(index.num_overlaps(), 100u);
  EXPECT_LT(stats.pair_increments, hosts * 8)
      << "per-node co-subscription cost must stay near-linear in hosts";

  // Succinct representation: the whole membership + overlap state must
  // cost a bounded number of bytes per subscription, independent of the
  // universe size (a dense bitmap row alone would be hosts/8 bytes).
  std::size_t subscriptions = 0;
  for (const GroupId g : membership.live_groups()) {
    subscriptions += membership.members(g).size();
  }
  const double bytes_per_sub =
      static_cast<double>(membership.memory_bytes() + index.memory_bytes()) /
      static_cast<double>(subscriptions);
  EXPECT_LT(bytes_per_sub, 256.0);

  // Spot-check inverted-index queries against the membership lists.
  for (std::size_t n = 0; n < hosts; n += hosts / 97) {
    const NodeId node(static_cast<NodeId::underlying_type>(n));
    const auto groups_of = membership.groups_of(node);
    EXPECT_EQ(groups_of.size(), membership.subscription_count(node));
    for (const GroupId g : groups_of) {
      EXPECT_TRUE(membership.is_member(g, node));
    }
  }
}

}  // namespace
}  // namespace decseq
