#include <gtest/gtest.h>

#include <map>
#include <set>
#include <type_traits>
#include <vector>

#include "pubsub/system.h"
#include "tests/test_util.h"

namespace decseq::pubsub {
namespace {

using test::G;
using test::N;

// The network and the oracle hold references to the system's simulator and
// router graph, which a copy or a move would leave behind.
static_assert(!std::is_copy_constructible_v<PubSubSystem>);
static_assert(!std::is_move_constructible_v<PubSubSystem>);
static_assert(!std::is_move_assignable_v<PubSubSystem>);

TEST(PubSub, SingleGroupDeliversToAllMembers) {
  PubSubSystem system(test::small_config(1));
  const GroupId g = system.create_group({N(0), N(1), N(2)});
  system.publish(N(0), g, 42);
  system.run();
  ASSERT_EQ(system.deliveries().size(), 3u);
  std::set<NodeId> receivers;
  for (const Delivery& d : system.deliveries()) {
    receivers.insert(d.receiver);
    EXPECT_EQ(d.payload, 42u);
    EXPECT_EQ(d.sender, N(0));
    EXPECT_GT(d.delivered_at, d.sent_at);
  }
  EXPECT_EQ(receivers, (std::set<NodeId>{N(0), N(1), N(2)}));
}

TEST(PubSub, SenderNeedNotSubscribe) {
  PubSubSystem system(test::small_config(2));
  const GroupId g = system.create_group({N(1), N(2)});
  system.publish(N(0), g);
  system.run();
  EXPECT_EQ(system.deliveries().size(), 2u);
}

TEST(PubSub, PerGroupFifoFromOneSender) {
  PubSubSystem system(test::small_config(3));
  const GroupId g = system.create_group({N(0), N(1), N(2), N(3)});
  for (std::uint64_t i = 0; i < 10; ++i) system.publish(N(0), g, i);
  system.run();
  for (unsigned n = 0; n < 4; ++n) {
    const auto log = system.deliveries_to(N(n));
    ASSERT_EQ(log.size(), 10u);
    for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(log[i].payload, i);
  }
}

TEST(PubSub, OverlappedGroupsConsistentUnderConcurrentPublish) {
  PubSubSystem system(test::small_config(4));
  const GroupId g0 = system.create_group({N(0), N(1), N(2), N(3)});
  const GroupId g1 = system.create_group({N(2), N(3), N(4), N(5)});
  // Concurrent publishes from different corners of the network.
  for (int round = 0; round < 5; ++round) {
    system.publish(N(0), g0, 100 + static_cast<std::uint64_t>(round));
    system.publish(N(4), g1, 200 + static_cast<std::uint64_t>(round));
    system.publish(N(2), g0, 300 + static_cast<std::uint64_t>(round));
    system.publish(N(3), g1, 400 + static_cast<std::uint64_t>(round));
  }
  system.run();
  // Completeness: every member got every message of its groups.
  EXPECT_EQ(system.deliveries_to(N(0)).size(), 10u);   // g0 only
  EXPECT_EQ(system.deliveries_to(N(2)).size(), 20u);   // both
  EXPECT_EQ(system.deliveries_to(N(4)).size(), 10u);   // g1 only
  // Consistency: nodes 2 and 3 see the interleaving identically.
  const auto violation = test::find_order_violation(system.deliveries());
  EXPECT_FALSE(violation.has_value()) << *violation;
  EXPECT_EQ(system.network().buffered_at_receivers(), 0u);
}

TEST(PubSub, PaperFigure2ScenarioHasNoCircularDependency) {
  // G0={A,B,D}, G1={A,B,C}, G2={B,C,D}: the §3.3 example where a loopy
  // sequencing graph deadlocks node B. With C2 enforced, all messages
  // deliver everywhere.
  PubSubSystem system(test::small_config(5, /*num_hosts=*/4));
  const GroupId g0 = system.create_group({N(0), N(1), N(3)});
  const GroupId g1 = system.create_group({N(0), N(1), N(2)});
  const GroupId g2 = system.create_group({N(1), N(2), N(3)});
  system.publish(N(0), g0);
  system.publish(N(2), g1);
  system.publish(N(3), g2);
  system.run();
  // B (=node 1) subscribes to all three groups and must deliver all three.
  EXPECT_EQ(system.deliveries_to(N(1)).size(), 3u);
  EXPECT_EQ(system.network().buffered_at_receivers(), 0u);
  const auto violation = test::find_order_violation(system.deliveries());
  EXPECT_FALSE(violation.has_value()) << *violation;
}

TEST(PubSub, CausalChainAcrossGroups) {
  // A publishes m1 to g0; when B delivers m1 it reacts by publishing m2 to
  // g1. Both groups share {B, C}; C must deliver m1 before m2.
  PubSubSystem system(test::small_config(6));
  const GroupId g0 = system.create_group({N(0), N(1), N(2)});
  const GroupId g1 = system.create_group({N(1), N(2), N(3)});
  bool reacted = false;
  system.set_delivery_callback(
      [&](NodeId receiver, const protocol::Message& m, sim::Time) {
        if (receiver == N(1) && m.payload() == 1 && !reacted) {
          reacted = true;
          system.publish(N(1), g1, 2);
        }
      });
  system.publish(N(0), g0, 1);
  system.run();
  ASSERT_TRUE(reacted);
  const auto at_c = system.deliveries_to(N(2));
  ASSERT_EQ(at_c.size(), 2u);
  EXPECT_EQ(at_c[0].payload, 1u) << "cause must precede effect at C";
  EXPECT_EQ(at_c[1].payload, 2u);
}

TEST(PubSub, CausalPublishOrdersOwnMessagesAcrossGroups) {
  // One sender, two overlapping groups. With publish_causal, the sender's
  // m1 (to g0) must precede its m2 (to g1) at every common subscriber even
  // though g1's ingress may be nearer.
  PubSubSystem system(test::small_config(7));
  const GroupId g0 = system.create_group({N(0), N(1), N(2)});
  const GroupId g1 = system.create_group({N(0), N(1), N(3)});
  system.publish_causal(N(0), g0, 1);
  system.publish_causal(N(0), g1, 2);
  system.run();
  for (const NodeId common : {N(0), N(1)}) {
    const auto log = system.deliveries_to(common);
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0].payload, 1u);
    EXPECT_EQ(log[1].payload, 2u);
  }
}

TEST(PubSub, CausalPublishRequiresMembership) {
  PubSubSystem system(test::small_config(8));
  const GroupId g = system.create_group({N(1), N(2)});
  EXPECT_THROW(system.publish_causal(N(0), g), CheckFailure);
}

TEST(PubSub, MembershipChangeRebuildsGraph) {
  PubSubSystem system(test::small_config(9));
  const GroupId g0 = system.create_group({N(0), N(1), N(2)});
  const GroupId g1 = system.create_group({N(3), N(4), N(5)});
  EXPECT_EQ(system.graph().num_overlap_atoms(), 0u);
  system.join(g1, N(1));
  system.join(g1, N(2));
  EXPECT_EQ(system.graph().num_overlap_atoms(), 1u);
  system.publish(N(0), g0);
  system.publish(N(5), g1);
  system.run();
  EXPECT_FALSE(test::find_order_violation(system.deliveries()).has_value());
  system.leave(g1, N(1));
  EXPECT_EQ(system.graph().num_overlap_atoms(), 0u);
  (void)g0;
}

TEST(PubSub, RejectsNonPositiveRetransmitTimeout) {
  // The sequencing network's ingress retry backs off from the channels'
  // timeout, so the network itself refuses a zero one.
  auto config = test::small_config(10);
  config.network.channel.retransmit_timeout_ms = 0.0;
  EXPECT_THROW(
      {
        PubSubSystem system(config);
        system.create_group({N(0), N(1)});
      },
      CheckFailure);
}

TEST(PubSub, LossyChannelsStillConsistent) {
  auto config = test::small_config(10);
  config.network.channel.loss_probability = 0.3;
  config.network.channel.retransmit_timeout_ms = 50.0;
  PubSubSystem system(config);
  const GroupId g0 = system.create_group({N(0), N(1), N(2), N(3)});
  const GroupId g1 = system.create_group({N(2), N(3), N(4), N(5)});
  const GroupId g2 = system.create_group({N(0), N(3), N(5), N(6)});
  for (int i = 0; i < 8; ++i) {
    system.publish(N(0), g0);
    system.publish(N(4), g1);
    system.publish(N(6), g2);
  }
  system.run();
  EXPECT_EQ(system.deliveries_to(N(3)).size(), 24u);  // member of all three
  EXPECT_FALSE(test::find_order_violation(system.deliveries()).has_value());
  EXPECT_EQ(system.network().buffered_at_receivers(), 0u);
}

TEST(PubSub, SequencedDelayNeverBeatsUnicast) {
  PubSubSystem system(test::small_config(11));
  const GroupId g = system.create_group({N(0), N(1), N(2), N(3)});
  system.publish(N(0), g);
  system.run();
  auto& oracle = system.oracle();
  for (const Delivery& d : system.deliveries()) {
    if (d.receiver == d.sender) continue;
    const double unicast =
        system.hosts().unicast_delay(d.sender, d.receiver, oracle);
    EXPECT_GE(d.delivered_at - d.sent_at, unicast - 1e-9)
        << "triangle inequality: the sequencer detour cannot be faster";
  }
  (void)g;
}

TEST(PubSub, BodyBytesReachDeliveryCallbacks) {
  PubSubSystem system(test::small_config(13));
  const GroupId g = system.create_group({N(0), N(1)});
  const std::vector<std::uint8_t> body{'h', 'i', 0x00, 0xff};
  std::size_t seen = 0;
  system.set_delivery_callback(
      [&](NodeId, const protocol::Message& m, sim::Time) {
        EXPECT_EQ(std::vector<std::uint8_t>(m.body().begin(), m.body().end()),
                  body);
        ++seen;
      });
  system.publish(N(0), g, 1, body);
  system.run();
  EXPECT_EQ(seen, 2u);
}

TEST(PubSub, MessageRecordTracksStampsAndExit) {
  PubSubSystem system(test::small_config(12));
  const GroupId g0 = system.create_group({N(0), N(1), N(2)});
  system.create_group({N(1), N(2), N(3)});
  const MsgId id = system.publish(N(0), g0);
  system.run();
  const auto& rec = system.record(id);
  ASSERT_TRUE(rec.exited_at.has_value());
  EXPECT_EQ(rec.stamps, 1u);  // one overlap atom on g0's path
  EXPECT_GT(rec.header_bytes, 0u);
}

}  // namespace
}  // namespace decseq::pubsub
