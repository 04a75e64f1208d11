#include <gtest/gtest.h>

#include <map>
#include <set>
#include <type_traits>
#include <vector>

#include "protocol/message.h"
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

/// Every field record() reports, against the expected values.
void expect_record(const protocol::MessageRecord& rec, NodeId sender,
                   GroupId group, bool exited, std::size_t stamps,
                   bool rejected, bool ingress_failed) {
  EXPECT_EQ(rec.sender, sender);
  EXPECT_EQ(rec.group, group);
  EXPECT_EQ(rec.exited_at.has_value(), exited);
  EXPECT_EQ(rec.stamps, stamps);
  EXPECT_EQ(rec.header_bytes,
            exited ? protocol::ordering_header_bytes(stamps) : 0u);
  EXPECT_EQ(rec.rejected, rejected);
  EXPECT_EQ(rec.ingress_failed, ingress_failed);
}

TEST(PubSub, MessageRecordTracksStampsAndExit) {
  // The network stores 24 bytes per message; record() assembles the full
  // view from them. Five fates: delivered, rejected behind a FIN, from a
  // crashed publisher, retried into a downed ingress machine, and a
  // cutover fence.
  {
    SCOPED_TRACE("delivered");
    PubSubSystem system(test::small_config(12));
    const GroupId g0 = system.create_group({N(0), N(1), N(2)});
    system.create_group({N(1), N(2), N(3)});
    const MsgId id = system.publish(N(0), g0, 5);
    system.run();
    const auto& rec = system.record(id);  // binds the returned value
    // One overlap atom on g0's path.
    expect_record(rec, N(0), g0, /*exited=*/true, /*stamps=*/1,
                  /*rejected=*/false, /*ingress_failed=*/false);
    EXPECT_EQ(rec.header_bytes, 28u);
    EXPECT_EQ(rec.ingress_retries, 0u);
    ASSERT_EQ(system.deliveries().size(), 3u);
    for (const Delivery& d : system.deliveries()) {
      EXPECT_GE(*rec.exited_at, d.sent_at);
      EXPECT_LE(*rec.exited_at, d.delivered_at);
    }
  }
  {
    SCOPED_TRACE("rejected behind a FIN");
    // As Termination.PublishRacingFinIsRejectedAtIngress: the member
    // farthest from the ingress publishes, the nearest terminates.
    PubSubSystem system(test::small_config(68));
    const GroupId g = system.create_group({N(0), N(1), N(2)});
    const RouterId ingress_router = system.assignment().machine_of(
        system.colocation().node_of(system.graph().path(g).front()));
    const auto distance = [&](NodeId n) {
      return system.oracle().distance(system.hosts().router_of(n),
                                      ingress_router);
    };
    NodeId near = N(0), far = N(0);
    for (const NodeId m : system.membership().members(g)) {
      if (distance(m) < distance(near)) near = m;
      if (distance(m) > distance(far)) far = m;
    }
    ASSERT_NE(near, far);
    const MsgId racer = system.publish(far, g, 42);
    system.terminate_group(g, near);
    system.run();
    const protocol::MessageRecord rec = system.record(racer);
    expect_record(rec, far, g, /*exited=*/false, /*stamps=*/0,
                  /*rejected=*/true, /*ingress_failed=*/false);
    EXPECT_EQ(rec.ingress_retries, 0u);
  }
  {
    SCOPED_TRACE("crashed publisher");
    PubSubSystem system(test::small_config(12));
    const GroupId g = system.create_group({N(0), N(1), N(2)});
    system.fail_publisher(N(1));
    const MsgId id = system.publish(N(1), g, 7);
    system.run();
    const protocol::MessageRecord rec = system.record(id);
    expect_record(rec, N(1), g, /*exited=*/false, /*stamps=*/0,
                  /*rejected=*/false, /*ingress_failed=*/true);
    EXPECT_EQ(rec.ingress_retries, 0u);
    EXPECT_TRUE(system.deliveries().empty());
  }
  {
    SCOPED_TRACE("retried into a downed ingress machine");
    auto config = test::small_config(79);
    config.network.channel.retransmit_timeout_ms = 50.0;
    PubSubSystem system(config);
    const GroupId g0 = system.create_group({N(0), N(1), N(2)});
    system.create_group({N(1), N(2), N(3)});
    const SeqNodeId ingress_node =
        system.colocation().node_of(system.graph().path(g0).front());
    system.fail_sequencing_node(ingress_node);
    const MsgId id = system.publish(N(3), g0, 11);
    system.simulator().schedule_at(600.0, [&] {
      system.recover_sequencing_node(ingress_node);
    });
    system.run();
    const protocol::MessageRecord rec = system.record(id);
    expect_record(rec, N(3), g0, /*exited=*/true, /*stamps=*/1,
                  /*rejected=*/false, /*ingress_failed=*/false);
    EXPECT_GE(rec.ingress_retries, 1u);
    EXPECT_GE(*rec.exited_at, 600.0) << "sequenced after the recovery";
    EXPECT_EQ(system.deliveries().size(), 3u);
  }
  {
    SCOPED_TRACE("cutover fence");
    PubSubSystem system(test::small_config(12));
    const GroupId g0 = system.create_group({N(0), N(1), N(2)});
    const GroupId g1 = system.create_group({N(1), N(2), N(3)});
    const std::size_t before = system.network().published();
    const auto result = system.reconfigure_async(
        {PubSubSystem::MembershipChange::join(g0, N(4))});
    const std::size_t fences = system.network().published() - before;
    ASSERT_EQ(fences, result.report.groups_refenced);
    ASSERT_GE(fences, 1u);
    system.run();
    ASSERT_FALSE(system.transition_active());
    // Fences have runtime ids only; each travelled its group's old path,
    // whose one overlap atom stamps both groups.
    for (std::size_t i = before; i < before + fences; ++i) {
      const protocol::MessageRecord rec = system.network().record(
          MsgId(static_cast<MsgId::underlying_type>(i)));
      EXPECT_TRUE(rec.group == g0 || rec.group == g1);
      expect_record(rec, NodeId{}, rec.group, /*exited=*/true,
                    /*stamps=*/1, /*rejected=*/false,
                    /*ingress_failed=*/false);
      EXPECT_EQ(rec.ingress_retries, 0u);
    }
  }
}

}  // namespace
}  // namespace decseq::pubsub
