// Tests for the live reconfiguration API (epoch-boundary membership
// batches) and the Graphviz export.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/fnv1a.h"
#include "pubsub/epoch_digest.h"
#include "pubsub/system.h"
#include "seqgraph/dot.h"
#include "tests/test_util.h"

namespace decseq::pubsub {
namespace {

using test::G;
using test::N;

TEST(Reconfigure, DrainsInFlightTrafficFirst) {
  PubSubSystem system(test::small_config(91));
  const GroupId g0 = system.create_group({N(0), N(1), N(2)});
  // Publish and immediately reconfigure: the old epoch's message must be
  // delivered under the old graph before anything changes.
  system.publish(N(0), g0, 7);
  const auto created = system.reconfigure({
      PubSubSystem::MembershipChange::create({N(1), N(2), N(3)}),
      PubSubSystem::MembershipChange::join(g0, N(4)),
  });
  ASSERT_EQ(created.size(), 1u);
  EXPECT_EQ(system.deliveries().size(), 3u) << "old message fully delivered";
  EXPECT_EQ(system.membership().members(g0).size(), 4u);
  EXPECT_EQ(system.membership().num_groups(), 2u);

  // New epoch works, including the new overlap (g0 and the new group now
  // share {1,2}).
  EXPECT_EQ(system.graph().num_overlap_atoms(), 1u);
  system.publish(N(4), g0, 8);
  system.publish(N(3), created[0], 9);
  system.run();
  EXPECT_FALSE(test::find_order_violation(system.deliveries()).has_value());
}

TEST(Reconfigure, MembershipMutationFailsFastWhileInFlight) {
  // Regression: the quiescence check used to live in rebuild(), AFTER the
  // membership table had been mutated — a refused join/leave/remove left
  // membership describing the new world while the runtime still ran the old
  // one. Every entry point must refuse before touching anything.
  PubSubSystem system(test::small_config(89));
  const GroupId g0 = system.create_group({N(0), N(1), N(2)});
  system.publish(N(0), g0, 1);  // in flight: not drained yet

  EXPECT_THROW(system.join(g0, N(3)), CheckFailure);
  EXPECT_THROW(system.leave(g0, N(1)), CheckFailure);
  EXPECT_THROW(system.remove_group(g0), CheckFailure);
  EXPECT_THROW((void)system.create_group({N(4), N(5)}), CheckFailure);
  EXPECT_THROW((void)system.create_groups({{N(4), N(5)}}), CheckFailure);

  // The failed calls left the membership picture exactly as it was.
  EXPECT_EQ(system.membership().num_groups(), 1u);
  EXPECT_TRUE(system.membership().is_alive(g0));
  EXPECT_EQ(system.membership().members(g0).size(), 3u);
  EXPECT_FALSE(system.membership().is_member(g0, N(3)));

  // Draining restores quiescence and the same operations succeed.
  system.run();
  EXPECT_EQ(system.deliveries().size(), 3u);
  system.join(g0, N(3));
  EXPECT_TRUE(system.membership().is_member(g0, N(3)));

  // Causal queues count as in flight too, even before run() moves time.
  system.publish_causal(N(0), g0, 2);
  EXPECT_THROW(system.join(g0, N(4)), CheckFailure);
  EXPECT_FALSE(system.membership().is_member(g0, N(4)));
  system.run();
  system.join(g0, N(4));
  system.publish(N(4), g0, 3);
  system.run();
  EXPECT_FALSE(test::find_order_violation(system.deliveries()).has_value());
}

TEST(Reconfigure, BatchAppliesAtomically) {
  PubSubSystem system(test::small_config(92));
  const GroupId g0 = system.create_group({N(0), N(1)});
  const GroupId g1 = system.create_group({N(2), N(3)});
  system.reconfigure({
      PubSubSystem::MembershipChange::remove(g1),
      PubSubSystem::MembershipChange::join(g0, N(5)),
      PubSubSystem::MembershipChange::leave(g0, N(0)),
      PubSubSystem::MembershipChange::create({N(6), N(7)}),
  });
  EXPECT_FALSE(system.membership().is_alive(g1));
  EXPECT_EQ(system.membership().members(g0),
            (std::vector<NodeId>{N(1), N(5)}));
  EXPECT_EQ(system.membership().num_groups(), 2u);
}

TEST(Reconfigure, MessageIdsUniqueAcrossEpochs) {
  PubSubSystem system(test::small_config(97));
  const GroupId g = system.create_group({N(0), N(1)});
  const MsgId first = system.publish(N(0), g, 1);
  system.run();
  system.reconfigure({PubSubSystem::MembershipChange::join(g, N(2))});
  const MsgId second = system.publish(N(0), g, 2);
  system.run();
  EXPECT_NE(first, second) << "ids must stay unique across graph rebuilds";
  EXPECT_GT(second.value(), first.value());
  // The facade record accessor resolves epoch-local storage correctly.
  EXPECT_TRUE(system.record(second).exited_at.has_value());
  EXPECT_THROW((void)system.record(first), CheckFailure)
      << "pre-epoch records are gone after the rebuild";
  // And the log never conflates the two messages.
  std::set<MsgId> ids;
  for (const auto& d : system.deliveries()) ids.insert(d.message);
  EXPECT_EQ(ids.size(), 2u);
}

TEST(Reconfigure, EmptyBatchIsANoop) {
  PubSubSystem system(test::small_config(93));
  const GroupId g = system.create_group({N(0), N(1)});
  EXPECT_TRUE(system.reconfigure({}).empty());
  EXPECT_TRUE(system.membership().is_alive(g));
}

TEST(Reconfigure, CrashWindowRacingReconfigureDrainsClean) {
  // A sequencer crash window that is still open when a membership batch
  // arrives: reconfigure()'s drain-first semantics must push the old
  // epoch's traffic through the retransmission backlog and the recovery
  // event before the graph is rebuilt — without losing a message, wedging
  // a receiver reorder buffer, or breaking pairwise order. This is the
  // schedule the fuzzer's fault generator produces when a crash window
  // overlaps a phase boundary (src/fuzz/scenario.h).
  auto config = test::small_config(98);
  config.network.channel.retransmit_timeout_ms = 40.0;
  config.network.channel.max_retransmits = 2000;
  PubSubSystem system(config);
  const GroupId g0 = system.create_group({N(0), N(1), N(2), N(3)});
  const GroupId g1 = system.create_group({N(2), N(3), N(4), N(5)});
  auto& sim = system.simulator();

  // Traffic into both (overlapping) groups around the crash.
  for (int i = 0; i < 12; ++i) {
    sim.schedule_at(2.0 + i * 5.0, [&system, g0, g1, i] {
      const GroupId target = (i % 2 == 0) ? g0 : g1;
      system.publish(N(static_cast<unsigned>(i) % 6), target,
                     static_cast<std::uint64_t>(i));
    });
  }
  // Fail the machine hosting g0's ingress atom mid-traffic (so the crash
  // provably sits on the hot path); recovery is scheduled after the last
  // publish, so only the reconfigure's drain can complete the epoch.
  const SeqNodeId victim =
      system.colocation().node_of(system.graph().path(g0).front());
  sim.schedule_at(15.0, [&system, victim] {
    system.fail_sequencing_node(victim);
  });
  sim.schedule_at(500.0, [&system, victim] {
    system.recover_sequencing_node(victim);
  });

  const auto created = system.reconfigure({
      PubSubSystem::MembershipChange::join(g0, N(6)),
      PubSubSystem::MembershipChange::leave(g1, N(5)),
      PubSubSystem::MembershipChange::create({N(5), N(6), N(7)}),
  });
  ASSERT_EQ(created.size(), 1u);

  // Old epoch fully flushed: every publish reached its whole group, no
  // receiver is holding a parked message, and pairwise order held.
  EXPECT_EQ(system.deliveries().size(), 6u * 4u + 6u * 4u)
      << "12 publishes x 4 members each";
  EXPECT_EQ(system.network().buffered_at_receivers(), 0u);
  EXPECT_FALSE(test::find_order_violation(system.deliveries()).has_value());

  // The new epoch (rebuilt graph, changed overlaps) still sequences.
  system.publish(N(6), g0, 100);
  system.publish(N(4), g1, 101);
  system.publish(N(7), created[0], 102);
  system.run();
  EXPECT_EQ(system.network().buffered_at_receivers(), 0u);
  EXPECT_FALSE(test::find_order_violation(system.deliveries()).has_value());
}

TEST(Reconfigure, RebuildRecompilesDenseRoutingTables) {
  // Routing is table-driven (network.cc compiles each group's path into a
  // flat hop span at construction), so a membership rebuild must leave the
  // tables exactly mirroring the *new* graph: fresh groups get routes, every
  // surviving group's span matches its possibly-changed path, and a removed
  // group's old-epoch span must not leak into the rebuilt runtime.
  PubSubSystem system(test::small_config(99));
  const GroupId g0 = system.create_group({N(0), N(1), N(2), N(3)});
  const GroupId g1 = system.create_group({N(2), N(3), N(4), N(5)});
  for (const GroupId g : {g0, g1}) {
    EXPECT_EQ(system.network().compiled_route(g), system.graph().path(g));
  }
  system.publish(N(0), g0, 1);
  system.run();

  const auto created = system.reconfigure({
      PubSubSystem::MembershipChange::remove(g0),
      PubSubSystem::MembershipChange::join(g1, N(6)),
      PubSubSystem::MembershipChange::create({N(0), N(5), N(7)}),
  });
  ASSERT_EQ(created.size(), 1u);
  for (const GroupId g : {g1, created[0]}) {
    EXPECT_EQ(system.network().compiled_route(g), system.graph().path(g))
        << "recompiled table diverges from the rebuilt graph for " << g;
  }
  EXPECT_TRUE(system.network().compiled_route(g0).empty())
      << "removed group's old-epoch hop span leaked into the new runtime";

  // The recompiled tables actually route: traffic in the new epoch reaches
  // every member, in order.
  system.publish(N(6), g1, 2);
  system.publish(N(7), created[0], 3);
  system.run();
  EXPECT_EQ(system.network().buffered_at_receivers(), 0u);
  EXPECT_FALSE(test::find_order_violation(system.deliveries()).has_value());
}

// --- Zero-downtime reconfiguration (reconfigure_async). ---

// Sorted receivers of every delivery carrying `payload`.
std::vector<NodeId> receivers_of(const std::vector<Delivery>& log,
                                 std::uint64_t payload) {
  std::vector<NodeId> r;
  for (const Delivery& d : log) {
    if (d.payload == payload) r.push_back(d.receiver);
  }
  std::sort(r.begin(), r.end());
  return r;
}

// Payloads of group `g` delivered to `node`, in delivery order.
std::vector<std::uint64_t> group_trace(const std::vector<Delivery>& log,
                                       NodeId node, GroupId g) {
  std::vector<std::uint64_t> t;
  for (const Delivery& d : log) {
    if (d.receiver == node && d.group == g) t.push_back(d.payload);
  }
  return t;
}

TEST(ReconfigureAsync, MidRunCutoverDrainsOldEpochAndGatesNew) {
  // Single-threaded zero-downtime path with genuinely in-flight traffic:
  // the reconfiguration fires from a simulator callback while old-epoch
  // messages are mid-network, exercising the prev-span drain, the stale
  // ingress redirect, and the receiver epoch gates.
  PubSubSystem system(test::small_config(141));
  // ga and gb share {1, 2}: a real overlap atom, so the cutover re-lays a
  // two-group component and the shared subscribers await both fences.
  const GroupId ga = system.create_group({N(0), N(1), N(2)});
  const GroupId gb = system.create_group({N(1), N(2), N(3), N(4)});
  const GroupId gu = system.create_group({N(8), N(9)});  // untouched
  const GroupId gr = system.create_group({N(12), N(13)});  // to be removed

  for (std::uint64_t p = 1; p <= 3; ++p) system.publish(N(0), ga, p);
  for (std::uint64_t p = 4; p <= 6; ++p) system.publish(N(4), gb, p);
  system.publish(N(8), gu, 7);
  const MsgId removed_msg = system.publish(N(12), gr, 8);

  PubSubSystem::ReconfigureResult result;
  system.simulator().schedule_at(0.5, [&] {
    result = system.reconfigure_async({
        PubSubSystem::MembershipChange::join(ga, N(7)),
        PubSubSystem::MembershipChange::leave(gb, N(3)),
        PubSubSystem::MembershipChange::remove(gr),
        PubSubSystem::MembershipChange::create({N(10), N(11)}),
    });
    // Serialized transitions: a second call while fences drain fails fast.
    EXPECT_TRUE(system.transition_active());
    EXPECT_THROW(
        (void)system.reconfigure_async(
            {PubSubSystem::MembershipChange::join(gu, N(0))}),
        CheckFailure);
    // New-epoch traffic enters immediately — no quiescence anywhere.
    system.publish(N(7), ga, 100);
    system.publish(N(2), gb, 101);
    system.publish(N(9), gu, 102);
    system.publish(N(10), result.created[0], 103);
  });
  system.run();

  ASSERT_EQ(result.created.size(), 1u);
  EXPECT_EQ(result.report.groups_refenced, 2u) << "ga and gb";
  EXPECT_EQ(result.report.groups_removed, 1u) << "gr";
  EXPECT_EQ(result.report.groups_created, 1u);
  EXPECT_FALSE(system.transition_active()) << "run() drains the fences";
  EXPECT_EQ(system.network().buffered_at_receivers(), 0u);
  EXPECT_FALSE(test::find_order_violation(system.deliveries()).has_value());

  // Every old-epoch message reached exactly one membership snapshot: the
  // old set if it was sequenced before the fence, the new set after.
  const std::vector<NodeId> old_ga{N(0), N(1), N(2)};
  const std::vector<NodeId> new_ga{N(0), N(1), N(2), N(7)};
  const std::vector<NodeId> old_gb{N(1), N(2), N(3), N(4)};
  const std::vector<NodeId> new_gb{N(1), N(2), N(4)};
  for (std::uint64_t p = 1; p <= 3; ++p) {
    const auto r = receivers_of(system.deliveries(), p);
    EXPECT_TRUE(r == old_ga || r == new_ga) << "payload " << p;
  }
  for (std::uint64_t p = 4; p <= 6; ++p) {
    const auto r = receivers_of(system.deliveries(), p);
    EXPECT_TRUE(r == old_gb || r == new_gb) << "payload " << p;
  }
  // Post-cutover traffic reaches exactly the new membership.
  EXPECT_EQ(receivers_of(system.deliveries(), 100), new_ga);
  EXPECT_EQ(receivers_of(system.deliveries(), 101), new_gb);
  EXPECT_EQ(receivers_of(system.deliveries(), 103),
            (std::vector<NodeId>{N(10), N(11)}));

  // The removed group's pre-cutover message either drained to the old
  // members or lost the race to the FIN fence and was rejected at the
  // closed ingress — never half-delivered.
  const auto r8 = receivers_of(system.deliveries(), 8);
  EXPECT_TRUE(r8 == (std::vector<NodeId>{N(12), N(13)}) ||
              (r8.empty() && system.record(removed_msg).rejected))
      << "removed-group message half-delivered";
  EXPECT_THROW(system.publish(N(12), gr, 9), CheckFailure)
      << "removed group's sequence space is closed";

  // The untouched group never saw the transition: delivered in publish
  // order, never held at a gate.
  EXPECT_EQ(receivers_of(system.deliveries(), 7),
            (std::vector<NodeId>{N(8), N(9)}));
  EXPECT_EQ(receivers_of(system.deliveries(), 102),
            (std::vector<NodeId>{N(8), N(9)}));
  const auto held = system.network().gate_held_by_group();
  EXPECT_EQ(held[gu.value()], 0u) << "untouched group stalled by cutover";

  // The cut-over system keeps running: next epoch, next transition.
  const auto second = system.reconfigure_async(
      {PubSubSystem::MembershipChange::leave(ga, N(7))});
  system.publish(N(0), ga, 200);
  system.run();
  EXPECT_FALSE(system.transition_active());
  EXPECT_EQ(receivers_of(system.deliveries(), 200), old_ga);
  EXPECT_EQ(second.report.groups_refenced, 2u)
      << "ga and its component-mate gb both cut over";
  EXPECT_FALSE(test::find_order_violation(system.deliveries()).has_value());
}

struct ChurnRun {
  std::vector<Delivery> log;
  std::vector<std::size_t> gate_held;
  std::vector<GroupId> groups;   // ga, gb, gu, gv, gw, gx
  std::vector<GroupId> created;
};

// One mid-burst churn scenario, either zero-downtime (reconfigure_async
// with the first burst still pending) or stop-the-world (drain, rebuild).
// Six initial groups span four overlap components.
ChurnRun run_churn(bool async) {
  PubSubSystem system(test::small_config(142));
  ChurnRun out;
  // ga-gb and gu-gv are genuine overlap pairs (two shared subscribers
  // each): the reconfigured component and the untouched component both
  // carry cross-group stamps.
  const GroupId ga = system.create_group({N(0), N(1), N(2)});
  const GroupId gb = system.create_group({N(1), N(2), N(3), N(4)});
  const GroupId gu = system.create_group({N(8), N(9), N(10)});
  const GroupId gv = system.create_group({N(9), N(10), N(11)});
  const GroupId gw = system.create_group({N(12), N(13)});
  const GroupId gx = system.create_group({N(14), N(15)});
  out.groups = {ga, gb, gu, gv, gw, gx};

  // Burst 1. One sender per untouched group, so its per-group delivery
  // order is its publish order in every variant.
  system.publish(N(0), ga, 1);
  system.publish(N(0), ga, 2);
  system.publish(N(4), gb, 3);
  system.publish(N(4), gb, 4);
  system.publish(N(8), gu, 5);
  system.publish(N(8), gu, 6);
  system.publish(N(11), gv, 7);
  system.publish(N(12), gw, 8);
  system.publish(N(14), gx, 9);

  std::vector<PubSubSystem::MembershipChange> batch;
  batch.push_back(PubSubSystem::MembershipChange::join(ga, N(5)));
  batch.push_back(PubSubSystem::MembershipChange::leave(gb, N(3)));
  batch.push_back(PubSubSystem::MembershipChange::create({N(5), N(6), N(7)}));
  if (async) {
    // Mid-burst: burst 1 is still queued/in flight when the cutover lands.
    out.created = system.reconfigure_async(std::move(batch)).created;
  } else {
    system.run();
    out.created = system.reconfigure(std::move(batch));
  }

  // Burst 2, in the new epoch.
  system.publish(N(5), ga, 101);
  system.publish(N(2), gb, 102);
  system.publish(N(8), gu, 103);
  system.publish(N(11), gv, 104);
  system.publish(N(12), gw, 105);
  system.publish(N(14), gx, 106);
  system.publish(N(6), out.created[0], 107);
  system.run();

  EXPECT_FALSE(system.transition_active());
  EXPECT_EQ(system.network().buffered_at_receivers(), 0u);
  EXPECT_FALSE(test::find_order_violation(system.deliveries()).has_value());
  out.log = system.deliveries();
  out.gate_held = system.network().gate_held_by_group();
  return out;
}

TEST(ReconfigureAsync, MidBurstMatchesStopTheWorldForUntouchedGroups) {
  // Reconfigure mid-burst and hold the async run against the stop-the-world
  // rebuild: untouched groups must behave identically.
  const ChurnRun sync = run_churn(/*async=*/false);
  const ChurnRun async = run_churn(/*async=*/true);

  // Untouched groups (gu, gv, gw, gx with their subscribers): per-receiver
  // per-group traces match the stop-the-world result, and no gate ever
  // held one of their messages.
  for (std::size_t gi = 2; gi < async.groups.size(); ++gi) {
    const GroupId g = async.groups[gi];
    for (unsigned n = 8; n <= 15; ++n) {
      EXPECT_EQ(group_trace(async.log, N(n), g), group_trace(sync.log, N(n), g))
          << "untouched group " << g << " diverged at node " << n;
    }
    EXPECT_EQ(async.gate_held[g.value()], 0u)
        << "untouched group " << g << " stalled by the cutover";
  }

  // The async cutover lands mid-burst, so burst 1 of the *affected* groups
  // is sequenced post-fence and reaches the new membership; burst 2 too.
  const std::vector<NodeId> new_ga{N(0), N(1), N(2), N(5)};
  const std::vector<NodeId> new_gb{N(1), N(2), N(4)};
  for (const std::uint64_t p : {1u, 2u, 101u}) {
    EXPECT_EQ(receivers_of(async.log, p), new_ga) << "payload " << p;
  }
  for (const std::uint64_t p : {3u, 4u, 102u}) {
    EXPECT_EQ(receivers_of(async.log, p), new_gb) << "payload " << p;
  }
  EXPECT_EQ(receivers_of(async.log, 107),
            (std::vector<NodeId>{N(5), N(6), N(7)}));
  // Stop-the-world sequenced burst 1 pre-change, under the old membership.
  EXPECT_EQ(receivers_of(sync.log, 1), (std::vector<NodeId>{N(0), N(1), N(2)}));
  EXPECT_EQ(receivers_of(sync.log, 3),
            (std::vector<NodeId>{N(1), N(2), N(3), N(4)}));
}

TEST(ReconfigureAsync, PaperChurnTraceMatchesGoldenDigest) {
  // Pins the zero-downtime path end to end on the paper deployment: 40
  // join+leave cutovers, each cut while a publish per live group is in
  // flight and followed by new-epoch publishes to every affected group.
  // The digest folds every delivery (receiver, message, group, payload and
  // the bits of both times), each cutover's report and its affected
  // groups, so any change to an RNG draw, an AtomId, a channel, an event
  // or a delivery of the path shows here. A second digest folds the epoch
  // each cutover compiles (epoch_digest.h): overlaps, graph, sequencing
  // nodes and machines.
  const auto system = test::paper_system();
  const ZipfSampler popularity(128, 1.0);
  Rng rng(29);
  std::uint64_t payload = 0;
  std::uint64_t digest = kFnvOffsetBasis;
  std::uint64_t epochs = kFnvOffsetBasis;
  for (std::size_t t = 0; t < 40; ++t) {
    const std::vector<GroupId> live = system->membership().live_groups();
    for (const GroupId g : live) {
      const auto& members = system->membership().members(g);
      system->publish(members[t % members.size()], g, ++payload);
    }
    // Let the round get under way: some messages are still on their
    // ingress legs, some mid-path, some delivered.
    system->simulator().run_until(system->simulator().now() +
                                  static_cast<double>(t % 7));
    const auto result = system->reconfigure_async(
        test::churn_batch(system->membership(), t, popularity, rng));
    epochs = fnv1a_word(epochs, epoch_digest(*system));
    const protocol::ReconfigureReport& r = result.report;
    for (const std::size_t v :
         {r.groups_refenced, r.groups_created, r.groups_removed,
          r.fences_outstanding, r.channels_created, r.hops_appended}) {
      digest = fnv1a_word(digest, v);
    }
    digest = fnv1a_word(digest, result.delta.affected_groups.size());
    for (const GroupId g : result.delta.affected_groups) {
      digest = fnv1a_word(digest, g.value());
      if (system->membership().is_alive(g)) {
        system->publish(system->membership().members(g).front(), g,
                        ++payload);
      }
    }
    system->run();
    ASSERT_FALSE(system->transition_active()) << "transition " << t;
  }
  EXPECT_FALSE(test::find_order_violation(system->deliveries()).has_value());
  std::size_t gate_held = 0;
  for (const std::size_t held : system->network().gate_held_by_group()) {
    gate_held += held;
  }
  EXPECT_GT(gate_held, 0u) << "no new-epoch message waited on a fence";
  for (const Delivery& d : system->deliveries()) {
    digest = fnv1a_word(digest, d.receiver.value());
    digest = fnv1a_word(digest, d.message.value());
    digest = fnv1a_word(digest, d.group.value());
    digest = fnv1a_word(digest, d.payload);
    digest = fnv1a_word(digest, std::bit_cast<std::uint64_t>(d.sent_at));
    digest = fnv1a_word(digest, std::bit_cast<std::uint64_t>(d.delivered_at));
  }
  EXPECT_EQ(system->deliveries().size(), 10500u);
  EXPECT_EQ(digest, 7471340698605395434ULL);
  EXPECT_EQ(epochs, 0x50b23ff0f5f08235ULL);
}

TEST(ReconfigureAsync, CutoverKeepingTheIngressMachineKeepsSenderOrder) {
  // Before each cut one member of every live group publishes; the cut
  // lands at once, and the same member publishes again to each affected
  // group, so both publishes leave the sender at the same instant. Where
  // the cut kept the group's ingress router, the first publish lands on
  // the new ingress machine no later than the second and must take the
  // lower group sequence number: every receiver of both delivers it
  // first. (A redirect scheduled as a zero-delay event let the second
  // overtake it.)
  const auto system = test::paper_system();
  const ZipfSampler popularity(128, 1.0);
  Rng rng(29);
  const auto ingress_router = [&](GroupId g) {
    return system->assignment().machine_of(
        system->colocation().node_of(system->graph().path(g).front()));
  };
  std::uint64_t payload = 0;
  std::size_t kept = 0;
  std::size_t checked = 0;
  for (std::size_t t = 0; t < 40; ++t) {
    struct First {
      NodeId sender;
      RouterId ingress;
      MsgId message;
    };
    std::map<GroupId, First> first;
    for (const GroupId g : system->membership().live_groups()) {
      const auto& members = system->membership().members(g);
      const NodeId sender = members[t % members.size()];
      first[g] = {sender, ingress_router(g),
                  system->publish(sender, g, ++payload)};
    }
    const auto result = system->reconfigure_async(
        test::churn_batch(system->membership(), t, popularity, rng));
    std::vector<std::pair<MsgId, MsgId>> ordered;  // kept groups' pairs
    for (const GroupId g : result.delta.affected_groups) {
      const First& f = first.at(g);
      const MsgId second = system->publish(f.sender, g, ++payload);
      if (ingress_router(g) == f.ingress) ordered.emplace_back(f.message, second);
    }
    kept += ordered.size();
    const std::size_t round_begin = system->deliveries().size();
    system->run();
    ASSERT_FALSE(system->transition_active()) << "cutover " << t;
    // Where in this round's log each (receiver, message) was delivered.
    const auto& log = system->deliveries();
    std::map<std::pair<NodeId, MsgId>, std::size_t> position;
    for (std::size_t i = round_begin; i < log.size(); ++i) {
      position[{log[i].receiver, log[i].message}] = i;
    }
    for (const auto& [earlier, later] : ordered) {
      for (std::size_t i = round_begin; i < log.size(); ++i) {
        if (log[i].message != later) continue;
        const auto it = position.find({log[i].receiver, earlier});
        if (it == position.end()) continue;  // joined after, or left before
        ++checked;
        EXPECT_LT(it->second, i)
            << "receiver " << log[i].receiver << " got message " << later
            << " before " << earlier << " at cutover " << t;
      }
    }
  }
  EXPECT_GT(kept, 0u) << "no cut kept an ingress router";
  EXPECT_GT(checked, 0u);
  EXPECT_FALSE(test::find_order_violation(system->deliveries()).has_value());
}

TEST(ReconfigureAsync, FenceTakesItsFirstHopAsAnEvent) {
  // begin_reconfigure sequences a transition's fences one after another in
  // one call, so no fence's first forward is the last protocol action of
  // anything: each one queues as an event, even on a 0 ms loss-free
  // channel with the queue idle. {0, 1} nests in {0, 1, 2}, so co-location
  // puts all three overlap atoms on one sequencing machine and every path
  // edge is such a channel.
  PubSubSystem system(test::small_config(143));
  const std::vector<GroupId> groups = system.create_groups(
      {{N(0), N(1), N(2), N(3)}, {N(0), N(1), N(2)}, {N(0), N(1)}});
  std::map<GroupId, std::vector<AtomId>> old_paths;
  for (const GroupId g : groups) {
    const std::vector<AtomId>& path = system.graph().path(g);
    ASSERT_GE(path.size(), 2u) << "group " << g;
    ASSERT_TRUE(system.network().channel(path[0], path[1]).instant())
        << "group " << g;
    old_paths[g] = path;
  }
  ASSERT_TRUE(system.simulator().idle());
  protocol::Tracer& tracer = system.network_mutable().tracer();
  tracer.enable(1024);
  const std::size_t first_fence = system.network().published();
  const auto result = system.reconfigure_async(
      {PubSubSystem::MembershipChange::join(groups[0], N(4))});
  ASSERT_EQ(result.report.groups_refenced, groups.size());
  ASSERT_EQ(system.network().published() - first_fence, groups.size());
  // Every fence stopped at its first atom, its first hop an event.
  EXPECT_EQ(system.simulator().pending(), groups.size());
  const auto group_of = [&](std::size_t id) {
    return system.network()
        .record(MsgId(static_cast<MsgId::underlying_type>(id)))
        .group;
  };
  const auto hops_of = [&](std::size_t id) {
    std::vector<AtomId> atoms;
    for (const protocol::TraceEvent& e : tracer.events()) {
      if (e.message.value() == id &&
          (e.kind == protocol::TraceEvent::Kind::kStamped ||
           e.kind == protocol::TraceEvent::Kind::kTransited)) {
        atoms.push_back(e.atom);
      }
    }
    return atoms;
  };
  for (std::size_t id = first_fence; id < system.network().published();
       ++id) {
    EXPECT_EQ(hops_of(id), std::vector<AtomId>{old_paths.at(group_of(id))[0]})
        << "fence " << id;
  }
  system.run();
  EXPECT_FALSE(system.transition_active());
  for (std::size_t id = first_fence; id < first_fence + groups.size(); ++id) {
    EXPECT_EQ(hops_of(id), old_paths.at(group_of(id)))
        << "fence " << id;
  }
}

TEST(ReconfigureAsync, RoutesMatchTheGraphUnderEveryBuildStrategy) {
  // The cutover hands the re-laid paths' edges to the channel table and
  // compiles each hop's channel from it. Chain layouts run every path along
  // AtomId order; greedy-tree layouts branch and may run a path against
  // it. Under each strategy, every live group's compiled route must be its
  // graph path after every cutover, with a publish per live group in
  // flight at each cut, and every drain must leave the order intact. A
  // drain delivers every message published before it, so each receiver
  // sees one round's messages after the last round's, and checking each
  // round's deliveries on their own checks the whole log.
  using seqgraph::BuildStrategy;
  for (const BuildStrategy strategy :
       {BuildStrategy::kChain, BuildStrategy::kChainUnordered,
        BuildStrategy::kGreedyTree}) {
    SCOPED_TRACE(static_cast<int>(strategy));
    const auto system = test::paper_system(strategy);
    const ZipfSampler popularity(128, 1.0);
    Rng rng(31);
    std::uint64_t payload = 0;
    std::size_t checked = 0;
    for (std::size_t t = 0; t < 60; ++t) {
      for (const GroupId g : system->membership().live_groups()) {
        const auto& members = system->membership().members(g);
        system->publish(members[t % members.size()], g, ++payload);
      }
      system->simulator().run_until(system->simulator().now() +
                                    static_cast<double>(t % 5));
      (void)system->reconfigure_async(
          test::churn_batch(system->membership(), t, popularity, rng));
      for (const GroupId g : system->membership().live_groups()) {
        ASSERT_EQ(system->network().compiled_route(g),
                  system->graph().path(g))
            << "group " << g << " after cutover " << t;
      }
      system->run();
      ASSERT_FALSE(system->transition_active()) << "cutover " << t;
      const auto& log = system->deliveries();
      const std::vector<Delivery> round(
          log.begin() + static_cast<std::ptrdiff_t>(checked), log.end());
      checked = log.size();
      ASSERT_FALSE(test::find_order_violation(round).has_value())
          << "after cutover " << t;
    }
    if (strategy == BuildStrategy::kGreedyTree) {
      EXPECT_GT(system->graph().tree_components(), 0u)
          << "no component was laid out as a tree";
    }
  }
}

TEST(Dot, RendersAtomsEdgesAndPaths) {
  PubSubSystem system(test::small_config(94));
  system.create_group({N(0), N(1), N(2), N(3)});
  system.create_group({N(0), N(1), N(4), N(5)});
  system.create_group({N(2), N(3), N(4), N(5)});
  const std::string dot =
      seqgraph::to_dot(system.graph(), system.membership());
  EXPECT_NE(dot.find("digraph sequencing"), std::string::npos);
  EXPECT_NE(dot.find("Q0"), std::string::npos);
  EXPECT_NE(dot.find("label=\"g0\""), std::string::npos);
  // Three overlap atoms, chain of two undirected edges.
  EXPECT_NE(dot.find("dir=none"), std::string::npos);
  EXPECT_EQ(dot.find("cluster_m"), std::string::npos)
      << "no machine clusters without placement info";
}

TEST(Dot, MachineClustersWhenPlacementGiven) {
  PubSubSystem system(test::small_config(95));
  system.create_group({N(0), N(1), N(2)});
  system.create_group({N(1), N(2), N(3)});
  std::vector<std::size_t> machines(system.graph().num_atoms());
  for (const auto& atom : system.graph().atoms()) {
    machines[atom.id.value()] =
        system.colocation().node_of(atom.id).value();
  }
  const std::string dot =
      seqgraph::to_dot(system.graph(), system.membership(), &machines);
  EXPECT_NE(dot.find("cluster_m"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

TEST(Dot, IngressOnlyAtomsLabelled) {
  PubSubSystem system(test::small_config(96));
  system.create_group({N(0), N(1)});
  const std::string dot =
      seqgraph::to_dot(system.graph(), system.membership());
  EXPECT_NE(dot.find("ingress g0"), std::string::npos);
}

}  // namespace
}  // namespace decseq::pubsub
