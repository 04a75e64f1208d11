#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <map>
#include <new>
#include <set>
#include <utility>
#include <vector>

#include "membership/overlap.h"
#include "placement/assignment.h"
#include "placement/colocation.h"
#include "protocol/message.h"
#include "protocol/network.h"
#include "protocol/receiver.h"
#include "seqgraph/graph.h"
#include "sim/simulator.h"
#include "tests/alloc_probe.h"
#include "tests/test_util.h"
#include "topology/hosts.h"
#include "topology/shortest_path.h"
#include "topology/transit_stub.h"

namespace decseq::protocol {
namespace {

using test::G;
using test::N;

Message make_msg(unsigned id, GroupId g, SeqNo group_seq,
                 StampVec stamps = {}) {
  return Message::make(
      {.id = MsgId(id), .group = g, .sender = N(0), .group_seq = group_seq},
      std::move(stamps));
}

Message make_fin(unsigned id, GroupId g, SeqNo group_seq) {
  return Message::make({.id = MsgId(id),
                        .group = g,
                        .sender = N(0),
                        .group_seq = group_seq,
                        .is_fin = true});
}

TEST(MessageFormat, HeaderBytesGrowWithStamps) {
  Message m = make_msg(1, G(0), 1);
  const std::size_t base = ordering_header_bytes(m);
  m.stamps.push_back({AtomId(0), 1});
  m.stamps.push_back({AtomId(1), 1});
  EXPECT_EQ(ordering_header_bytes(m), base + 2 * 12);
}

TEST(MessageFormat, BeatsVectorTimestampWhenOverlapsAreFew) {
  // 128 nodes => 1 KiB vector timestamp; a message with 8 stamps stays
  // under 120 bytes. This is the paper's §4.4 overhead argument.
  Message m = make_msg(1, G(0), 1);
  for (unsigned i = 0; i < 8; ++i) m.stamps.push_back({AtomId(i), 1});
  EXPECT_LT(ordering_header_bytes(m), vector_timestamp_bytes(128));
}

class ReceiverTest : public ::testing::Test {
 protected:
  std::vector<MsgId> delivered_;
  Receiver make(std::vector<GroupId> subs, std::vector<AtomId> atoms) {
    return Receiver(N(1), std::move(subs), std::move(atoms),
                    [this](const Message& m, sim::Time) {
                      delivered_.push_back(m.id());
                    });
  }
};

TEST_F(ReceiverTest, DeliversInGroupSeqOrder) {
  Receiver r = make({G(0)}, {});
  r.receive(make_msg(2, G(0), 2), 0.0);  // early: must buffer
  EXPECT_TRUE(delivered_.empty());
  EXPECT_EQ(r.buffered(), 1u);
  r.receive(make_msg(1, G(0), 1), 1.0);  // unblocks both
  EXPECT_EQ(delivered_, (std::vector<MsgId>{MsgId(1), MsgId(2)}));
  EXPECT_EQ(r.buffered(), 0u);
}

TEST_F(ReceiverTest, InstantDecisionIsVisible) {
  Receiver r = make({G(0)}, {});
  EXPECT_FALSE(r.deliverable(make_msg(5, G(0), 2)));
  EXPECT_TRUE(r.deliverable(make_msg(5, G(0), 1)));
}

TEST_F(ReceiverTest, IndependentGroupsDontBlock) {
  Receiver r = make({G(0), G(1)}, {});
  r.receive(make_msg(1, G(0), 1), 0.0);
  r.receive(make_msg(2, G(1), 1), 0.0);
  r.receive(make_msg(3, G(0), 2), 0.0);
  EXPECT_EQ(delivered_.size(), 3u);
}

TEST_F(ReceiverTest, RelevantStampGatesDelivery) {
  // Node in overlap(Q): messages to the two groups must follow Q's order
  // even when group-local numbers would allow delivery.
  Receiver r = make({G(0), G(1)}, {AtomId(7)});
  // Q stamped the G1 message first (seq 1) and the G0 message second.
  r.receive(make_msg(1, G(0), 1, {{AtomId(7), 2}}), 0.0);
  EXPECT_TRUE(delivered_.empty()) << "G0 message must wait for Q seq 1";
  r.receive(make_msg(2, G(1), 1, {{AtomId(7), 1}}), 0.0);
  EXPECT_EQ(delivered_, (std::vector<MsgId>{MsgId(2), MsgId(1)}));
}

TEST_F(ReceiverTest, IrrelevantStampsIgnored) {
  // Stamps from atoms whose overlap excludes this node must not block.
  Receiver r = make({G(0)}, {});
  r.receive(make_msg(1, G(0), 1, {{AtomId(3), 99}}), 0.0);
  EXPECT_EQ(delivered_.size(), 1u);
}

TEST_F(ReceiverTest, CascadingDrain) {
  Receiver r = make({G(0)}, {});
  r.receive(make_msg(3, G(0), 3), 0.0);
  r.receive(make_msg(2, G(0), 2), 0.0);
  EXPECT_TRUE(delivered_.empty());
  r.receive(make_msg(1, G(0), 1), 0.0);
  EXPECT_EQ(delivered_,
            (std::vector<MsgId>{MsgId(1), MsgId(2), MsgId(3)}));
}

TEST_F(ReceiverTest, RejectsUnsubscribedGroup) {
  Receiver r = make({G(0)}, {});
  EXPECT_THROW(r.receive(make_msg(1, G(9), 1), 0.0), CheckFailure);
}

TEST_F(ReceiverTest, MultipleRelevantStampsAllMustMatch) {
  Receiver r = make({G(0), G(1), G(2)}, {AtomId(1), AtomId(2)});
  // Message to G0 stamped by both atoms; second stamp is ahead.
  r.receive(make_msg(1, G(0), 1, {{AtomId(1), 1}, {AtomId(2), 2}}), 0.0);
  EXPECT_TRUE(delivered_.empty());
  // The message occupying Q2 seq 1 arrives (to G2, only stamped by Q2).
  r.receive(make_msg(2, G(2), 1, {{AtomId(2), 1}}), 0.0);
  EXPECT_EQ(delivered_, (std::vector<MsgId>{MsgId(2), MsgId(1)}));
}

TEST_F(ReceiverTest, MaxBufferedRecordsPeakNotCurrent) {
  Receiver r = make({G(0)}, {});
  r.receive(make_msg(4, G(0), 4), 0.0);
  r.receive(make_msg(3, G(0), 3), 0.0);
  r.receive(make_msg(2, G(0), 2), 0.0);
  EXPECT_EQ(r.buffered(), 3u);
  r.receive(make_msg(1, G(0), 1), 0.0);  // releases the whole chain
  EXPECT_EQ(r.buffered(), 0u);
  EXPECT_EQ(r.max_buffered(), 3u) << "the peak must survive the drain";
  EXPECT_EQ(delivered_.size(), 4u);
}

TEST_F(ReceiverTest, CascadeReleasesChainInSequenceOrder) {
  // Waiters parked in reverse arrival order must still come out of the
  // cascade strictly by sequence number.
  Receiver r = make({G(0)}, {});
  for (unsigned seq = 5; seq >= 2; --seq) {
    r.receive(make_msg(seq, G(0), seq), 0.0);
  }
  EXPECT_TRUE(delivered_.empty());
  r.receive(make_msg(1, G(0), 1), 0.0);
  EXPECT_EQ(delivered_, (std::vector<MsgId>{MsgId(1), MsgId(2), MsgId(3),
                                            MsgId(4), MsgId(5)}));
}

TEST_F(ReceiverTest, WokenWaiterReparksOnLaterCounter) {
  // Blocked on both its group counter and a relevant stamp: filling the
  // group gap wakes it, it re-parks on the stamp, and the stamp's advance
  // finally delivers it. Throughout, it occupies one buffer slot and its
  // wait clock runs from the original arrival.
  Receiver r = make({G(0), G(1)}, {AtomId(7)});
  r.receive(make_msg(9, G(0), 2, {{AtomId(7), 2}}), 0.0);
  EXPECT_EQ(r.buffered(), 1u);
  r.receive(make_msg(1, G(0), 1), 5.0);  // fills the group gap only
  EXPECT_EQ(delivered_, (std::vector<MsgId>{MsgId(1)}));
  EXPECT_EQ(r.buffered(), 1u) << "still blocked on the Q7 stamp";
  r.receive(make_msg(2, G(1), 1, {{AtomId(7), 1}}), 8.0);
  EXPECT_EQ(delivered_,
            (std::vector<MsgId>{MsgId(1), MsgId(2), MsgId(9)}));
  EXPECT_EQ(r.buffered(), 0u);
  EXPECT_EQ(r.max_buffered(), 1u) << "a re-park is not a second park";
  EXPECT_DOUBLE_EQ(r.total_buffer_wait(), 8.0);  // parked 0.0 -> 8.0
}

TEST_F(ReceiverTest, MessageAfterFinThrows) {
  Receiver r = make({G(0)}, {});
  r.receive(make_fin(1, G(0), 1), 0.0);
  EXPECT_TRUE(r.group_closed(G(0)));
  EXPECT_THROW(r.receive(make_msg(2, G(0), 2), 0.0), CheckFailure);
}

TEST_F(ReceiverTest, BufferedFinClosesGroupOnlyAfterCascade) {
  // A FIN that arrives early parks like any message; the group closes
  // when the cascade actually delivers it, not on arrival.
  Receiver r = make({G(0)}, {});
  r.receive(make_fin(3, G(0), 3), 0.0);
  r.receive(make_msg(2, G(0), 2), 0.0);
  EXPECT_FALSE(r.group_closed(G(0)));
  r.receive(make_msg(1, G(0), 1), 0.0);
  EXPECT_TRUE(r.group_closed(G(0)));
  EXPECT_EQ(delivered_.size(), 3u);
}

TEST_F(ReceiverTest, ParkWakeDeliverPathIsAllocationFree) {
  // The whole publish→park→wake→deliver cycle must stop allocating once
  // the slabs are warm: payload blocks come from the per-thread pool,
  // parked messages from the pending_ slab, and the waiting index from the
  // WaitNode slab (the former per-park unordered_map hash node was the last
  // allocating step on this path).
  Receiver r = make({G(0), G(1)}, {AtomId(0)});
  delivered_.reserve(1024);  // keep the fixture's log out of the measurement

  // One cycle: a G(1) message arrives blocked on the atom stamp (parks),
  // then the G(0) message carrying the prior stamp delivers and wakes it.
  const auto cycle = [&](SeqNo k) {
    StampVec blocked;
    blocked.push_back({AtomId(0), 2 * k});
    r.receive(Message::make({.id = MsgId(2 * static_cast<unsigned>(k)),
                             .group = G(1),
                             .sender = N(0),
                             .group_seq = k},
                            std::move(blocked)),
              0.0);
    StampVec due;
    due.push_back({AtomId(0), 2 * k - 1});
    r.receive(Message::make({.id = MsgId(2 * static_cast<unsigned>(k) - 1),
                             .group = G(0),
                             .sender = N(0),
                             .group_seq = k},
                            std::move(due)),
              0.0);
  };

  for (SeqNo k = 1; k <= 16; ++k) cycle(k);  // warm the slabs and pools
  ASSERT_EQ(delivered_.size(), 32u);

  const std::size_t allocs_before = test::alloc_count();
  for (SeqNo k = 17; k <= 116; ++k) cycle(k);
  const std::size_t allocs = test::alloc_count() - allocs_before;

  EXPECT_EQ(allocs, 0u) << "park/wake/deliver path allocated";
  EXPECT_EQ(delivered_.size(), 232u);
}

TEST(RelevantAtoms, ComputedFromOverlapMembership) {
  const auto m = test::make_membership(5, {{0, 1, 2}, {1, 2, 3}, {3, 4, 0}});
  const membership::OverlapIndex idx(m);
  const auto graph = seqgraph::build_sequencing_graph(m, idx, {});
  // Overlap (g0,g1) = {1,2}: atoms relevant to nodes 1 and 2 only.
  const auto r0 = relevant_atoms_for(N(0), graph);
  const auto r1 = relevant_atoms_for(N(1), graph);
  EXPECT_TRUE(r0.empty());
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_EQ(graph.atom(r1[0]).overlap_members,
            (std::vector<NodeId>{N(1), N(2)}));
}

TEST(RelevantAtoms, SkipRetiredAtomsAfterADelta) {
  // A delta retires the touched component's atoms, keeps the other
  // component's and appends the re-laid ones; the live-atom walk must list
  // what a scan of every atom, retired ones skipped, lists, from the first
  // atom and from the appended ones.
  auto m = test::make_membership(
      10, {{0, 1, 2}, {1, 2, 3}, {3, 4, 0}, {5, 6, 7}, {5, 6, 8}});
  const membership::OverlapIndex idx(m);
  seqgraph::SequencingGraph graph = seqgraph::build_sequencing_graph(m, idx);
  const std::size_t old_atoms = graph.num_atoms();
  m.add_member(G(0), N(3));
  const std::vector<GroupId> dirty = {G(0)};
  const membership::OverlapIndex next(idx, m, dirty);
  graph = seqgraph::build_sequencing_graph_delta(std::move(graph), idx, m,
                                                 next, dirty);
  ASSERT_GT(graph.num_retired_atoms(), 0u);
  for (const std::size_t first : {std::size_t{0}, old_atoms}) {
    for (unsigned n = 0; n < 10; ++n) {
      std::vector<AtomId> want;
      for (std::size_t a = first; a < graph.num_atoms(); ++a) {
        const seqgraph::Atom& atom = graph.atoms()[a];
        if (atom.is_ingress_only() || graph.is_retired(atom.id)) continue;
        if (std::binary_search(atom.overlap_members.begin(),
                               atom.overlap_members.end(), N(n))) {
          want.push_back(atom.id);
        }
      }
      EXPECT_EQ(relevant_atoms_for(N(n), graph, first), want)
          << "node " << n << " from atom " << first;
    }
  }
}

TEST(NetworkRoutes, ChannelTableStaysSortedWhenAnAtomBranches) {
  // Atom 0 branches: group 0 leaves it for atom 2, group 1 for atom 1.
  // The routes compile in group order, so the edge 0->2 is met before
  // 0->1, and the channel hand-off must order each atom's out-edges
  // itself. No layout of the builder's has been seen to produce this
  // order, so a hand-made tree pins it.
  const auto m = test::make_membership(
      8, {{0, 1, 4, 5}, {0, 1, 2, 3}, {2, 3, 6}, {4, 5, 7}});
  const auto A = [](unsigned v) { return AtomId(v); };
  std::vector<seqgraph::Atom> atoms = {
      {A(0), G(0), G(1), {N(0), N(1)}, 0},
      {A(1), G(1), G(2), {N(2), N(3)}, 1},
      {A(2), G(0), G(3), {N(4), N(5)}, 2}};
  const auto graph = seqgraph::SequencingGraph::make_for_testing(
      std::move(atoms), {{A(0), A(2)}, {A(0), A(1)}, {A(1)}, {A(2)}},
      {{A(1), A(2)}, {A(0)}, {A(0)}}, 3);
  Rng rng(5);
  const auto topo =
      topology::generate_transit_stub(test::small_topology(), rng);
  const auto hosts = topology::attach_hosts(
      topo, {.num_hosts = 8, .num_clusters = 2}, rng);
  topology::DistanceOracle oracle(topo.graph);
  const placement::Colocation colocation(
      {{A(0)}, {A(1)}, {A(2)}}, {SeqNodeId(0), SeqNodeId(1), SeqNodeId(2)});
  const placement::Assignment assignment(
      {hosts.router_of(N(0)), hosts.router_of(N(2)), hosts.router_of(N(4))});
  sim::Simulator sim;
  SequencingNetwork network(sim, rng, graph, colocation, assignment, m, hosts,
                            oracle);
  std::size_t delivered = 0;
  network.set_delivery_callback(
      [&](NodeId, const Message&, sim::Time) { ++delivered; });
  std::size_t expected = 0;
  for (unsigned g = 0; g < 4; ++g) {
    EXPECT_EQ(network.compiled_route(G(g)), graph.path(G(g))) << "group " << g;
    (void)network.publish(m.members(G(g)).front(), G(g), g);
    expected += m.members(G(g)).size();
  }
  sim.run();
  EXPECT_EQ(delivered, expected);
}

/// A hand-made deployment of overlap atoms on one or two sequencing
/// machines: machine 0 at host 0's router, machine 1 at another router.
/// `machine_of_atom` names each atom's machine; empty puts them all on
/// machine 0. Colocated atoms are joined by 0 ms loss-free channels.
struct Deployment {
  Deployment(const membership::GroupMembership& m,
             std::vector<seqgraph::Atom> atoms,
             std::vector<std::vector<AtomId>> paths,
             std::vector<std::vector<AtomId>> tree,
             const std::vector<unsigned>& machine_of_atom = {})
      : membership(m),
        graph(overlap_graph(std::move(atoms), std::move(paths),
                            std::move(tree))),
        rng(7),
        topo(topology::generate_transit_stub(test::small_topology(), rng)),
        hosts(topology::attach_hosts(
            topo, {.num_hosts = m.num_nodes(), .num_clusters = 2}, rng)),
        oracle(topo.graph),
        colocation(colocate(machine_of_atom, graph.num_atoms())),
        assignment(machines(colocation.num_nodes(), hosts.router_of(N(0)))),
        network(sim, rng, graph, colocation, assignment, membership, hosts,
                oracle) {}

  /// Every atom is an overlap atom.
  static seqgraph::SequencingGraph overlap_graph(
      std::vector<seqgraph::Atom> atoms,
      std::vector<std::vector<AtomId>> paths,
      std::vector<std::vector<AtomId>> tree) {
    const std::size_t num_atoms = atoms.size();
    return seqgraph::SequencingGraph::make_for_testing(
        std::move(atoms), std::move(paths), std::move(tree), num_atoms);
  }

  static placement::Colocation colocate(
      const std::vector<unsigned>& machine_of_atom, std::size_t num_atoms) {
    std::vector<std::vector<AtomId>> nodes(1);
    std::vector<SeqNodeId> node_of(num_atoms, SeqNodeId(0));
    for (unsigned a = 0; a < num_atoms; ++a) {
      const unsigned n = machine_of_atom.empty() ? 0 : machine_of_atom[a];
      if (n >= nodes.size()) nodes.resize(n + 1);
      nodes[n].push_back(AtomId(a));
      node_of[a] = SeqNodeId(n);
    }
    return placement::Colocation(std::move(nodes), std::move(node_of));
  }

  static placement::Assignment machines(std::size_t count, RouterId first) {
    std::vector<RouterId> routers{first};
    if (count > 1) routers.push_back(RouterId(first.value() == 0 ? 1 : 0));
    return placement::Assignment(std::move(routers));
  }

  /// Span events one publish's fan-out from `egress` to group `g` fires:
  /// one per distinct member delay.
  std::size_t spans(AtomId egress, GroupId g) {
    std::set<double> delays;
    const RouterId from =
        assignment.machine_of(colocation.node_of(egress));
    for (const NodeId member : membership.members(g)) {
      delays.insert(oracle.distance(from, hosts.router_of(member)));
    }
    return delays.size();
  }

  membership::GroupMembership membership;
  seqgraph::SequencingGraph graph;
  Rng rng;
  topology::TransitStubTopology topo;
  topology::HostMap hosts;
  topology::DistanceOracle oracle;
  placement::Colocation colocation;
  placement::Assignment assignment;
  sim::Simulator sim;
  SequencingNetwork network;
};

TEST(InPlaceHops, ColocatedRunAloneInItsInstantFiresNoHopEvent) {
  // Group 0's path is a run of four atoms on one machine; atom i also
  // stamps group i + 1. Each publish reaches its ingress alone in its
  // instant, so every hop passes in place: the simulator fires the ingress
  // event and the fan-out spans and nothing else, and each channel of the
  // run counts the hops as sent, delivered and released.
  constexpr unsigned kAtoms = 4;
  std::vector<std::vector<unsigned>> groups(kAtoms + 1);
  std::vector<seqgraph::Atom> atoms;
  std::vector<std::vector<AtomId>> paths(kAtoms + 1);
  std::vector<std::vector<AtomId>> tree(kAtoms);
  for (unsigned i = 0; i < kAtoms; ++i) {
    groups[0].insert(groups[0].end(), {2 * i, 2 * i + 1});
    groups[i + 1] = {2 * i, 2 * i + 1};
    atoms.push_back({AtomId(i), G(0), G(i + 1), {N(2 * i), N(2 * i + 1)}, i});
    paths[0].push_back(AtomId(i));
    paths[i + 1] = {AtomId(i)};
    if (i > 0) {
      tree[i].push_back(AtomId(i - 1));
      tree[i - 1].push_back(AtomId(i));
    }
  }
  Deployment d(test::make_membership(2 * kAtoms, groups), std::move(atoms),
               std::move(paths), std::move(tree));
  std::size_t delivered = 0;
  d.network.set_delivery_callback(
      [&](NodeId, const Message&, sim::Time) { ++delivered; });
  const std::size_t spans = d.spans(AtomId(kAtoms - 1), G(0));
  constexpr std::size_t kPublishes = 3;
  for (std::size_t p = 0; p < kPublishes; ++p) {
    const std::size_t fired = d.sim.events_fired();
    (void)d.network.publish(N(1), G(0), p);
    d.sim.run();
    EXPECT_EQ(d.sim.events_fired() - fired, 1 + spans)
        << "publish " << p << ": the ingress event and the spans only";
  }
  EXPECT_EQ(delivered, kPublishes * 2 * kAtoms);
  for (unsigned i = 0; i + 1 < kAtoms; ++i) {
    const sim::Channel<Message>& ch =
        d.network.channel(AtomId(i), AtomId(i + 1));
    EXPECT_TRUE(ch.instant());
    EXPECT_TRUE(ch.quiescent());
    EXPECT_EQ(ch.transmissions(), kPublishes);
    EXPECT_EQ(ch.next_deliver_seq(), kPublishes);
  }
}

TEST(InPlaceHops, SharedAtomStampsInBreadthFirstOrder) {
  // Group 0 runs P0 -> P1 -> P2 -> S and group 1 runs Q -> S, all on one
  // machine. One sender publishes to group 0, then to group 1, so both
  // ingress events fire in one instant, group 0's first. As events, group
  // 1's message reaches S after one hop and group 0's after three, so S
  // stamps group 1's first; running group 0's chain depth-first in place
  // would stamp group 0's first. A hop passes in place only when nothing
  // else is due in its instant, so S keeps the queue's order.
  const auto A = [](unsigned v) { return AtomId(v); };
  // P0, P1, P2 are atoms 0-2 (group 0 with groups 2-4), S is atom 3
  // (groups 0 and 1) and Q atom 4 (group 1 with group 5).
  const auto m = test::make_membership(
      10, {{0, 1, 2, 3, 4, 5, 6, 7}, {0, 1, 8, 9}, {2, 3}, {4, 5}, {6, 7},
           {8, 9}});
  std::vector<seqgraph::Atom> atoms = {
      {A(0), G(0), G(2), {N(2), N(3)}, 0},
      {A(1), G(0), G(3), {N(4), N(5)}, 1},
      {A(2), G(0), G(4), {N(6), N(7)}, 2},
      {A(3), G(0), G(1), {N(0), N(1)}, 3},
      {A(4), G(1), G(5), {N(8), N(9)}, 4}};
  Deployment d(m, std::move(atoms),
               {{A(0), A(1), A(2), A(3)},
                {A(4), A(3)},
                {A(0)},
                {A(1)},
                {A(2)},
                {A(4)}},
               {{A(1)}, {A(0), A(2)}, {A(1), A(3)}, {A(2), A(4)}, {A(3)}});
  std::map<GroupId, SeqNo> stamp_at_s;
  d.network.set_delivery_callback([&](NodeId, const Message& msg, sim::Time) {
    for (const Stamp& stamp : msg.stamps) {
      if (stamp.atom == A(3)) stamp_at_s[msg.group()] = stamp.seq;
    }
  });
  (void)d.network.publish(N(0), G(0), 0);
  (void)d.network.publish(N(0), G(1), 1);
  d.sim.run();
  EXPECT_EQ(stamp_at_s, (std::map<GroupId, SeqNo>{{G(0), 2}, {G(1), 1}}));
}

TEST(InPlaceHops, FirstHopAfterACrossMachineArrivalIsAnEvent) {
  // Group 0 runs A0 -> A1 -> A2, with A0 on one machine and A1, A2 on
  // another. The channel A0 -> A1 has flight time and schedules its ack
  // after it delivers at A1, so A1's forward is not the last protocol
  // action of its event and A1 -> A2 stays an event; run in place, its
  // chain would take the ack's place in the queue. A2 is reached by a
  // 0 ms loss-free delivery and hands on in place from there.
  const auto A = [](unsigned v) { return AtomId(v); };
  const auto m = test::make_membership(
      8, {{0, 1, 2, 3, 4, 5}, {0, 1}, {2, 3}, {4, 5}});
  std::vector<seqgraph::Atom> atoms = {
      {A(0), G(0), G(1), {N(0), N(1)}, 0},
      {A(1), G(0), G(2), {N(2), N(3)}, 1},
      {A(2), G(0), G(3), {N(4), N(5)}, 2}};
  Deployment d(m, std::move(atoms),
               {{A(0), A(1), A(2)}, {A(0)}, {A(1)}, {A(2)}},
               {{A(1)}, {A(0), A(2)}, {A(1)}}, {0, 1, 1});
  ASSERT_FALSE(d.network.channel(A(0), A(1)).instant());
  ASSERT_TRUE(d.network.channel(A(1), A(2)).instant());
  (void)d.network.publish(N(0), G(0), 0);
  d.sim.run();
  // The ingress event, A0 -> A1's data event and its ack, A1 -> A2's
  // data event, and the spans.
  EXPECT_EQ(d.sim.events_fired(), 4 + d.spans(A(2), G(0)));
  EXPECT_TRUE(d.network.channel(A(0), A(1)).quiescent());
  EXPECT_TRUE(d.network.channel(A(1), A(2)).quiescent());
}

}  // namespace
}  // namespace decseq::protocol
