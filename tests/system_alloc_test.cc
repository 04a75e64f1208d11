// Steady-state allocation discipline of the full publish→deliver path.
//
// The PR-5 tentpole claim: once every pool, slab, ring, and log is warm, a
// full-system publish — ingress leg, per-hop stamping along the compiled
// route table, channel transport, multicast fan-out, receiver ordering,
// delivery logging — performs zero heap allocations. This test asserts that
// against the binary-wide counting allocator (tests/alloc_probe.cc), not a
// model: the same publish schedule is replayed until warm, capacity is
// reserved, and the measured replay must not allocate at all.
//
// The wire path holds the same discipline: the same workload compiled into
// NodeEngine ranks that exchange real frames over the simulated fabric
// allocates nothing once warm either.
//
// The control plane has a weaker discipline: a live reconfiguration may
// allocate, but its heap work must follow the groups it touches, not the
// number of transitions before it.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "app/cluster_config.h"
#include "app/decseqd.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "pubsub/system.h"
#include "sim/callback.h"
#include "sim/simulator.h"
#include "tests/alloc_probe.h"
#include "tests/test_util.h"
#include "transport/channel.h"
#include "transport/sim_transport.h"

namespace decseq::pubsub {
namespace {

using test::N;

/// Four overlapping groups over the 16 hosts of test::small_config:
/// overlaps force sequencing atoms, stamps, and cross-group ordering work
/// on the measured path.
const std::vector<std::vector<NodeId>> kMembers = {
    {N(0), N(1), N(2), N(3), N(4), N(5)},
    {N(4), N(5), N(6), N(7), N(8), N(9)},
    {N(8), N(9), N(10), N(11), N(12), N(13)},
    {N(12), N(13), N(14), N(15), N(0), N(1)},
};

struct Publish {
  NodeId sender;
  GroupId group;
};

/// One precomputed schedule over kMembers, replayed identically by every
/// pass so the warm passes touch exactly the state (oracle memo, fan-out
/// plans, channel rings, buffer pools, receiver slabs) the measured pass
/// needs. Each of the kRounds rounds publishes once to every group.
constexpr std::size_t kRounds = 12;

std::vector<Publish> replay_schedule(const std::vector<GroupId>& groups) {
  std::vector<Publish> schedule;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      schedule.push_back(
          {kMembers[g][round % kMembers[g].size()], groups[g]});
    }
  }
  return schedule;
}

std::size_t deliveries_per_pass() {
  std::size_t deliveries = 0;
  for (const auto& m : kMembers) deliveries += kRounds * m.size();
  return deliveries;
}

TEST(SystemAlloc, SteadyStatePublishDeliverIsAllocationFree) {
  PubSubSystem system(test::small_config(/*seed=*/7));
  const std::vector<Publish> schedule =
      replay_schedule(system.create_groups(kMembers));

  const std::uint8_t body[32] = {0xab};
  std::uint64_t payload = 0;
  const auto run_pass = [&] {
    for (const Publish& p : schedule) {
      system.publish(p.sender, p.group, payload++, body, sizeof(body));
    }
    system.run();
  };

  // Logs grow for the epoch's lifetime — reserve for all three passes up
  // front so the warm passes also warm the vectors' final capacity.
  system.reserve(3 * schedule.size(), 3 * deliveries_per_pass());

  run_pass();  // cold: builds pools, slabs, rings, oracle memo
  run_pass();  // confirms the high-water marks
  ASSERT_EQ(system.deliveries().size(), 2 * deliveries_per_pass());

  const std::size_t allocs_before = test::alloc_count();
  const std::size_t fresh_spills_before = sim::spill_pool_stats().fresh;
  run_pass();
  const std::size_t allocs = test::alloc_count() - allocs_before;
  const std::size_t fresh_spills =
      sim::spill_pool_stats().fresh - fresh_spills_before;

  EXPECT_EQ(allocs, 0u)
      << "full-system publish→deliver steady state allocated";
  EXPECT_EQ(fresh_spills, 0u)
      << "a callback spill missed the warm freelist";
  EXPECT_EQ(system.deliveries().size(), 3 * deliveries_per_pass());
}

TEST(TransportAlloc, SteadyStatePublishDeliverIsAllocationFree) {
  // The wire twin of the test above: the same four overlapping groups,
  // compiled into three NodeEngine ranks over loss-free, jitter-free
  // SimNet edges. Every cross-rank hop runs the message codec, the frame
  // codec and its CRC, a reliable channel with its ack, and the fabric's
  // datagram copy; once warm, none of it may touch the heap.
  PubSubSystem system(test::small_config(/*seed=*/7));
  const std::vector<Publish> schedule =
      replay_schedule(system.create_groups(kMembers));
  constexpr std::uint32_t kRanks = 3;
  const app::ClusterConfig config = app::build_cluster_config(
      system, kRanks, /*retransmit_timeout_ms=*/50.0,
      /*max_retransmits=*/200, /*seed=*/1234);

  sim::Simulator sim;
  transport::SimNet net(sim, /*seed=*/99);
  net.add_endpoints(kRanks);
  for (const app::EdgeSpec& edge : app::build_edge_table(config)) {
    if (edge.kind == app::EdgeKind::kControlCommand ||
        edge.kind == app::EdgeKind::kControlReport ||
        edge.src_rank == edge.dst_rank) {
      continue;
    }
    net.add_edge(edge.id, edge.src_rank, edge.dst_rank);
  }
  std::size_t delivered = 0;
  std::vector<std::unique_ptr<transport::ChannelSet>> sets;
  std::vector<std::unique_ptr<app::NodeEngine>> engines;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    sets.push_back(std::make_unique<transport::ChannelSet>());
    engines.push_back(std::make_unique<app::NodeEngine>(
        net.endpoint(r), *sets.back(), config, r,
        [&delivered](NodeId, const protocol::Message&, double) {
          ++delivered;
        }));
    transport::ChannelSet* set = sets.back().get();
    net.endpoint(r).set_datagram_sink(
        [set](const std::uint8_t* d, std::size_t n,
              const transport::Origin& o) { set->handle(d, n, o); });
  }

  std::uint32_t ordinal = 0;
  const auto run_pass = [&] {
    for (const Publish& p : schedule) {
      const std::uint32_t rank = config.hosts[p.sender.value()].rank;
      engines[rank]->publish(ordinal, p.sender, p.group, ordinal);
      ++ordinal;
    }
    sim.run();
  };

  run_pass();  // cold: builds channel rings, buffer pools, block pool
  run_pass();  // confirms the high-water marks
  ASSERT_EQ(delivered, 2 * deliveries_per_pass());

  const std::size_t allocs_before = test::alloc_count();
  run_pass();
  const std::size_t allocs = test::alloc_count() - allocs_before;

  EXPECT_EQ(allocs, 0u) << "wire-path publish→deliver steady state allocated";
  EXPECT_EQ(delivered, 3 * deliveries_per_pass());
  std::uint64_t cross_rank_sends = 0;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    EXPECT_EQ(sets[r]->rejected(), 0u) << "rank " << r;
    cross_rank_sends +=
        engines[r]->stats().forwarded + engines[r]->stats().distributed;
  }
  EXPECT_GT(cross_rank_sends, 0u) << "nothing crossed the wire";
}

using test::churn_batch;
using test::paper_system;

TEST(SystemAlloc, CutoverAllocationsDoNotGrowWithHistory) {
  // A cutover should cost its affected closure, not the graph's history.
  // Every transition retires the touched components' atoms and appends
  // fresh ones, so the graph only grows; the heap work of one same-shape
  // reconfigure_async call must not grow with it.
  const auto system = paper_system();
  const ZipfSampler popularity(128, 1.0);
  Rng rng(13);
  constexpr std::size_t kTransitions = 200;
  std::vector<std::size_t> allocs;
  const std::size_t atoms_before = system->graph().num_atoms();
  for (std::size_t t = 0; t < kTransitions; ++t) {
    auto batch = churn_batch(system->membership(), t, popularity, rng);
    const std::size_t before = test::alloc_count();
    (void)system->reconfigure_async(std::move(batch));
    allocs.push_back(test::alloc_count() - before);
    system->run();  // drain the cutover fences before the next batch
    ASSERT_FALSE(system->transition_active());
  }
  ASSERT_GT(system->graph().num_atoms(), 10 * atoms_before)
      << "retired atoms should pile up";

  const auto mean = [&](std::size_t first, std::size_t last) {
    double sum = 0;
    for (std::size_t t = first; t <= last; ++t) sum += allocs[t];
    return sum / static_cast<double>(last - first + 1);
  };
  const double early = mean(10, 19);
  const double late = mean(190, 199);
  EXPECT_LE(late, 2 * early)
      << "allocations per cutover grew with history: " << early << " -> "
      << late << " (" << atoms_before << " -> "
      << system->graph().num_atoms() << " atoms)";
}

TEST(SystemAlloc, WarmCutoverStaysUnderAllocationBound) {
  // A warm cutover pays for its closure only: every layer edits its
  // predecessor in place and reuses scratch it owns. The facade snapshots
  // only the batch's own groups, the overlap index is rebuilt in a spare
  // one that takes the surviving member lists, co-location runs in a
  // facade-held scratch, and the network hands receivers their new atoms
  // from one pass over the appended atoms and recycles reclaimed channels
  // and drained fan-out plans; the placement extension keeps its label
  // map and path buffer in a facade-held scratch, and the chain layout's
  // label sort takes no temporary buffer. One warm transition of the paper
  // deployment, drain included, makes 152 allocations (176 before those
  // two, 758 before the layers edited in place). A layer-by-layer mirror
  // of the same transition put the 176 at: snapshot and batch 4, overlap
  // delta 7, co-location 2, graph delta 97 (the appended atoms' member
  // lists and tree adjacency), placement extend 36, begin_reconfigure 39,
  // drain 6 (before: 71, 199, 75, 100, 36, 269, 24).
  const auto system = paper_system();
  const ZipfSampler popularity(128, 1.0);
  Rng rng(13);
  constexpr std::size_t kWarm = 20;
  for (std::size_t t = 0; t < kWarm; ++t) {
    (void)system->reconfigure_async(
        churn_batch(system->membership(), t, popularity, rng));
    system->run();
  }
  auto batch = churn_batch(system->membership(), kWarm, popularity, rng);
  const std::size_t before = test::alloc_count();
  (void)system->reconfigure_async(std::move(batch));
  system->run();
  const std::size_t allocs = test::alloc_count() - before;
  ASSERT_FALSE(system->transition_active());
  EXPECT_LT(allocs, 168u) << "one warm cutover and its drain";
}

}  // namespace
}  // namespace decseq::pubsub
