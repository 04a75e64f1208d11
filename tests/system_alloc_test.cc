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
// The control plane has a weaker discipline: a live reconfiguration may
// allocate, but its heap work must follow the groups it touches, not the
// number of transitions before it.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/zipf.h"
#include "membership/generators.h"
#include "pubsub/system.h"
#include "sim/callback.h"
#include "tests/alloc_probe.h"
#include "tests/test_util.h"

namespace decseq::pubsub {
namespace {

using test::N;

TEST(SystemAlloc, SteadyStatePublishDeliverIsAllocationFree) {
  PubSubSystem system(test::small_config(/*seed=*/7));

  // Four overlapping groups over the 16 hosts: overlaps force sequencing
  // atoms, stamps, and cross-group ordering work on the measured path.
  const std::vector<std::vector<NodeId>> members = {
      {N(0), N(1), N(2), N(3), N(4), N(5)},
      {N(4), N(5), N(6), N(7), N(8), N(9)},
      {N(8), N(9), N(10), N(11), N(12), N(13)},
      {N(12), N(13), N(14), N(15), N(0), N(1)},
  };
  const std::vector<GroupId> groups = system.create_groups(members);

  // One precomputed schedule, replayed identically for every pass so the
  // warm passes touch exactly the state (oracle memo, fan-out plans,
  // channel rings, receiver slabs, pools) the measured pass needs.
  struct Publish {
    NodeId sender;
    GroupId group;
  };
  std::vector<Publish> schedule;
  constexpr std::size_t kRounds = 12;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      schedule.push_back(
          {members[g][round % members[g].size()], groups[g]});
    }
  }
  std::size_t deliveries_per_pass = 0;
  for (const auto& m : members) deliveries_per_pass += kRounds * m.size();

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
  system.reserve(3 * schedule.size(), 3 * deliveries_per_pass);

  run_pass();  // cold: builds pools, slabs, rings, oracle memo
  run_pass();  // confirms the high-water marks
  ASSERT_EQ(system.deliveries().size(), 2 * deliveries_per_pass);

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
  EXPECT_EQ(system.deliveries().size(), 3 * deliveries_per_pass);
}

TEST(SystemAlloc, CutoverAllocationsDoNotGrowWithHistory) {
  // A cutover should cost its affected closure, not the graph's history.
  // Every transition retires the touched components' atoms and appends
  // fresh ones, so the graph only grows; the heap work of one same-shape
  // reconfigure_async call must not grow with it. The paper deployment:
  // 128 hosts in 32 clusters on the 10,000-router topology, 64 Zipf groups.
  SystemConfig config;
  config.seed = 20060101;
  config.hosts.num_hosts = 128;
  config.hosts.num_clusters = 32;
  PubSubSystem system(config);
  Rng membership_rng(20060102);
  const membership::GroupMembership initial = membership::zipf_membership(
      {.num_nodes = 128, .num_groups = 64}, membership_rng);
  std::vector<std::vector<NodeId>> lists;
  for (const GroupId g : initial.live_groups()) {
    lists.push_back(initial.members(g));
  }
  (void)system.create_groups(lists);

  // One join and one leave per batch; the joined and the left group sweep
  // the live groups in a fixed rotation. Joiners are drawn Zipf-popular,
  // like the generator drew members, so the membership keeps its shape.
  const ZipfSampler popularity(128, 1.0);
  Rng rng(13);
  constexpr std::size_t kTransitions = 200;
  std::vector<std::size_t> allocs;
  const std::size_t atoms_before = system.graph().num_atoms();
  for (std::size_t t = 0; t < kTransitions; ++t) {
    const membership::GroupMembership& m = system.membership();
    const std::vector<GroupId> groups = m.live_groups();
    const std::size_t n = groups.size();
    std::size_t at = t % n;
    while (m.members(groups[at]).size() >= m.num_nodes()) at = (at + 1) % n;
    const GroupId joined = groups[at];
    NodeId newcomer;
    do {
      newcomer = NodeId(
          static_cast<NodeId::underlying_type>(popularity.sample(rng) - 1));
    } while (m.is_member(joined, newcomer));
    GroupId left;
    for (std::size_t k = 0; k < n && !left.valid(); ++k) {
      const GroupId g = groups[(t + n / 2 + k) % n];
      if (g != joined && m.members(g).size() >= 3) left = g;
    }
    ASSERT_TRUE(left.valid());
    std::vector<PubSubSystem::MembershipChange> batch = {
        PubSubSystem::MembershipChange::join(joined, newcomer),
        PubSubSystem::MembershipChange::leave(left, rng.pick(m.members(left)))};

    const std::size_t before = test::alloc_count();
    (void)system.reconfigure_async(std::move(batch));
    allocs.push_back(test::alloc_count() - before);
    system.run();  // drain the cutover fences before the next batch
    ASSERT_FALSE(system.transition_active());
  }
  ASSERT_GT(system.graph().num_atoms(), 10 * atoms_before)
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
      << late << " (" << atoms_before << " -> " << system.graph().num_atoms()
      << " atoms)";
}

}  // namespace
}  // namespace decseq::pubsub
