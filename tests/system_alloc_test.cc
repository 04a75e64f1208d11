// Steady-state allocation discipline of the full publish→deliver path.
//
// The PR-5 tentpole claim: once every pool, slab, ring, and log is warm, a
// full-system publish — ingress leg, per-hop stamping along the compiled
// route table, channel transport, multicast fan-out, receiver ordering,
// delivery logging — performs zero heap allocations. This test asserts that
// against the binary-wide counting allocator (tests/alloc_probe.cc), not a
// model: the same publish schedule is replayed until warm, capacity is
// reserved, and the measured replay must not allocate at all.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

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

}  // namespace
}  // namespace decseq::pubsub
