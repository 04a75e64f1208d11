// Shared helpers for the test suite: small topologies (tests don't need the
// 10,000-router experiment configuration), membership literals, and the
// pairwise order-consistency oracle used by integration and property tests.
#pragma once

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/cluster_config.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "membership/generators.h"
#include "membership/membership.h"
#include "metrics/logio.h"
#include "pubsub/system.h"

namespace decseq::test {

inline NodeId N(unsigned v) { return NodeId(v); }
inline GroupId G(unsigned v) { return GroupId(v); }

/// A topology an order of magnitude smaller than the experiments', for fast
/// tests: 2 transit domains x 3 routers, 2 stubs per router, 5 routers per
/// stub -> 66 routers.
inline topology::TransitStubParams small_topology() {
  topology::TransitStubParams p;
  p.transit_domains = 2;
  p.routers_per_transit = 3;
  p.stubs_per_transit_router = 2;
  p.routers_per_stub = 5;
  p.extra_transit_links = 2;
  return p;
}

inline pubsub::SystemConfig small_config(std::uint64_t seed,
                                         std::size_t num_hosts = 16,
                                         std::size_t num_clusters = 4) {
  pubsub::SystemConfig config;
  config.seed = seed;
  config.topology = small_topology();
  config.hosts.num_hosts = num_hosts;
  config.hosts.num_clusters = num_clusters;
  return config;
}

/// Rewrite each hop's rank to its sequencing node mod the rank count, in
/// place of build_cluster_config's rank rule. Nodes then land wherever
/// their ids put them, whatever their members' ranks, so path hops cross
/// ranks that the rule would keep together.
inline void scatter_hop_ranks(app::ClusterConfig& config,
                              const placement::Colocation& colocation) {
  for (app::GroupEntry& group : config.groups) {
    for (app::HopEntry& hop : group.path) {
      hop.rank = colocation.node_of(hop.atom).value() % config.num_ranks;
    }
  }
}

/// Build a membership snapshot from group literal member lists.
inline membership::GroupMembership make_membership(
    std::size_t num_nodes, const std::vector<std::vector<unsigned>>& groups) {
  membership::GroupMembership m(num_nodes);
  for (const auto& members : groups) {
    std::vector<NodeId> ids;
    ids.reserve(members.size());
    for (const unsigned v : members) ids.push_back(NodeId(v));
    m.add_group(std::move(ids));
  }
  return m;
}

/// Checks the paper's headline guarantee over a delivery log: every pair of
/// receivers observes their common messages in the same relative order.
/// Returns a description of the first violation, or nullopt if consistent.
/// (Thin alias of the library oracle in metrics/logio.h.)
inline std::optional<std::string> find_order_violation(
    const std::vector<pubsub::Delivery>& log) {
  return metrics::find_order_violation(log);
}

/// The committed fuzz corpus (fuzz/corpus/*.repro), sorted; empty if the
/// directory is missing. DECSEQ_FUZZ_CORPUS_DIR is injected by
/// tests/CMakeLists.txt.
inline std::vector<std::filesystem::path> corpus_files() {
  namespace fs = std::filesystem;
  const fs::path dir = DECSEQ_FUZZ_CORPUS_DIR;
  std::vector<fs::path> files;
  if (!fs::is_directory(dir)) return files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".repro") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// The paper deployment: 128 hosts in 32 clusters on the 10,000-router
/// topology, 64 Zipf groups, laid out with `strategy`.
inline std::unique_ptr<pubsub::PubSubSystem> paper_system(
    seqgraph::BuildStrategy strategy = seqgraph::BuildStrategy::kChain) {
  pubsub::SystemConfig config;
  config.seed = 20060101;
  config.graph.strategy = strategy;
  config.hosts.num_hosts = 128;
  config.hosts.num_clusters = 32;
  auto system = std::make_unique<pubsub::PubSubSystem>(config);
  Rng membership_rng(20060102);
  const membership::GroupMembership initial = membership::zipf_membership(
      {.num_nodes = 128, .num_groups = 64}, membership_rng);
  std::vector<std::vector<NodeId>> lists;
  for (const GroupId g : initial.live_groups()) {
    lists.push_back(initial.members(g));
  }
  (void)system->create_groups(lists);
  return system;
}

/// Batch `t` of a churn loop: one join and one leave; the joined and the
/// left group sweep the live groups in a fixed rotation. Joiners are drawn
/// Zipf-popular, like the generator drew members, so the membership keeps
/// its shape.
inline std::vector<pubsub::PubSubSystem::MembershipChange> churn_batch(
    const membership::GroupMembership& m, std::size_t t,
    const ZipfSampler& popularity, Rng& rng) {
  using Change = pubsub::PubSubSystem::MembershipChange;
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
  DECSEQ_CHECK_MSG(left.valid(), "no group to leave in batch " << t);
  return {Change::join(joined, newcomer),
          Change::leave(left, rng.pick(m.members(left)))};
}

}  // namespace decseq::test
