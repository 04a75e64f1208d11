// Shared helpers for the test suite: small topologies (tests don't need the
// 10,000-router experiment configuration), membership literals, and the
// pairwise order-consistency oracle used by integration and property tests.
#pragma once

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"
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

}  // namespace decseq::test
