#include "topology/waxman.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

namespace decseq::topology {

namespace {

double distance(const std::pair<double, double>& a,
                const std::pair<double, double>& b) {
  const double dx = a.first - b.first, dy = a.second - b.second;
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace

WaxmanTopology generate_waxman(const WaxmanParams& params, Rng& rng) {
  DECSEQ_CHECK(params.num_routers >= 2);
  WaxmanTopology topo;
  topo.position.reserve(params.num_routers);
  for (std::size_t i = 0; i < params.num_routers; ++i) {
    topo.position.push_back({rng.next_double() * params.plane_side_ms,
                             rng.next_double() * params.plane_side_ms});
  }

  const double diagonal = params.plane_side_ms * std::sqrt(2.0);
  std::set<std::pair<std::size_t, std::size_t>> edges;
  std::vector<Link> links;
  auto add_edge = [&](std::size_t a, std::size_t b) {
    if (a == b) return;
    const auto key = std::make_pair(std::min(a, b), std::max(a, b));
    if (!edges.insert(key).second) return;
    const double d = std::max(
        0.1, distance(topo.position[a], topo.position[b]));
    links.push_back({RouterId(static_cast<unsigned>(a)),
                     RouterId(static_cast<unsigned>(b)), d});
  };

  // Connectivity: each router links to the nearest among a sample of the
  // already-placed ones (proximity spanning tree without the O(N^2) scan).
  for (std::size_t i = 1; i < params.num_routers; ++i) {
    std::size_t best = i - 1;
    double best_d = distance(topo.position[i], topo.position[best]);
    const std::size_t samples = std::min<std::size_t>(i, 16);
    for (std::size_t s = 0; s < samples; ++s) {
      const auto j = static_cast<std::size_t>(rng.next_below(i));
      const double d = distance(topo.position[i], topo.position[j]);
      if (d < best_d) {
        best = j;
        best_d = d;
      }
    }
    add_edge(i, best);
  }

  // Waxman shortcuts over sampled candidate pairs.
  for (std::size_t i = 0; i < params.num_routers; ++i) {
    for (std::size_t c = 0; c < params.candidates_per_router; ++c) {
      const auto j =
          static_cast<std::size_t>(rng.next_below(params.num_routers));
      if (j == i) continue;
      const double d = distance(topo.position[i], topo.position[j]);
      const double p = params.alpha * std::exp(-d / (params.beta * diagonal));
      if (rng.next_bool(p)) add_edge(i, j);
    }
  }
  topo.graph = Graph(params.num_routers, links);
  return topo;
}

HostMap attach_hosts_waxman(const WaxmanTopology& topo,
                            const HostAttachmentParams& params, Rng& rng) {
  DECSEQ_CHECK(params.num_hosts >= 1 && params.num_clusters >= 1);
  const double side = [&] {
    double max_coord = 0.0;
    for (const auto& [x, y] : topo.position) {
      max_coord = std::max({max_coord, x, y});
    }
    return std::max(max_coord, 1.0);
  }();

  // One random spot per cluster; hosts attach to distinct routers nearest
  // their cluster's spot (round-robin through the sorted-by-distance list).
  std::vector<std::vector<RouterId>> nearest(params.num_clusters);
  for (std::size_t c = 0; c < params.num_clusters; ++c) {
    const std::pair<double, double> spot{rng.next_double() * side,
                                         rng.next_double() * side};
    // Partial selection: the hosts-per-cluster closest routers.
    const std::size_t need =
        params.num_hosts / params.num_clusters + 2;
    std::vector<std::pair<double, RouterId>> by_distance;
    by_distance.reserve(topo.position.size());
    for (std::size_t r = 0; r < topo.position.size(); ++r) {
      by_distance.push_back(
          {distance(spot, topo.position[r]), RouterId(static_cast<unsigned>(r))});
    }
    std::partial_sort(by_distance.begin(),
                      by_distance.begin() +
                          static_cast<long>(std::min(need, by_distance.size())),
                      by_distance.end());
    for (std::size_t k = 0; k < std::min(need, by_distance.size()); ++k) {
      nearest[c].push_back(by_distance[k].second);
    }
  }

  std::vector<RouterId> attach(params.num_hosts);
  std::vector<std::size_t> cluster(params.num_hosts);
  std::vector<std::size_t> cursor(params.num_clusters, 0);
  for (std::size_t h = 0; h < params.num_hosts; ++h) {
    const std::size_t c = h % params.num_clusters;
    cluster[h] = c;
    attach[h] = nearest[c][cursor[c] % nearest[c].size()];
    ++cursor[c];
  }
  return HostMap(std::move(attach), std::move(cluster));
}

}  // namespace decseq::topology
