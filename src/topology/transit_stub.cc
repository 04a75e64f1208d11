#include "topology/transit_stub.h"

#include <algorithm>
#include <limits>

namespace decseq::topology {

namespace {

double uniform_delay(Rng& rng, double lo, double hi) {
  return lo + rng.next_double() * (hi - lo);
}

/// Room for every link generate_transit_stub appends: the spanning trees,
/// core links and uplinks exactly, and the extra intra-domain links (one
/// coin per router pair of a domain) at their mean plus a tenth and 64
/// more. A larger draw only grows the list once more.
std::size_t link_capacity(const TransitStubParams& p) {
  const auto pairs = [](std::size_t n) { return n * (n - 1) / 2; };
  const std::size_t stubs =
      p.transit_domains * p.routers_per_transit * p.stubs_per_transit_router;
  const std::size_t fixed = p.transit_domains * (p.routers_per_transit - 1) +
                            stubs * p.routers_per_stub + p.transit_domains +
                            p.extra_transit_links;
  const double extra =
      p.intra_domain_edge_prob *
      static_cast<double>(p.transit_domains * pairs(p.routers_per_transit) +
                          stubs * pairs(p.routers_per_stub));
  return fixed + static_cast<std::size_t>(1.1 * extra) + 64;
}

/// Connect the routers of one domain: random spanning tree (each router
/// links to a random earlier one) plus extra random edges with probability
/// `extra_prob`, all with delays in [delay_lo, delay_hi].
void connect_domain(std::vector<Link>& links,
                    const std::vector<RouterId>& routers, double extra_prob,
                    double delay_lo, double delay_hi, Rng& rng) {
  for (std::size_t i = 1; i < routers.size(); ++i) {
    const auto j = static_cast<std::size_t>(rng.next_below(i));
    links.push_back(
        {routers[i], routers[j], uniform_delay(rng, delay_lo, delay_hi)});
  }
  for (std::size_t i = 0; i + 1 < routers.size(); ++i) {
    for (std::size_t j = i + 1; j < routers.size(); ++j) {
      // Spanning-tree edges above may duplicate; parallel edges are
      // harmless for shortest paths (the cheaper one wins).
      if (rng.next_bool(extra_prob)) {
        links.push_back(
            {routers[i], routers[j], uniform_delay(rng, delay_lo, delay_hi)});
      }
    }
  }
}

}  // namespace

TransitStubTopology generate_transit_stub(const TransitStubParams& params,
                                          Rng& rng) {
  DECSEQ_CHECK(params.transit_domains >= 1);
  DECSEQ_CHECK(params.routers_per_transit >= 1);
  DECSEQ_CHECK(params.routers_per_stub >= 1);

  TransitStubTopology topo;
  std::vector<Link> links;
  links.reserve(link_capacity(params));
  RouterId::underlying_type num_routers = 0;
  const auto add_router = [&num_routers] { return RouterId(num_routers++); };

  // 1. Transit domains.
  std::vector<std::vector<RouterId>> transit(params.transit_domains);
  for (auto& domain : transit) {
    domain.reserve(params.routers_per_transit);
    for (std::size_t i = 0; i < params.routers_per_transit; ++i) {
      domain.push_back(add_router());
    }
    connect_domain(links, domain, params.intra_domain_edge_prob,
                   params.intra_transit_delay_min,
                   params.intra_transit_delay_max, rng);
  }

  // 2. Core interconnect: a ring over the transit domains guarantees
  //    connectivity; extra random domain-to-domain links add path diversity.
  auto link_domains = [&](std::size_t a, std::size_t b) {
    const RouterId ra = rng.pick(transit[a]);
    const RouterId rb = rng.pick(transit[b]);
    links.push_back({ra, rb,
                     uniform_delay(rng, params.transit_to_transit_delay_min,
                                   params.transit_to_transit_delay_max)});
  };
  if (params.transit_domains > 1) {
    for (std::size_t d = 0; d < params.transit_domains; ++d) {
      link_domains(d, (d + 1) % params.transit_domains);
    }
    for (std::size_t i = 0; i < params.extra_transit_links; ++i) {
      const auto a = static_cast<std::size_t>(
          rng.next_below(params.transit_domains));
      auto b = static_cast<std::size_t>(
          rng.next_below(params.transit_domains));
      if (a == b) b = (b + 1) % params.transit_domains;
      link_domains(a, b);
    }
  }

  // 3. Stub domains: attached to each transit router.
  topo.stub_domain_of.assign(params.total_routers(),
                             std::numeric_limits<std::size_t>::max());
  topo.stub_routers.reserve(params.total_routers() - num_routers);
  std::vector<RouterId> stub;
  stub.reserve(params.routers_per_stub);
  for (const auto& domain : transit) {
    for (const RouterId attach_point : domain) {
      for (std::size_t s = 0; s < params.stubs_per_transit_router; ++s) {
        stub.clear();
        for (std::size_t i = 0; i < params.routers_per_stub; ++i) {
          stub.push_back(add_router());
        }
        connect_domain(links, stub, params.intra_domain_edge_prob,
                       params.intra_stub_delay_min,
                       params.intra_stub_delay_max, rng);
        // Uplink from a random stub router to the transit router. The
        // delay is drawn before the router, the order every recorded
        // figure and topology digest was generated with.
        const double uplink_delay =
            uniform_delay(rng, params.stub_to_transit_delay_min,
                          params.stub_to_transit_delay_max);
        links.push_back({rng.pick(stub), attach_point, uplink_delay});
        const std::size_t stub_index = topo.num_stub_domains++;
        for (const RouterId r : stub) {
          topo.stub_domain_of[r.value()] = stub_index;
          topo.stub_routers.push_back(r);
        }
      }
    }
  }
  topo.graph = Graph(num_routers, links);
  return topo;
}

}  // namespace decseq::topology
