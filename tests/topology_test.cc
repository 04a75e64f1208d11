#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "common/fnv1a.h"
#include "common/rng.h"
#include "tests/alloc_probe.h"
#include "tests/test_util.h"
#include "topology/graph.h"
#include "topology/hosts.h"
#include "topology/shortest_path.h"
#include "topology/transit_stub.h"
#include "topology/waxman.h"

namespace decseq::topology {
namespace {

TEST(Graph, AddRoutersAndEdges) {
  const RouterId a(0), b(1);
  const Graph g(2, std::vector<Link>{{a, b, 5.0}});
  EXPECT_EQ(g.num_routers(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
  ASSERT_EQ(g.neighbors(a).size(), 1u);
  EXPECT_EQ(g.neighbors(a)[0].to, b);
  EXPECT_DOUBLE_EQ(g.neighbors(a)[0].delay_ms, 5.0);
  EXPECT_EQ(g.neighbors(b)[0].to, a);

  // Each router lists its arcs in the order its links were appended, both
  // ends alike, parallel links included.
  const RouterId c(2);
  const Graph h(3, std::vector<Link>{
                       {b, c, 1.0}, {a, b, 2.0}, {c, a, 3.0}, {b, a, 4.0}});
  const auto arcs = [&h](RouterId r) {
    std::vector<std::pair<RouterId, double>> out;
    for (const Edge& e : h.neighbors(r)) out.emplace_back(e.to, e.delay_ms);
    return out;
  };
  using Arcs = std::vector<std::pair<RouterId, double>>;
  EXPECT_EQ(arcs(a), (Arcs{{b, 2.0}, {c, 3.0}, {b, 4.0}}));
  EXPECT_EQ(arcs(b), (Arcs{{c, 1.0}, {a, 2.0}, {a, 4.0}}));
  EXPECT_EQ(arcs(c), (Arcs{{b, 1.0}, {a, 3.0}}));
  EXPECT_EQ(h.num_edges(), 4u);
  EXPECT_EQ(Graph().num_routers(), 0u);
}

TEST(Graph, RejectsSelfLoopsAndBadDelay) {
  const RouterId a(0), b(1);
  EXPECT_THROW(Graph(2, std::vector<Link>{{a, a, 1.0}}), CheckFailure);
  EXPECT_THROW(Graph(2, std::vector<Link>{{a, b, 0.0}}), CheckFailure);
  EXPECT_THROW(Graph(2, std::vector<Link>{{a, RouterId(2), 1.0}}),
               CheckFailure);
}

TEST(Dijkstra, KnownSmallGraph) {
  // a --1-- b --2-- c, plus a direct a--c edge of weight 10 that loses.
  const RouterId a(0), b(1), c(2);
  const Graph g(3, std::vector<Link>{{a, b, 1.0}, {b, c, 2.0}, {a, c, 10.0}});
  const auto dist = dijkstra(g, a);
  EXPECT_DOUBLE_EQ(dist[a.value()], 0.0);
  EXPECT_DOUBLE_EQ(dist[b.value()], 1.0);
  EXPECT_DOUBLE_EQ(dist[c.value()], 3.0);
}

TEST(Dijkstra, UnreachableIsInfinite) {
  const RouterId a(0);
  const Graph g(2, {});
  const auto dist = dijkstra(g, a);
  EXPECT_EQ(dist[1], std::numeric_limits<double>::infinity());
}

// The oracle reads its graph in place: a temporary graph must not bind.
static_assert(std::is_constructible_v<DistanceOracle, const Graph&>);
static_assert(!std::is_constructible_v<DistanceOracle, Graph&&>);
static_assert(!std::is_constructible_v<DistanceOracle, const Graph&&>);

TEST(DistanceOracle, SymmetricAndCached) {
  const RouterId a(0), b(1), c(2);
  const Graph g(3, std::vector<Link>{{a, b, 1.5}, {b, c, 2.5}});
  DistanceOracle oracle(g);
  EXPECT_DOUBLE_EQ(oracle.distance(a, c), 4.0);
  EXPECT_DOUBLE_EQ(oracle.distance(c, a), 4.0);
  // Second query from a cached source must not add cache entries.
  const std::size_t cached = oracle.cached_sources();
  (void)oracle.distance(a, b);
  EXPECT_EQ(oracle.cached_sources(), cached);
}

// --- DistanceOracle against the reference dijkstra(), bit for bit -------

/// Same double, bit for bit (+inf included).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The option sets every differential check runs under: unbounded rows and
/// memo, the large-topology preset, and a budget of exactly one row (every
/// new row evicts the last; the memo is emptied whenever it would outgrow
/// what is left).
std::vector<std::pair<std::string, DistanceOracleOptions>> option_sets(
    const Graph& g) {
  return {{"defaults", {}},
          {"scaled", DistanceOracleOptions::scaled()},
          {"one_row",
           {g.num_routers() * sizeof(double) + sizeof(std::vector<double>)}}};
}

/// Runs every query kind over `routers` and compares each answer with the
/// reference dijkstra(g, lo)[hi]; reference rows are computed on demand.
class Differential {
 public:
  explicit Differential(const Graph& g) : g_(g) {}

  void check(const std::vector<RouterId>& routers) {
    for (const auto& [name, options] : option_sets(g_)) {
      SCOPED_TRACE(name);
      check_point_queries(options, routers);
      check_batched(options, routers);
      check_rows(options, routers);
      check_earned_rows(name, options, routers);
    }
  }

  /// The query mix of check_earned_rows' distance() oracle, per option set.
  const DistanceOracle::Stats& earned(const std::string& options) const {
    return earned_.at(options);
  }

 private:
  const std::vector<double>& ref(RouterId source) {
    auto [it, inserted] = ref_.try_emplace(source.value());
    if (inserted) it->second = dijkstra(g_, source);
    return it->second;
  }
  double ref(RouterId a, RouterId b) {
    return ref(std::min(a, b))[std::max(a, b).value()];
  }

  // Source-major order, so a one-row budget still promotes each source
  // once instead of trading its row back and forth.
  void check_point_queries(const DistanceOracleOptions& options,
                           const std::vector<RouterId>& routers) {
    DistanceOracle oracle(g_, options);
    for (const RouterId a : routers) {
      for (const RouterId b : routers) {
        if (b < a) continue;
        const double want = ref(a, b);
        ASSERT_TRUE(same_bits(oracle.distance(a, b), want))
            << a << " -> " << b;
        ASSERT_TRUE(same_bits(oracle.distance(b, a), want))
            << b << " -> " << a;
        // Twice: the second answer comes from the memo or a row.
        ASSERT_TRUE(same_bits(oracle.distance(a, b), want))
            << a << " -> " << b << " (repeat)";
      }
    }
  }

  // distances_between over a target list holding both sides of the
  // canonical orientation, a duplicate and the common router itself, twice
  // (the second call answers from the pair memo or a row), then distance()
  // on the same pairs. Under the one-row budget the memo is emptied
  // mid-call (on the Waxman graph, inside distances_between's recording
  // loop).
  void check_batched(const DistanceOracleOptions& options,
                     const std::vector<RouterId>& routers) {
    DistanceOracle oracle(g_, options);
    std::vector<RouterId> targets;
    for (std::size_t i = 0; i < routers.size(); i += 7) {
      targets.push_back(routers[i]);
    }
    targets.push_back(targets.front());
    std::vector<double> out;
    for (const RouterId common : routers) {
      std::vector<RouterId> with_self = targets;
      with_self.push_back(common);
      for (const char* call : {"first", "repeat"}) {
        oracle.distances_between(common, with_self, out);
        ASSERT_EQ(out.size(), with_self.size());
        for (std::size_t i = 0; i < with_self.size(); ++i) {
          ASSERT_TRUE(same_bits(out[i], ref(common, with_self[i])))
              << common << " -> " << with_self[i] << " (" << call << ")";
        }
      }
      for (const RouterId t : with_self) {
        ASSERT_TRUE(same_bits(oracle.distance(common, t), ref(common, t)))
            << common << " -> " << t << " (distance)";
      }
    }
  }

  // Every third router: a full row is the same unpruned run every time.
  void check_rows(const DistanceOracleOptions& options,
                  const std::vector<RouterId>& routers) {
    DistanceOracle oracle(g_, options);
    for (std::size_t i = 0; i < routers.size(); i += 3) {
      const RouterId s = routers[i];
      const std::vector<double>& got = oracle.distances_from(s);
      const std::vector<double>& want = ref(s);
      ASSERT_EQ(got.size(), want.size());
      ASSERT_EQ(std::memcmp(got.data(), want.data(),
                            want.size() * sizeof(double)),
                0)
          << "row of " << s;
      ASSERT_TRUE(same_bits(oracle.distance(s, routers.front()),
                            ref(s, routers.front())));
    }
  }

  // Each router first earns its row, asking for routers above it from the
  // top id down until one appears (a root-side row where at most half the
  // routers lie on the root side, else a full row), then queries every
  // router: root-side targets read the row, targets in other pendants run
  // inside their pendant, targets in its own pendant run point queries. A
  // second oracle asks the same pairs in one distances_between call per
  // router (a duplicate included), which seeds each pendant once for all
  // of its targets. Under the one-row budget rows are evicted mid-pass.
  void check_earned_rows(const std::string& name,
                         const DistanceOracleOptions& options,
                         const std::vector<RouterId>& routers) {
    DistanceOracle single(g_, options);
    DistanceOracle batched(g_, options);
    std::vector<RouterId> targets = routers;
    targets.push_back(routers.back());
    std::vector<double> out;
    for (const RouterId a : routers) {
      earn_row(single, a);
      earn_row(batched, a);
      for (const RouterId b : routers) {
        ASSERT_TRUE(same_bits(single.distance(a, b), ref(a, b)))
            << a << " -> " << b << " (earned row)";
      }
      batched.distances_between(a, targets, out);
      ASSERT_EQ(out.size(), targets.size());
      for (std::size_t i = 0; i < targets.size(); ++i) {
        ASSERT_TRUE(same_bits(out[i], ref(a, targets[i])))
            << a << " -> " << targets[i] << " (earned row, batched)";
      }
    }
    earned_[name] = single.stats();
  }

  void earn_row(DistanceOracle& oracle, RouterId a) {
    const auto rows = [&oracle] {
      return oracle.stats().root_rows + oracle.stats().full_rows;
    };
    const auto before = rows();
    for (std::uint32_t t = g_.num_routers() - 1;
         t > a.value() && rows() == before; --t) {
      (void)oracle.distance(a, RouterId(t));
    }
  }

  const Graph& g_;
  std::map<std::uint32_t, std::vector<double>> ref_;
  std::map<std::string, DistanceOracle::Stats> earned_;
};

/// Root-side rows earned and used in every option set, and evicted under
/// the one-row budget.
void expect_root_rows_used(const Differential& diff) {
  for (const char* name : {"defaults", "scaled", "one_row"}) {
    SCOPED_TRACE(name);
    const DistanceOracle::Stats& stats = diff.earned(name);
    EXPECT_GT(stats.root_rows, 0u);
    EXPECT_GT(stats.pendant_runs, 0u);
    EXPECT_EQ(stats.full_rows, 0u);
  }
  EXPECT_GT(diff.earned("one_row").evictions, 0u);
  EXPECT_EQ(diff.earned("defaults").evictions, 0u);
}

TEST(DistanceOracleDifferential, DeploymentTopology) {
  // The paper deployment: 10k transit-stub routers, 128 hosts in 32
  // clusters. Every host router and its cheapest neighbour: cross-stub
  // pairs through the pruned core, and same-stub pairs one hop apart.
  Rng rng(20060101);
  const auto topo = generate_transit_stub(TransitStubParams{}, rng);
  const HostMap hosts =
      attach_hosts(topo, {.num_hosts = 128, .num_clusters = 32}, rng);
  std::set<RouterId> routers;
  for (const RouterId r : hosts.attachment_routers()) {
    routers.insert(r);
    const auto& edges = topo.graph.neighbors(r);
    const auto cheapest = std::min_element(
        edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
          return x.delay_ms < y.delay_ms;
        });
    routers.insert(cheapest->to);
  }
  // Each stub domain hangs off the transit core by one uplink.
  EXPECT_GE(DistanceOracle(topo.graph).num_bridges(), topo.num_stub_domains);
  Differential diff(topo.graph);
  diff.check({routers.begin(), routers.end()});
  expect_root_rows_used(diff);
}

TEST(DistanceOracleDifferential, WaxmanTopology) {
  Rng rng(11);
  const auto topo = generate_waxman({.num_routers = 600}, rng);
  std::vector<RouterId> routers;
  for (std::uint32_t r = 0; r < 600; r += 9) routers.push_back(RouterId(r));
  Differential diff(topo.graph);
  diff.check(routers);
  // Most routers lie on the root side: promotion earns full rows.
  EXPECT_EQ(diff.earned("defaults").root_rows, 0u);
  EXPECT_GT(diff.earned("defaults").full_rows, 0u);
}

/// Hand-built: a core cycle {0,1,2}; behind bridge 2-3 a cycle {3,4,5};
/// behind bridge 5-6 (a bridge behind a bridge) a cycle {6,7,8}; router 9
/// on a doubled uplink to 1 (two parallel links: no bridge) with leaf 10
/// behind bridge 9-10; isolated router 11; a separate component 12-13.
Graph pendant_graph() {
  std::vector<Link> links;
  const auto link = [&](unsigned a, unsigned b, double d) {
    links.push_back({RouterId(a), RouterId(b), d});
  };
  link(0, 1, 1.0), link(1, 2, 1.0), link(2, 0, 1.5);
  link(2, 3, 2.0);
  link(3, 4, 1.0), link(4, 5, 1.0), link(5, 3, 1.0);
  link(5, 6, 0.5);
  link(6, 7, 1.0), link(7, 8, 1.0), link(8, 6, 2.5);
  link(1, 9, 3.0), link(1, 9, 2.0);
  link(9, 10, 1.0);
  link(12, 13, 4.0);
  return Graph(14, links);
}

TEST(DistanceOracleDifferential, HandBuiltPendants) {
  const Graph g = pendant_graph();
  // 2-3, 5-6, 9-10 and 12-13; the doubled 1-9 uplink is no bridge.
  EXPECT_EQ(DistanceOracle(g).num_bridges(), 4u);
  std::vector<RouterId> routers;
  for (std::uint32_t r = 0; r < g.num_routers(); ++r) {
    routers.push_back(RouterId(r));
  }
  // Root side {0, 1, 2, 9, 11, 12}: 6 of 14 routers.
  Differential diff(g);
  diff.check(routers);
  expect_root_rows_used(diff);

  DistanceOracle oracle(g);
  // Unreachable: an isolated router and another component.
  EXPECT_EQ(oracle.distance(RouterId(0), RouterId(11)),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(oracle.distance(RouterId(13), RouterId(3)),
            std::numeric_limits<double>::infinity());
  // A target inside the source's own pendant: 4 -> 7 stays behind 2-3.
  EXPECT_DOUBLE_EQ(oracle.distance(RouterId(4), RouterId(7)), 2.5);
}

TEST(DistanceOracle, PointQuerySkipsPendantsWithoutTargets) {
  // From 2 to leaf 10 (4.0 away via the doubled uplink), an unpruned run
  // settles the 3-4-5-6 pendant (2.0-3.5 away) first. Pruned, it settles
  // only 2, 1, 0, 9 and 10.
  const Graph g = pendant_graph();
  DistanceOracle oracle(g);
  EXPECT_DOUBLE_EQ(oracle.distance(RouterId(2), RouterId(10)), 4.0);
  EXPECT_EQ(oracle.stats().point_queries, 1u);
  EXPECT_EQ(oracle.stats().settled, 5u);
  EXPECT_EQ(oracle.stats().full_rows, 0u);
}

TEST(DistanceOracle, DistancesBetweenServesKnownPairsFromMemo) {
  // A re-laid group's fan-out plan asks again for (egress, member) pairs
  // the oracle already answered: a repeat runs no Dijkstra, so the common
  // router never settles enough routers to earn a full row.
  const Graph g = pendant_graph();
  DistanceOracle oracle(g);
  const RouterId common(2);
  // Router 0 sits below common's id and answers through distance().
  const std::vector<RouterId> targets = {RouterId(0), RouterId(3),
                                         RouterId(4), RouterId(10),
                                         RouterId(10)};
  std::vector<double> first;
  oracle.distances_between(common, targets, first);
  const auto queries = oracle.stats().point_queries;
  EXPECT_EQ(queries, 2u);
  std::vector<double> again;
  for (std::size_t repeat = 0; repeat < 2 * g.num_routers(); ++repeat) {
    oracle.distances_between(common, targets, again);
    ASSERT_EQ(again.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
      ASSERT_TRUE(same_bits(again[i], first[i])) << "target " << targets[i];
    }
  }
  EXPECT_EQ(oracle.stats().point_queries, queries);
  EXPECT_EQ(oracle.stats().full_rows, 0u);
  EXPECT_EQ(oracle.cached_sources(), 0u);
  const std::vector<double> want = dijkstra(g, common);
  for (std::size_t i = 1; i < targets.size(); ++i) {
    EXPECT_TRUE(same_bits(first[i], want[targets[i].value()]));
  }
  EXPECT_TRUE(same_bits(first[0], dijkstra(g, RouterId(0))[2]));
}

TEST(DistanceOracle, RejectsOutOfRangeTargetWithCachedRow) {
  // With common's row cached the answers are row lookups; an out-of-range
  // router must still be rejected, not read past the row's end.
  const Graph g(4, std::vector<Link>{{RouterId(0), RouterId(1), 1.0},
                                     {RouterId(1), RouterId(2), 1.0},
                                     {RouterId(2), RouterId(3), 1.0}});
  DistanceOracle oracle(g);
  const RouterId common(1);
  (void)oracle.distances_from(common);
  ASSERT_EQ(oracle.cached_sources(), 1u);
  std::vector<double> out;
  EXPECT_THROW(oracle.distances_between(common, {RouterId(2), RouterId(7)},
                                        out),
               CheckFailure);
}

TEST(DistanceOracle, PromotesASourceOnceItSettledTheGraph) {
  // Waxman has few bridges: each point query settles a large share of the
  // graph, so a source queried repeatedly earns its full row, and every
  // later answer from it is a row lookup.
  Rng rng(12);
  const auto topo = generate_waxman({.num_routers = 300}, rng);
  DistanceOracle oracle(topo.graph);
  const RouterId source(0);
  std::uint32_t target = 1;
  while (oracle.cached_sources() == 0) {
    ASSERT_LT(oracle.stats().settled, 2 * topo.graph.num_routers())
        << "no row after a graph's worth of settled routers";
    (void)oracle.distance(source, RouterId(target++));
  }
  EXPECT_EQ(oracle.stats().full_rows, 1u);
  EXPECT_GE(oracle.stats().settled, topo.graph.num_routers());
  const auto queries = oracle.stats().point_queries;
  (void)oracle.distance(source, RouterId(target));
  EXPECT_EQ(oracle.stats().point_queries, queries);
}

TEST(DistanceOracle, RowSourceSettlesOnlyTheTargetPendant) {
  // On the paper's transit-stub topology a host router's point queries
  // settle its stub and the pruned core, soon as many routers as the root
  // side holds, which earns a root-side row at its next miss. From then on
  // a miss into another stub domain runs inside that domain alone, seeded
  // across its uplink, instead of settling about 110 routers through the
  // source's stub and the core.
  Rng rng(20060101);
  const auto topo = generate_transit_stub(TransitStubParams{}, rng);
  const HostMap hosts =
      attach_hosts(topo, {.num_hosts = 128, .num_clusters = 32}, rng);
  const RouterId source = *std::min_element(hosts.attachment_routers().begin(),
                                            hosts.attachment_routers().end());
  const std::size_t own = topo.stub_domain_of[source.value()];
  std::vector<std::size_t> domain_size(topo.num_stub_domains, 0);
  for (const RouterId r : topo.stub_routers) {
    ++domain_size[topo.stub_domain_of[r.value()]];
  }
  // The last router of each of the last eight stub domains: all above the
  // source, in eight domains other than its own.
  std::vector<RouterId> targets;
  std::set<std::size_t> domains = {own};
  for (std::uint32_t r = topo.graph.num_routers() - 1; targets.size() < 8;
       --r) {
    const std::size_t d = topo.stub_domain_of[r];
    if (d != SIZE_MAX && domains.insert(d).second) {
      targets.push_back(RouterId(r));
    }
  }
  ASSERT_GT(targets.back(), source);

  DistanceOracle oracle(topo.graph);
  const std::vector<double> want = dijkstra(topo.graph, source);
  std::size_t next = 0;
  while (oracle.stats().root_rows == 0) {
    ASSERT_LT(next, 3u) << "no root-side row at the third miss";
    const RouterId t = targets[next++];
    EXPECT_TRUE(same_bits(oracle.distance(source, t), want[t.value()]));
  }
  // The miss that earned the row was answered through it already.
  EXPECT_EQ(oracle.stats().pendant_runs, 1u);
  const std::uint64_t point_queries = oracle.stats().point_queries;
  for (; next < targets.size(); ++next) {
    const RouterId t = targets[next];
    const DistanceOracle::Stats before = oracle.stats();
    EXPECT_TRUE(same_bits(oracle.distance(t, source), want[t.value()]));
    EXPECT_LE(oracle.stats().settled - before.settled,
              domain_size[topo.stub_domain_of[t.value()]])
        << "miss into the stub domain of " << t;
    EXPECT_EQ(oracle.stats().pendant_runs, before.pendant_runs + 1);
  }
  EXPECT_EQ(oracle.stats().root_rows, 1u);
  EXPECT_EQ(oracle.stats().point_queries, point_queries);
  EXPECT_EQ(oracle.stats().full_rows, 0u);
  EXPECT_EQ(oracle.cached_sources(), 0u);
}

TEST(TransitStub, DefaultParamsProduceTenThousandRouters) {
  EXPECT_EQ(TransitStubParams{}.total_routers(), 10000u);
}

/// 64-bit FNV-1a over a graph: the router count, then each router's arc
/// count and its arcs in order (target id and delay bits), each word as
/// eight little-endian bytes.
std::uint64_t graph_digest(const Graph& g) {
  std::uint64_t h = fnv1a_word(kFnvOffsetBasis, g.num_routers());
  for (std::uint32_t r = 0; r < g.num_routers(); ++r) {
    const auto& arcs = g.neighbors(RouterId(r));
    h = fnv1a_word(h, arcs.size());
    for (const Edge& e : arcs) {
      h = fnv1a_word(h, e.to.value());
      h = fnv1a_word(h, std::bit_cast<std::uint64_t>(e.delay_ms));
    }
  }
  return h;
}

TEST(TransitStub, DefaultTopologyMatchesGoldenDigest) {
  // Every figure and workload runs on these graphs, and the order of a
  // router's arcs is part of them: placement's cheapest-link tie-break
  // takes the first minimum. Regenerate only for a deliberate change of
  // the generated topology.
  Rng ts_rng(20060101);
  const auto topo = generate_transit_stub(TransitStubParams{}, ts_rng);
  ASSERT_EQ(topo.graph.num_routers(), 10000u);
  const std::uint64_t want_transit_stub = 0x9dea41ef94c6731fULL;
  EXPECT_EQ(graph_digest(topo.graph), want_transit_stub)
      << "got 0x" << std::hex << graph_digest(topo.graph);
  Rng wax_rng(11);
  const auto waxman = generate_waxman({.num_routers = 600}, wax_rng);
  const std::uint64_t want_waxman = 0x81be62910cff3a6eULL;
  EXPECT_EQ(graph_digest(waxman.graph), want_waxman)
      << "got 0x" << std::hex << graph_digest(waxman.graph);
}

TEST(TransitStub, DefaultTopologyMakesFewAllocations) {
  // One offsets array and one arc array, not a vector per router: the
  // 10k-router graph costs a few hundred allocations, mostly one router
  // list per domain.
  Rng rng(1);
  const std::size_t before = test::alloc_count();
  const auto topo = generate_transit_stub(TransitStubParams{}, rng);
  const std::size_t allocs = test::alloc_count() - before;
  ASSERT_EQ(topo.graph.num_routers(), 10000u);
  EXPECT_LT(allocs, 1000u);
}

TEST(TransitStub, GeneratedSizeMatchesParams) {
  Rng rng(1);
  const auto params = test::small_topology();
  const auto topo = generate_transit_stub(params, rng);
  EXPECT_EQ(topo.graph.num_routers(), params.total_routers());
  EXPECT_EQ(topo.num_stub_domains, 2u * 3u * 2u);
  EXPECT_EQ(topo.stub_routers.size(),
            params.total_routers() - 2u * 3u);  // all but transit routers
}

TEST(TransitStub, FullyConnected) {
  Rng rng(2);
  const auto topo = generate_transit_stub(test::small_topology(), rng);
  const auto dist = dijkstra(topo.graph, RouterId(0));
  for (std::size_t r = 0; r < topo.graph.num_routers(); ++r) {
    EXPECT_NE(dist[r], std::numeric_limits<double>::infinity())
        << "router " << r << " unreachable";
  }
}

TEST(TransitStub, StubDomainAnnotationsConsistent) {
  Rng rng(3);
  const auto topo = generate_transit_stub(test::small_topology(), rng);
  std::set<std::size_t> domains;
  for (const RouterId r : topo.stub_routers) {
    const std::size_t d = topo.stub_domain_of[r.value()];
    ASSERT_LT(d, topo.num_stub_domains);
    domains.insert(d);
  }
  EXPECT_EQ(domains.size(), topo.num_stub_domains);
}

TEST(TransitStub, DeterministicForSeed) {
  Rng r1(77), r2(77);
  const auto t1 = generate_transit_stub(test::small_topology(), r1);
  const auto t2 = generate_transit_stub(test::small_topology(), r2);
  EXPECT_EQ(t1.graph.num_edges(), t2.graph.num_edges());
  const auto d1 = dijkstra(t1.graph, RouterId(0));
  const auto d2 = dijkstra(t2.graph, RouterId(0));
  EXPECT_EQ(d1, d2);
}

TEST(Hosts, ClusterAssignmentBalanced) {
  Rng rng(4);
  const auto topo = generate_transit_stub(test::small_topology(), rng);
  HostAttachmentParams params{.num_hosts = 16, .num_clusters = 4};
  const HostMap hosts = attach_hosts(topo, params, rng);
  ASSERT_EQ(hosts.num_hosts(), 16u);
  std::vector<std::size_t> per_cluster(4, 0);
  for (unsigned h = 0; h < 16; ++h) {
    ++per_cluster[hosts.cluster_of(NodeId(h))];
  }
  for (const std::size_t c : per_cluster) EXPECT_EQ(c, 4u);
}

TEST(Hosts, SameClusterSameStubDomain) {
  Rng rng(5);
  const auto topo = generate_transit_stub(test::small_topology(), rng);
  const HostMap hosts =
      attach_hosts(topo, {.num_hosts = 12, .num_clusters = 3}, rng);
  for (unsigned a = 0; a < 12; ++a) {
    for (unsigned b = a + 1; b < 12; ++b) {
      if (hosts.cluster_of(NodeId(a)) == hosts.cluster_of(NodeId(b))) {
        EXPECT_EQ(topo.stub_domain_of[hosts.router_of(NodeId(a)).value()],
                  topo.stub_domain_of[hosts.router_of(NodeId(b)).value()]);
      }
    }
  }
}

TEST(Hosts, DistinctRoutersWithinClusterWhenPossible) {
  Rng rng(6);
  const auto topo = generate_transit_stub(test::small_topology(), rng);
  // 5 routers per stub, 4 hosts per cluster: no sharing expected.
  const HostMap hosts =
      attach_hosts(topo, {.num_hosts = 16, .num_clusters = 4}, rng);
  std::set<RouterId> routers(hosts.attachment_routers().begin(),
                             hosts.attachment_routers().end());
  EXPECT_EQ(routers.size(), 16u);
}

TEST(Hosts, IntraClusterCloserThanInterCluster) {
  Rng rng(8);
  const auto topo = generate_transit_stub(test::small_topology(), rng);
  const HostMap hosts =
      attach_hosts(topo, {.num_hosts = 16, .num_clusters = 4}, rng);
  DistanceOracle oracle(topo.graph);
  double intra_sum = 0.0, inter_sum = 0.0;
  std::size_t intra_n = 0, inter_n = 0;
  for (unsigned a = 0; a < 16; ++a) {
    for (unsigned b = a + 1; b < 16; ++b) {
      const double d = hosts.unicast_delay(NodeId(a), NodeId(b), oracle);
      if (hosts.cluster_of(NodeId(a)) == hosts.cluster_of(NodeId(b))) {
        intra_sum += d;
        ++intra_n;
      } else {
        inter_sum += d;
        ++inter_n;
      }
    }
  }
  ASSERT_GT(intra_n, 0u);
  ASSERT_GT(inter_n, 0u);
  EXPECT_LT(intra_sum / intra_n, inter_sum / inter_n)
      << "clustered hosts should be closer to each other on average";
}

}  // namespace
}  // namespace decseq::topology
