// Routing control-plane compile at the million-host tier: how long does one
// full epoch compile — overlap index → co-location → sequencing graph →
// machine assignment — take as the subscriber population grows, and does
// it still compile the recorded epoch?
//
// Tiers by host count (Zipf(1) groups, uniform member selection, hosts/10
// groups): 10k and 100k always; the 1M-host stretch tier only when
// DECSEQ_SCALE_FULL=1. Each tier's compiled epoch is folded into one
// digest (pubsub::epoch_digest with the labels, then the RNG's next
// draw). At the default seed every tier's digest must equal the recorded
// one, which a map/set reference pipeline agreed with; a mismatch fails
// the bench. Another seed prints its digests and asserts none. The digest
// is the same for any layout thread count.
//
// Asserted (CI runs --quick; the full tiers gate local/nightly runs):
//  * each tier's epoch digest, at the default seed.
//  * peak RSS after the 100k-host compile stays under
//    DECSEQ_SCALE_CEILING_MB (default 512 MiB; quick: 256 MiB after the
//    quick tiers).
//  * the 100k-host compile finishes under DECSEQ_SCALE_WALL_MS (default
//    20,000 ms, sized for single-core CI containers).
//
// Output: CSV rows on stdout + BENCH_routing.json (DECSEQ_BENCH_JSON
// overrides the path).
//
// Environment knobs (besides bench_util.h's standard ones):
//   DECSEQ_SCALE_FULL        — 1 enables the 1M-host stretch tier
//   DECSEQ_SCALE_CEILING_MB  — peak-RSS ceiling (MiB)
//   DECSEQ_SCALE_WALL_MS     — 100k-tier compile wall budget (ms)
//   DECSEQ_COMPILE_THREADS   — layout worker threads, 0-256 (0 and 1 run
//                              serially; default: cores, <=16); any other
//                              value stops the bench with an error
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/fnv1a.h"
#include "common/rng.h"
#include "membership/generators.h"
#include "membership/membership.h"
#include "membership/overlap.h"
#include "placement/assignment.h"
#include "placement/colocation.h"
#include "pubsub/epoch_digest.h"
#include "runtime/parallel.h"
#include "seqgraph/graph.h"
#include "topology/hosts.h"
#include "topology/transit_stub.h"

namespace {

using Clock = std::chrono::steady_clock;
using decseq::Rng;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct TierResult {
  std::size_t hosts = 0;
  std::size_t groups = 0;
  std::size_t overlaps = 0;
  std::size_t atoms = 0;
  double overlap_ms = 0.0;
  double colocate_ms = 0.0;
  double graph_ms = 0.0;
  double assign_ms = 0.0;
  std::size_t rss_after_compile_bytes = 0;
  std::uint64_t digest = 0;

  [[nodiscard]] double compile_ms() const {
    return colocate_ms + graph_ms + assign_ms;
  }
};

TierResult run_tier(std::size_t hosts, std::size_t groups,
                    const decseq::topology::TransitStubTopology& topo,
                    const decseq::topology::HostMap& host_map,
                    decseq::seqgraph::BuildScratch& scratch,
                    std::uint64_t seed) {
  using decseq::membership::OverlapIndex;

  TierResult r;
  r.hosts = hosts;
  r.groups = groups;

  Rng workload_rng(seed);
  // Uniform member selection: popularity weighting at this scale would
  // subscribe a few celebrity hosts to nearly every group and make the
  // overlap graph complete (see scale_bench's rationale).
  const auto membership = decseq::membership::zipf_membership(
      {.num_nodes = hosts,
       .num_groups = groups,
       .exponent = 1.0,
       .scale = 1.0,
       .selection = decseq::membership::MemberSelection::kUniform},
      workload_rng);

  const auto o0 = Clock::now();
  const OverlapIndex overlaps(membership);
  r.overlap_ms = ms_since(o0);
  r.overlaps = overlaps.num_overlaps();

  // The production path PubSubSystem::rebuild runs.
  Rng rng(seed + 1);
  const auto c0 = Clock::now();
  const auto labels = decseq::placement::colocate_overlaps(overlaps, {}, rng);
  r.colocate_ms = ms_since(c0);

  decseq::seqgraph::BuildOptions options;
  options.strategy = decseq::seqgraph::BuildStrategy::kGreedyTree;
  options.colocation_labels = &labels;
  options.scratch = &scratch;
  const auto g0 = Clock::now();
  const auto graph =
      decseq::seqgraph::build_sequencing_graph(membership, overlaps, options);
  r.graph_ms = ms_since(g0);
  r.atoms = graph.num_atoms();

  const auto colocation = decseq::placement::apply_labels(graph, labels);
  const auto a0 = Clock::now();
  const auto assignment = decseq::placement::assign_machines(
      graph, colocation, membership, host_map, topo.graph, {}, rng);
  r.assign_ms = ms_since(a0);

  r.rss_after_compile_bytes = decseq::bench::peak_rss_bytes();
  r.digest = decseq::fnv1a_word(
      decseq::pubsub::epoch_digest(membership, overlaps, &labels, graph,
                                   colocation, assignment),
      rng());
  return r;
}

void print_tier(const TierResult& r) {
  std::printf(
      "tier,%zu,groups,%zu,overlaps,%zu,atoms,%zu,overlap_ms,%.1f,"
      "compile_ms,%.1f,colocate,%.1f,graph,%.1f,assign,%.1f,rss_mb,%.1f,"
      "digest,%s\n",
      r.hosts, r.groups, r.overlaps, r.atoms, r.overlap_ms, r.compile_ms(),
      r.colocate_ms, r.graph_ms, r.assign_ms,
      static_cast<double>(r.rss_after_compile_bytes) / (1024.0 * 1024.0),
      decseq::bench::hex_digest(r.digest).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace decseq::bench;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::uint64_t seed = base_seed();
  const bool full_tier = env_or("DECSEQ_SCALE_FULL", 0) == 1;
  const std::size_t ceiling_mb =
      env_or("DECSEQ_SCALE_CEILING_MB", quick ? 256 : 512);
  const double wall_budget_ms =
      static_cast<double>(env_or("DECSEQ_SCALE_WALL_MS", 20000));

  std::printf("# routing_scale_bench: seed %llu, %zu layout threads%s%s\n",
              static_cast<unsigned long long>(seed),
              decseq::runtime::compile_threads(), quick ? " (quick)" : "",
              full_tier ? " (+1M stretch tier)" : "");

  // One shared physical network for every tier: the paper's 10k-router
  // transit-stub graph (hosts scale into clusters on it; the router count
  // is the oracle's problem size, host count is the control plane's).
  decseq::topology::TransitStubParams topo_params;  // defaults: 10k routers
  if (quick) {
    topo_params.transit_domains = 2;
    topo_params.routers_per_transit = 4;
    topo_params.stubs_per_transit_router = 2;
    topo_params.routers_per_stub = 16;
  }
  Rng topo_rng(seed);
  const auto topo =
      decseq::topology::generate_transit_stub(topo_params, topo_rng);

  // `golden` is the tier's recorded digest at the default seed.
  struct Tier {
    std::size_t hosts;
    bool assert_budgets;
    std::uint64_t golden;
  };
  std::vector<Tier> tiers;
  if (quick) {
    tiers = {{1000, false, 0x1f884d8bb5462d2eULL},
             {10000, true, 0x3f60426159d61934ULL}};
  } else {
    tiers = {{10000, false, 0x8339ed44b54dbaa3ULL},
             {100000, true, 0xb0cfe17accccabebULL}};
    if (full_tier) tiers.push_back({1000000, false, 0x0ad5c6752c7e7a65ULL});
  }

  decseq::seqgraph::BuildScratch scratch;
  std::vector<TierResult> results;
  for (const Tier& tier : tiers) {
    Rng host_rng(seed + 3);
    const auto host_map = decseq::topology::attach_hosts(
        topo, {.num_hosts = tier.hosts, .num_clusters = tier.hosts / 4},
        host_rng);
    results.push_back(run_tier(tier.hosts, tier.hosts / 10, topo, host_map,
                               scratch, seed + 17));
    const TierResult& r = results.back();
    print_tier(r);
    DECSEQ_CHECK_MSG(seed != kDefaultSeed || r.digest == tier.golden,
                     "epoch digest " << hex_digest(r.digest)
                                     << " differs from the recorded "
                                     << hex_digest(tier.golden) << " at "
                                     << r.hosts << " hosts");
    if (tier.assert_budgets) {
      DECSEQ_CHECK_MSG(
          r.rss_after_compile_bytes <= ceiling_mb * 1024 * 1024,
          "peak RSS " << r.rss_after_compile_bytes / (1024 * 1024)
                      << " MiB exceeds the " << ceiling_mb
                      << " MiB ceiling after the " << r.hosts
                      << "-host compile");
      DECSEQ_CHECK_MSG(r.compile_ms() <= wall_budget_ms,
                       "compile took " << r.compile_ms() << " ms, over the "
                                       << wall_budget_ms << " ms budget at "
                                       << r.hosts << " hosts");
    }
  }

  // --- BENCH_routing.json ---
  const char* json_path = std::getenv("DECSEQ_BENCH_JSON");
  std::ofstream json(json_path != nullptr ? json_path
                                          : "BENCH_routing.json");
  json.precision(6);
  json << "{\n"
       << "  \"bench\": \"routing_scale\",\n"
       << "  \"seed\": " << seed << ",\n"
       << "  \"env\": " << env_json() << ",\n"
       << "  \"layout_threads\": " << decseq::runtime::compile_threads()
       << ",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"routers\": " << topo.graph.num_routers() << ",\n"
       << "  \"note\": \"one epoch compile per tier: overlap index, then "
          "colocate+graph+assign (compile_ms), the production pipeline. "
          "digest is the tier's epoch digest, asserted against the "
          "recorded one at the default seed. Wall times depend on the env "
          "block's core count.\",\n"
       << "  \"ceiling_mb\": " << ceiling_mb << ",\n"
       << "  \"wall_budget_ms\": " << wall_budget_ms << ",\n"
       << "  \"tiers\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TierResult& r = results[i];
    json << "    {\"hosts\": " << r.hosts << ", \"groups\": " << r.groups
         << ", \"overlaps\": " << r.overlaps << ", \"atoms\": " << r.atoms
         << ", \"overlap_ms\": " << r.overlap_ms
         << ", \"colocate_ms\": " << r.colocate_ms
         << ", \"graph_ms\": " << r.graph_ms
         << ", \"assign_ms\": " << r.assign_ms
         << ", \"compile_ms\": " << r.compile_ms()
         << ", \"rss_after_compile_mb\": "
         << static_cast<double>(r.rss_after_compile_bytes) /
                (1024.0 * 1024.0)
         << ", \"digest\": \"" << hex_digest(r.digest) << "\"}"
         << (i + 1 < results.size() ? ",\n" : "\n");
  }
  json << "  ]\n}\n";
  json.flush();
  if (!json.good()) {
    std::fprintf(stderr, "error: could not write %s\n",
                 json_path != nullptr ? json_path : "BENCH_routing.json");
    return 1;
  }
  return 0;
}
