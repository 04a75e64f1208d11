// Routing control-plane compile at the million-host tier: how long does one
// full epoch compile — overlap index → co-location → sequencing graph →
// machine assignment — take as the subscriber population grows, and how
// much does the CSR/arena rework buy over the legacy map/set pipeline it
// replaced?
//
// Tiers by host count (Zipf(1) groups, uniform member selection, hosts/10
// groups): 10k and 100k always; the 1M-host stretch tier only when
// DECSEQ_SCALE_FULL=1 (minutes of wall time). At every tier the new
// pipeline runs first and its output is differentially checked against the
// legacy implementations wherever legacy runs (same seeds, same RNG draw
// sequences, identical labels/atoms/paths/machines — mismatch fails the
// bench). Legacy is skipped at the 1M tier: its dense per-component weight
// matrices alone would need tens of GiB.
//
// Asserted (CI runs --quick; the full tiers gate local/nightly runs):
//  * peak RSS after the 100k-host new-pipeline compile stays under
//    DECSEQ_SCALE_CEILING_MB (default 512 MiB; quick: 256 MiB after the
//    quick tiers) — measured *before* the legacy pipeline runs, so the
//    ceiling binds the new code, not the baseline's bloat.
//  * the 100k-host new-pipeline compile finishes under
//    DECSEQ_SCALE_WALL_MS (default 20,000 ms, sized for single-core CI
//    containers).
//  * new beats legacy by >= 5x at the largest tier both run.
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
#include "common/rng.h"
#include "membership/generators.h"
#include "membership/membership.h"
#include "membership/overlap.h"
#include "placement/assignment.h"
#include "placement/colocation.h"
#include "placement/legacy.h"
#include "runtime/parallel.h"
#include "seqgraph/graph.h"
#include "seqgraph/legacy.h"
#include "topology/hosts.h"
#include "topology/transit_stub.h"

namespace {

using Clock = std::chrono::steady_clock;
using decseq::GroupId;
using decseq::NodeId;
using decseq::Rng;
using decseq::SeqNodeId;

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
  double new_colocate_ms = 0.0;
  double new_graph_ms = 0.0;
  double new_assign_ms = 0.0;
  double legacy_colocate_ms = 0.0;
  double legacy_graph_ms = 0.0;
  double legacy_assign_ms = 0.0;
  bool legacy_ran = false;
  std::size_t rss_after_new_bytes = 0;

  [[nodiscard]] double new_total_ms() const {
    return new_colocate_ms + new_graph_ms + new_assign_ms;
  }
  [[nodiscard]] double legacy_total_ms() const {
    return legacy_colocate_ms + legacy_graph_ms + legacy_assign_ms;
  }
};

TierResult run_tier(std::size_t hosts, std::size_t groups, bool run_legacy,
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

  // --- New pipeline (the production path PubSubSystem::rebuild runs). ---
  Rng new_rng(seed + 1);
  const auto c0 = Clock::now();
  const auto labels =
      decseq::placement::colocate_overlaps(overlaps, {}, new_rng);
  r.new_colocate_ms = ms_since(c0);

  decseq::seqgraph::BuildOptions options;
  options.strategy = decseq::seqgraph::BuildStrategy::kGreedyTree;
  options.colocation_labels = &labels;
  options.scratch = &scratch;
  const auto g0 = Clock::now();
  const auto graph =
      decseq::seqgraph::build_sequencing_graph(membership, overlaps, options);
  r.new_graph_ms = ms_since(g0);
  r.atoms = graph.num_atoms();

  const auto colocation = decseq::placement::apply_labels(graph, labels);
  const auto a0 = Clock::now();
  const auto assignment = decseq::placement::assign_machines(
      graph, colocation, membership, host_map, topo.graph, {}, new_rng);
  r.new_assign_ms = ms_since(a0);

  r.rss_after_new_bytes = decseq::bench::peak_rss_bytes();

  // --- Legacy pipeline, differentially checked. ---
  if (run_legacy) {
    r.legacy_ran = true;
    Rng legacy_rng(seed + 1);
    const auto lc0 = Clock::now();
    const auto legacy_labels =
        decseq::placement::legacy_colocate_overlaps(overlaps, {}, legacy_rng);
    r.legacy_colocate_ms = ms_since(lc0);
    DECSEQ_CHECK_MSG(legacy_labels == labels,
                     "co-location diverged from legacy at " << hosts
                                                            << " hosts");

    decseq::seqgraph::BuildOptions legacy_options;
    legacy_options.strategy = decseq::seqgraph::BuildStrategy::kGreedyTree;
    legacy_options.colocation_labels = &legacy_labels;
    const auto lg0 = Clock::now();
    const auto legacy_graph = decseq::seqgraph::legacy_build_sequencing_graph(
        membership, overlaps, legacy_options);
    r.legacy_graph_ms = ms_since(lg0);
    DECSEQ_CHECK_MSG(legacy_graph.num_atoms() == graph.num_atoms(),
                     "atom count diverged from legacy");
    for (const GroupId g : graph.groups()) {
      DECSEQ_CHECK_MSG(graph.path(g) == legacy_graph.path(g),
                       "path diverged from legacy for group " << g);
    }

    const auto legacy_colocation =
        decseq::placement::apply_labels(legacy_graph, legacy_labels);
    const auto la0 = Clock::now();
    const auto legacy_assignment = decseq::placement::legacy_assign_machines(
        legacy_graph, legacy_colocation, membership, host_map, topo.graph, {},
        legacy_rng);
    r.legacy_assign_ms = ms_since(la0);
    DECSEQ_CHECK_MSG(legacy_assignment.num_nodes() == assignment.num_nodes(),
                     "sequencing node count diverged from legacy");
    for (std::size_t n = 0; n < assignment.num_nodes(); ++n) {
      const SeqNodeId id(static_cast<SeqNodeId::underlying_type>(n));
      DECSEQ_CHECK_MSG(assignment.machine_of(id) ==
                           legacy_assignment.machine_of(id),
                       "machine diverged from legacy for node " << n);
    }
    DECSEQ_CHECK_MSG(new_rng() == legacy_rng(),
                     "RNG stream diverged from legacy at " << hosts
                                                           << " hosts");
  }
  return r;
}

void print_tier(const TierResult& r) {
  std::printf(
      "tier,%zu,groups,%zu,overlaps,%zu,atoms,%zu,overlap_ms,%.1f,"
      "new_ms,%.1f,colocate,%.1f,graph,%.1f,assign,%.1f,"
      "legacy_ms,%.1f,speedup,%.2f,rss_mb,%.1f\n",
      r.hosts, r.groups, r.overlaps, r.atoms, r.overlap_ms, r.new_total_ms(),
      r.new_colocate_ms, r.new_graph_ms, r.new_assign_ms,
      r.legacy_ran ? r.legacy_total_ms() : 0.0,
      r.legacy_ran && r.new_total_ms() > 0.0
          ? r.legacy_total_ms() / r.new_total_ms()
          : 0.0,
      static_cast<double>(r.rss_after_new_bytes) / (1024.0 * 1024.0));
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

  struct Tier {
    std::size_t hosts;
    bool legacy;
    bool assert_budgets;
  };
  std::vector<Tier> tiers;
  if (quick) {
    tiers = {{1000, true, false}, {10000, true, true}};
  } else {
    tiers = {{10000, true, false}, {100000, true, true}};
    if (full_tier) tiers.push_back({1000000, false, false});
  }

  decseq::seqgraph::BuildScratch scratch;
  std::vector<TierResult> results;
  const TierResult* asserted_tier = nullptr;
  for (const Tier& tier : tiers) {
    Rng host_rng(seed + 3);
    const auto host_map = decseq::topology::attach_hosts(
        topo, {.num_hosts = tier.hosts, .num_clusters = tier.hosts / 4},
        host_rng);
    results.push_back(run_tier(tier.hosts, tier.hosts / 10, tier.legacy,
                               topo, host_map, scratch, seed + 17));
    const TierResult& r = results.back();
    print_tier(r);
    if (tier.assert_budgets) {
      asserted_tier = &r;
      DECSEQ_CHECK_MSG(
          r.rss_after_new_bytes <= ceiling_mb * 1024 * 1024,
          "peak RSS " << r.rss_after_new_bytes / (1024 * 1024)
                      << " MiB exceeds the " << ceiling_mb
                      << " MiB ceiling after the " << r.hosts
                      << "-host compile");
      DECSEQ_CHECK_MSG(r.new_total_ms() <= wall_budget_ms,
                       "compile took " << r.new_total_ms()
                                       << " ms, over the " << wall_budget_ms
                                       << " ms budget at " << r.hosts
                                       << " hosts");
    }
  }

  // >= 5x over legacy at the largest tier both pipelines ran. Quick runs
  // skip the assertion (not the measurement): at quick's micro sizes both
  // pipelines finish in under a millisecond and the ratio is timer noise —
  // the quantity is a property of the full tiers, where the legacy
  // quadratics actually bind. CI's quick run asserts the RSS ceiling above.
  const TierResult* largest_both = nullptr;
  for (const TierResult& r : results) {
    if (r.legacy_ran) largest_both = &r;
  }
  DECSEQ_CHECK(largest_both != nullptr);
  if (!quick) {
    DECSEQ_CHECK_MSG(
        largest_both->legacy_total_ms() >= 5.0 * largest_both->new_total_ms(),
        "only " << largest_both->legacy_total_ms() /
                       largest_both->new_total_ms()
                << "x over legacy at " << largest_both->hosts
                << " hosts (need >= 5x)");
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
          "colocate+graph+assign (new = production CSR/arena pipeline, "
          "legacy = retained map/set reference; identical output asserted "
          "where both run). rss_after_new_mb is peak RSS measured before "
          "the tier's legacy pipeline, so the ceiling binds the new code. "
          "Wall times depend on the env block's core count.\",\n"
       << "  \"ceiling_mb\": " << ceiling_mb << ",\n"
       << "  \"wall_budget_ms\": " << wall_budget_ms << ",\n"
       << "  \"speedup_at_largest_shared_tier\": "
       << (largest_both->new_total_ms() > 0.0
               ? largest_both->legacy_total_ms() /
                     largest_both->new_total_ms()
               : 0.0)
       << ",\n"
       << "  \"tiers\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const TierResult& r = results[i];
    json << "    {\"hosts\": " << r.hosts << ", \"groups\": " << r.groups
         << ", \"overlaps\": " << r.overlaps << ", \"atoms\": " << r.atoms
         << ", \"overlap_ms\": " << r.overlap_ms
         << ", \"new_colocate_ms\": " << r.new_colocate_ms
         << ", \"new_graph_ms\": " << r.new_graph_ms
         << ", \"new_assign_ms\": " << r.new_assign_ms
         << ", \"new_total_ms\": " << r.new_total_ms()
         << ", \"legacy_ran\": " << (r.legacy_ran ? "true" : "false")
         << ", \"legacy_colocate_ms\": " << r.legacy_colocate_ms
         << ", \"legacy_graph_ms\": " << r.legacy_graph_ms
         << ", \"legacy_assign_ms\": " << r.legacy_assign_ms
         << ", \"legacy_total_ms\": " << r.legacy_total_ms()
         << ", \"rss_after_new_mb\": "
         << static_cast<double>(r.rss_after_new_bytes) / (1024.0 * 1024.0)
         << "}" << (i + 1 < results.size() ? ",\n" : "\n");
  }
  json << "  ]\n}\n";
  json.flush();
  if (!json.good()) {
    std::fprintf(stderr, "error: could not write %s\n",
                 json_path != nullptr ? json_path : "BENCH_routing.json");
    return 1;
  }
  (void)asserted_tier;
  return 0;
}
