// Succinct membership engine at scale: overlap-index build time, memory per
// subscription, and peak RSS on workloads far beyond the paper's 128-host
// configuration.
//
// Two tiers, written to BENCH_scale.json (path overridable via
// DECSEQ_BENCH_JSON):
//  * legacy_comparison — the default build (the overlap delta from an
//    empty index) vs the retained materialized O(G²·N/64) pairwise
//    reference on the same membership, at a scale the reference can still
//    finish. Equality of the results is asserted.
//  * full_scale — the ROADMAP tier: 1M hosts × 100k Zipf(1) groups,
//    default build only (the reference would need ~5·10⁹ pairwise
//    intersections of 1M-bit rows). The peak-RSS memory ceiling is
//    asserted, so CI catches space regressions, not just time ones.
//
// Usage: scale_bench [--quick]
//   --quick shrinks both tiers (CI smoke) but still asserts equivalence and
//   the (proportionally smaller) memory ceiling.
//
// Environment knobs (also bench_util.h's standard ones):
//   DECSEQ_SCALE_HOSTS       — full-tier host count     (default 1,000,000)
//   DECSEQ_SCALE_GROUPS      — full-tier group count    (default 100,000)
//   DECSEQ_SCALE_CEILING_MB  — peak-RSS ceiling in MiB  (default 256 full,
//                              64 quick — ~3.6× the measured peaks of 70 MiB
//                              and 17 MiB, headroom for allocator variance)
//   DECSEQ_BENCH_JSON        — output path for BENCH_scale.json
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "membership/generators.h"
#include "membership/membership.h"
#include "membership/overlap.h"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::size_t total_subscriptions(
    const decseq::membership::GroupMembership& m) {
  std::size_t total = 0;
  for (const decseq::GroupId g : m.live_groups()) {
    total += m.members(g).size();
  }
  return total;
}

decseq::membership::GroupMembership make_workload(std::size_t hosts,
                                                  std::size_t groups,
                                                  std::uint64_t seed) {
  decseq::Rng rng(seed);
  // Uniform member selection: at millions of hosts the popularity-weighted
  // sampler would subscribe a handful of celebrity nodes to nearly every
  // group, making the double-overlap graph complete — a different (and
  // unrepresentative) workload. Uniform keeps per-node fan-in bounded, the
  // regime the §1.2 scalability argument is about.
  return decseq::membership::zipf_membership(
      {.num_nodes = hosts,
       .num_groups = groups,
       .exponent = 1.0,
       .scale = 1.0,
       .selection = decseq::membership::MemberSelection::kUniform},
      rng);
}

}  // namespace

int main(int argc, char** argv) {
  using decseq::membership::OverlapBuild;
  using decseq::membership::OverlapIndex;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::uint64_t seed = decseq::bench::base_seed();

  // --- Tier 1: default vs the materialized pairwise reference -----------
  const std::size_t cmp_hosts = quick ? 20000 : 50000;
  const std::size_t cmp_groups = quick ? 800 : 2000;
  const auto cmp_membership = make_workload(cmp_hosts, cmp_groups, seed);
  const std::size_t cmp_subs = total_subscriptions(cmp_membership);

  const auto default_start = Clock::now();
  const OverlapIndex built(cmp_membership);
  const double default_ms = ms_since(default_start);

  const auto ref_start = Clock::now();
  const OverlapIndex reference(cmp_membership,
                               OverlapBuild::kMaterializedReference);
  const double reference_ms = ms_since(ref_start);

  if (built.num_overlaps() != reference.num_overlaps() ||
      built.components().size() != reference.components().size()) {
    std::fprintf(stderr,
                 "FAIL: default build diverged from the reference "
                 "(%zu vs %zu overlaps, %zu vs %zu components)\n",
                 built.num_overlaps(), reference.num_overlaps(),
                 built.components().size(), reference.components().size());
    return 1;
  }
  for (std::size_t i = 0; i < built.num_overlaps(); ++i) {
    const auto& s = built.overlap(i);
    const auto& r = reference.overlap(i);
    if (s.first != r.first || s.second != r.second ||
        s.members != r.members) {
      std::fprintf(stderr, "FAIL: overlap %zu differs between builds\n", i);
      return 1;
    }
  }
  std::printf("legacy_comparison,%zu,%zu,%zu,%.1f,%.1f,%.1fx\n", cmp_hosts,
              cmp_groups, built.num_overlaps(), default_ms, reference_ms,
              reference_ms / default_ms);

  // --- Tier 2: the full-scale tier --------------------------------------
  const std::size_t hosts =
      decseq::bench::env_or("DECSEQ_SCALE_HOSTS", quick ? 200000 : 1000000);
  const std::size_t groups =
      decseq::bench::env_or("DECSEQ_SCALE_GROUPS", quick ? 20000 : 100000);
  const std::size_t ceiling_mb = decseq::bench::env_or(
      "DECSEQ_SCALE_CEILING_MB", quick ? 64 : 256);
  const std::size_t ceiling_bytes = ceiling_mb * 1024 * 1024;

  const auto member_start = Clock::now();
  const auto membership = make_workload(hosts, groups, seed + 1);
  const double membership_ms = ms_since(member_start);
  const std::size_t subscriptions = total_subscriptions(membership);

  const auto overlap_start = Clock::now();
  const OverlapIndex index(membership);
  const double overlap_ms = ms_since(overlap_start);

  const std::size_t membership_bytes = membership.memory_bytes();
  const std::size_t overlap_bytes = index.memory_bytes();
  const double bytes_per_subscription =
      static_cast<double>(membership_bytes + overlap_bytes) /
      static_cast<double>(subscriptions);
  const std::size_t peak_rss = decseq::bench::peak_rss_bytes();
  const auto& stats = index.build_stats();

  std::printf("full_scale,%zu,%zu,%zu,%zu,%.1f,%.1f,%.2f,%zu\n", hosts,
              groups, subscriptions, index.num_overlaps(), membership_ms,
              overlap_ms, bytes_per_subscription, peak_rss);

  // --- BENCH_scale.json -------------------------------------------------
  const char* json_path = std::getenv("DECSEQ_BENCH_JSON");
  std::ofstream json(json_path != nullptr ? json_path : "BENCH_scale.json");
  json.precision(6);
  json << "{\n"
       << "  \"bench\": \"scale_bench\",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"seed\": " << seed << ",\n"
       << "  \"env\": " << decseq::bench::env_json() << ",\n"
       << "  \"rss_ceiling_bytes\": " << ceiling_bytes << ",\n"
       << "  \"legacy_comparison\": {\"hosts\": " << cmp_hosts
       << ", \"groups\": " << cmp_groups
       << ", \"subscriptions\": " << cmp_subs
       << ", \"overlaps\": " << built.num_overlaps()
       << ", \"default_build_ms\": " << default_ms
       << ", \"reference_build_ms\": " << reference_ms
       << ", \"speedup\": " << reference_ms / default_ms << "},\n"
       << "  \"full_scale\": {\"hosts\": " << hosts
       << ", \"groups\": " << groups
       << ", \"subscriptions\": " << subscriptions
       << ", \"overlaps\": " << index.num_overlaps()
       << ", \"membership_build_ms\": " << membership_ms
       << ", \"overlap_build_ms\": " << overlap_ms
       << ", \"pair_increments\": " << stats.pair_increments
       << ", \"candidate_pairs\": " << stats.candidate_pairs
       << ", \"membership_bytes\": " << membership_bytes
       << ", \"overlap_index_bytes\": " << overlap_bytes
       << ", \"bytes_per_subscription\": " << bytes_per_subscription
       << ", \"peak_rss_bytes\": " << peak_rss << "}\n"
       << "}\n";
  json.flush();
  if (!json.good()) {
    std::fprintf(stderr, "error: could not write %s\n",
                 json_path != nullptr ? json_path : "BENCH_scale.json");
    return 1;
  }

  // --- The asserted memory ceiling --------------------------------------
  if (peak_rss == 0) {
    std::fprintf(stderr, "warning: peak RSS unavailable on this platform\n");
  } else if (peak_rss > ceiling_bytes) {
    std::fprintf(stderr,
                 "FAIL: peak RSS %zu bytes exceeds the %zu MiB ceiling — "
                 "the succinct membership engine regressed in space\n",
                 peak_rss, ceiling_mb);
    return 1;
  }
  return 0;
}
