// Succinct membership engine at scale: overlap-index build time, memory per
// subscription, and peak RSS on workloads far beyond the paper's 128-host
// configuration.
//
// One tier, full_scale, written to BENCH_scale.json (path overridable via
// DECSEQ_BENCH_JSON): 1M hosts × 100k Zipf(1) groups, the overlap build
// (the delta from an empty index). Two things are asserted:
//  * the overlap index's digest (pubsub::fold_overlaps), at the default
//    seed and sizes, equals the recorded one, which a pairwise reference
//    build agreed with. Other seeds and sizes print the digest and assert
//    none.
//  * the peak-RSS memory ceiling, so CI catches space regressions, not
//    just time ones.
//
// Usage: scale_bench [--quick]
//   --quick shrinks the tier (CI smoke) but still asserts its recorded
//   digest and the (proportionally smaller) memory ceiling.
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
#include "common/fnv1a.h"
#include "common/rng.h"
#include "membership/generators.h"
#include "membership/membership.h"
#include "membership/overlap.h"
#include "pubsub/epoch_digest.h"

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
  using decseq::membership::OverlapIndex;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const std::uint64_t seed = decseq::bench::base_seed();

  // --- The full-scale tier ---------------------------------------------
  const std::size_t default_hosts = quick ? 200000 : 1000000;
  const std::size_t default_groups = quick ? 20000 : 100000;
  const std::size_t hosts =
      decseq::bench::env_or("DECSEQ_SCALE_HOSTS", default_hosts);
  const std::size_t groups =
      decseq::bench::env_or("DECSEQ_SCALE_GROUPS", default_groups);
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

  const std::uint64_t digest = decseq::pubsub::fold_overlaps(
      decseq::kFnvOffsetBasis, index, membership);
  std::printf("full_scale,%zu,%zu,%zu,%zu,%.1f,%.1f,%.2f,%zu,%s\n", hosts,
              groups, subscriptions, index.num_overlaps(), membership_ms,
              overlap_ms, bytes_per_subscription, peak_rss,
              decseq::bench::hex_digest(digest).c_str());

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
       << ", \"peak_rss_bytes\": " << peak_rss
       << ", \"digest\": \"" << decseq::bench::hex_digest(digest) << "\"}\n"
       << "}\n";
  json.flush();
  if (!json.good()) {
    std::fprintf(stderr, "error: could not write %s\n",
                 json_path != nullptr ? json_path : "BENCH_scale.json");
    return 1;
  }

  // --- The recorded overlap digest, at the default seed and sizes -------
  const std::uint64_t golden =
      quick ? 0x18780267adca36c8ULL : 0x864a245c1a77cfe2ULL;
  if (seed == decseq::bench::kDefaultSeed && hosts == default_hosts &&
      groups == default_groups && digest != golden) {
    std::fprintf(stderr,
                 "FAIL: overlap digest %s differs from the recorded %s\n",
                 decseq::bench::hex_digest(digest).c_str(),
                 decseq::bench::hex_digest(golden).c_str());
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
