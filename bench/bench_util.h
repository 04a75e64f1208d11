// Shared setup for the figure-reproduction benches.
//
// All experiment binaries use the paper's configuration (§4.1): a
// 10,000-router GT-ITM-style transit-stub topology, hosts grouped into
// similar-size clusters dropped uniformly at random, Zipf(1) group sizes,
// and the §3.4 placement heuristics. Each binary prints CSV-style rows so
// its figure can be regenerated (and eyeballed) directly from stdout.
//
// Environment knobs:
//   DECSEQ_BENCH_RUNS     — override the number of runs for multi-run sweeps
//   DECSEQ_BENCH_SEED     — override the base seed
//   DECSEQ_BENCH_THREADS  — worker threads for run_trials (default: cores)
#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/rng.h"
#include "common/stats.h"
#include "membership/generators.h"
#include "pubsub/system.h"

namespace decseq::bench {

inline std::size_t env_or(const char* name, std::size_t fallback) {
  if (const char* v = std::getenv(name)) {
    const long parsed = std::atol(v);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return fallback;
}

inline constexpr std::uint64_t kDefaultSeed = 20060101;  // Middleware 2006

inline std::uint64_t base_seed() {
  return env_or("DECSEQ_BENCH_SEED", kDefaultSeed);
}

/// A 64-bit digest as "0x" and 16 hex digits, as the benches print it and
/// write it to JSON (most JSON readers would round it as a number).
inline std::string hex_digest(std::uint64_t digest) {
  char text[19];
  std::snprintf(text, sizeof text, "0x%016llx",
                static_cast<unsigned long long>(digest));
  return text;
}

inline std::size_t bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return env_or("DECSEQ_BENCH_THREADS", hw == 0 ? 1 : hw);
}

/// JSON object describing the execution environment, embedded into every
/// BENCH_*.json so numbers recorded on a single-core container are
/// self-describing (wall-clock figures depend on both values).
inline std::string env_json() {
  return "{\"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"bench_threads\": " + std::to_string(bench_threads()) + "}";
}

/// Peak resident set size of this process in bytes (0 where unsupported).
/// Monotone over the process lifetime — measure deltas by recording before
/// and after the phase under test, and remember that earlier phases set a
/// floor. The scale bench asserts its memory ceiling against this.
inline std::size_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

/// Parallel trial driver. Runs `fn(trial_index)` for every index in
/// [0, num_trials) on a worker pool and returns the results in trial order.
///
/// Trials are embarrassingly parallel by construction: each one must own
/// its entire world — Simulator, Rng (seeded from the trial index), oracle,
/// system — and share nothing mutable. Seeding from the index keeps every
/// trial's result identical whether it ran on 1 thread or 64, so multi-run
/// sweeps can go wide without giving up reproducible CSVs.
///
/// `threads == 0` means DECSEQ_BENCH_THREADS (default: hardware cores);
/// pass 1 to force the serial baseline.
template <typename Fn>
auto run_trials(std::size_t num_trials, Fn&& fn, std::size_t threads = 0)
    -> std::vector<decltype(fn(std::size_t{}))> {
  using Result = decltype(fn(std::size_t{}));
  std::vector<Result> results(num_trials);
  if (threads == 0) threads = bench_threads();
  if (threads > num_trials) threads = num_trials;
  if (threads <= 1) {
    for (std::size_t i = 0; i < num_trials; ++i) results[i] = fn(i);
    return results;
  }
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_trials) return;
      results[i] = fn(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return results;
}

/// The paper's experimental configuration: 10k-router topology, 128 hosts
/// in similar-size clusters (32 clusters of 4 — small enough that close
/// pairs stay rare, the regime the paper's Fig 3 averages imply).
inline pubsub::SystemConfig paper_config(std::uint64_t seed,
                                         std::size_t num_hosts = 128,
                                         std::size_t num_clusters = 32) {
  pubsub::SystemConfig config;
  config.seed = seed;
  config.hosts.num_hosts = num_hosts;
  config.hosts.num_clusters = num_clusters;
  return config;  // topology defaults = 10,000 routers
}

/// The paper's Zipf(1) group-size workload over `num_hosts` nodes.
inline membership::ZipfWorkloadParams zipf_params(std::size_t num_hosts,
                                                  std::size_t num_groups) {
  return {.num_nodes = num_hosts,
          .num_groups = num_groups,
          .exponent = 1.0,
          .scale = 1.0};
}

/// Install a Zipf membership into a fresh system (groups created in rank
/// order so GroupId == rank - 1).
inline void install_zipf_groups(pubsub::PubSubSystem& system, Rng& rng,
                                std::size_t num_groups) {
  const auto params =
      zipf_params(system.membership().num_nodes(), num_groups);
  const auto snapshot = membership::zipf_membership(params, rng);
  std::vector<std::vector<NodeId>> lists;
  for (const GroupId g : snapshot.live_groups()) {
    lists.push_back(snapshot.members(g));
  }
  system.create_groups(std::move(lists));
}

/// Print a compact CDF (one row per ~percent) as "<label>,<x>,<P(X<=x)>".
inline void print_cdf(const std::string& label, std::vector<double> samples) {
  const auto cdf = empirical_cdf(std::move(samples));
  const std::size_t step = cdf.size() > 100 ? cdf.size() / 100 : 1;
  for (std::size_t i = 0; i < cdf.size(); i += step) {
    std::printf("%s,%.4f,%.4f\n", label.c_str(), cdf[i].value,
                cdf[i].fraction);
  }
  if (!cdf.empty()) {
    std::printf("%s,%.4f,%.4f\n", label.c_str(), cdf.back().value,
                cdf.back().fraction);
  }
}

}  // namespace decseq::bench
