// Full-system end-to-end benchmark: the publish→deliver path through a
// real PubSubSystem (topology, placement, sequencing network, receivers,
// delivery log), with every heap allocation counted by an instrumented
// operator new — the measured counterpart of dataplane_bench's isolated
// planes, and the bench that pins the "system-vs-dataplane gap" closed.
//
// Measurements, written to BENCH_system.json (path overridable via
// DECSEQ_BENCH_JSON):
//  1. warmup — one full pass of the publish schedule on a cold system.
//     This is where the one-time costs live: Dijkstra row caches on the
//     10k-router topology, fan-out plan compilation, channel deques,
//     receiver slabs, payload/message pools, the event slab. Recorded so
//     the cold/warm split is visible, not hidden.
//  2. steady_state — the identical schedule again, with the record and
//     delivery logs reserve()d: tracing disabled, publishing via the
//     span-style overload from a fixed buffer. Reports msgs/sec and
//     allocs-per-delivery (instrumented, not modeled) and *asserts*
//     allocs/delivery <= kMaxSteadyAllocsPerDelivery and that the
//     InlineCallback spill pool saw no fresh blocks — the committed CI
//     thresholds (the --quick smoke runs the same checks).
//  3. traced — the schedule once more with the Tracer enabled; its
//     preallocated ring must keep the path allocation-free, so the same
//     assertion holds with tracing on.
// Every pass also records the simulator events fired per delivery: the
// event-engine layer of the delivery rate.
//
// Environment knobs (besides the bench_util ones):
//   DECSEQ_BENCH_ROUNDS — publish rounds per measured pass
//   DECSEQ_BENCH_BODY   — body bytes per message (default 64, inline)
//   DECSEQ_BENCH_JSON   — output path for BENCH_system.json
// CLI: --quick shrinks rounds and the topology for CI smoke runs.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "membership/generators.h"
#include "protocol/message.h"
#include "pubsub/system.h"
#include "sim/callback.h"
#include "sim/simulator.h"

// ---------------------------------------------------------------------------
// Instrumented allocator: every heap allocation in this binary bumps the
// counters, so allocs-per-delivery is measured, not modeled. Atomic, so an
// allocation on any thread is counted.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::size_t> g_allocs{0};
std::atomic<std::size_t> g_alloc_bytes{0};

void count_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  count_alloc(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  count_alloc(size);
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
// Replace the nothrow family too: under sanitizers the library's nothrow
// new would come from a different allocator than the std::free below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count_alloc(size);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  count_alloc(size);
  const std::size_t a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (size + a - 1) / a * a);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return operator new(size, align, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace decseq::bench {
namespace {

/// Committed CI threshold: the steady-state full-system path may allocate
/// at most this often per delivery (ISSUE 5 acceptance bar; the paired
/// ctest pins the stricter "exactly zero" claim on a fixed scenario).
constexpr double kMaxSteadyAllocsPerDelivery = 0.05;

/// The warmup pass gets its own (looser) budget instead of a free ride:
/// one-time costs — Dijkstra rows, fan-out plans, pool growth — are
/// expected, but a regression that makes the cold pass allocate per
/// message would previously have hidden behind "warmup is unmeasured".
/// The cold pass currently lands at ~0.066 allocs/delivery at full scale.
/// The --quick smoke runs a pass too short to amortize the one-time costs
/// (~0.82 with 10 rounds on the small topology), so it gets a wider bound
/// that still catches a regression to per-message allocation.
constexpr double kMaxWarmupAllocsPerDelivery = 0.10;
constexpr double kMaxQuickWarmupAllocsPerDelivery = 2.0;

double wall_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double per(double num, double denom) { return denom <= 0 ? 0 : num / denom; }

double msgs_per_sec(std::size_t deliveries, double wall_ms) {
  return wall_ms <= 0.0 ? 0.0
                        : static_cast<double>(deliveries) / wall_ms * 1e3;
}

/// One publish: who sends to which group. The schedule is precomputed so
/// warmup and measured passes replay the *same* sender/group sequence —
/// every Dijkstra row and fan-out plan the measured pass touches was
/// touched by the warmup pass first.
struct Publish {
  NodeId sender;
  GroupId group;
};

struct PassResult {
  std::size_t messages = 0;
  std::size_t deliveries = 0;
  /// Simulator events fired.
  std::size_t events = 0;
  std::size_t allocs = 0;
  std::size_t alloc_bytes = 0;
  std::size_t fresh_spills = 0;
  double wall_ms = 0.0;
};

/// Replay the schedule: one publish sweep per round, drained round by
/// round (the fig3 cadence dataplane_bench's system section used).
PassResult run_pass(pubsub::PubSubSystem& system,
                    const std::vector<std::vector<Publish>>& schedule,
                    const std::uint8_t* body, std::size_t body_bytes) {
  PassResult result;
  const std::size_t deliveries0 = system.deliveries().size();
  const std::size_t events0 = system.simulator().events_fired();
  const std::size_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const std::size_t bytes0 = g_alloc_bytes.load(std::memory_order_relaxed);
  const std::size_t spills0 = sim::spill_pool_stats().fresh;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t payload = 0;
  for (const std::vector<Publish>& round : schedule) {
    for (const Publish& p : round) {
      system.publish(p.sender, p.group, payload++, body, body_bytes);
      ++result.messages;
    }
    system.run();
  }
  result.wall_ms = wall_since(start);
  result.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  result.alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed) - bytes0;
  result.fresh_spills = sim::spill_pool_stats().fresh - spills0;
  result.deliveries = system.deliveries().size() - deliveries0;
  result.events = system.simulator().events_fired() - events0;
  return result;
}

}  // namespace
}  // namespace decseq::bench

int main(int argc, char** argv) {
  using namespace decseq;
  using namespace decseq::bench;
  using std::printf;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  const std::uint64_t seed = base_seed();
  const std::size_t num_groups = 64;  // fig3 regime
  const std::size_t rounds = env_or("DECSEQ_BENCH_ROUNDS", quick ? 10 : 200);
  const std::size_t body_bytes = env_or("DECSEQ_BENCH_BODY", 64);

  printf("# system_bench: fig3-style end-to-end publish→deliver, seed %llu, "
         "%zu groups, %zu rounds, %zuB bodies%s\n",
         static_cast<unsigned long long>(seed), num_groups, rounds,
         body_bytes, quick ? " (quick)" : "");

  pubsub::SystemConfig config = paper_config(seed);
  if (quick) {
    // CI smoke: a few hundred routers instead of 10,000.
    config.topology.transit_domains = 2;
    config.topology.routers_per_transit = 4;
    config.topology.stubs_per_transit_router = 2;
    config.topology.routers_per_stub = 16;
  }
  const auto build_start = std::chrono::steady_clock::now();
  pubsub::PubSubSystem system(config);
  Rng rng(seed + 7);
  install_zipf_groups(system, rng, num_groups);
  const double build_wall_ms = wall_since(build_start);

  // Precompute the schedule (and its delivery count, for reserve()).
  const auto groups = system.membership().live_groups();
  std::vector<std::vector<Publish>> schedule(rounds);
  std::size_t deliveries_per_pass = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    schedule[round].reserve(groups.size());
    for (const GroupId g : groups) {
      const NodeId sender = rng.pick(system.membership().members(g));
      schedule[round].push_back({sender, g});
      deliveries_per_pass += system.membership().members(g).size();
    }
  }
  const std::size_t messages_per_pass = rounds * groups.size();
  const std::vector<std::uint8_t> body(body_bytes, 0xAB);

  // --- 1. Warmup: the cold pass (caches, plans, pools, slabs). ---
  const PassResult warm =
      run_pass(system, schedule, body.data(), body.size());
  const double warm_apd = per(static_cast<double>(warm.allocs),
                              static_cast<double>(warm.deliveries));
  printf("warmup,messages,%zu,deliveries,%zu,wall_ms,%.1f,msgs_per_sec,%.0f,"
         "events_per_delivery,%.3f,allocs_per_delivery,%.3f\n",
         warm.messages, warm.deliveries, warm.wall_ms,
         msgs_per_sec(warm.deliveries, warm.wall_ms),
         per(static_cast<double>(warm.events),
             static_cast<double>(warm.deliveries)),
         warm_apd);
  const double warm_budget =
      quick ? kMaxQuickWarmupAllocsPerDelivery : kMaxWarmupAllocsPerDelivery;
  DECSEQ_CHECK_MSG(warm_apd <= warm_budget,
                   "cold-pass system path allocated "
                       << warm_apd << " per delivery (warmup threshold "
                       << warm_budget << "; " << warm.allocs
                       << " allocs, " << warm.alloc_bytes << " bytes)");

  // --- 2. Steady state: reserved logs, tracing disabled. ---
  // Three more passes will run (steady + traced + headroom); reserve for
  // all of them so log growth never reallocates inside a measured window.
  system.reserve(warm.messages + 3 * messages_per_pass,
                 warm.deliveries + 3 * deliveries_per_pass);
  const PassResult steady =
      run_pass(system, schedule, body.data(), body.size());
  const double steady_apd = per(static_cast<double>(steady.allocs),
                                static_cast<double>(steady.deliveries));
  printf("steady_state,messages,%zu,deliveries,%zu,wall_ms,%.1f,"
         "msgs_per_sec,%.0f,events_per_delivery,%.3f,allocs,%zu,"
         "allocs_per_delivery,%.4f,fresh_spills,%zu\n",
         steady.messages, steady.deliveries, steady.wall_ms,
         msgs_per_sec(steady.deliveries, steady.wall_ms),
         per(static_cast<double>(steady.events),
             static_cast<double>(steady.deliveries)),
         steady.allocs, steady_apd, steady.fresh_spills);
  DECSEQ_CHECK_MSG(steady_apd <= kMaxSteadyAllocsPerDelivery,
                   "steady-state system path allocated "
                       << steady_apd << " per delivery (threshold "
                       << kMaxSteadyAllocsPerDelivery << "; " << steady.allocs
                       << " allocs, " << steady.alloc_bytes << " bytes)");
  DECSEQ_CHECK_MSG(steady.fresh_spills == 0,
                   "steady-state pass took " << steady.fresh_spills
                                             << " fresh callback spills");

  // --- 3. Tracing enabled: the pooled ring must keep the path clean. ---
  // enable() preallocates the ring (sized for one pass) outside the window.
  system.network_mutable().tracer().enable(
      /*capacity=*/8 * (messages_per_pass + deliveries_per_pass));
  const PassResult traced =
      run_pass(system, schedule, body.data(), body.size());
  system.network_mutable().tracer().disable();
  const double traced_apd = per(static_cast<double>(traced.allocs),
                                static_cast<double>(traced.deliveries));
  printf("traced,messages,%zu,deliveries,%zu,wall_ms,%.1f,msgs_per_sec,%.0f,"
         "allocs_per_delivery,%.4f\n",
         traced.messages, traced.deliveries, traced.wall_ms,
         msgs_per_sec(traced.deliveries, traced.wall_ms), traced_apd);
  DECSEQ_CHECK_MSG(traced_apd <= kMaxSteadyAllocsPerDelivery,
                   "tracing-enabled system path allocated "
                       << traced_apd << " per delivery (threshold "
                       << kMaxSteadyAllocsPerDelivery << ")");

  // --- BENCH_system.json ---
  const char* json_path = std::getenv("DECSEQ_BENCH_JSON");
  std::ofstream json(json_path != nullptr ? json_path : "BENCH_system.json");
  json.precision(6);
  const auto pass_json = [&](const char* name, const PassResult& r) {
    json << "  \"" << name << "\": {\"messages\": " << r.messages
         << ", \"deliveries\": " << r.deliveries
         << ", \"wall_ms\": " << r.wall_ms
         << ", \"msgs_per_sec\": " << msgs_per_sec(r.deliveries, r.wall_ms)
         << ", \"events_per_delivery\": "
         << per(static_cast<double>(r.events),
                static_cast<double>(r.deliveries))
         << ", \"allocs\": " << r.allocs
         << ", \"allocs_per_delivery\": "
         << per(static_cast<double>(r.allocs),
                static_cast<double>(r.deliveries))
         << ", \"fresh_spills\": " << r.fresh_spills << "}";
  };
  json << "{\n"
       << "  \"bench\": \"system\",\n"
       << "  \"seed\": " << seed << ",\n"
       << "  \"env\": " << env_json() << ",\n"
       << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
       << "  \"scenario\": {\"style\": \"fig3\", \"hosts\": "
       << config.hosts.num_hosts << ", \"groups\": " << num_groups
       << ", \"rounds\": " << rounds << ", \"body_bytes\": " << body_bytes
       << "},\n"
       << "  \"build_wall_ms\": " << build_wall_ms << ",\n"
       << "  \"note\": \"identical precomputed schedule per pass; warmup = "
          "cold caches (Dijkstra rows, fan-out plans, pools), steady_state "
          "= reserved logs + span publish with tracing off, traced = same "
          "with the preallocated trace ring on; thresholds asserted: "
          "allocs/delivery <= "
       << kMaxSteadyAllocsPerDelivery
       << " and zero fresh callback spills\",\n";
  pass_json("warmup", warm);
  json << ",\n";
  pass_json("steady_state", steady);
  json << ",\n";
  pass_json("traced", traced);
  json << "\n}\n";
  json.flush();
  if (!json.good()) {
    std::fprintf(stderr, "error: could not write %s\n",
                 json_path != nullptr ? json_path : "BENCH_system.json");
    return 1;
  }
  return 0;
}
