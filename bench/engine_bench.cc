// Event-engine microbenchmark: the new cancellable-timer / pooled-event
// engine versus a faithful replica of the seed engine, on the same
// fig6-style stress workload (§4.1 configuration: 128 hosts, Zipf(1) group
// sizes), plus a full-system stress run and the parallel trial driver.
//
// Three measurements, written to BENCH_engine.json (path overridable via
// DECSEQ_BENCH_JSON):
//  1. engine_stress — channel-chain stress modeled on the fig6 workload
//     (Zipf-sized per-group traffic relayed across per-group sequencing
//     chains, loss 0). Both engines run the *identical* workload (same
//     seed, same Rng draw sequence, single thread); the JSON records
//     events/sec for each and the wall-clock speedup.
//  2. system_stress — a real PubSubSystem on the paper topology (10,000
//     routers) publishing a fig6-style message storm; absolute events/sec
//     and the allocs/event proxy (heap-spilled callbacks per scheduled
//     event) for the perf trajectory.
//  3. parallel_trials — N independent system trials through
//     bench::run_trials on 1 thread vs all cores (deterministic per-trial
//     seeds), reported separately from the single-thread comparison.
//
// Environment knobs (besides the bench_util ones):
//   DECSEQ_BENCH_SCALE   — message-volume multiplier for the chain stress
//   DECSEQ_BENCH_TRIALS  — trial count for the parallel driver
//   DECSEQ_BENCH_JSON    — output path for BENCH_engine.json
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "sim/channel.h"
#include "sim/simulator.h"

namespace decseq::bench {
namespace {

// ---------------------------------------------------------------------------
// Seed-engine replica (pre-overhaul), kept verbatim so the comparison runs
// in one binary on one workload: std::function events in a binary
// priority_queue, no cancellation (retransmit timers drain as dead no-ops),
// std::map channel buffers, payloads copied across the wire.
// ---------------------------------------------------------------------------
namespace legacy {

using Time = sim::Time;

class Simulator {
 public:
  using Callback = std::function<void()>;

  [[nodiscard]] Time now() const { return now_; }

  void schedule_at(Time t, Callback cb) {
    queue_.push(Event{t, next_seq_++, std::move(cb)});
  }
  void schedule_after(Time delay, Callback cb) {
    schedule_at(now_ + delay, std::move(cb));
  }

  std::size_t run() {
    std::size_t fired = 0;
    while (!queue_.empty()) {
      Event event = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      now_ = event.time;
      ++events_fired_;
      ++fired;
      event.cb();
    }
    return fired;
  }

  [[nodiscard]] std::size_t events_fired() const { return events_fired_; }

 private:
  struct Event {
    Time time;
    std::uint64_t seq;
    Callback cb;
    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t events_fired_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
};

template <typename T>
class Channel {
 public:
  using DeliverFn = std::function<void(T)>;

  Channel(Simulator& sim, Rng& rng, Time delay_ms,
          ChannelOptions options = {})
      : sim_(&sim), rng_(&rng), delay_ms_(delay_ms), options_(options) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void set_receiver(DeliverFn deliver) { deliver_ = std::move(deliver); }

  void send(T payload) {
    const std::uint64_t seq = next_send_seq_++;
    retransmit_buffer_.try_emplace(seq, std::move(payload));
    transmit(seq);
    arm_timer(seq);
  }

 private:
  void transmit(std::uint64_t seq) {
    if (rng_->next_bool(options_.loss_probability)) return;
    sim_->schedule_after(delay_ms_, [this, seq] { on_data(seq); });
  }

  void arm_timer(std::uint64_t seq) {
    sim_->schedule_after(options_.retransmit_timeout_ms, [this, seq] {
      const auto it = retransmit_buffer_.find(seq);
      if (it == retransmit_buffer_.end()) return;  // acked meanwhile
      ++retransmit_counts_[seq];
      transmit(seq);
      arm_timer(seq);
    });
  }

  void on_data(std::uint64_t seq) {
    if (seq >= next_deliver_seq_ && !reorder_buffer_.contains(seq)) {
      auto node = retransmit_buffer_.find(seq);
      reorder_buffer_.emplace(seq, node->second);  // copy across the wire
    }
    while (true) {
      const auto it = reorder_buffer_.find(next_deliver_seq_);
      if (it == reorder_buffer_.end()) break;
      T payload = std::move(it->second);
      reorder_buffer_.erase(it);
      ++next_deliver_seq_;
      deliver_(std::move(payload));
    }
    send_ack(next_deliver_seq_);
  }

  void send_ack(std::uint64_t cumulative) {
    if (rng_->next_bool(options_.loss_probability)) return;
    sim_->schedule_after(delay_ms_, [this, cumulative] {
      while (!retransmit_buffer_.empty() &&
             retransmit_buffer_.begin()->first < cumulative) {
        retransmit_counts_.erase(retransmit_buffer_.begin()->first);
        retransmit_buffer_.erase(retransmit_buffer_.begin());
      }
    });
  }

  Simulator* sim_;
  Rng* rng_;
  Time delay_ms_;
  ChannelOptions options_;
  DeliverFn deliver_;
  std::uint64_t next_send_seq_ = 0;
  std::uint64_t next_deliver_seq_ = 0;
  std::map<std::uint64_t, T> retransmit_buffer_;
  std::map<std::uint64_t, std::size_t> retransmit_counts_;
  std::map<std::uint64_t, T> reorder_buffer_;
};

}  // namespace legacy

// ---------------------------------------------------------------------------
// Fig6-style chain stress, templated over the engine so both run byte-equal
// workloads: per-group sequencing chains with Zipf(1)-shaped traffic.
// ---------------------------------------------------------------------------

/// Message-sized payload (≈ protocol::Message): the seed engine pays map
/// nodes and wire copies for it, the new engine moves it through deques.
struct FatPayload {
  std::uint64_t words[12] = {0};
};

struct EngineResult {
  std::size_t events_fired = 0;
  std::size_t delivered = 0;
  double wall_ms = 0.0;
  double sim_end_ms = 0.0;
};

double wall_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

template <typename SimT, template <typename> class ChannelT>
EngineResult run_chain_stress(std::uint64_t seed, std::size_t num_groups,
                              std::size_t scale) {
  Rng rng(seed);
  SimT sim;
  EngineResult result;

  // One relay chain of FIFO channels per group (its sequencing path).
  std::vector<std::vector<std::unique_ptr<ChannelT<FatPayload>>>> chains;
  chains.reserve(num_groups);
  for (std::size_t g = 0; g < num_groups; ++g) {
    const std::size_t hops = 1 + rng.next_below(5);  // path of 1..5 edges
    std::vector<std::unique_ptr<ChannelT<FatPayload>>> chain;
    for (std::size_t h = 0; h < hops; ++h) {
      const double delay = 1.0 + rng.next_double() * 19.0;
      chain.push_back(std::make_unique<ChannelT<FatPayload>>(sim, rng, delay));
    }
    for (std::size_t h = 0; h + 1 < hops; ++h) {
      ChannelT<FatPayload>* next = chain[h + 1].get();
      chain[h]->set_receiver(
          [next](FatPayload p) { next->send(std::move(p)); });
    }
    chain.back()->set_receiver(
        [&result](FatPayload) { ++result.delivered; });
    chains.push_back(std::move(chain));
  }

  // Zipf(1)-shaped per-group volume, like the paper's group sizes: group g
  // carries scale * 128 / (g + 1) messages. Publishing is bursty (all sends
  // land in a 250 ms window) so channels hold real retransmission-buffer
  // backlogs and the event queue carries a full timer population — the
  // regime a production-scale run lives in.
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t g = 0; g < num_groups; ++g) {
    const std::size_t messages = std::max<std::size_t>(
        1, scale * 128 / (g + 1));
    ChannelT<FatPayload>* head = chains[g].front().get();
    for (std::size_t m = 0; m < messages; ++m) {
      FatPayload payload;
      payload.words[0] = (g << 20) | m;
      const double at = rng.next_double() * 250.0;
      sim.schedule_at(at, [head, payload] { head->send(payload); });
    }
  }
  sim.run();
  result.wall_ms = wall_since(start);
  result.events_fired = sim.events_fired();
  result.sim_end_ms = sim.now();
  return result;
}

// ---------------------------------------------------------------------------
// Full-system fig6-style stress: the paper configuration end to end.
// ---------------------------------------------------------------------------

struct SystemResult {
  std::size_t messages = 0;
  std::size_t deliveries = 0;
  std::size_t events_fired = 0;
  std::size_t events_scheduled = 0;
  std::size_t timers_cancelled = 0;
  std::size_t heap_spills = 0;
  double build_wall_ms = 0.0;
  double run_wall_ms = 0.0;
};

SystemResult run_system_stress(std::uint64_t seed, std::size_t num_groups,
                               std::size_t rounds) {
  SystemResult result;
  auto start = std::chrono::steady_clock::now();
  pubsub::PubSubSystem system(paper_config(seed));
  Rng rng(seed + 7);
  install_zipf_groups(system, rng, num_groups);
  result.build_wall_ms = wall_since(start);

  auto& sim = system.simulator();
  const auto groups = system.membership().live_groups();
  start = std::chrono::steady_clock::now();
  for (std::size_t round = 0; round < rounds; ++round) {
    for (const GroupId g : groups) {
      const NodeId sender = rng.pick(system.membership().members(g));
      const double at = sim.now() + rng.next_double() * 1000.0;
      sim.schedule_at(at, [&system, sender, g] { system.publish(sender, g); });
      ++result.messages;
    }
    system.run();
  }
  result.run_wall_ms = wall_since(start);
  result.deliveries = system.deliveries().size();
  result.events_fired = sim.events_fired();
  result.events_scheduled = sim.events_scheduled();
  result.timers_cancelled = sim.timers_cancelled();
  result.heap_spills = sim.callback_heap_spills();
  return result;
}

double events_per_sec(std::size_t events, double wall_ms) {
  return wall_ms <= 0.0 ? 0.0 : static_cast<double>(events) / wall_ms * 1e3;
}

}  // namespace
}  // namespace decseq::bench

int main() {
  using namespace decseq;
  using namespace decseq::bench;
  using std::printf;

  const std::uint64_t seed = base_seed();
  const std::size_t num_groups = 32;  // fig6 regime: stress flattens here
  const std::size_t scale = env_or("DECSEQ_BENCH_SCALE", 200);
  const std::size_t trials = env_or("DECSEQ_BENCH_TRIALS", 8);
  const std::size_t threads = bench_threads();

  printf("# engine_bench: fig6-style stress, seed %llu\n",
         static_cast<unsigned long long>(seed));

  // --- 1. Single-thread engine comparison on the identical workload. ---
  // Both engines are deterministic, so repetitions differ only in machine
  // noise; interleave them and keep the best wall time of each.
  const std::size_t reps = env_or("DECSEQ_BENCH_REPS", 3);
  EngineResult legacy_result;
  EngineResult engine_result;
  for (std::size_t r = 0; r < reps; ++r) {
    const EngineResult legacy_rep =
        run_chain_stress<legacy::Simulator, legacy::Channel>(seed, num_groups,
                                                             scale);
    const EngineResult engine_rep = run_chain_stress<sim::Simulator,
                                                     sim::Channel>(
        seed, num_groups, scale);
    if (r == 0 || legacy_rep.wall_ms < legacy_result.wall_ms) {
      legacy_result = legacy_rep;
    }
    if (r == 0 || engine_rep.wall_ms < engine_result.wall_ms) {
      engine_result = engine_rep;
    }
  }
  DECSEQ_CHECK_MSG(engine_result.delivered == legacy_result.delivered,
                   "engines disagree on deliveries: "
                       << engine_result.delivered << " vs "
                       << legacy_result.delivered);

  const double legacy_eps =
      events_per_sec(legacy_result.events_fired, legacy_result.wall_ms);
  const double engine_eps =
      events_per_sec(legacy_result.events_fired, engine_result.wall_ms);
  const double speedup =
      engine_result.wall_ms <= 0.0
          ? 0.0
          : legacy_result.wall_ms / engine_result.wall_ms;
  printf("engine_stress,legacy,%zu,%zu,%.1f,%.0f\n",
         legacy_result.delivered, legacy_result.events_fired,
         legacy_result.wall_ms, legacy_eps);
  printf("engine_stress,new,%zu,%zu,%.1f,%.0f\n", engine_result.delivered,
         engine_result.events_fired, engine_result.wall_ms, engine_eps);
  printf("engine_stress,speedup,%.2fx (events/sec normalized to the legacy "
         "event count)\n",
         speedup);

  // --- 2. Full-system stress (absolute numbers for the trajectory). ---
  const SystemResult system_result = run_system_stress(seed, num_groups, 20);
  printf("system_stress,messages,%zu,deliveries,%zu,run_wall_ms,%.1f,"
         "events_per_sec,%.0f\n",
         system_result.messages, system_result.deliveries,
         system_result.run_wall_ms,
         events_per_sec(system_result.events_fired,
                        system_result.run_wall_ms));

  // --- 3. Parallel trial driver (reported separately). ---
  auto trial = [seed](std::size_t i) {
    // Deterministic per-trial seed; each trial owns its whole world.
    return run_chain_stress<sim::Simulator, sim::Channel>(
        seed + 1000 * i, 32, 12);
  };
  auto t0 = std::chrono::steady_clock::now();
  const auto serial = run_trials(trials, trial, 1);
  const double serial_wall = wall_since(t0);
  t0 = std::chrono::steady_clock::now();
  const auto parallel = run_trials(trials, trial, threads);
  const double parallel_wall = wall_since(t0);
  for (std::size_t i = 0; i < trials; ++i) {
    DECSEQ_CHECK_MSG(serial[i].delivered == parallel[i].delivered &&
                         serial[i].sim_end_ms == parallel[i].sim_end_ms,
                     "trial " << i << " not deterministic across drivers");
  }
  const double parallel_speedup =
      parallel_wall <= 0.0 ? 0.0 : serial_wall / parallel_wall;
  printf("parallel_trials,%zu,threads,%zu,serial_ms,%.1f,parallel_ms,%.1f,"
         "speedup,%.2fx\n",
         trials, threads, serial_wall, parallel_wall, parallel_speedup);

  // --- BENCH_engine.json ---
  const char* json_path = std::getenv("DECSEQ_BENCH_JSON");
  std::ofstream json(json_path != nullptr ? json_path : "BENCH_engine.json");
  json.precision(6);
  json << "{\n"
       << "  \"bench\": \"engine\",\n"
       << "  \"seed\": " << seed << ",\n"
       << "  \"env\": " << env_json() << ",\n"
       << "  \"scenario\": {\"style\": \"fig6\", \"groups\": " << num_groups
       << ", \"scale\": " << scale << "},\n"
       << "  \"engine_stress\": {\n"
       << "    \"note\": \"single thread, identical workload and seed; "
          "events/sec normalized to the legacy event count\",\n"
       << "    \"legacy\": {\"events_fired\": " << legacy_result.events_fired
       << ", \"wall_ms\": " << legacy_result.wall_ms
       << ", \"events_per_sec\": " << legacy_eps << "},\n"
       << "    \"new\": {\"events_fired\": " << engine_result.events_fired
       << ", \"wall_ms\": " << engine_result.wall_ms
       << ", \"events_per_sec\": " << engine_eps << "},\n"
       << "    \"speedup\": " << speedup << "\n"
       << "  },\n"
       << "  \"system_stress\": {\n"
       << "    \"messages\": " << system_result.messages
       << ", \"deliveries\": " << system_result.deliveries << ",\n"
       << "    \"build_wall_ms\": " << system_result.build_wall_ms
       << ", \"run_wall_ms\": " << system_result.run_wall_ms << ",\n"
       << "    \"events_fired\": " << system_result.events_fired
       << ", \"events_per_sec\": "
       << events_per_sec(system_result.events_fired,
                         system_result.run_wall_ms)
       << ",\n"
       << "    \"timers_cancelled\": " << system_result.timers_cancelled
       << ",\n"
       << "    \"allocs_per_event_proxy\": "
       << (system_result.events_scheduled == 0
               ? 0.0
               : static_cast<double>(system_result.heap_spills) /
                     static_cast<double>(system_result.events_scheduled))
       << "\n"
       << "  },\n"
       << "  \"parallel_trials\": {\n"
       << "    \"note\": \"independent trials via bench::run_trials; "
          "reported separately from the single-thread comparison\",\n"
       << "    \"trials\": " << trials << ", \"threads\": " << threads
       << ",\n"
       << "    \"serial_wall_ms\": " << serial_wall
       << ", \"parallel_wall_ms\": " << parallel_wall
       << ", \"speedup\": " << parallel_speedup << "\n"
       << "  }\n"
       << "}\n";
  json.flush();
  if (!json.good()) {
    std::fprintf(stderr, "error: could not write %s\n",
                 json_path != nullptr ? json_path : "BENCH_engine.json");
    return 1;
  }
  return 0;
}
