// simnet_cluster: the paper deployment compiled into kRanks decseqd
// NodeEngines with their transport channels, frame codec and message codec,
// driven in one process over transport::SimNet instead of loopback sockets.
//
// This is the steady measurement of the app and transport layers: on a
// shared machine a loopback cluster's wall-clock figures follow the
// scheduler, while here the engines' and channels' own work is the whole
// cost. Same paper deployment and round schedule as the other workloads; a
// closed loop, one round outstanding, drained with the simulator between
// rounds; `kBlocks` fresh clusters, each set up, then a cold and a warm
// pass over its slice of the schedule.
#include "simnet_cluster.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "app/cluster_config.h"
#include "app/decseqd.h"
#include "check.h"
#include "layers.h"
#include "pubsub/system.h"
#include "sim/simulator.h"
#include "sim_workloads.h"
#include "transport/channel.h"
#include "transport/sim_transport.h"

namespace perfbench {
namespace {

using decseq::GroupId;
using decseq::NodeId;
using decseq::Rng;
namespace app = decseq::app;
namespace transport = decseq::transport;

constexpr std::uint32_t kRanks = 3;
constexpr std::size_t kBlocks = 32;
/// Rounds per requested second, split over the blocks.
constexpr double kRoundsPerSecond = 12000.0;
/// Fabric edges: fixed delay plus uniform jitter, so datagrams reorder in
/// flight (the channels' reorder buffers work) and latencies vary with the
/// seed instead of taking a handful of exact values.
constexpr double kEdgeDelayMs = 0.05;
constexpr double kEdgeJitterMs = 0.05;
constexpr double kRetransmitMs = 20.0;
constexpr std::uint32_t kMaxRetransmits = 400;

struct Op {
  std::uint32_t sender;
  std::uint32_t group;
};

struct Seen {
  std::uint32_t receiver;
  std::uint64_t ordinal;
  double at_ms;
};

/// One in-process cluster: the ranks' engines on one simulated fabric.
struct Cluster {
  decseq::sim::Simulator sim;
  transport::SimNet net;
  std::vector<std::unique_ptr<transport::ChannelSet>> sets;
  std::vector<std::unique_ptr<app::NodeEngine>> engines;
  /// The current round's deliveries; cleared before each round.
  std::vector<Seen> round_seen;
  /// Last group sequence delivered per (receiver, group): the gapless check
  /// runs as deliveries arrive.
  std::vector<std::uint64_t> last_seq;
  std::size_t groups;
  std::size_t gaps = 0;
  std::size_t rejected_publishes = 0;

  Cluster(const app::ClusterConfig& config, std::size_t hosts,
          std::size_t num_groups, std::uint64_t seed)
      : net(sim, seed), last_seq(hosts * num_groups, 0), groups(num_groups) {
    net.add_endpoints(kRanks);
    transport::SimEdgeOptions edge_options;
    edge_options.delay_ms = kEdgeDelayMs;
    edge_options.jitter_ms = kEdgeJitterMs;
    for (const app::EdgeSpec& edge : app::build_edge_table(config)) {
      if (edge.kind == app::EdgeKind::kControlCommand ||
          edge.kind == app::EdgeKind::kControlReport ||
          edge.src_rank == edge.dst_rank) {
        continue;
      }
      net.add_edge(edge.id, edge.src_rank, edge.dst_rank, edge_options);
    }
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      sets.push_back(std::make_unique<transport::ChannelSet>());
      engines.push_back(std::make_unique<app::NodeEngine>(
          net.endpoint(r), *sets.back(), config, r,
          [this](NodeId receiver, const decseq::protocol::Message& m,
                 double now) {
            if (m.is_fin()) return;
            std::uint64_t& last =
                last_seq[receiver.value() * groups + m.group().value()];
            if (m.group_seq != last + 1) ++gaps;
            last = m.group_seq;
            round_seen.push_back({receiver.value(), m.payload(), now});
          },
          [this](GroupId, NodeId, std::uint64_t) { ++rejected_publishes; }));
      transport::ChannelSet* set = sets.back().get();
      net.endpoint(r).set_datagram_sink(
          [set](const std::uint8_t* d, std::size_t n,
                const transport::Origin& o) { set->handle(d, n, o); });
    }
  }
};

struct Pass {
  std::size_t deliveries = 0;
  std::size_t messages = 0;
  std::size_t events = 0;
  std::size_t cancelled = 0;
  std::size_t datagrams = 0;
  double cpu_ms = 0.0;
  double wall_ms = 0.0;
  double run_ms = 0.0;  ///< inside the simulator's run()

  [[nodiscard]] double deliveries_per_s() const {
    return rate_per_s(deliveries, cpu_ms);
  }
};

class SimnetRun {
 public:
  SimnetRun(std::uint64_t seed, double seconds, bool trace, SpanLog& spans)
      : seed_(seed), trace_(trace), spans_(spans),
        spec_(*find_sim_spec("paper")), config_(deployment(spec_)),
        rng_(seed), blocks_(trace ? 1 : kBlocks),
        // A traced run is one block of the untraced run's shape.
        rounds_per_pass_(static_cast<std::size_t>(std::max(
            1.0, std::ceil(kRoundsPerSecond * seconds /
                           static_cast<double>(kBlocks))))),
        groups_(initial_groups(spec_)) {
    for (const auto& members : groups_) {
      Expected e;
      for (const NodeId n : members) e.receivers.push_back(n.value());
      expected_.push_back(std::move(e));
    }
  }

  Result run();

 private:
  void make_block_inputs();
  std::unique_ptr<Cluster> setup();
  std::unique_ptr<Cluster> traced_setup(Result& result);
  std::unique_ptr<Cluster> build_cluster(
      const decseq::pubsub::PubSubSystem& system);
  Pass run_pass(Cluster& cluster, bool spans, bool record_latency,
                Result& result);
  void report_traced(const Cluster& cluster, const Pass& warm,
                     const Pass& traced, Result& result);

  std::uint64_t seed_;
  bool trace_;
  SpanLog& spans_;
  const SimSpec& spec_;
  decseq::pubsub::SystemConfig config_;
  /// The workload seed's stream: every block's rounds draw from it in turn.
  Rng rng_;
  std::size_t blocks_;
  std::size_t rounds_per_pass_;
  std::vector<std::vector<NodeId>> groups_;
  std::vector<Expected> expected_;
  std::vector<std::vector<Op>> rounds_;  ///< the current block's
  app::ClusterConfig cluster_config_;
  RunTimes times_;
  Histogram latency_ms_;
  std::uint64_t next_ordinal_ = 0;
  WindowChecker checker_;
  CpuRotation rotation_;
};

void SimnetRun::make_block_inputs() {
  rounds_.assign(rounds_per_pass_, {});
  for (auto& round : rounds_) {
    for (std::uint32_t g = 0; g < groups_.size(); ++g) {
      round.push_back({rng_.pick(groups_[g]).value(), g});
    }
  }
}

std::unique_ptr<Cluster> SimnetRun::build_cluster(
    const decseq::pubsub::PubSubSystem& system) {
  {
    SpanLog::Scope span(spans_, "app.build_cluster_config");
    cluster_config_ = app::build_cluster_config(
        system, kRanks, kRetransmitMs, kMaxRetransmits, kDeploymentSeed);
  }
  SpanLog::Scope span(spans_, "app.engines");
  return std::make_unique<Cluster>(cluster_config_, spec_.hosts,
                                    groups_.size(), seed_);
}

std::unique_ptr<Cluster> SimnetRun::setup() {
  std::unique_ptr<Cluster> cluster;
  rotation_.release();
  times_.setup([&] {
    auto system = std::make_unique<decseq::pubsub::PubSubSystem>(config_);
    system->create_groups(groups_);
    cluster = build_cluster(*system);
  });
  return cluster;
}

std::unique_ptr<Cluster> SimnetRun::traced_setup(Result& result) {
  // The epoch layer by layer, checked against the facade's, then the
  // cluster compiled from the facade. The set-up wall time counts the
  // layered build and the cluster; the facade build is the check.
  TracedSetup epoch =
      perfbench::traced_setup(config_, groups_, false, spans_, result);
  const Clock::time_point start = Clock::now();
  std::unique_ptr<Cluster> cluster = build_cluster(*epoch.system);
  const double cluster_ms = ms_since(start);
  report_setup_split(
      epoch.layered_ms + cluster_ms,
      epoch.attributed_ms +
          spans_.totals_of("app.build_cluster_config").total_ms +
          spans_.totals_of("app.engines").total_ms,
      result);
  // The facade's oracle does all its work at set-up here: its system only
  // feeds the cluster config.
  report_oracle(*epoch.system, result);
  result.add("trace.epoch_mismatches", "count",
             static_cast<double>(epoch.mismatches));
  return cluster;
}

Pass SimnetRun::run_pass(Cluster& cluster, bool spans, bool record_latency,
                         Result& result) {
  SpanLog::Scope pass_span(spans_, spans ? "app.pass" : nullptr);
  Pass pass;
  std::vector<Expected> expected;
  std::vector<Observed> observed;
  const std::size_t events0 = cluster.sim.events_fired();
  const std::size_t cancelled0 = cluster.sim.timers_cancelled();
  const std::size_t datagrams0 = cluster.net.datagrams_delivered();
  for (const auto& round : rounds_) {
    cluster.round_seen.clear();
    const std::uint64_t base = next_ordinal_;
    const double sent_at = cluster.sim.now();
    rotation_.tick();
    const double cpu0 = cpu_ms();
    const Clock::time_point t0 = Clock::now();
    for (const Op& op : round) {
      const std::uint32_t rank = cluster_config_.hosts[op.sender].rank;
      const std::uint64_t ordinal = next_ordinal_++;
      SpanLog::Scope span(spans_, spans ? "app.publish" : nullptr,
                          static_cast<std::int64_t>(ordinal));
      cluster.engines[rank]->publish(static_cast<std::uint32_t>(ordinal),
                                     NodeId(op.sender), GroupId(op.group),
                                     ordinal);
    }
    const Clock::time_point t1 = Clock::now();
    {
      SpanLog::Scope span(spans_, spans ? "sim.run" : nullptr);
      cluster.sim.run();
    }
    const Clock::time_point t2 = Clock::now();
    pass.cpu_ms += cpu_ms() - cpu0;
    pass.wall_ms += ms_between(t0, t2);
    pass.run_ms += ms_between(t1, t2);
    pass.deliveries += cluster.round_seen.size();
    pass.messages += round.size();

    expected.clear();
    for (const Op& op : round) expected.push_back(expected_[op.group]);
    observed.clear();
    for (const Seen& s : cluster.round_seen) {
      observed.emplace_back(s.receiver,
                            s.ordinal >= base && s.ordinal - base < round.size()
                                ? static_cast<std::uint32_t>(s.ordinal - base)
                                : UINT32_MAX);
      if (record_latency) latency_ms_.add(s.at_ms - sent_at);
    }
    bool violation = false;
    std::string problem;
    std::size_t failed = checker_.check(expected, observed, violation, problem);
    if (violation) {
      result.order_violation = true;
      failed += 2;
    }
    result.failed += std::min(failed, round.size());
    result.attempted += round.size();
    if (!problem.empty()) result.problem(problem);
  }
  pass.events = cluster.sim.events_fired() - events0;
  pass.cancelled = cluster.sim.timers_cancelled() - cancelled0;
  pass.datagrams = cluster.net.datagrams_delivered() - datagrams0;
  return pass;
}

/// Gapless group sequence per (receiver, group), no rejected publish, no
/// rejected datagram and no faulted channel.
void check_cluster(const Cluster& cluster, Result& result) {
  if (cluster.gaps > 0) {
    result.failed += cluster.gaps;
    result.problem(std::to_string(cluster.gaps) +
                   " deliveries broke a gapless (receiver, group) sequence");
  }
  if (cluster.rejected_publishes > 0) {
    result.failed += cluster.rejected_publishes;
    result.problem("publishes were rejected at ingress");
  }
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    if (cluster.sets[r]->rejected() != 0 ||
        cluster.engines[r]->faulted_channels() != 0) {
      result.problem("rank " + std::to_string(r) +
                     " rejected datagrams or faulted a channel");
    }
  }
}

void SimnetRun::report_traced(const Cluster& cluster, const Pass& warm,
                              const Pass& traced, Result& result) {
  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  std::uint64_t stamped = 0, forwarded = 0, distributed = 0, rejected = 0;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    const auto& stats = cluster.engines[r]->stats();
    stamped += stats.stamped;
    forwarded += stats.forwarded;
    distributed += stats.distributed;
    rejected += cluster.sets[r]->rejected();
  }
  const double messages = static_cast<double>(next_ordinal_);
  result.add("app.stamped_per_msg", "count",
             per(static_cast<double>(stamped), messages), next_ordinal_);
  result.add("app.forwarded_per_msg", "count",
             per(static_cast<double>(forwarded), messages), next_ordinal_);
  result.add("app.distributed_per_msg", "count",
             per(static_cast<double>(distributed), messages), next_ordinal_);
  const double warm_deliveries = static_cast<double>(warm.deliveries);
  result.add("transport.fabric_datagrams_per_delivery", "count",
             per(static_cast<double>(warm.datagrams), warm_deliveries),
             warm.deliveries);
  result.add("transport.rx_rejected", "count", static_cast<double>(rejected));
  result.add("sim.events_per_delivery", "count",
             per(static_cast<double>(warm.events), warm_deliveries));
  result.add("sim.timers_cancelled_per_delivery", "count",
             per(static_cast<double>(warm.cancelled), warm_deliveries));
  result.add("sim.run_share", "ratio", per(warm.run_ms, warm.wall_ms));
  result.add("trace.deliveries_per_s", "1/s", traced.deliveries_per_s(),
             traced.deliveries);
  result.add("trace.overhead", "ratio",
             per(warm.deliveries_per_s(), traced.deliveries_per_s()));
  // No churn runs here, the facade carries no traffic, and the engines keep
  // their protocol receivers private: the Tracer stage split, the receiver
  // buffering and the cutover figures have nothing to read.
  result.unmeasured(
      {"membership.delta_build_ms", "placement.extend_ms",
       "seqgraph.delta_build_ms", "seqgraph.delta_relaid_groups",
       "protocol.stamps_per_msg", "protocol.transit_share",
       "protocol.machine_hops_per_msg", "protocol.ingress_sim_ms_p50",
       "protocol.sequencing_sim_ms_p50", "protocol.sequencing_sim_ms_p99",
       "protocol.exit_to_deliver_sim_ms_p50",
       "protocol.exit_to_deliver_sim_ms_p99",
       "protocol.reorder_wait_ms_per_delivery", "protocol.reorder_buffered_max",
       "protocol.seqnode_load_ratio", "protocol.fences_per_transition",
       "protocol.gate_held_msgs", "protocol.gate_held_untouched",
       "protocol.routing_table_bytes_max", "protocol.cutover_sim_ms_p50",
       "protocol.cutover_sim_ms_p90", "pubsub.publish_us_mean",
       "pubsub.allocs_per_delivery", "pubsub.reconfigure_ms_p50",
       "pubsub.reconfigure_ms_p90"});
}

Result SimnetRun::run() {
  Result result;
  if (trace_) {
    // One cluster; a third pass with spans around every publish and
    // simulator drain gives the tracing overhead.
    make_block_inputs();
    std::unique_ptr<Cluster> cluster = traced_setup(result);
    run_pass(*cluster, true, false, result);
    const Pass warm = run_pass(*cluster, false, false, result);
    const Pass traced = run_pass(*cluster, true, false, result);
    check_cluster(*cluster, result);
    report_traced(*cluster, warm, traced, result);
    return result;
  }
  for (std::size_t b = 0; b < blocks_; ++b) {
    make_block_inputs();
    std::unique_ptr<Cluster> cluster = setup();
    const Pass cold = run_pass(*cluster, false, false, result);
    const Pass warm = run_pass(*cluster, false, true, result);
    check_cluster(*cluster, result);
    times_.add(cold, warm);
    cluster.reset();
    rounds_.clear();
    malloc_trim(0);  // every block starts from the same heap
  }
  result.add_times(times_);
  for (const double p : {50.0, 90.0, 99.0}) {
    char name[32];
    std::snprintf(name, sizeof name, "latency_ms_p%g", p);
    result.add(name, "ms", latency_ms_.band_percentile(p),
               latency_ms_.count());
  }
  result.add("peak_rss_mb", "MiB", peak_rss_mb());
  return result;
}

}  // namespace

Result run_simnet_cluster(std::uint64_t seed, double seconds, bool trace,
                          SpanLog& spans) {
  SimnetRun run(seed, seconds, trace, spans);
  return run.run();
}

}  // namespace perfbench
