// The three simulator workloads: paper, hosts100k and paper_churn.
//
// Each drives the default production path — PubSubSystem with the
// single-threaded runtime — through its public API. A workload is a
// closed loop in simulated time: a round publishes once to every live
// group, from a random member, at one instant, and the next round starts
// after run() drains. Each block's schedule is generated from the workload
// seed just before its system is built, and freed with it; a cold pass
// replays it, then a warm pass replays it again and is the one measured.
//
// The traced run (--trace 1) additionally rebuilds the epoch layer by layer
// from the benchmark, in PubSubSystem::rebuild order on the same inputs, and
// checks the result identical to the facade's; for paper_churn it mirrors
// every reconfigure_async batch layer by layer the same way. It then runs a
// third pass with the protocol Tracer on to split the data plane by stage.
#include "sim_workloads.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "check.h"
#include "common/zipf.h"
#include "layers.h"
#include "membership/generators.h"
#include "pubsub/system.h"
#include "sim/simulator.h"

namespace perfbench {
namespace {

using decseq::GroupId;
using decseq::MsgId;
using decseq::NodeId;
using decseq::Rng;

constexpr std::size_t kBodyBytes = 64;
/// Simulated delay between a churn round's publishes and its
/// reconfigure_async call: the round's messages are still on their ingress
/// legs and in the sequencing network when the cutover begins.
constexpr double kChurnCallDelayMs = 0.5;
/// Every this many churn rounds, the batch also creates one group and
/// removes another of the same size.
constexpr std::size_t kCreateRemoveEvery = 4;

const SimSpec kSpecs[] = {
    // name, hosts, clusters, groups, popularity, churn, setups, rounds/s
    {"paper", 128, 32, 64, true, false, 32, 15000.0},
    {"paper_churn", 128, 32, 64, true, true, 64, 750.0},
};

struct Publish {
  NodeId sender;
  GroupId group;
  const Expected* expected;
};

struct Round {
  std::vector<Publish> publishes;
  std::vector<Change> batch;            ///< churn only
  std::vector<GroupId> created;         ///< ids the batch must create
  std::size_t deliveries = 0;           ///< upper bound, for reserve()
};

struct Schedule {
  std::vector<Round> rounds;
  std::deque<Expected> expected;  ///< stable storage behind Publish::expected
};

std::vector<std::uint32_t> sorted_ids(const std::vector<NodeId>& nodes) {
  std::vector<std::uint32_t> out;
  out.reserve(nodes.size());
  for (const NodeId n : nodes) out.push_back(n.value());
  std::sort(out.begin(), out.end());
  return out;
}

/// Draws churn nodes the way the membership generator drew members
/// (Zipf-popular or uniform), so joins and created groups keep the
/// membership's shape stationary.
class NodeDraw {
 public:
  NodeDraw(std::size_t hosts, bool popularity)
      : hosts_(hosts), popularity_(hosts, 1.0), zipf_(popularity) {}
  NodeId operator()(Rng& rng) const {
    const std::size_t n =
        zipf_ ? popularity_.sample(rng) - 1 : rng.next_below(hosts_);
    return NodeId(static_cast<NodeId::underlying_type>(n));
  }

 private:
  std::size_t hosts_;
  decseq::ZipfSampler popularity_;
  bool zipf_;
};

/// One churn batch against the current membership: one join and one leave
/// (balanced), and every kCreateRemoveEvery rounds a removal plus a
/// creation of the same size, so the membership stays stationary. The
/// groups a batch touches sweep the live groups in a fixed rotation; the
/// seed picks the joining, leaving and new members. (Random target groups
/// made the cutover tail — which groups stall, for how long — a property
/// of the seed: latency_ms_p90 spread 0.12 across seeds.)
std::vector<Change> make_batch(const decseq::membership::GroupMembership& m,
                               const NodeDraw& draw, Rng& rng,
                               std::size_t round, GroupId& removed) {
  const std::vector<GroupId> groups = m.live_groups();
  const std::size_t n = groups.size();
  std::vector<Change> batch;
  std::size_t at = round % n;
  while (m.members(groups[at]).size() >= m.num_nodes()) at = (at + 1) % n;
  const GroupId joined = groups[at];
  NodeId newcomer = draw(rng);
  while (m.is_member(joined, newcomer)) newcomer = draw(rng);
  batch.push_back(Change::join(joined, newcomer));
  GroupId left;
  for (std::size_t k = 0; k < n && !left.valid(); ++k) {
    const GroupId g = groups[(round + n / 2 + k) % n];
    if (g != joined && m.members(g).size() >= 3) left = g;
  }
  if (left.valid()) {
    batch.push_back(Change::leave(left, rng.pick(m.members(left))));
  }
  removed = GroupId{};
  if (round % kCreateRemoveEvery == kCreateRemoveEvery - 1) {
    GroupId victim;
    for (std::size_t k = 0; !victim.valid(); ++k) {
      const GroupId g = groups[(round + n / 4 + k) % n];
      if (g != joined && g != left) victim = g;
    }
    const std::size_t size = m.members(victim).size();
    std::vector<NodeId> members;
    while (members.size() < size) {
      const NodeId node = draw(rng);
      if (std::find(members.begin(), members.end(), node) == members.end()) {
        members.push_back(node);
      }
    }
    batch.push_back(Change::create(std::move(members)));
    batch.push_back(Change::remove(victim));
    removed = victim;
  }
  return batch;
}

/// Generate `rounds` rounds from `membership` (advanced in place by churn;
/// the batch rotation starts over with every call, i.e. every block).
void extend_schedule(Schedule& s, decseq::membership::GroupMembership& m,
                     const NodeDraw& draw, Rng& rng, std::size_t rounds,
                     bool churn) {
  std::unordered_map<std::uint32_t, const Expected*> stable;
  for (std::size_t r = 0; r < rounds; ++r) {
    Round round;
    GroupId removed;
    if (churn) {
      round.batch = make_batch(m, draw, rng, r, removed);
    }
    std::vector<GroupId> touched;  // groups whose member sets change
    for (const Change& c : round.batch) {
      if (c.kind == Change::Kind::kJoin || c.kind == Change::Kind::kLeave) {
        touched.push_back(c.group);
      }
    }
    // Post-batch member sets of the touched groups (a message still on its
    // ingress leg at the cutover is sequenced in the new epoch).
    decseq::membership::GroupMembership after(churn ? 0 : 1);
    if (churn) {
      after = m;
      for (const Change& c : round.batch) apply_change(after, c, &round.created);
    }
    const decseq::membership::GroupMembership& post = churn ? after : m;
    for (const GroupId g : m.live_groups()) {
      if (g == removed) continue;  // no traffic to a group being removed
      const Expected* expected;
      const bool moved =
          std::find(touched.begin(), touched.end(), g) != touched.end();
      if (!churn) {
        auto& slot = stable[g.value()];
        if (slot == nullptr) {
          s.expected.push_back({sorted_ids(m.members(g)), {}});
          slot = &s.expected.back();
        }
        expected = slot;
      } else {
        Expected e{sorted_ids(m.members(g)), {}};
        if (moved) e.cutover_receivers = sorted_ids(after.members(g));
        s.expected.push_back(std::move(e));
        expected = &s.expected.back();
      }
      round.publishes.push_back({rng.pick(m.members(g)), g, expected});
      round.deliveries +=
          std::max(m.members(g).size(), post.members(g).size());
    }
    if (churn) m = std::move(after);
    s.rounds.push_back(std::move(round));
  }
}

std::vector<std::vector<NodeId>> group_lists(
    const decseq::membership::GroupMembership& m) {
  std::vector<std::vector<NodeId>> lists;
  for (const GroupId g : m.live_groups()) lists.push_back(m.members(g));
  return lists;
}

/// One pass over the schedule: the measured times cover only the publish
/// calls and run() — the benchmark's own bookkeeping between rounds is
/// excluded.
struct Pass {
  std::size_t first_round = 0;
  std::size_t num_rounds = 0;
  std::size_t log_begin = 0;
  std::vector<std::size_t> round_log_end;
  std::vector<MsgId> round_first_id;
  std::size_t messages = 0;
  std::size_t deliveries = 0;
  double cpu_ms = 0.0;
  double wall_ms = 0.0;
  double publish_ms = 0.0;
  double run_ms = 0.0;
  std::uint64_t allocs = 0;
  std::size_t events = 0;
  std::size_t cancelled = 0;
  std::vector<double> reconfigure_ms;  ///< churn: wall time per call
  std::vector<double> cutover_sim_ms;  ///< churn: call -> drained
  std::vector<std::vector<GroupId>> affected;  ///< churn: closure per batch
  std::size_t fences = 0;
  std::size_t routing_bytes_max = 0;
  std::size_t created_mismatches = 0;

  [[nodiscard]] double deliveries_per_s() const {
    return rate_per_s(deliveries, cpu_ms);
  }
};

/// Cold and warm passes summed over the blocks of an untraced run.
struct Totals {
  RunTimes times;
  Histogram latency_ms;      ///< warm passes
  Histogram reconfigure_ms;  ///< warm passes
  Histogram cutover_sim_ms;  ///< warm passes

  /// Add a block's passes; `log` is its system's delivery log.
  void add(const Pass& c, const Pass& w,
           const std::vector<decseq::pubsub::Delivery>& log) {
    times.add(c, w);
    for (std::size_t i = w.log_begin; i < w.log_begin + w.deliveries; ++i) {
      latency_ms.add(log[i].delivered_at - log[i].sent_at);
    }
    for (const double ms : w.reconfigure_ms) reconfigure_ms.add(ms);
    for (const double ms : w.cutover_sim_ms) cutover_sim_ms.add(ms);
  }
};

/// Cutover bookkeeping shared with the delivery callback (churn only).
struct Cutover {
  bool pending = false;
  double called_at = 0.0;
  double ended_at = 0.0;
};

/// Data-plane stage split from the protocol Tracer ring (traced pass).
struct StageSplit {
  std::size_t messages = 0;
  std::size_t stamped = 0;
  std::size_t transited = 0;
  std::size_t forwarded = 0;
  std::size_t delivered = 0;
  std::size_t lost_rounds = 0;  ///< rounds whose events overflowed the ring
  Histogram ingress_ms;
  Histogram sequencing_ms;
  Histogram exit_to_deliver_ms;

  void absorb(const std::vector<decseq::protocol::TraceEvent>& events) {
    using Kind = decseq::protocol::TraceEvent::Kind;
    struct Times {
      double published = -1, ingress = -1, exited = -1;
    };
    std::unordered_map<std::uint64_t, Times> times;
    for (const auto& e : events) {
      Times& t = times[e.message.value()];
      switch (e.kind) {
        case Kind::kPublished:
          t.published = e.at;
          ++messages;
          break;
        case Kind::kIngress:
          t.ingress = e.at;
          break;
        case Kind::kStamped:
          ++stamped;
          break;
        case Kind::kTransited:
          ++transited;
          break;
        case Kind::kForwarded:
          ++forwarded;
          break;
        case Kind::kExited:
          t.exited = e.at;
          break;
        case Kind::kDelivered:
          ++delivered;
          if (t.exited >= 0) exit_to_deliver_ms.add(e.at - t.exited);
          break;
      }
    }
    for (const auto& [id, t] : times) {
      if (t.published < 0) continue;  // cutover fences have no publish
      if (t.ingress >= 0) ingress_ms.add(t.ingress - t.published);
      if (t.ingress >= 0 && t.exited >= 0) {
        sequencing_ms.add(t.exited - t.ingress);
      }
    }
  }
};

class SimRun {
 public:
  SimRun(const SimSpec& spec, std::uint64_t seed, double seconds, bool trace,
         SpanLog& spans)
      : spec_(spec), trace_(trace), spans_(spans), config_(deployment(spec)),
        rng_(seed), draw_(spec.hosts, spec.popularity),
        initial_groups_(initial_groups(spec)), initial_(spec.hosts) {
    blocks_ = trace ? 1 : spec.blocks;
    passes_ = trace ? 3 : 2;
    // A traced run is one block of the untraced run's shape.
    rounds_per_pass_ = static_cast<std::size_t>(std::max(
        1.0, std::ceil(spec.rounds_per_second * seconds /
                       static_cast<double>(spec.blocks))));
    // Group ids inside the system follow creation order, as here.
    for (const auto& members : initial_groups_) initial_.add_group(members);
    std::memset(body_, 0xAB, sizeof body_);
  }

  Result run();

 private:
  void make_block_inputs();
  [[nodiscard]] std::size_t first_round(std::size_t pass) const;
  void release_block();
  void traced_setup(Result& result);
  void prepare_system();
  Pass run_pass(std::size_t first_round, bool spans, bool tracer);
  void check_pass(const Pass& pass, Result& result);
  void mirror_batches(const Pass& pass, Result& result);
  [[nodiscard]] std::size_t gate_held_untouched(
      std::initializer_list<const Pass*> passes) const;
  void check_untouched(std::initializer_list<const Pass*> passes,
                       Result& result) const;
  void report_untraced(const Totals& totals, Result& result);
  void report_traced(const Pass& cold, const Pass& warm, const Pass& traced,
                     Result& result);

  const SimSpec& spec_;
  bool trace_;
  SpanLog& spans_;
  decseq::pubsub::SystemConfig config_;
  std::size_t blocks_ = 1;
  std::size_t passes_ = 2;
  std::size_t rounds_per_pass_ = 0;

  /// The workload seed's stream: every block's schedule draws from it in
  /// turn, so a seed always yields the same inputs.
  Rng rng_;
  NodeDraw draw_;
  std::vector<std::vector<NodeId>> initial_groups_;
  decseq::membership::GroupMembership initial_;
  Schedule schedule_;  ///< the current block's
  std::unique_ptr<decseq::pubsub::PubSubSystem> system_;
  std::unique_ptr<LayeredStack> layered_;  ///< the churn mirror (traced)
  Cutover cutover_;
  StageSplit stages_;
  WindowChecker checker_;
  std::size_t epoch_mismatches_ = 0;
  std::vector<std::size_t> relaid_groups_;
  std::uint8_t body_[kBodyBytes];
  CpuRotation rotation_;
};

void SimRun::make_block_inputs() {
  schedule_ = Schedule{};
  if (spec_.churn) {
    // Churn cannot replay a batch on the membership it produced: the
    // block's warm (and traced) passes continue its stationary stream.
    decseq::membership::GroupMembership live = initial_;
    extend_schedule(schedule_, live, draw_, rng_, passes_ * rounds_per_pass_,
                    true);
  } else {
    extend_schedule(schedule_, initial_, draw_, rng_, rounds_per_pass_, false);
  }
}

std::size_t SimRun::first_round(std::size_t pass) const {
  return spec_.churn ? pass * rounds_per_pass_ : 0;
}

void SimRun::release_block() {
  system_.reset();
  schedule_ = Schedule{};
  // Hand the freed block back to the kernel, so every block starts from the
  // same heap and the peak resident size does not depend on what malloc
  // happened to keep from the previous one.
  malloc_trim(0);
}

void SimRun::prepare_system() {
  if (spec_.churn) {
    cutover_ = {};
    system_->set_delivery_callback(
        [this](NodeId, const decseq::protocol::Message&, double at) {
          if (cutover_.pending && !system_->transition_active()) {
            cutover_.ended_at = at;
            cutover_.pending = false;
          }
        });
  }
  // Every pass replays the one slice of rounds, except on churn, where each
  // pass has its own.
  const std::size_t replays = spec_.churn ? 1 : passes_;
  std::size_t messages = 0, deliveries = 0;
  for (const Round& round : schedule_.rounds) {
    messages += replays * round.publishes.size();
    deliveries += replays * round.deliveries;
  }
  system_->reserve(messages, deliveries);
}

void SimRun::traced_setup(Result& result) {
  // Layer by layer, timed from the benchmark; then the facade on the same
  // inputs, whose epoch must come out identical. The churn mirror keeps the
  // layered stack, with its own oracle and network.
  TracedSetup setup = perfbench::traced_setup(config_, initial_groups_,
                                              spec_.churn, spans_, result);
  system_ = std::move(setup.system);
  layered_ = std::move(setup.layers);
  epoch_mismatches_ += setup.mismatches;
  report_setup_split(setup.layered_ms, setup.attributed_ms, result);
}

Pass SimRun::run_pass(std::size_t first_round, bool spans, bool tracer) {
  auto& sys = *system_;
  auto& sim = sys.simulator();
  auto& network = sys.network_mutable();
  Pass pass;
  pass.first_round = first_round;
  pass.num_rounds = rounds_per_pass_;
  pass.log_begin = sys.deliveries().size();
  pass.round_log_end.reserve(pass.num_rounds);
  pass.round_first_id.reserve(pass.num_rounds);
  const std::size_t events0 = sim.events_fired();
  const std::size_t cancelled0 = sim.timers_cancelled();
  std::uint64_t payload = 0;
  std::size_t capacity = 1024;
  if (tracer) {
    // Per message: publish, ingress, exit, a visit per atom of its path and
    // a forward per machine crossing; per delivery one event. Cutover fences
    // travel the old paths too, hence the margin on churn.
    const auto& graph = sys.graph();
    double mean_path = 0.0;
    for (const GroupId g : sys.membership().live_groups()) {
      mean_path += static_cast<double>(graph.path(g).size());
    }
    mean_path /= std::max<std::size_t>(1, sys.membership().num_groups());
    for (std::size_t r = 0; r < pass.num_rounds; ++r) {
      const Round& round = schedule_.rounds[first_round + r];
      double events = 2.0 * static_cast<double>(round.deliveries);
      for (const Publish& p : round.publishes) {
        const double path = graph.has_path(p.group)
                                ? static_cast<double>(graph.path(p.group).size())
                                : mean_path;
        events += 2.0 * path + 4.0;
      }
      capacity = std::max(
          capacity, static_cast<std::size_t>(events * (spec_.churn ? 3 : 1)));
    }
    network.tracer().enable(capacity);
    network.tracer().clear();
  }
  SpanLog::Scope pass_span(spans_, spans ? "pubsub.pass" : nullptr);
  for (std::size_t r = 0; r < pass.num_rounds; ++r) {
    const Round& round = schedule_.rounds[first_round + r];
    rotation_.tick();
    const std::uint64_t allocs0 = allocations();
    const double cpu0 = cpu_ms();
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < round.publishes.size(); ++i) {
      const Publish& p = round.publishes[i];
      const std::int64_t ordinal = static_cast<std::int64_t>(payload);
      if (spans) {
        SpanLog::Scope span(spans_, "pubsub.publish", ordinal);
        const MsgId id =
            sys.publish(p.sender, p.group, payload++, body_, kBodyBytes);
        if (i == 0) pass.round_first_id.push_back(id);
      } else {
        const MsgId id =
            sys.publish(p.sender, p.group, payload++, body_, kBodyBytes);
        if (i == 0) pass.round_first_id.push_back(id);
      }
    }
    if (round.publishes.empty()) pass.round_first_id.push_back(MsgId{});
    const Clock::time_point t1 = Clock::now();
    if (!round.batch.empty()) {
      sim.schedule_at(sim.now() + kChurnCallDelayMs, [this, &round, &pass,
                                                      &sys, spans] {
        SpanLog::Scope span(spans_,
                            spans ? "pubsub.reconfigure_async" : nullptr);
        const Clock::time_point c0 = Clock::now();
        auto result = sys.reconfigure_async(round.batch);
        pass.reconfigure_ms.push_back(ms_since(c0));
        cutover_ = {true, sys.simulator().now(), 0.0};
        if (result.created != round.created) ++pass.created_mismatches;
        pass.fences += result.report.fences_outstanding;
        pass.affected.push_back(std::move(result.delta.affected_groups));
      });
    }
    {
      SpanLog::Scope span(spans_, spans ? "pubsub.run" : nullptr);
      sys.run();
    }
    const Clock::time_point t2 = Clock::now();
    pass.cpu_ms += cpu_ms() - cpu0;
    pass.allocs += allocations() - allocs0;
    pass.publish_ms += ms_between(t0, t1);
    pass.run_ms += ms_between(t1, t2);
    pass.messages += round.publishes.size();
    pass.round_log_end.push_back(sys.deliveries().size());
    if (!round.batch.empty()) {
      if (cutover_.pending) {
        // No delivery followed the last fence: it was the round's tail.
        cutover_.ended_at = sim.now();
        cutover_.pending = false;
      }
      pass.cutover_sim_ms.push_back(cutover_.ended_at - cutover_.called_at);
      pass.routing_bytes_max =
          std::max(pass.routing_bytes_max, network.routing_table_bytes());
    }
    if (tracer) {
      auto& t = network.tracer();
      if (t.size() >= capacity) {
        ++stages_.lost_rounds;
      }
      stages_.absorb(t.events());
      t.clear();
    }
  }
  pass.wall_ms = pass.publish_ms + pass.run_ms;
  pass.deliveries = sys.deliveries().size() - pass.log_begin;
  pass.events = sim.events_fired() - events0;
  pass.cancelled = sim.timers_cancelled() - cancelled0;
  if (tracer) network.tracer().disable();
  return pass;
}

void SimRun::check_pass(const Pass& pass, Result& result) {
  const auto& log = system_->deliveries();
  std::vector<Expected> expected;
  std::vector<Observed> observed;
  std::uint64_t payload = 0;
  std::size_t begin = pass.log_begin;
  for (std::size_t r = 0; r < pass.num_rounds; ++r) {
    const Round& round = schedule_.rounds[pass.first_round + r];
    const std::uint64_t base = payload;
    payload += round.publishes.size();
    expected.clear();
    for (const Publish& p : round.publishes) expected.push_back(*p.expected);
    observed.clear();
    const std::size_t end = pass.round_log_end[r];
    for (std::size_t i = begin; i < end; ++i) {
      const auto& d = log[i];
      observed.emplace_back(d.receiver.value(),
                            d.payload >= base
                                ? static_cast<std::uint32_t>(d.payload - base)
                                : UINT32_MAX);
    }
    begin = end;
    bool violation = false;
    std::string problem;
    std::size_t failed = checker_.check(expected, observed, violation, problem);
    // A publish the system refused or lost before ingress also failed.
    for (std::size_t i = 0; i < round.publishes.size(); ++i) {
      const MsgId id(pass.round_first_id[r].value() + i);
      const auto& rec = system_->record(id);
      if (rec.rejected || rec.ingress_failed) {
        ++failed;
        if (problem.empty()) problem = "a publish was rejected at ingress";
      }
    }
    if (violation) {
      result.order_violation = true;
      failed += 2;  // the conflicting pair
    }
    result.failed += std::min(failed, round.publishes.size());
    if (!problem.empty()) result.problem(problem);
  }
  result.attempted += pass.messages;
  if (pass.created_mismatches != 0) {
    result.problem("reconfigure_async created unexpected group ids");
  }
}

std::size_t SimRun::gate_held_untouched(
    std::initializer_list<const Pass*> passes) const {
  std::unordered_set<std::uint32_t> touched;
  for (const Pass* p : passes) {
    for (const auto& affected : p->affected) {
      for (const GroupId g : affected) touched.insert(g.value());
    }
    for (std::size_t r = 0; r < p->num_rounds; ++r) {
      for (const GroupId g : schedule_.rounds[p->first_round + r].created) {
        touched.insert(g.value());
      }
    }
  }
  const auto held = system_->network().gate_held_by_group();
  std::size_t untouched = 0;
  for (std::uint32_t g = 0; g < held.size(); ++g) {
    if (touched.count(g) == 0) untouched += held[g];
  }
  return untouched;
}

void SimRun::check_untouched(std::initializer_list<const Pass*> passes,
                             Result& result) const {
  if (!spec_.churn) return;
  // A group outside every transition's affected closure must never have a
  // message held by a cutover gate.
  const std::size_t untouched = gate_held_untouched(passes);
  if (untouched != 0) {
    result.failed += untouched;
    result.problem(std::to_string(untouched) +
                   " messages of untouched groups were held by a cutover gate");
  }
}

void SimRun::mirror_batches(const Pass& pass, Result& result) {
  // The layered stack replays each batch after the facade, outside the
  // timed segments, and must land on the same epoch.
  SpanLog::Scope span(spans_, "setup.layered_delta");
  for (std::size_t r = 0; r < pass.num_rounds; ++r) {
    const Round& round = schedule_.rounds[pass.first_round + r];
    if (round.batch.empty()) continue;
    std::vector<GroupId> affected;
    layered_->apply_batch(round.batch, spans_, affected);
    relaid_groups_.push_back(affected.size());
  }
  const std::size_t mismatches = compare_overlaps(*layered_, *system_);
  if (mismatches != 0) {
    result.problem("mirrored overlap index differs from the facade's");
  }
  epoch_mismatches_ += mismatches;
}

void add_percentiles(Result& result, const std::string& prefix,
                     const Histogram& values,
                     std::initializer_list<double> ps) {
  for (const double p : ps) {
    char name[96];
    std::snprintf(name, sizeof name, "%s_p%g", prefix.c_str(), p);
    result.add(name, "ms", values.band_percentile(p), values.count());
    if (values.count() > 0 && p > 50.0 &&
        tail_count(values.count(), p) < 10) {
      result.note(std::string(name) + " has fewer than ten samples beyond it");
    }
  }
}

void SimRun::report_untraced(const Totals& t, Result& result) {
  result.add_times(t.times);
  // Simulated publish->deliver latency is what a subscriber of the
  // simulated system sees; the end-to-end latency_ms_* are it.
  add_percentiles(result, "latency_ms", t.latency_ms, {50, 90, 99});
  add_percentiles(result, "latency_sim_ms", t.latency_ms, {50, 99});
  if (spec_.churn) {
    add_percentiles(result, "reconfigure_ms", t.reconfigure_ms, {50, 90});
    add_percentiles(result, "cutover_sim_ms", t.cutover_sim_ms, {50, 99});
  }
  result.add("peak_rss_mb", "MiB", peak_rss_mb());
}

void SimRun::report_traced(const Pass& cold, const Pass& warm,
                           const Pass& traced, Result& result) {
  auto& sys = *system_;
  auto& network = sys.network_mutable();
  const auto ms = [&](const char* name) {
    return spans_.totals_of(name).total_ms;
  };
  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  // The set-up layers were reported by traced_setup; the oracle's work
  // covers the whole run, the cutover compiles on churn included.
  report_oracle(sys, result);

  // The mirrored churn batches, as the mean per batch (no batch elsewhere:
  // 0 from no samples).
  const std::size_t batches = relaid_groups_.size();
  const auto mean_ms = [&](const char* name) {
    return per(ms(name), static_cast<double>(batches));
  };
  result.add("membership.delta_build_ms", "ms",
             mean_ms("membership.delta_build"), batches);
  result.add("placement.extend_ms", "ms",
             mean_ms("placement.delta_colocate") + mean_ms("placement.extend"),
             batches);
  result.add("seqgraph.delta_build_ms", "ms", mean_ms("seqgraph.delta_build"),
             batches);
  {
    double sum = 0;
    for (const std::size_t n : relaid_groups_) sum += static_cast<double>(n);
    result.add("seqgraph.delta_relaid_groups", "count",
               per(sum, static_cast<double>(batches)), batches);
  }

  // Data plane, from the Tracer ring of the traced pass.
  const double msgs = static_cast<double>(stages_.messages);
  result.add("protocol.stamps_per_msg", "count",
             per(static_cast<double>(stages_.stamped), msgs), stages_.messages);
  result.add("protocol.transit_share", "ratio",
             per(static_cast<double>(stages_.transited),
                 static_cast<double>(stages_.stamped + stages_.transited)));
  result.add("protocol.machine_hops_per_msg", "count",
             per(static_cast<double>(stages_.forwarded), msgs));
  add_percentiles(result, "protocol.ingress_sim_ms", stages_.ingress_ms, {50});
  add_percentiles(result, "protocol.sequencing_sim_ms", stages_.sequencing_ms,
                  {50, 99});
  add_percentiles(result, "protocol.exit_to_deliver_sim_ms",
                  stages_.exit_to_deliver_ms, {50, 99});
  if (stages_.lost_rounds > 0) {
    result.problem("the tracer ring overflowed in " +
                   std::to_string(stages_.lost_rounds) + " rounds");
  }
  {
    double wait = 0.0;
    std::size_t buffered_max = 0, delivered_max = 0;
    for (std::uint32_t n = 0; n < spec_.hosts; ++n) {
      const NodeId node(n);
      if (network.deliveries(node) == 0) continue;
      const auto& receiver = network.receiver(node);
      wait += receiver.total_buffer_wait();
      buffered_max = std::max(buffered_max, receiver.max_buffered());
      delivered_max = std::max(delivered_max, network.deliveries(node));
    }
    const double total_deliveries =
        static_cast<double>(cold.deliveries + warm.deliveries +
                            traced.deliveries);
    result.add("protocol.reorder_wait_ms_per_delivery", "ms",
               per(wait, total_deliveries));
    result.add("protocol.reorder_buffered_max", "count",
               static_cast<double>(buffered_max));
    const auto& load = network.seqnode_load();
    const std::size_t load_max =
        load.empty() ? 0 : *std::max_element(load.begin(), load.end());
    result.add("protocol.seqnode_load_ratio", "ratio",
               per(static_cast<double>(load_max),
                   static_cast<double>(delivered_max)));
  }

  // Cutover: measured on every workload; without churn there is no
  // transition, so the counts are 0 and the percentiles have no samples.
  {
    std::size_t transitions = 0, fences = 0, held = 0, bytes_max = 0;
    Histogram reconf, cut;
    for (const Pass* p : {&cold, &warm, &traced}) {
      transitions += p->reconfigure_ms.size();
      fences += p->fences;
      bytes_max = std::max(bytes_max, p->routing_bytes_max);
      for (const double v : p->reconfigure_ms) reconf.add(v);
      for (const double v : p->cutover_sim_ms) cut.add(v);
    }
    for (const std::size_t n : network.gate_held_by_group()) held += n;
    const std::size_t untouched = gate_held_untouched({&cold, &warm, &traced});
    result.add("protocol.fences_per_transition", "count",
               per(static_cast<double>(fences),
                   static_cast<double>(transitions)),
               transitions);
    result.add("protocol.gate_held_msgs", "count", static_cast<double>(held));
    result.add("protocol.gate_held_untouched", "count",
               static_cast<double>(untouched));
    result.add("protocol.routing_table_bytes_max", "bytes",
               static_cast<double>(bytes_max));
    add_percentiles(result, "pubsub.reconfigure_ms", reconf, {50, 90});
    add_percentiles(result, "protocol.cutover_sim_ms", cut, {50, 90});
  }

  // Simulator and facade, from the warm untraced pass.
  const double warm_deliveries = static_cast<double>(warm.deliveries);
  result.add("sim.events_per_delivery", "count",
             per(static_cast<double>(warm.events), warm_deliveries));
  result.add("sim.timers_cancelled_per_delivery", "count",
             per(static_cast<double>(warm.cancelled), warm_deliveries));
  result.add("sim.run_share", "ratio", per(warm.run_ms, warm.wall_ms));
  result.add("pubsub.publish_us_mean", "us",
             per(warm.publish_ms * 1e3, static_cast<double>(warm.messages)),
             warm.messages);
  result.add("pubsub.allocs_per_delivery", "count",
             per(static_cast<double>(warm.allocs), warm_deliveries));

  // The facade runs neither the decseqd engines nor the transport channels.
  result.unmeasured({"transport.fabric_datagrams_per_delivery",
                     "transport.rx_rejected", "app.stamped_per_msg",
                     "app.forwarded_per_msg", "app.distributed_per_msg"});

  result.add("trace.deliveries_per_s", "1/s",
             traced.deliveries_per_s(), traced.deliveries);
  result.add("trace.overhead", "ratio",
             per(warm.deliveries_per_s(),
                 traced.deliveries_per_s()));
  result.add("trace.epoch_mismatches", "count",
             static_cast<double>(epoch_mismatches_));
}

Result SimRun::run() {
  Result result;
  if (trace_) {
    make_block_inputs();
    traced_setup(result);
    prepare_system();
    const Pass cold = run_pass(first_round(0), true, false);
    check_pass(cold, result);
    if (spec_.churn) mirror_batches(cold, result);
    const Pass warm = run_pass(first_round(1), false, false);
    check_pass(warm, result);
    if (spec_.churn) mirror_batches(warm, result);
    const Pass traced = run_pass(first_round(2), true, true);
    check_pass(traced, result);
    check_untouched({&cold, &warm, &traced}, result);
    if (spec_.churn) mirror_batches(traced, result);
    report_traced(cold, warm, traced, result);
    return result;
  }
  // Untraced: `blocks_` fresh systems, each set up, then driven through a
  // cold and a warm pass over its own slice of the schedule. Spreading the
  // measured passes over the whole run averages out the shared machine's
  // slow and fast spells; a fresh system per block bounds the delivery
  // log the facade keeps. A block's inputs exist only while it runs.
  Totals totals;
  for (std::size_t b = 0; b < blocks_; ++b) {
    make_block_inputs();
    rotation_.release();
    totals.times.setup([&] {
      system_ = std::make_unique<decseq::pubsub::PubSubSystem>(config_);
      system_->create_groups(initial_groups_);
    });
    prepare_system();
    const Pass cold = run_pass(first_round(0), false, false);
    check_pass(cold, result);
    const Pass warm = run_pass(first_round(1), false, false);
    check_pass(warm, result);
    check_untouched({&cold, &warm}, result);
    totals.add(cold, warm, system_->deliveries());
    release_block();
  }
  report_untraced(totals, result);
  return result;
}

}  // namespace

decseq::pubsub::SystemConfig deployment(const SimSpec& spec) {
  decseq::pubsub::SystemConfig config;
  config.seed = kDeploymentSeed;
  config.hosts.num_hosts = spec.hosts;
  config.hosts.num_clusters = spec.clusters;
  return config;  // topology defaults: the 10,000-router transit-stub
}

std::vector<std::vector<NodeId>> initial_groups(const SimSpec& spec) {
  Rng rng(kMembershipSeed);
  const auto membership = decseq::membership::zipf_membership(
      {.num_nodes = spec.hosts,
       .num_groups = spec.groups,
       .exponent = 1.0,
       .scale = 1.0,
       .selection = spec.popularity
                        ? decseq::membership::MemberSelection::kZipfPopularity
                        : decseq::membership::MemberSelection::kUniform},
      rng);
  return group_lists(membership);
}

const SimSpec* find_sim_spec(const std::string& name) {
  for (const SimSpec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Result run_sim_workload(const SimSpec& spec, std::uint64_t seed,
                        double seconds, bool trace, SpanLog& spans) {
  SimRun run(spec, seed, seconds, trace, spans);
  return run.run();
}

}  // namespace perfbench
