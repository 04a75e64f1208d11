#include "fuzz/scenario.h"

#include <algorithm>
#include <sstream>

#include "common/rng.h"

namespace decseq::fuzz {

std::size_t Scenario::num_groups() const {
  std::size_t count = 0;
  for (const Phase& phase : phases) {
    for (const MembershipOp& op : phase.reconfig) {
      if (op.kind == MembershipOp::Kind::kCreate) ++count;
    }
  }
  return count;
}

std::size_t Scenario::num_publishes() const {
  std::size_t count = 0;
  for (const Phase& phase : phases) count += phase.publishes.size();
  return count;
}

std::size_t Scenario::num_crashes() const {
  std::size_t count = 0;
  for (const Phase& phase : phases) count += phase.crashes.size();
  return count;
}

std::size_t Scenario::num_host_faults() const {
  std::size_t count = 0;
  for (const Phase& phase : phases) {
    count += phase.publisher_crashes.size() + phase.partitions.size();
  }
  return count;
}

std::string Scenario::summary() const {
  std::size_t fins = 0, joins_leaves = 0, causal = 0;
  for (const Phase& phase : phases) {
    fins += phase.terminations.size();
    for (const MembershipOp& op : phase.reconfig) {
      if (op.kind == MembershipOp::Kind::kJoin ||
          op.kind == MembershipOp::Kind::kLeave ||
          op.kind == MembershipOp::Kind::kRemove) {
        ++joins_leaves;
      }
    }
    for (const PublishOp& op : phase.publishes) {
      if (op.causal) ++causal;
    }
  }
  std::size_t pub_crashes = 0, partitions = 0;
  for (const Phase& phase : phases) {
    pub_crashes += phase.publisher_crashes.size();
    partitions += phase.partitions.size();
  }
  std::ostringstream out;
  out << phases.size() << " phase" << (phases.size() == 1 ? "" : "s") << ", "
      << num_hosts << " hosts, " << num_groups() << " groups, "
      << num_publishes() << " pubs (" << causal << " causal), loss="
      << loss_probability << ", " << num_crashes() << " crashes, " << fins
      << " fins, " << joins_leaves << " membership churn ops";
  if (pub_crashes + partitions > 0) {
    out << ", " << pub_crashes << " publisher crashes, " << partitions
        << " partitions";
  }
  if (max_retransmits != 5000) out << ", budget=" << max_retransmits;
  return out.str();
}

namespace {

/// Random group of size [2, max_size] drawn from `num_hosts` hosts.
std::vector<std::uint32_t> random_members(Rng& rng, std::uint32_t num_hosts,
                                          std::uint32_t max_size) {
  std::vector<std::uint32_t> all(num_hosts);
  for (std::uint32_t n = 0; n < num_hosts; ++n) all[n] = n;
  rng.shuffle(all);
  const std::uint32_t size = static_cast<std::uint32_t>(
      2 + rng.next_below(std::max<std::uint32_t>(max_size, 2) - 1));
  all.resize(std::min<std::uint32_t>(size, num_hosts));
  std::sort(all.begin(), all.end());
  return all;
}

}  // namespace

GeneratorOptions sweep_options(bool hostile, bool churn) {
  GeneratorOptions gen;
  if (hostile) {
    gen.crash_probability = 0.7;
    gen.publisher_crash_probability = 0.6;
    gen.partition_probability = 0.5;
    gen.small_budget_probability = 0.5;
  }
  if (churn) {
    gen.max_phases = 5;
    gen.reconfigure_probability = 0.95;
    gen.max_churn_ops_per_phase = 4;
  }
  return gen;
}

Scenario generate_scenario(std::uint64_t seed,
                           const GeneratorOptions& options) {
  // Derive independent streams so a tweak to one feature's draws does not
  // reshuffle every other feature across the sweep.
  std::uint64_t sm = seed * 0x9e3779b97f4a7c15ULL + 0xfeedfacecafef00dULL;
  Rng rng(splitmix64(sm));

  Scenario s;
  s.system_seed = seed;
  s.num_hosts = static_cast<std::uint32_t>(
      options.min_hosts +
      rng.next_below(options.max_hosts - options.min_hosts + 1));
  s.num_clusters = static_cast<std::uint32_t>(2 + rng.next_below(3));
  s.retransmit_timeout_ms = 40.0;
  // Half the sweep runs lossless (the paper's regime); the other half gets
  // a loss rate that forces the retransmission machinery into the schedule.
  s.loss_probability =
      rng.next_bool(0.5) ? 0.0
                         : 0.02 + rng.next_double() * (options.max_loss - 0.02);

  const std::size_t num_phases = 1 + rng.next_below(options.max_phases);
  std::uint32_t live_group_count = 0;   // alive at the current boundary
  std::uint32_t total_group_count = 0;  // scenario group indices handed out
  std::vector<std::uint32_t> alive;     // alive scenario group indices

  for (std::size_t p = 0; p < num_phases; ++p) {
    Phase phase;

    // --- Membership batch at the phase boundary. ---
    if (p == 0) {
      const std::uint32_t initial = static_cast<std::uint32_t>(
          2 + rng.next_below(options.max_initial_groups - 1));
      for (std::uint32_t g = 0; g < initial; ++g) {
        phase.reconfig.push_back(
            {MembershipOp::Kind::kCreate, 0, 0,
             random_members(rng, s.num_hosts, s.num_hosts / 2 + 2)});
        alive.push_back(total_group_count++);
      }
    } else {
      // Churn: maybe remove a group, maybe add one, maybe join/leave.
      // Groups created in this same batch are not valid join/leave targets:
      // the runner resolves scenario indices to GroupIds only after the
      // whole batch applies, so an op naming a same-batch create would be
      // skipped at run time — dead scenario weight the sweep silently lost.
      const std::uint32_t phase_first_new = total_group_count;
      if (!alive.empty() && rng.next_bool(0.4)) {
        const std::size_t pick = rng.next_below(alive.size());
        phase.reconfig.push_back(
            {MembershipOp::Kind::kRemove, alive[pick], 0, {}});
        alive.erase(alive.begin() + static_cast<long>(pick));
      }
      if (rng.next_bool(options.reconfigure_probability)) {
        phase.reconfig.push_back(
            {MembershipOp::Kind::kCreate, 0, 0,
             random_members(rng, s.num_hosts, s.num_hosts / 2 + 2)});
        alive.push_back(total_group_count++);
      }
      const std::size_t churn =
          rng.next_below(options.max_churn_ops_per_phase + 1);
      for (std::size_t c = 0; c < churn && !alive.empty(); ++c) {
        // Draw order (group, node, kind) is fixed; validation below must
        // not consume draws, or it would reshuffle every later feature.
        std::uint32_t g = alive[rng.next_below(alive.size())];
        const std::uint32_t node =
            static_cast<std::uint32_t>(rng.next_below(s.num_hosts));
        const bool join = rng.next_bool(0.5);
        if (g >= phase_first_new) {
          // The draw landed on this batch's own create: retarget to a
          // pre-batch group (deterministically, no extra draws), or drop
          // the op when none survives.
          std::vector<std::uint32_t> eligible;
          for (const std::uint32_t a : alive) {
            if (a < phase_first_new) eligible.push_back(a);
          }
          if (eligible.empty()) continue;
          g = eligible[g % eligible.size()];
        }
        phase.reconfig.push_back(
            join ? MembershipOp{MembershipOp::Kind::kJoin, g, node, {}}
                 : MembershipOp{MembershipOp::Kind::kLeave, g, node, {}});
      }
    }
    live_group_count = static_cast<std::uint32_t>(alive.size());
    if (live_group_count == 0) {
      // Never run a phase with no groups: recreate one.
      phase.reconfig.push_back(
          {MembershipOp::Kind::kCreate, 0, 0,
           random_members(rng, s.num_hosts, s.num_hosts / 2 + 2)});
      alive.push_back(total_group_count++);
      live_group_count = 1;
    }

    // --- Fault schedule. ---
    const double horizon = options.phase_horizon_ms;
    if (rng.next_bool(options.crash_probability)) {
      const std::size_t windows = 1 + rng.next_below(2);
      for (std::size_t w = 0; w < windows; ++w) {
        CrashWindow crash;
        crash.victim = static_cast<std::uint32_t>(rng.next_below(64));
        crash.start = rng.next_double() * horizon * 0.6;
        crash.duration = 60.0 + rng.next_double() * 240.0;
        phase.crashes.push_back(crash);
      }
    }
    // Terminate at most one group per phase, never the last one standing.
    if (alive.size() >= 2 && rng.next_bool(0.3)) {
      const std::size_t pick = rng.next_below(alive.size());
      TerminationOp fin;
      fin.group = alive[pick];
      fin.at = horizon * (0.3 + rng.next_double() * 0.5);
      fin.initiator_rank = static_cast<std::uint32_t>(rng.next_below(8));
      phase.terminations.push_back(fin);
      alive.erase(alive.begin() + static_cast<long>(pick));
    }

    // --- Traffic script. ---
    const std::size_t publishes =
        5 + rng.next_below(options.max_publishes_per_phase - 4);
    // Groups publishable this phase: alive at the boundary (a terminated
    // group still takes pre-FIN traffic; the runner skips post-FIN ops).
    std::vector<std::uint32_t> targets = alive;
    for (const TerminationOp& fin : phase.terminations) {
      targets.push_back(fin.group);
    }
    std::sort(targets.begin(), targets.end());
    for (std::size_t i = 0; i < publishes; ++i) {
      PublishOp op;
      op.at = rng.next_double() * horizon;
      op.group = targets[rng.next_below(targets.size())];
      op.sender = static_cast<std::uint32_t>(rng.next_below(s.num_hosts));
      op.causal = rng.next_bool(0.2);
      phase.publishes.push_back(op);
    }
    // Deterministic canonical order (stable across generator tweaks, and
    // what the repro format round-trips).
    std::sort(phase.publishes.begin(), phase.publishes.end(),
              [](const PublishOp& a, const PublishOp& b) {
                return a.at < b.at;
              });

    s.phases.push_back(std::move(phase));
  }

  // --- Host-level faults (publisher crashes, cluster partitions). ---
  // Drawn after the whole phase script on purpose: the draws above are
  // untouched, so every pre-existing seed keeps its exact membership /
  // traffic / sequencer-fault content and only *gains* host faults.
  if (rng.next_bool(options.small_budget_probability)) {
    // Tiny enough that a typical crash or partition window outlasts the
    // budget (with rto 40 and backoff, budget k exhausts after roughly
    // 40 * (2^k - 1) ms), so surfaced channel faults actually occur.
    s.max_retransmits = static_cast<std::uint32_t>(1 + rng.next_below(4));
  }
  for (Phase& phase : s.phases) {
    const double horizon = options.phase_horizon_ms;
    if (rng.next_bool(options.publisher_crash_probability)) {
      const std::size_t windows = 1 + rng.next_below(2);
      for (std::size_t w = 0; w < windows; ++w) {
        PublisherCrash crash;
        crash.victim = static_cast<std::uint32_t>(rng.next_below(64));
        crash.start = rng.next_double() * horizon * 0.7;
        crash.duration = 60.0 + rng.next_double() * 300.0;
        phase.publisher_crashes.push_back(crash);
      }
    }
    if (rng.next_bool(options.partition_probability)) {
      PartitionWindow window;
      window.cut_seed = rng();
      window.start = rng.next_double() * horizon * 0.6;
      window.duration = 40.0 + rng.next_double() * 260.0;
      phase.partitions.push_back(window);
    }
  }
  return s;
}

}  // namespace decseq::fuzz
