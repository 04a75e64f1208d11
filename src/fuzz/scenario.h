// Declarative fuzz scenarios for the ordering protocol.
//
// A Scenario is a complete, self-contained description of one adversarial
// end-to-end run: the deployment (seed-derived topology and host count),
// the membership script (groups created, joined, left, and removed across
// phases), the traffic script (timed plain and causal publishes), and the
// fault schedule (channel loss, sequencer crash windows, group
// terminations). Everything is plain data — no callbacks, no pointers — so
// a scenario can be generated from a 64-bit seed, mutated by the shrinker,
// serialized to a .repro file, and re-executed bit-identically.
//
// Time is phase-local: each phase schedules its operations relative to the
// simulated time at which the phase starts, runs the simulator dry, and
// then applies the next phase's membership batch at the epoch boundary
// (PubSubSystem::reconfigure's drain-first semantics). A crash window whose
// recovery lands inside the drain therefore races the next reconfiguration
// — the schedule the paper's static-membership evaluation never exercises.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace decseq::fuzz {

/// One timed publish. `group` is a scenario-level group index: the n-th
/// kCreate op across all phases creates group index n. `causal` publishes
/// go through PubSubSystem::publish_causal when the sender subscribes to
/// the group (and degrade to plain publishes otherwise, deterministically).
struct PublishOp {
  double at = 0.0;  ///< phase-relative simulated time (ms)
  std::uint32_t sender = 0;
  std::uint32_t group = 0;
  bool causal = false;

  friend bool operator==(const PublishOp&, const PublishOp&) = default;
};

/// Fail-stop one sequencing machine for [start, start + duration). The
/// victim index is reduced modulo the epoch's machine count at run time, so
/// the op stays valid across membership changes and shrinking.
struct CrashWindow {
  std::uint32_t victim = 0;
  double start = 0.0;
  double duration = 0.0;

  friend bool operator==(const CrashWindow&, const CrashWindow&) = default;
};

/// Fail-stop one publisher host for [start, start + duration): while down
/// it publishes nothing (its scripted publishes record an ingress failure
/// instead of entering the network) and any ingress retry loop it was
/// driving is abandoned. The victim index is reduced modulo num_hosts at
/// run time.
struct PublisherCrash {
  std::uint32_t victim = 0;
  double start = 0.0;
  double duration = 0.0;

  friend bool operator==(const PublisherCrash&, const PublisherCrash&) =
      default;
};

/// Partition the sequencing machines into two sides for
/// [start, start + duration): every inter-sequencer channel crossing the
/// cut is severed (arrival-time semantics — in-flight traffic dies inside
/// the window) and healed at the end. The cut itself is derived
/// deterministically from `cut_seed` and the epoch's machine count at run
/// time, so the op survives membership changes and shrinking.
struct PartitionWindow {
  std::uint64_t cut_seed = 0;
  double start = 0.0;
  double duration = 0.0;

  friend bool operator==(const PartitionWindow&, const PartitionWindow&) =
      default;
};

/// Close a group's sequence space mid-run (the §3.2 FIN). The initiator is
/// picked by rank among the group's current members (mod size), so the op
/// survives membership shrinking.
struct TerminationOp {
  std::uint32_t group = 0;
  double at = 0.0;
  std::uint32_t initiator_rank = 0;

  friend bool operator==(const TerminationOp&, const TerminationOp&) = default;
};

/// One membership change applied at a phase boundary (inside one
/// PubSubSystem::reconfigure batch).
struct MembershipOp {
  enum class Kind : std::uint8_t { kCreate, kRemove, kJoin, kLeave };
  Kind kind = Kind::kCreate;
  std::uint32_t group = 0;             ///< scenario group index (not kCreate)
  std::uint32_t node = 0;              ///< for kJoin / kLeave
  std::vector<std::uint32_t> members;  ///< for kCreate

  friend bool operator==(const MembershipOp&, const MembershipOp&) = default;
};

/// One epoch: a membership batch applied at its start, then concurrent
/// traffic and faults, then a drain.
struct Phase {
  std::vector<MembershipOp> reconfig;
  std::vector<PublishOp> publishes;
  std::vector<CrashWindow> crashes;
  std::vector<PublisherCrash> publisher_crashes;
  std::vector<PartitionWindow> partitions;
  std::vector<TerminationOp> terminations;

  friend bool operator==(const Phase&, const Phase&) = default;
};

struct Scenario {
  /// Seed for the deployment (topology, host attachment, placement
  /// tie-breaks, channel loss draws) — not for the script, which is
  /// explicit data.
  std::uint64_t system_seed = 1;
  std::uint32_t num_hosts = 12;
  std::uint32_t num_clusters = 4;
  double loss_probability = 0.0;
  double retransmit_timeout_ms = 40.0;
  /// Channel retransmission budget before a fault is surfaced (and the
  /// ingress-retry backoff ceiling's base). The default matches the
  /// pre-budget repro format; the generator sometimes dials it far down so
  /// ordinary crash windows outlast it and exercise the fault path.
  std::uint32_t max_retransmits = 5000;

  std::vector<Phase> phases;

  friend bool operator==(const Scenario&, const Scenario&) = default;

  /// Total kCreate ops across all phases == number of scenario group
  /// indices in use.
  [[nodiscard]] std::size_t num_groups() const;
  /// Total publish ops across all phases.
  [[nodiscard]] std::size_t num_publishes() const;
  /// Total crash windows across all phases.
  [[nodiscard]] std::size_t num_crashes() const;
  /// Total host-level fault windows (publisher crashes + partitions).
  [[nodiscard]] std::size_t num_host_faults() const;
  /// One-line feature summary ("3 phases, 6 groups, 42 pubs, ...") for
  /// driver output and corpus bookkeeping.
  [[nodiscard]] std::string summary() const;
};

/// Knobs for generate_scenario. Defaults produce small worlds (8–16 hosts,
/// a handful of groups, tens of publishes) — big enough to hit overlap
/// structure, small enough that a shrink loop re-runs hundreds of
/// candidates in seconds.
struct GeneratorOptions {
  std::uint32_t min_hosts = 8;
  std::uint32_t max_hosts = 16;
  std::uint32_t max_phases = 3;
  std::uint32_t max_initial_groups = 6;
  std::uint32_t max_publishes_per_phase = 30;
  double max_loss = 0.25;
  double phase_horizon_ms = 500.0;
  /// Chance a phase gets sequencer crash windows.
  double crash_probability = 0.4;
  /// Chance a phase gets publisher-crash windows (host-level fault).
  double publisher_crash_probability = 0.3;
  /// Chance a phase gets a cluster-partition window (host-level fault).
  double partition_probability = 0.25;
  /// Chance the scenario runs with a tiny channel retransmission budget,
  /// so ordinary crash/partition windows outlast it and the surfaced
  /// channel-fault path (not just the happy retransmit path) is exercised.
  double small_budget_probability = 0.25;
  /// Chance a churn phase creates a new group at its boundary. The hostile
  /// sweep's --churn mode cranks this (and the churn-op cap below) so most
  /// phases reconfigure.
  double reconfigure_probability = 0.6;
  /// Per churn phase, up to this many join/leave ops at the boundary.
  std::uint32_t max_churn_ops_per_phase = 2;
};

/// The knobs of fuzz_driver's sweep modes, shared with the tests that
/// replay them: `hostile` cranks every fault kind, `churn` cranks
/// reconfiguration pressure, and the two compose. Both false gives the
/// defaults.
[[nodiscard]] GeneratorOptions sweep_options(bool hostile, bool churn);

/// Deterministically derive a scenario from a 64-bit seed: same seed, same
/// scenario, byte for byte. Fault features (loss, crashes, terminations,
/// reconfigurations) are dialed in probabilistically so the sweep covers
/// both quiet and hostile schedules.
[[nodiscard]] Scenario generate_scenario(std::uint64_t seed,
                                         const GeneratorOptions& options = {});

}  // namespace decseq::fuzz
