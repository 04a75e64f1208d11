#include "fuzz/runner.h"

#include <algorithm>
#include <cstddef>
#include <exception>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "pubsub/system.h"
#include "seqgraph/validator.h"

namespace decseq::fuzz {

namespace {

/// Fuzz-scale deployment: the test suite's 66-router transit-stub (an order
/// of magnitude below the experiments'), so a shrink loop re-runs hundreds
/// of candidates in seconds. Channel retransmit budget is sized for crash
/// windows (a down machine eats one retransmission per timeout).
pubsub::SystemConfig scenario_config(const Scenario& s) {
  pubsub::SystemConfig config;
  config.seed = s.system_seed;
  config.topology.transit_domains = 2;
  config.topology.routers_per_transit = 3;
  config.topology.stubs_per_transit_router = 2;
  config.topology.routers_per_stub = 5;
  config.topology.extra_transit_links = 2;
  config.hosts.num_hosts = s.num_hosts;
  config.hosts.num_clusters = std::min<std::size_t>(s.num_clusters, s.num_hosts);
  config.network.channel.loss_probability = s.loss_probability;
  config.network.channel.retransmit_timeout_ms = s.retransmit_timeout_ms;
  config.network.channel.max_retransmits = s.max_retransmits;
  return config;
}

/// Two-sided machine partition derived from a cut seed: machine i lands on
/// side splitmix64(seed + i) & 1 (degenerate all-one-side cuts get machine
/// 0 flipped so the cut is never empty).
std::vector<char> derive_cut(std::uint64_t cut_seed,
                             std::size_t num_machines) {
  std::vector<char> side(num_machines, 0);
  bool mixed = false;
  for (std::size_t i = 0; i < num_machines; ++i) {
    std::uint64_t x = cut_seed + i;
    side[i] = static_cast<char>(splitmix64(x) & 1);
    if (side[i] != side[0]) mixed = true;
  }
  if (!mixed && num_machines >= 2) side[0] = side[0] == 0 ? 1 : 0;
  return side;
}

/// Sorted, deduplicated, in-range member list for a kCreate op; empty means
/// the op is skipped.
std::vector<NodeId> normalize_members(const std::vector<std::uint32_t>& raw,
                                      std::uint32_t num_hosts) {
  std::vector<NodeId> members;
  members.reserve(raw.size());
  for (const std::uint32_t m : raw) {
    if (m < num_hosts) members.push_back(NodeId(m));
  }
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  return members;
}

void execute(const Scenario& s, const RunnerOptions& options,
             RunTrace& trace) {
  pubsub::PubSubSystem system(scenario_config(s));
  sim::Simulator& sim = system.simulator();

  const std::size_t total_groups = s.num_groups();
  // Scenario group index -> live GroupId (invalid once removed / cleaned up).
  std::vector<GroupId> group_ids(total_groups);
  // Scenario groups whose FIN actually fired: membership cleanup is due at
  // the next epoch boundary (§3.2's lazy removal — the graph rebuild must
  // not resurrect a closed sequence space).
  std::vector<char> fin_fired(total_groups, 0);
  std::uint32_t next_group_index = 0;
  std::uint32_t next_ordinal = 0;

  const auto alive = [&](std::uint32_t g) {
    return g < total_groups && group_ids[g].valid() &&
           system.membership().is_alive(group_ids[g]);
  };

  // Distinct atom sequences observed across every epoch's compiled graph
  // (the diversity metric in RunTrace). Raw atom-id sequences: within an
  // epoch two groups sharing a path collapse, and across epochs a delta
  // rebuild that leaves a group's path untouched adds nothing new.
  std::set<std::vector<std::uint32_t>> atom_paths;

  for (std::size_t p = 0; p < s.phases.size(); ++p) {
    const Phase& phase = s.phases[p];

    // --- Membership batch at the epoch boundary. ---
    std::vector<pubsub::PubSubSystem::MembershipChange> batch;
    for (std::uint32_t g = 0; g < total_groups; ++g) {
      if (fin_fired[g] && alive(g)) {
        batch.push_back(
            pubsub::PubSubSystem::MembershipChange::remove(group_ids[g]));
        group_ids[g] = GroupId();
      }
    }
    // kCreate ops claim scenario indices in traversal order; remember which
    // ones actually ran so reconfigure()'s returned ids line up. A skipped
    // op is recorded: the generator validates its batches, so for generated
    // scenarios this list staying empty is itself a tested property.
    const auto skip = [&trace, p](const MembershipOp& op, const char* why) {
      std::ostringstream entry;
      entry << "phase " << p << ": ";
      switch (op.kind) {
        case MembershipOp::Kind::kCreate: entry << "create"; break;
        case MembershipOp::Kind::kRemove: entry << "remove g" << op.group;
          break;
        case MembershipOp::Kind::kJoin:
          entry << "join g" << op.group << " n" << op.node;
          break;
        case MembershipOp::Kind::kLeave:
          entry << "leave g" << op.group << " n" << op.node;
          break;
      }
      entry << " (" << why << ")";
      trace.skipped_membership_ops.push_back(entry.str());
    };
    std::vector<std::uint32_t> created_indices;
    // Effective member sets for groups touched earlier in this batch:
    // reconfigure() applies ops sequentially, so validating each op
    // against the pre-batch membership alone would let a duplicated
    // join/leave pair both pass and the second CHECK-fail mid-batch.
    std::map<std::uint32_t, std::set<unsigned>> batch_members;
    const auto effective_members =
        [&](std::uint32_t g) -> std::set<unsigned>& {
      auto it = batch_members.find(g);
      if (it == batch_members.end()) {
        std::set<unsigned> members;
        for (const NodeId n : system.membership().members(group_ids[g])) {
          members.insert(n.value());
        }
        it = batch_members.emplace(g, std::move(members)).first;
      }
      return it->second;
    };
    for (const MembershipOp& op : phase.reconfig) {
      switch (op.kind) {
        case MembershipOp::Kind::kCreate: {
          const std::uint32_t index = next_group_index++;
          auto members = normalize_members(op.members, s.num_hosts);
          if (members.empty()) {  // index stays claimed, id invalid
            skip(op, "no in-range members");
            break;
          }
          created_indices.push_back(index);
          batch.push_back(pubsub::PubSubSystem::MembershipChange::create(
              std::move(members)));
          break;
        }
        case MembershipOp::Kind::kRemove:
          if (alive(op.group)) {
            batch.push_back(pubsub::PubSubSystem::MembershipChange::remove(
                group_ids[op.group]));
            group_ids[op.group] = GroupId();
          } else {
            skip(op, "group not alive");
          }
          break;
        case MembershipOp::Kind::kJoin:
          if (!alive(op.group) || op.node >= s.num_hosts) {
            skip(op, !alive(op.group) ? "group not alive"
                                      : "node out of range");
            break;
          }
          if (std::set<unsigned>& members = effective_members(op.group);
              members.insert(op.node).second) {
            batch.push_back(pubsub::PubSubSystem::MembershipChange::join(
                group_ids[op.group], NodeId(op.node)));
          } else {
            skip(op, "already a member");
          }
          break;
        case MembershipOp::Kind::kLeave:
          if (!alive(op.group) || op.node >= s.num_hosts) {
            skip(op, !alive(op.group) ? "group not alive"
                                      : "node out of range");
            break;
          }
          // Never leave down to an empty group: implicit group death would
          // make later ops' meaning depend on op order in surprising ways.
          if (std::set<unsigned>& members = effective_members(op.group);
              members.contains(op.node) && members.size() > 1) {
            members.erase(op.node);
            batch.push_back(pubsub::PubSubSystem::MembershipChange::leave(
                group_ids[op.group], NodeId(op.node)));
          } else {
            skip(op, !effective_members(op.group).contains(op.node)
                         ? "not a member"
                         : "would empty the group");
          }
          break;
      }
    }
    const std::vector<GroupId> created = system.reconfigure(std::move(batch));
    DECSEQ_CHECK(created.size() == created_indices.size());
    for (std::size_t i = 0; i < created.size(); ++i) {
      group_ids[created_indices[i]] = created[i];
    }

    for (const GroupId g : system.graph().groups()) {
      const std::vector<AtomId>& path = system.graph().path(g);
      std::vector<std::uint32_t> key;
      key.reserve(path.size());
      for (const AtomId a : path) key.push_back(a.value());
      atom_paths.insert(std::move(key));
    }
    // Updated per epoch so a run that throws mid-scenario still reports the
    // diversity it reached.
    trace.distinct_atom_paths = atom_paths.size();

    if (options.validate_graphs) {
      const seqgraph::ValidationReport report =
          seqgraph::validate_sequencing_graph(
              system.graph(), system.membership(), system.overlaps());
      for (const std::string& error : report.errors) {
        trace.graph_errors.push_back("epoch " + std::to_string(p) + ": " +
                                     error);
      }
    }

    const sim::Time base = sim.now();

    // --- Fault schedule. ---
    // Storage is sized before any event is scheduled: callbacks capture
    // element addresses.
    const std::size_t num_machines = system.colocation().num_nodes();
    std::vector<char> machine_down(std::max<std::size_t>(num_machines, 1), 0);
    std::vector<char> window_active(phase.crashes.size(), 0);
    for (std::size_t w = 0; w < phase.crashes.size(); ++w) {
      if (num_machines == 0) break;
      const CrashWindow& crash = phase.crashes[w];
      const SeqNodeId victim(crash.victim %
                             static_cast<std::uint32_t>(num_machines));
      char* down = &machine_down[victim.value()];
      char* active = &window_active[w];
      sim.schedule_at(base + crash.start, [&system, victim, down, active] {
        if (*down) return;  // another window already holds this machine
        system.fail_sequencing_node(victim);
        *down = 1;
        *active = 1;
      });
      sim.schedule_at(base + crash.start + crash.duration,
                      [&system, victim, down, active] {
                        if (!*active) return;
                        system.recover_sequencing_node(victim);
                        *down = 0;
                        *active = 0;
                      });
    }

    // Publisher crashes: same overlapping-window discipline as machine
    // crashes, per host.
    std::vector<char> host_down(std::max<std::uint32_t>(s.num_hosts, 1), 0);
    std::vector<char> pub_window_active(phase.publisher_crashes.size(), 0);
    // Hosts any publisher-crash window targets this phase: their publishes
    // may legally fail ingress, and causal publishes degrade to plain ones
    // (a causal chain owned by a crashing host would wedge behind its own
    // failed head — a harness artifact, not a protocol behavior).
    std::unordered_set<std::uint32_t> crash_senders;
    for (std::size_t w = 0; w < phase.publisher_crashes.size(); ++w) {
      const PublisherCrash& crash = phase.publisher_crashes[w];
      const NodeId victim(crash.victim % s.num_hosts);
      crash_senders.insert(victim.value());
      char* down = &host_down[victim.value()];
      char* active = &pub_window_active[w];
      sim.schedule_at(base + crash.start, [&system, victim, down, active] {
        if (*down) return;
        system.fail_publisher(victim);
        *down = 1;
        *active = 1;
      });
      sim.schedule_at(base + crash.start + crash.duration,
                      [&system, victim, down, active] {
                        if (!*active) return;
                        system.recover_publisher(victim);
                        *down = 0;
                        *active = 0;
                      });
    }

    // Cluster partitions: sever the channels crossing a seed-derived
    // machine cut, heal them when the window closes. Each window owns
    // exactly the edges it severed (a concurrently-down edge is skipped),
    // so overlapping windows compose. Storage is sized up front — the
    // recovery callback reads its window's severed-edge list by address.
    std::vector<std::vector<std::pair<AtomId, AtomId>>> severed_edges(
        phase.partitions.size());
    for (std::size_t w = 0; w < phase.partitions.size(); ++w) {
      if (num_machines < 2) break;  // nothing to cut
      const PartitionWindow& window = phase.partitions[w];
      auto* severed = &severed_edges[w];
      sim.schedule_at(base + window.start,
                      [&system, severed, cut_seed = window.cut_seed,
                       num_machines] {
                        *severed = system.network_mutable().sever_node_cut(
                            derive_cut(cut_seed, num_machines));
                      });
      sim.schedule_at(base + window.start + window.duration,
                      [&system, severed] {
                        for (const auto& [from, to] : *severed) {
                          system.network_mutable().recover_link(from, to);
                        }
                        severed->clear();
                      });
    }

    // Scenario groups with a FIN scheduled this phase: their publishes may
    // legally lose the race against the FIN, and causal publishes degrade
    // to plain ones (a queued causal publish released after the FIN would
    // be a harness artifact, not a protocol behavior).
    std::unordered_set<std::uint32_t> fin_this_phase;
    for (const TerminationOp& fin : phase.terminations) {
      fin_this_phase.insert(fin.group);
      sim.schedule_at(base + fin.at, [&system, &group_ids, &fin_fired, &alive,
                                      fin] {
        if (!alive(fin.group)) return;
        const GroupId gid = group_ids[fin.group];
        if (system.network().group_terminated(gid)) return;
        const auto& members = system.membership().members(gid);
        const NodeId initiator = members[fin.initiator_rank % members.size()];
        // A crashed host cannot initiate a termination; the FIN is skipped
        // (deterministically) rather than faked from a dead publisher.
        if (system.network().publisher_failed(initiator)) return;
        system.terminate_group(gid, initiator);
        fin_fired[fin.group] = 1;
      });
    }

    // --- Traffic script. ---
    // (record index, message id) of this phase's plain publishes, for the
    // post-drain rejected-flag sweep.
    std::vector<std::pair<std::size_t, MsgId>> plain_ids;
    for (const PublishOp& op : phase.publishes) {
      const bool fin_race = fin_this_phase.contains(op.group);
      const bool crash_sender =
          crash_senders.contains(op.sender % s.num_hosts);
      sim.schedule_at(
          base + op.at,
          [&system, &group_ids, &alive, &trace, &next_ordinal, &plain_ids, op,
           fin_race, crash_sender, num_hosts = s.num_hosts] {
            if (!alive(op.group)) return;
            const GroupId gid = group_ids[op.group];
            if (system.network().group_terminated(gid)) return;  // post-FIN
            const NodeId sender(op.sender % num_hosts);
            const bool causal = op.causal && !fin_race && !crash_sender &&
                                system.membership().is_member(gid, sender);
            PublishRecord record;
            record.ordinal = next_ordinal++;
            record.payload = record.ordinal |
                             (causal ? kCausalPayloadBit : std::uint64_t{0});
            record.sender = sender.value();
            record.group_index = op.group;
            record.causal = causal;
            record.fin_race_allowed = fin_race;
            record.ingress_failure_allowed = crash_sender;
            record.expected_receivers = system.membership().members(gid);
            if (causal) {
              system.publish_causal(sender, gid, record.payload);
            } else {
              record.id = system.publish(sender, gid, record.payload);
              plain_ids.emplace_back(trace.publishes.size(), record.id);
            }
            trace.publishes.push_back(std::move(record));
          });
    }

    system.run();

    for (const auto& [index, id] : plain_ids) {
      const protocol::MessageRecord& rec = system.record(id);
      trace.publishes[index].rejected = rec.rejected;
      trace.publishes[index].ingress_failed = rec.ingress_failed;
      trace.publishes[index].ingress_retried = rec.ingress_retries > 0;
    }
    trace.buffered_after_phase.push_back(
        system.network().buffered_at_receivers());
    // Channel-fault bookkeeping for this epoch (the network — and its
    // fault log — is rebuilt at the next boundary).
    trace.channel_fault_events += system.network().channel_faults().size();
    for (const auto& [from, to] : system.network().faulted_edges()) {
      std::ostringstream edge;
      edge << "phase " << p << ": " << from << "->" << to;
      trace.stuck_channel_faults.push_back(edge.str());
    }
  }

  trace.log = system.deliveries();
}

}  // namespace

RunTrace run_scenario(const Scenario& scenario, const RunnerOptions& options) {
  RunTrace trace;
  trace.scenario = &scenario;
  try {
    execute(scenario, options, trace);
  } catch (const std::exception& e) {
    trace.threw = true;
    trace.exception_what = e.what();
  }
  return trace;
}

}  // namespace decseq::fuzz
