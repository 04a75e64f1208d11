// Sequencing-node -> physical-machine assignment (paper §3.4, last part).
//
// The paper's heuristic runs on behalf of each group: if none of the
// group's sequencing nodes is mapped yet, one is placed on a random machine;
// otherwise the unassigned sequencing node closest on the group's path to an
// assigned one is placed on a machine neighboring the assigned one's. This
// keeps consecutive path hops short without global optimization.
#pragma once

#include <span>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "membership/membership.h"
#include "placement/colocation.h"
#include "seqgraph/graph.h"
#include "topology/hosts.h"

namespace decseq::placement {

enum class AssignmentMode {
  kPaperHeuristic,  ///< §3.4 per-group proximity heuristic
  kAllRandom,       ///< every sequencing node on a random router (the
                    ///< "randomly scattering" strawman §3.4 argues against)
};

/// Where the heuristic's first ("assign one at random") sequencing node of
/// a group lands.
enum class SeedPolicy {
  /// At the attachment router of a random member of the group — the
  /// sequencing overlay stays inside the pub/sub infrastructure, which is
  /// what keeps the paper's Fig 3 stretch in the 2–8 range.
  kGroupMember,
  /// At a uniformly random router (ablation; strands chains far from all
  /// subscribers and inflates stretch by an order of magnitude).
  kRandomRouter,
};

struct AssignmentOptions {
  AssignmentMode mode = AssignmentMode::kPaperHeuristic;
  SeedPolicy seed = SeedPolicy::kGroupMember;
};

/// Machines (routers) hosting each sequencing node.
class Assignment {
 public:
  /// No sequencing nodes: the assignment a full pass extends.
  Assignment() = default;
  explicit Assignment(std::vector<RouterId> machine_of_node)
      : machine_of_node_(std::move(machine_of_node)) {}

  [[nodiscard]] RouterId machine_of(SeqNodeId node) const {
    DECSEQ_CHECK(node.valid() && node.value() < machine_of_node_.size());
    DECSEQ_CHECK_MSG(machine_of_node_[node.value()].valid(),
                     "sequencing node " << node << " unassigned");
    return machine_of_node_[node.value()];
  }

  [[nodiscard]] std::size_t num_nodes() const {
    return machine_of_node_.size();
  }

  /// Extension support: grow to `n` sequencing nodes, the new ones
  /// unassigned (extend_assignment fills them in).
  void resize(std::size_t n) {
    if (n > machine_of_node_.size()) machine_of_node_.resize(n, RouterId{});
  }
  [[nodiscard]] bool assigned(SeqNodeId node) const {
    return node.valid() && node.value() < machine_of_node_.size() &&
           machine_of_node_[node.value()].valid();
  }
  void place(SeqNodeId node, RouterId machine) {
    DECSEQ_CHECK(node.valid() && node.value() < machine_of_node_.size());
    DECSEQ_CHECK(machine.valid());
    machine_of_node_[node.value()] = machine;
  }

 private:
  std::vector<RouterId> machine_of_node_;
};

/// Map every sequencing node to a router: extend_assignment of an empty
/// Assignment from atom 0 on behalf of every group with a path. Ingress-only
/// sequencing nodes are placed at the attachment router of a random member
/// of their group (the "elect a member as per-group sequencer" baseline
/// from the introduction).
[[nodiscard]] Assignment assign_machines(
    const seqgraph::SequencingGraph& graph, const Colocation& colocation,
    const membership::GroupMembership& membership,
    const topology::HostMap& hosts, const topology::Graph& network,
    const AssignmentOptions& options, Rng& rng);

/// Distinct sequencing nodes visited, in order, by messages of group g
/// (consecutive duplicates collapsed — atoms on the same machine cost no
/// network hop).
[[nodiscard]] std::vector<SeqNodeId> seq_node_path(
    const seqgraph::SequencingGraph& graph, const Colocation& colocation,
    GroupId g);
/// The same path, written over `out`.
void seq_node_path(const seqgraph::SequencingGraph& graph,
                   const Colocation& colocation, GroupId g,
                   std::vector<SeqNodeId>& out);

/// Extend `assignment` in place after a delta graph rebuild: the sequencing
/// nodes Colocation::extend appended for atoms >= `first_new_atom` get
/// machines via the §3.4 per-group heuristic, run only on behalf of the
/// `affected` groups. Already-assigned nodes are never moved — old-epoch
/// traffic keeps draining where it was. A group seeded afresh is seeded at
/// a random member's router (SeedPolicy), as is an appended ingress-only
/// node.
void extend_assignment(Assignment& assignment,
                       const seqgraph::SequencingGraph& graph,
                       const Colocation& colocation,
                       const membership::GroupMembership& membership,
                       const topology::HostMap& hosts,
                       const topology::Graph& network,
                       const AssignmentOptions& options, Rng& rng,
                       const std::vector<GroupId>& affected,
                       std::size_t first_new_atom);
/// The same extension, building each group's path in `scratch`, for a live
/// cutover that keeps ingress machines. `previous_ingress[g]`, if valid, is
/// group g's ingress router in the epoch being replaced. A group seeded
/// afresh under SeedPolicy::kGroupMember, or an appended ingress-only node
/// of g, goes back to that router while a current member of g still
/// attaches there, with no RNG draw: publishes already on their ingress
/// leg then land at the new ingress machine and are sequenced on arrival.
/// Otherwise it takes a random member's router, as above. A full build has
/// no previous epoch and passes none.
void extend_assignment(Assignment& assignment,
                       const seqgraph::SequencingGraph& graph,
                       const Colocation& colocation,
                       const membership::GroupMembership& membership,
                       const topology::HostMap& hosts,
                       const topology::Graph& network,
                       const AssignmentOptions& options, Rng& rng,
                       const std::vector<GroupId>& affected,
                       std::size_t first_new_atom, ExtendScratch& scratch,
                       std::span<const RouterId> previous_ingress = {});

}  // namespace decseq::placement
