#include "placement/assignment.h"

#include <algorithm>
#include <cstdint>

namespace decseq::placement {

namespace {

RouterId random_router(const topology::Graph& network, Rng& rng) {
  return RouterId(static_cast<RouterId::underlying_type>(
      rng.next_below(network.num_routers())));
}

/// "Neighboring machine": the router adjacent to `at` over the cheapest
/// link, so consecutive path hops stay one short link apart.
RouterId neighboring_router(const topology::Graph& network, RouterId at) {
  const auto& edges = network.neighbors(at);
  if (edges.empty()) return at;
  const auto best = std::min_element(
      edges.begin(), edges.end(),
      [](const topology::Edge& a, const topology::Edge& b) {
        return a.delay_ms < b.delay_ms;
      });
  return best->to;
}

/// The router to seed a group with members `members` at: `previous`, its
/// ingress router before a live cutover, while a member still attaches
/// there (no RNG draw); otherwise a random member's router.
RouterId member_router(const std::vector<NodeId>& members,
                       const topology::HostMap& hosts, RouterId previous,
                       Rng& rng) {
  DECSEQ_CHECK(!members.empty());
  if (previous.valid() &&
      std::any_of(members.begin(), members.end(), [&](NodeId m) {
        return hosts.router_of(m) == previous;
      })) {
    return previous;
  }
  return hosts.router_of(rng.pick(members));
}

}  // namespace

std::vector<SeqNodeId> seq_node_path(const seqgraph::SequencingGraph& graph,
                                     const Colocation& colocation,
                                     GroupId g) {
  std::vector<SeqNodeId> result;
  seq_node_path(graph, colocation, g, result);
  return result;
}

void seq_node_path(const seqgraph::SequencingGraph& graph,
                   const Colocation& colocation, GroupId g,
                   std::vector<SeqNodeId>& out) {
  out.clear();
  for (const AtomId a : graph.path(g)) {
    const SeqNodeId n = colocation.node_of(a);
    if (out.empty() || out.back() != n) out.push_back(n);
  }
}

Assignment assign_machines(const seqgraph::SequencingGraph& graph,
                           const Colocation& colocation,
                           const membership::GroupMembership& membership,
                           const topology::HostMap& hosts,
                           const topology::Graph& network,
                           const AssignmentOptions& options, Rng& rng) {
  Assignment assignment;
  extend_assignment(assignment, graph, colocation, membership, hosts, network,
                    options, rng, graph.groups(), 0);
  return assignment;
}

void extend_assignment(Assignment& assignment,
                       const seqgraph::SequencingGraph& graph,
                       const Colocation& colocation,
                       const membership::GroupMembership& membership,
                       const topology::HostMap& hosts,
                       const topology::Graph& network,
                       const AssignmentOptions& options, Rng& rng,
                       const std::vector<GroupId>& affected,
                       std::size_t first_new_atom) {
  ExtendScratch scratch;
  extend_assignment(assignment, graph, colocation, membership, hosts, network,
                    options, rng, affected, first_new_atom, scratch);
}

void extend_assignment(Assignment& assignment,
                       const seqgraph::SequencingGraph& graph,
                       const Colocation& colocation,
                       const membership::GroupMembership& membership,
                       const topology::HostMap& hosts,
                       const topology::Graph& network,
                       const AssignmentOptions& options, Rng& rng,
                       const std::vector<GroupId>& affected,
                       std::size_t first_new_atom, ExtendScratch& scratch,
                       std::span<const RouterId> previous_ingress) {
  assignment.resize(colocation.num_nodes());
  const auto previous = [&](GroupId g) {
    return g.value() < previous_ingress.size() ? previous_ingress[g.value()]
                                               : RouterId{};
  };

  // Appended ingress-only sequencing nodes sit at a member's attachment
  // router regardless of mode.
  for (std::size_t i = first_new_atom; i < graph.num_atoms(); ++i) {
    const seqgraph::Atom& atom = graph.atoms()[i];
    if (!atom.is_ingress_only()) continue;
    const SeqNodeId n = colocation.node_of(atom.id);
    if (assignment.assigned(n)) continue;
    assignment.place(n, member_router(membership.members(atom.group_a), hosts,
                                      previous(atom.group_a), rng));
  }

  if (options.mode == AssignmentMode::kAllRandom) {
    for (std::size_t n = 0; n < colocation.num_nodes(); ++n) {
      const SeqNodeId id(static_cast<SeqNodeId::underlying_type>(n));
      if (!assignment.assigned(id)) {
        assignment.place(id, random_router(network, rng));
      }
    }
    return;
  }

  // §3.4 heuristic on behalf of each affected group only; paths of
  // untouched groups are fully assigned already and are not revisited.
  // The reference form is an ascending-scan fixpoint ("place any node whose
  // path neighbor has a machine, next to that machine") repeated until no
  // progress — O(path²) when a long unassigned prefix fills one position
  // per pass. With all path nodes distinct, that fixpoint has a closed
  // form: the prefix before the first assigned position f fills leftward
  // (m[t] = neighbor(m[t+1])), then every unassigned position after f fills
  // in one rightward cascade with the left anchor winning
  // (m[i] = neighbor(m[i-1])), because by the time the ascending scan
  // reaches an unassigned i > f its left neighbor is always live. A node
  // visited twice on a path aliases writes in pass order, so those (rare)
  // paths take the verbatim reference loop instead. Same machines either
  // way; no RNG involved.
  std::vector<std::uint32_t>& node_stamp = scratch.node_stamp;
  if (node_stamp.size() < colocation.num_nodes()) {
    node_stamp.resize(colocation.num_nodes(), 0);
  }
  for (const GroupId g : affected) {
    if (!graph.has_path(g)) continue;  // removed by this reconfiguration
    std::vector<SeqNodeId>& path = scratch.path;
    seq_node_path(graph, colocation, g, path);
    const auto assigned = [&](std::size_t i) {
      return assignment.assigned(path[i]);
    };
    if (std::none_of(path.begin(), path.end(), [&](SeqNodeId n) {
          return assignment.assigned(n);
        })) {
      // No sequencing node of this group is placed yet: place one at
      // "random" — a random machine of the pub/sub infrastructure (a group
      // member's router, the previous ingress router while a member still
      // attaches there) or a uniformly random router, per the seed policy.
      assignment.place(path.front(),
                       options.seed == SeedPolicy::kGroupMember
                           ? member_router(membership.members(g), hosts,
                                           previous(g), rng)
                           : random_router(network, rng));
    }

    // A new stamp forgets the previous path's nodes in O(1).
    if (++scratch.node_gen == 0) {
      std::fill(node_stamp.begin(), node_stamp.end(), 0u);
      scratch.node_gen = 1;
    }
    bool unique_nodes = true;
    for (const SeqNodeId n : path) {
      if (node_stamp[n.value()] == scratch.node_gen) {
        unique_nodes = false;
        break;
      }
      node_stamp[n.value()] = scratch.node_gen;
    }

    if (unique_nodes) {
      std::size_t first = 0;
      while (!assigned(first)) ++first;  // seeded above, so this terminates
      for (std::size_t t = first; t-- > 0;) {
        const RouterId right = assignment.machine_of(path[t + 1]);
        assignment.place(path[t], neighboring_router(network, right));
      }
      for (std::size_t i = first + 1; i < path.size(); ++i) {
        if (assigned(i)) continue;
        const RouterId left = assignment.machine_of(path[i - 1]);
        assignment.place(path[i], neighboring_router(network, left));
      }
    } else {
      // Repeatedly place the unassigned node adjacent (on the path) to an
      // assigned one, next to its neighbor's machine. Every pass assigns at
      // least one node, so this terminates.
      bool progress = true;
      while (progress) {
        progress = false;
        for (std::size_t i = 0; i < path.size(); ++i) {
          if (assigned(i)) continue;
          RouterId anchor{};
          if (i > 0 && assigned(i - 1)) {
            anchor = assignment.machine_of(path[i - 1]);
          } else if (i + 1 < path.size() && assigned(i + 1)) {
            anchor = assignment.machine_of(path[i + 1]);
          }
          if (anchor.valid()) {
            assignment.place(path[i], neighboring_router(network, anchor));
            progress = true;
          }
        }
      }
    }
    // A group's path lies in one co-location component, and we seeded it if
    // empty, so everything is assigned by now.
    for (const SeqNodeId n : path) {
      DECSEQ_CHECK_MSG(assignment.assigned(n),
                       "unassigned sequencing node " << n << " for group "
                                                     << g);
    }
  }
}

}  // namespace decseq::placement
