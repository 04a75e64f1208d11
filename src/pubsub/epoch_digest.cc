#include "pubsub/epoch_digest.h"

#include "common/fnv1a.h"
#include "pubsub/system.h"

namespace decseq::pubsub {

namespace {

template <typename Ids>
std::uint64_t fold_ids(std::uint64_t h, const Ids& ids) {
  h = fnv1a_word(h, ids.size());
  for (const auto id : ids) h = fnv1a_word(h, id.value());
  return h;
}

GroupId slot_group(std::size_t slot) {
  return GroupId(static_cast<GroupId::underlying_type>(slot));
}

}  // namespace

std::uint64_t fold_overlaps(std::uint64_t h,
                            const membership::OverlapIndex& overlaps,
                            const membership::GroupMembership& membership) {
  h = fnv1a_word(h, overlaps.num_overlaps());
  for (const membership::Overlap& o : overlaps.overlaps()) {
    h = fnv1a_word(h, o.first.value());
    h = fnv1a_word(h, o.second.value());
    h = fold_ids(h, o.members);
  }
  h = fnv1a_word(h, overlaps.components().size());
  for (const auto& component : overlaps.components()) {
    h = fold_ids(h, component);
  }
  for (std::size_t s = 0; s < membership.num_group_slots(); ++s) {
    const auto& of_group = overlaps.overlaps_of(slot_group(s));
    h = fnv1a_word(h, of_group.size());
    for (const std::size_t i : of_group) h = fnv1a_word(h, i);
    h = fnv1a_word(h, overlaps.component_of(slot_group(s)));
  }
  return h;
}

std::uint64_t fold_labels(std::uint64_t h,
                          const std::vector<std::size_t>& labels) {
  h = fnv1a_word(h, labels.size());
  for (const std::size_t label : labels) h = fnv1a_word(h, label);
  return h;
}

std::uint64_t fold_graph(std::uint64_t h,
                         const seqgraph::SequencingGraph& graph,
                         const membership::GroupMembership& membership) {
  h = fnv1a_word(h, graph.num_atoms());
  for (const seqgraph::Atom& atom : graph.atoms()) {
    h = fnv1a_word(h, atom.id.value());
    h = fnv1a_word(h, atom.group_a.value());
    h = fnv1a_word(h, atom.group_b.value());
    h = fnv1a_word(h, atom.overlap_index);
    h = fold_ids(h, atom.overlap_members);
    h = fnv1a_word(h, graph.is_retired(atom.id) ? 1 : 0);
    h = fold_ids(h, graph.tree_neighbors(atom.id));
  }
  for (std::size_t s = 0; s < membership.num_group_slots(); ++s) {
    if (graph.has_path(slot_group(s))) {
      h = fold_ids(h, graph.path(slot_group(s)));
    } else {
      h = fnv1a_word(h, 0);
    }
  }
  h = fnv1a_word(h, graph.num_overlap_atoms());
  h = fnv1a_word(h, graph.num_retired_atoms());
  h = fnv1a_word(h, graph.tree_components());
  return fnv1a_word(h, graph.chain_components());
}

std::uint64_t fold_delta_stats(std::uint64_t h,
                               const seqgraph::DeltaBuildStats& stats) {
  h = fold_ids(h, stats.affected_groups);
  h = fnv1a_word(h, stats.components_relaid);
  h = fnv1a_word(h, stats.components_copied);
  h = fnv1a_word(h, stats.atoms_created);
  return fnv1a_word(h, stats.atoms_retired);
}

std::uint64_t fold_colocation(std::uint64_t h,
                              const seqgraph::SequencingGraph& graph,
                              const placement::Colocation& colocation) {
  h = fnv1a_word(h, colocation.num_nodes());
  for (const seqgraph::Atom& atom : graph.atoms()) {
    h = fnv1a_word(h, colocation.node_of(atom.id).value());
  }
  return h;
}

std::uint64_t fold_assignment(std::uint64_t h,
                              const placement::Assignment& assignment) {
  h = fnv1a_word(h, assignment.num_nodes());
  for (std::size_t n = 0; n < assignment.num_nodes(); ++n) {
    const SeqNodeId node(static_cast<SeqNodeId::underlying_type>(n));
    h = fnv1a_word(h, assignment.assigned(node)
                          ? assignment.machine_of(node).value()
                          : RouterId::kInvalid);
  }
  return h;
}

std::uint64_t epoch_digest(const membership::GroupMembership& membership,
                           const membership::OverlapIndex& overlaps,
                           const std::vector<std::size_t>* labels,
                           const seqgraph::SequencingGraph& graph,
                           const placement::Colocation& colocation,
                           const placement::Assignment& assignment) {
  std::uint64_t h = fold_overlaps(kFnvOffsetBasis, overlaps, membership);
  if (labels != nullptr) h = fold_labels(h, *labels);
  h = fold_graph(h, graph, membership);
  h = fold_colocation(h, graph, colocation);
  return fold_assignment(h, assignment);
}

std::uint64_t epoch_digest(const PubSubSystem& system) {
  return epoch_digest(system.membership(), system.overlaps(), nullptr,
                      system.graph(), system.colocation(),
                      system.assignment());
}

}  // namespace decseq::pubsub
