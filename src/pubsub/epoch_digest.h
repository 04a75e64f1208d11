// Canonical digest of a compiled epoch (paper §3.2–3.4): the double
// overlaps, their co-location labels, the sequencing graph, each atom's
// sequencing node and each node's machine, folded into one 64-bit FNV-1a
// (common/fnv1a.h). A golden check records the digest of the builders'
// output once and compares every later build with that value.
//
// Only integers enter the digest (ids, counts, indices and flags, each as
// eight little-endian bytes), so it reads the same under any compiler,
// optimisation level or thread count. Each layer has its own fold, so a
// check folds exactly the layers it pins; the folds below, in the order
// epoch_digest() chains them, are the canonical form, and changing any of
// them moves every recorded digest. The machines fix each group's ingress
// router (the machine of its path's first atom's node), so the router has
// no entry of its own.
#pragma once

#include <cstdint>
#include <vector>

#include "membership/membership.h"
#include "membership/overlap.h"
#include "placement/assignment.h"
#include "placement/colocation.h"
#include "seqgraph/graph.h"

namespace decseq::pubsub {

class PubSubSystem;

/// The overlap layer: the overlap count, then each overlap's pair, member
/// count and members; the component count, then each component's size and
/// groups; then, for each group slot of `membership`, the indices of its
/// overlaps and its component (SIZE_MAX for none).
[[nodiscard]] std::uint64_t fold_overlaps(
    std::uint64_t h, const membership::OverlapIndex& overlaps,
    const membership::GroupMembership& membership);

/// Co-location labels (placement::colocate_overlaps): the count, then each
/// overlap's label.
[[nodiscard]] std::uint64_t fold_labels(std::uint64_t h,
                                        const std::vector<std::size_t>& labels);

/// The sequencing graph: the atom count, then each atom's id, groups
/// (kInvalid for an ingress-only atom's second), overlap index, member
/// count and members, retired flag, and tree-neighbour count and
/// neighbours; then, for each group slot of `membership`, its path length
/// (0 for no path) and atoms; then the overlap-atom, retired-atom,
/// tree-component and chain-component counts.
[[nodiscard]] std::uint64_t fold_graph(
    std::uint64_t h, const seqgraph::SequencingGraph& graph,
    const membership::GroupMembership& membership);

/// One delta build's telemetry: the affected-group count and groups, then
/// the relaid, copied, created and retired counts.
[[nodiscard]] std::uint64_t fold_delta_stats(
    std::uint64_t h, const seqgraph::DeltaBuildStats& stats);

/// The atom -> sequencing-node map: the node count, then each of the
/// graph's atoms' node.
[[nodiscard]] std::uint64_t fold_colocation(
    std::uint64_t h, const seqgraph::SequencingGraph& graph,
    const placement::Colocation& colocation);

/// The node -> machine map: the node count, then each node's router
/// (kInvalid for a node not yet placed).
[[nodiscard]] std::uint64_t fold_assignment(
    std::uint64_t h, const placement::Assignment& assignment);

/// A whole epoch from the offset basis: overlaps, labels (when given),
/// graph, colocation, assignment.
[[nodiscard]] std::uint64_t epoch_digest(
    const membership::GroupMembership& membership,
    const membership::OverlapIndex& overlaps,
    const std::vector<std::size_t>* labels,
    const seqgraph::SequencingGraph& graph,
    const placement::Colocation& colocation,
    const placement::Assignment& assignment);

/// The epoch `system` runs now. The facade keeps no labels, so none are
/// folded; its colocation carries them.
[[nodiscard]] std::uint64_t epoch_digest(const PubSubSystem& system);

}  // namespace decseq::pubsub
