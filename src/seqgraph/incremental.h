// Incremental sequencing-graph maintenance (paper §3.2).
//
// Subscription changes map to group add/remove/modify. The paper notes that
// C2 is hard to maintain with local information only, and that a global
// picture of the subscription matrix is used to find a new arrangement. By
// default this manager now maintains that picture *incrementally*: each
// change recomputes only the overlaps incident to the changed group
// (OverlapIndex's delta constructor) and re-lays only the overlap
// components the change actually touched (build_sequencing_graph_delta),
// preserving every other group's path — and AtomIds — verbatim. The global
// recompute is the same two builders run from the empty epoch with every
// live group dirty; it serves as the fallback (incremental=false) and as
// the compaction step once retired atoms outnumber live ones.
// ChangeStats reports how much of the graph actually changed (atoms
// created/retired, groups whose paths moved), which the churn bench uses to
// quantify the disruption of membership dynamics (the paper's §5
// future-work question).
#pragma once

#include <cstddef>
#include <vector>

#include "membership/membership.h"
#include "membership/overlap.h"
#include "seqgraph/graph.h"

namespace decseq::seqgraph {

/// How much one membership operation perturbed the sequencing graph. The
/// counts are mode-independent: the delta path computes them from the
/// affected region only, but they equal what a full-rebuild diff reports
/// (nothing outside the affected closure can change).
struct ChangeStats {
  std::size_t atoms_created = 0;   ///< new double overlaps
  std::size_t atoms_retired = 0;   ///< overlaps that disappeared
  std::size_t groups_repathed = 0; ///< pre-existing groups whose atom path changed
  bool used_delta = false;         ///< this change took the incremental path
};

/// Owns a membership snapshot plus the sequencing graph derived from it and
/// keeps the two consistent across group/subscription operations.
class SequencingGraphManager {
 public:
  /// `incremental` selects delta maintenance (the default); false forces a
  /// global recompute (the delta from the empty epoch) on every change,
  /// which the per-change delta path is tested against.
  explicit SequencingGraphManager(membership::GroupMembership membership,
                                  BuildOptions options = {},
                                  bool incremental = true);

  [[nodiscard]] const membership::GroupMembership& membership() const {
    return membership_;
  }
  [[nodiscard]] const membership::OverlapIndex& overlaps() const {
    return overlaps_;
  }
  [[nodiscard]] const SequencingGraph& graph() const { return graph_; }

  /// Create a group (a first subscriber registering a new subscription).
  GroupId add_group(std::vector<NodeId> members, ChangeStats* stats = nullptr);

  /// Delete a group (its last subscriber left). Sequencers are retired.
  void remove_group(GroupId g, ChangeStats* stats = nullptr);

  /// Node joins / leaves an existing group.
  void add_subscription(GroupId g, NodeId node, ChangeStats* stats = nullptr);
  void remove_subscription(GroupId g, NodeId node,
                           ChangeStats* stats = nullptr);

  /// Maintenance telemetry: how many changes took the delta path vs a full
  /// recompute (fallback mode or compaction).
  [[nodiscard]] std::size_t delta_rebuilds() const { return delta_rebuilds_; }
  [[nodiscard]] std::size_t full_rebuilds() const { return full_rebuilds_; }

 private:
  /// Stable fingerprint of the graph: for each live group, the sequence of
  /// overlap pairs along its path (AtomIds are rebuild-dependent).
  struct Fingerprint;
  /// Route one change: delta rebuild around `dirty` when incremental, full
  /// recompute otherwise; compacts retired atoms away (full rebuild) once
  /// they outnumber live ones.
  void apply(GroupId dirty, ChangeStats* stats);
  void rebuild(ChangeStats* stats);
  void rebuild_delta(GroupId dirty, ChangeStats* stats);

  membership::GroupMembership membership_;
  BuildOptions options_;
  bool incremental_;
  membership::OverlapIndex overlaps_;
  SequencingGraph graph_;
  std::size_t delta_rebuilds_ = 0;
  std::size_t full_rebuilds_ = 0;
};

}  // namespace decseq::seqgraph
