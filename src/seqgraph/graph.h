// The sequencing graph (paper §3.2–3.3).
//
// One *sequencing atom* exists per double overlap (pair of groups sharing
// two or more subscribers), plus one *ingress-only* atom per group with no
// overlaps. Atoms are arranged so that:
//
//   C1: the atoms a group's messages must visit form a single path, and
//   C2: the undirected graph over atoms is loop-free (a forest).
//
// Messages to a group enter at the first atom of the group's path (its
// ingress, which assigns the group-local sequence number), traverse the path
// over FIFO channels, collect one sequence number from every atom whose
// overlap involves the group ("stamping" atoms), merely transit the others —
// the paper's Fig. 2(b) redirection — and exit for distribution.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "membership/overlap.h"

namespace decseq::seqgraph {

/// One sequencing atom. Invariant: either both groups are valid (a
/// double-overlap atom) or only group_a is (an ingress-only atom).
struct Atom {
  AtomId id;
  GroupId group_a;
  GroupId group_b;  ///< invalid for ingress-only atoms
  /// Shared subscribers of the overlap; the atom's sequence numbers are
  /// *relevant* exactly to these nodes (§3.2). Empty for ingress-only atoms.
  std::vector<NodeId> overlap_members;
  /// Index of this atom's overlap in the OverlapIndex it was built from;
  /// SIZE_MAX for ingress-only atoms.
  std::size_t overlap_index = static_cast<std::size_t>(-1);

  [[nodiscard]] bool is_ingress_only() const { return !group_b.valid(); }

  /// Whether this atom assigns an overlap sequence number to messages of
  /// group g. Ingress-only atoms never stamp: the group-local sequence
  /// number they assign already orders their group.
  [[nodiscard]] bool stamps(GroupId g) const {
    return group_b.valid() && (g == group_a || g == group_b);
  }
};

struct BuildOptions;
struct DeltaBuildStats;

/// Reusable compile scratch for the graph builder: per-worker stamped slot
/// maps, chain/tree layout buffers, and component result slots. Optional —
/// the builder allocates a transient one when none is supplied — but a
/// caller that compiles repeatedly (PubSubSystem's rebuild and
/// reconfigure_async) should own one so later compiles, including the first
/// after construction, run against warm, pre-sized buffers. Not thread-safe
/// across concurrent build calls; one build uses it from multiple layout
/// workers internally.
class BuildScratch {
 public:
  BuildScratch();
  ~BuildScratch();
  BuildScratch(const BuildScratch&) = delete;
  BuildScratch& operator=(const BuildScratch&) = delete;
  BuildScratch(BuildScratch&&) noexcept;
  BuildScratch& operator=(BuildScratch&&) noexcept;

  struct Impl;
  [[nodiscard]] Impl& impl() { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

/// Immutable sequencing graph: atoms, per-group directed paths, and the
/// undirected forest of inter-atom links. Built by build_sequencing_graph().
class SequencingGraph {
 public:
  SequencingGraph() = default;

  [[nodiscard]] std::size_t num_atoms() const { return atoms_.size(); }
  [[nodiscard]] const std::vector<Atom>& atoms() const { return atoms_; }
  [[nodiscard]] const Atom& atom(AtomId id) const {
    DECSEQ_CHECK(id.valid() && id.value() < atoms_.size());
    return atoms_[id.value()];
  }

  /// Number of atoms that sequence a double overlap (excludes ingress-only
  /// and retired atoms).
  [[nodiscard]] std::size_t num_overlap_atoms() const {
    return num_overlap_atoms_;
  }

  /// True if the atom was retired by a delta rebuild: it still exists (its
  /// AtomId stays allocated so in-flight old-epoch traffic can keep
  /// draining through it) but lies on no live group's path and sequences no
  /// current overlap. Full builds have no retired atoms.
  [[nodiscard]] bool is_retired(AtomId id) const {
    return id.valid() && id.value() < retired_.size() &&
           retired_[id.value()] != 0;
  }
  [[nodiscard]] std::size_t num_retired_atoms() const { return num_retired_; }

  /// How each overlap component was laid out (kGreedyTree only): components
  /// the greedy tree handled vs components that fell back to a chain. The
  /// counters accumulate across delta rebuilds (a retired component stays
  /// counted until the next full build).
  [[nodiscard]] std::size_t tree_components() const {
    return tree_components_;
  }
  [[nodiscard]] std::size_t chain_components() const {
    return chain_components_;
  }

  /// The ordered path of atoms traversed by messages addressed to g,
  /// including transit atoms. Front = ingress. Never empty for a live group.
  [[nodiscard]] const std::vector<AtomId>& path(GroupId g) const {
    DECSEQ_CHECK(g.valid() && g.value() < paths_.size());
    DECSEQ_CHECK_MSG(!paths_[g.value()].empty(),
                     "group " << g << " has no sequencing path");
    return paths_[g.value()];
  }

  [[nodiscard]] bool has_path(GroupId g) const {
    return g.valid() && g.value() < paths_.size() && !paths_[g.value()].empty();
  }

  /// The subset of path(g) that stamps sequence numbers onto g's messages.
  [[nodiscard]] std::vector<AtomId> stamping_atoms(GroupId g) const;

  /// Atoms adjacent to `id` in the undirected forest.
  [[nodiscard]] const std::vector<AtomId>& tree_neighbors(AtomId id) const {
    DECSEQ_CHECK(id.valid() && id.value() < tree_.size());
    return tree_[id.value()];
  }

  /// All group ids that have a path (live groups at build time).
  [[nodiscard]] std::vector<GroupId> groups() const;

  /// Test-only: assemble a graph from explicit parts, bypassing the
  /// builder and its invariants. Lets tests hand the validator broken
  /// graphs (cycles, disconnected paths, missing atoms) — like the
  /// paper's Fig 2(a) — that the builder would never produce.
  /// `paths` is indexed by GroupId slot; `tree` by AtomId.
  [[nodiscard]] static SequencingGraph make_for_testing(
      std::vector<Atom> atoms, std::vector<std::vector<AtomId>> paths,
      std::vector<std::vector<AtomId>> tree, std::size_t num_overlap_atoms);

 private:
  friend SequencingGraph build_sequencing_graph(
      const membership::GroupMembership& membership,
      const membership::OverlapIndex& overlaps, const BuildOptions& options);
  friend SequencingGraph build_sequencing_graph_delta(
      SequencingGraph old_graph, const membership::OverlapIndex& old_overlaps,
      const membership::GroupMembership& membership,
      const membership::OverlapIndex& new_overlaps,
      const std::vector<GroupId>& dirty, const BuildOptions& options,
      DeltaBuildStats* stats);
  friend SequencingGraph legacy_build_sequencing_graph(
      const membership::GroupMembership& membership,
      const membership::OverlapIndex& overlaps, const BuildOptions& options);
  friend SequencingGraph legacy_build_sequencing_graph_delta(
      const SequencingGraph& old_graph,
      const membership::OverlapIndex& old_overlaps,
      const membership::GroupMembership& membership,
      const membership::OverlapIndex& new_overlaps,
      const std::vector<GroupId>& dirty, const BuildOptions& options,
      DeltaBuildStats* stats);

  std::vector<Atom> atoms_;
  std::vector<std::vector<AtomId>> paths_;  // indexed by GroupId slot
  std::vector<std::vector<AtomId>> tree_;   // undirected adjacency
  std::vector<char> retired_;               // indexed by AtomId; empty => none
  std::size_t num_overlap_atoms_ = 0;
  std::size_t num_retired_ = 0;
  std::size_t tree_components_ = 0;
  std::size_t chain_components_ = 0;
};

/// Strategy for arranging atoms into a C1/C2-satisfying graph.
enum class BuildStrategy {
  /// One chain of atoms per connected component of the group overlap graph,
  /// ordered by a group-affinity barycenter heuristic plus local search.
  /// A chain trivially satisfies C1 and C2; ordering quality only affects
  /// how many atoms are merely transited.
  kChain,
  /// Like kChain but without the ordering heuristic (atoms in discovery
  /// order). Used as an ablation baseline.
  kChainUnordered,
  /// Greedy tree construction: groups are added in BFS order over the
  /// overlap graph; each group's already-placed atoms must lie on a tree
  /// path (with a FIFO-compatible orientation), and its new atoms are
  /// appended as a chain at that path's end. Branching lets unrelated
  /// groups avoid each other's atoms, shortening paths relative to one
  /// shared chain. Falls back to kChain per component whenever the greedy
  /// step cannot keep C1/C2 (the paper, too, resorts to a global
  /// recomputation in hard cases, §3.2).
  kGreedyTree,
};

struct BuildOptions {
  BuildStrategy strategy = BuildStrategy::kChain;
  /// Maximum adjacent-swap improvement passes over each chain.
  std::size_t local_search_passes = 8;
  /// Optional co-location labels, one per overlap index (from
  /// placement::colocate_overlaps). When set, atoms destined for the same
  /// sequencing node are laid out contiguously in the chain, so a message
  /// crosses each machine once instead of ping-ponging between machines.
  /// Not owned; must outlive the build call.
  const std::vector<std::size_t>* colocation_labels = nullptr;
  /// Optional reusable compile scratch (see BuildScratch). Not owned; must
  /// outlive the build call. The legacy reference builder ignores it.
  BuildScratch* scratch = nullptr;
};

/// Construct a sequencing graph for the given membership snapshot.
[[nodiscard]] SequencingGraph build_sequencing_graph(
    const membership::GroupMembership& membership,
    const membership::OverlapIndex& overlaps, const BuildOptions& options = {});

/// Instrumentation of one delta rebuild.
struct DeltaBuildStats {
  /// Groups in the affected closure — the only groups whose sequencing
  /// paths may differ from the old graph (dirty groups, their old
  /// component-mates, and every group of a re-laid new component). Sorted
  /// by slot.
  std::vector<GroupId> affected_groups;
  std::size_t components_relaid = 0;  ///< new components laid out afresh
  std::size_t components_copied = 0;  ///< new components carried verbatim
  std::size_t atoms_created = 0;      ///< atoms appended by this delta
  std::size_t atoms_retired = 0;      ///< atoms retired by this delta
};

/// Incremental rebuild after a membership delta (paper §3.2's global
/// recomputation, restricted to the overlap components the delta actually
/// touched). Old atoms are preserved in place — same AtomIds — so a graph
/// produced here serves both epochs at once: untouched groups keep their
/// exact old paths (zero disruption), touched components' old atoms are
/// flagged retired (in-flight old-epoch traffic drains through them) and
/// fresh atoms are appended for the re-laid components. `old_overlaps` /
/// `new_overlaps` are the indexes the old graph was built from and the
/// post-change index (see OverlapIndex's delta constructor); `dirty` lists
/// the groups whose membership changed (created, removed, joined, or left).
/// For every group outside the affected closure the resulting path is
/// *identical* — same AtomIds, same order — and for affected groups the
/// layout equals what a full rebuild would produce (differentially tested).
///
/// The old graph is consumed: the delta edits it in place (retire, remap,
/// clear dropped path slots, append), so it allocates for the affected
/// closure only; the retire pass still reads every atom once. A caller
/// replacing its graph passes `std::move(graph)` and skips the copy; one
/// that keeps the old graph passes an lvalue and the parameter copies it.
[[nodiscard]] SequencingGraph build_sequencing_graph_delta(
    SequencingGraph old_graph, const membership::OverlapIndex& old_overlaps,
    const membership::GroupMembership& membership,
    const membership::OverlapIndex& new_overlaps,
    const std::vector<GroupId>& dirty, const BuildOptions& options = {},
    DeltaBuildStats* stats = nullptr);

}  // namespace decseq::seqgraph
