// Atom co-location (paper §3.4, steps one and two).
//
// Sequencing atoms are virtual; hosting related atoms on the same machine
// (a *sequencing node*) removes network hops between consecutive path
// elements without concentrating load: the heuristic only merges atoms whose
// overlaps are related through shared subscribers, so no sequencing node
// forwards more messages than its busiest shared subscriber receives.
//
// Step 1 (subset rule): atoms whose overlap member sets are in a subset
// relationship are placed together.
// Step 2 (shared-member rule): for each not-yet-co-located overlap, a random
// member is chosen and every other not-yet-co-located overlap containing
// that member joins the same sequencing node; each atom is co-located at
// most once.
//
// Co-location depends only on overlap member sets, so it can run *before*
// the sequencing graph is laid out; the graph builder then keeps same-node
// atoms contiguous in the chain (BuildOptions::colocation_labels), which is
// what lets a message cross each machine once instead of ping-ponging.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "membership/overlap.h"
#include "seqgraph/graph.h"

namespace decseq::placement {

enum class ColocationMode {
  kNone,        ///< every atom on its own sequencing node (ablation)
  kSubsetOnly,  ///< step 1 only (ablation)
  kFull,        ///< the paper's two-step heuristic
};

struct ColocationOptions {
  ColocationMode mode = ColocationMode::kFull;
};

/// Reusable buffers for colocate_overlaps(): the inverted member index,
/// the step-1 clusters and the step-2 visit state. A caller that
/// co-locates on every reconfiguration (PubSubSystem) owns one, so a warm
/// call allocates only to grow them. Nothing carries over between calls.
class ColocationScratch {
 public:
  ColocationScratch();
  ~ColocationScratch();
  ColocationScratch(const ColocationScratch&) = delete;
  ColocationScratch& operator=(const ColocationScratch&) = delete;

  struct Impl;
  [[nodiscard]] Impl& impl() { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

/// Run the two-step heuristic over the overlaps alone. Returns one dense
/// sequencing-node label per overlap index (same label = same machine).
[[nodiscard]] std::vector<std::size_t> colocate_overlaps(
    const membership::OverlapIndex& overlaps, const ColocationOptions& options,
    Rng& rng);

/// The same heuristic, writing the labels over `labels` and working in
/// `scratch`; identical labels and random draws.
void colocate_overlaps(const membership::OverlapIndex& overlaps,
                       const ColocationOptions& options, Rng& rng,
                       ColocationScratch& scratch,
                       std::vector<std::size_t>& labels);

/// Reusable buffers for an extension (Colocation::extend, then
/// extend_assignment): the label -> fresh sequencing node map, whose
/// entries count only under the current call's stamp; one group's
/// sequencing-node path, and the stamps that find a node it visits twice.
/// A caller that extends on every reconfiguration (PubSubSystem) owns one,
/// so a warm extension allocates none of them.
struct ExtendScratch {
  std::vector<std::uint32_t> label_stamp;
  std::vector<std::size_t> label_node;
  std::uint32_t stamp = 0;
  std::vector<SeqNodeId> path;
  std::vector<std::uint32_t> node_stamp;
  std::uint32_t node_gen = 0;
};

/// The atom -> sequencing-node mapping.
class Colocation {
 public:
  /// No atoms: the colocation a full build extends from atom 0.
  Colocation() = default;
  Colocation(std::vector<std::vector<AtomId>> nodes,
             std::vector<SeqNodeId> node_of_atom);

  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }

  /// Sequencing nodes hosting at least one non-ingress-only atom — the
  /// quantity Figure 5 plots.
  [[nodiscard]] std::size_t num_overlap_nodes(
      const seqgraph::SequencingGraph& graph) const;

  [[nodiscard]] const std::vector<AtomId>& atoms_of(SeqNodeId node) const {
    DECSEQ_CHECK(node.valid() && node.value() < nodes_.size());
    return nodes_[node.value()];
  }

  [[nodiscard]] SeqNodeId node_of(AtomId atom) const {
    DECSEQ_CHECK(atom.valid() && atom.value() < node_of_atom_.size());
    return node_of_atom_[atom.value()];
  }

  /// Absorb the atoms appended at or beyond `first_new_atom` by a
  /// build_sequencing_graph_delta pass. Existing atoms keep their
  /// sequencing nodes (old-epoch traffic still resolves them); appended
  /// atoms cluster among themselves by the new overlap labels on *fresh*
  /// sequencing nodes, numbered in order of first appearance (ingress-only
  /// atoms get one each). apply_labels() is this extension of an empty
  /// colocation from atom 0.
  void extend(const seqgraph::SequencingGraph& graph,
              std::size_t first_new_atom,
              const std::vector<std::size_t>& labels);
  /// The same extension, working in `scratch`.
  void extend(const seqgraph::SequencingGraph& graph,
              std::size_t first_new_atom,
              const std::vector<std::size_t>& labels, ExtendScratch& scratch);

 private:
  std::vector<std::vector<AtomId>> nodes_;
  std::vector<SeqNodeId> node_of_atom_;
};

/// Materialize the Colocation for a full build from per-overlap labels:
/// an empty Colocation extended from atom 0 (ingress-only atoms get one
/// fresh sequencing node each). A graph with retired atoms needs
/// Colocation::extend from its first appended atom instead: retired atoms
/// have no overlap index.
[[nodiscard]] Colocation apply_labels(const seqgraph::SequencingGraph& graph,
                                      const std::vector<std::size_t>& labels);

/// Convenience: run the heuristic and materialize in one call (used by
/// tests and the structural benches, where chain/machine interleaving does
/// not matter).
[[nodiscard]] Colocation colocate_atoms(const seqgraph::SequencingGraph& graph,
                                        const membership::OverlapIndex& overlaps,
                                        const ColocationOptions& options,
                                        Rng& rng);

}  // namespace decseq::placement
