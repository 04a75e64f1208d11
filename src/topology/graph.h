// Weighted undirected router graph: the physical network substrate that the
// sequencing overlay is mapped onto. Edge weights are propagation delays in
// milliseconds; the simulator models only propagation delay, matching the
// paper's packet-level simulator (§4.1).
//
// The graph is immutable and stored once, in compressed-sparse-row form: an
// offsets array and one array of arcs (each undirected link is two arcs).
// A generator appends its links to a list in the order it draws them and
// builds the graph from that list in one pass. Every router's arcs keep
// that order, which readers' first-minimum tie-breaks depend on. The
// distance oracle reads the two arrays in place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/ids.h"

namespace decseq::topology {

/// One directed half of an undirected link.
struct Edge {
  RouterId to;
  double delay_ms;
};

/// One undirected link, as a generator appends it.
struct Link {
  RouterId a;
  RouterId b;
  double delay_ms;
};

/// Compressed-sparse-row graph over routers. Routers are dense ids
/// [0, size).
class Graph {
 public:
  Graph() = default;

  /// Build the graph of `num_routers` routers joined by `links`. Router
  /// r's arcs follow the order of the links naming r (a stable counting
  /// sort): link i adds a's arc to b, then b's arc to a, after every arc of
  /// links 0..i-1. Parallel links are kept; self-loops, out-of-range
  /// routers and non-positive delays are rejected.
  Graph(std::size_t num_routers, std::span<const Link> links);

  [[nodiscard]] std::size_t num_routers() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  [[nodiscard]] std::size_t num_edges() const { return arcs_.size() / 2; }

  [[nodiscard]] std::span<const Edge> neighbors(RouterId r) const {
    DECSEQ_CHECK(r.valid() && r.value() < num_routers());
    return {arcs_.data() + offsets_[r.value()],
            arcs_.data() + offsets_[r.value() + 1]};
  }

  /// The CSR arrays, for readers that walk every arc without range checks:
  /// router r's arcs are arcs()[offsets()[r], offsets()[r + 1]).
  [[nodiscard]] const std::uint32_t* offsets() const {
    return offsets_.data();
  }
  [[nodiscard]] const Edge* arcs() const { return arcs_.data(); }

 private:
  std::vector<std::uint32_t> offsets_;  ///< num_routers + 1 entries
  std::vector<Edge> arcs_;
};

}  // namespace decseq::topology
