// Shortest-path machinery. Messages in the evaluation travel on shortest
// unicast paths (paper §4.1); the sequencing overlay's performance is
// measured against those. A DistanceOracle answers pairwise and per-source
// distance queries by reading the graph's CSR arrays in place, with a pooled
// Dijkstra workspace (versioned visited stamps, a reusable 4-ary heap — no
// per-query allocation):
//
//   - Pendant pruning. Construction finds the graph's bridges with one
//     linear-time DFS (a doubled link is no bridge). The far side of a
//     bridge, seen from the DFS root, is a pendant subtree; the routers in
//     no pendant are the root side. A transit-stub topology hangs each stub
//     domain off one uplink. A point query (distance, distances_between)
//     opens the pendants holding its source or a target and never descends
//     a bridge into a closed one: a path into it could only leave by the
//     same bridge.
//   - Point queries stop once their targets settle. distance() and
//     distances_between() share a flat pair memo: each answers a known
//     pair from it (or a cached row) and records the pairs its runs settle,
//     so a repeated pair costs one probe and a batch runs one pruned
//     Dijkstra for its misses only.
//   - Measured promotion. A source whose point queries have settled as
//     many routers as the graph has gets a full row at its next miss; an
//     evicted source earns its next row afresh. Rows thus never cost more
//     than the point queries before them: on a graph without bridges a
//     source costs at most about twice its one row. On a graph where at
//     most half the routers lie on the root side (the transit-stub tier)
//     the same rule runs with the root side in place of the graph and
//     earns a root-side row instead: one run from the source with only its
//     own pendant chain open, to completion, keeping its distances to the
//     root-side routers.
//   - Root-side rows answer a source's later misses. A root-side target is
//     a row read. A target in another outermost pendant costs a pendant
//     run: a Dijkstra inside that pendant along the target's chain, seeded
//     at the pendant's root with row[attach] + bridge delay, where attach
//     is the root-side router across the bridge. Every path from the
//     source enters the pendant by that one arc, and Dijkstra's own value
//     at the pendant root is that very sum (a router inside can be no
//     nearer than the root it is reached through), so the seeded run
//     settles the global run's values. A target in the source's own
//     outermost pendant falls back to a point query.
//   - Full rows (distances_from, promoted sources) and root-side rows sit
//     in one flat slot table. Rows and memo share one byte budget: the
//     least-recently-used row of either kind is evicted, and a memo that
//     would outgrow the budget is emptied instead.
//
// Every answer is bit-identical to dijkstra(g, lo)[hi]. A settled distance
// is the minimum over the router's neighbours of their settled distance
// plus the edge delay; that fixed point depends neither on when the run
// stops, nor on heap tie order, nor on routers in a pruned pendant (they
// can improve no router outside it). distance(a, b) keeps its canonical
// lower-id orientation (see the comment in distance()).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/pair_map.h"
#include "topology/graph.h"

namespace decseq::topology {

/// Single-source shortest path distances (ms) to every router.
/// Unreachable routers get +infinity.
[[nodiscard]] std::vector<double> dijkstra(const Graph& g, RouterId source);

struct DistanceOracleOptions {
  /// Byte budget for cached rows (8 bytes per router per full row, per
  /// root-side router per root-side row) and the pair memo together. Past
  /// it the least-recently-used row is evicted, and a memo that would grow
  /// past it is emptied instead; one row is always allowed so
  /// distances_from() works under any budget. The default
  /// is unbounded, so a paper-scale simulation never drops and recomputes
  /// state mid-measurement (its steady state stays allocation-free).
  std::size_t max_cache_bytes = static_cast<std::size_t>(-1);

  /// Preset for large topologies (the 100k+ control-plane compile): a
  /// bounded cache. Distances are bit-identical to the default.
  [[nodiscard]] static DistanceOracleOptions scaled() {
    return {/*max_cache_bytes=*/128ull << 20};
  }
};

/// Caches distance state per source. Not thread-safe by design: each
/// experiment run owns its oracle.
class DistanceOracle {
 public:
  /// The oracle reads `g` in place and keeps a reference to it: the graph
  /// must outlive the oracle, so a temporary graph does not bind.
  explicit DistanceOracle(const Graph& g, DistanceOracleOptions options = {});
  DistanceOracle(const Graph&&, DistanceOracleOptions = {}) = delete;

  /// Distance in ms from `a` to `b` (symmetric).
  [[nodiscard]] double distance(RouterId a, RouterId b);

  /// Full distance vector from a source, computed by one Dijkstra and
  /// cached. The reference stays valid until the row is evicted by a later
  /// query past the cache budget (never, under the default budget); do not
  /// hold it across other oracle calls on budget-constrained oracles.
  [[nodiscard]] const std::vector<double>& distances_from(RouterId source);

  /// Batched pairwise queries: fills out[i] = distance(common, targets[i]),
  /// bit-identical to individual calls (the fan-out compile's per-member
  /// loop). Targets on `common`'s canonical side (id >= common) answer
  /// from common's full row, else from the pair memo distance() shares,
  /// else from its root-side row; the misses settle together, in one
  /// pruned run and one pendant run per outermost pendant, whose answers
  /// then join the memo. A batch of known pairs thus runs no Dijkstra.
  void distances_between(RouterId common, const std::vector<RouterId>& targets,
                         std::vector<double>& out);

  /// Sources with a cached full row.
  [[nodiscard]] std::size_t cached_sources() const {
    return rows_.size() - root_rows_cached_;
  }
  /// Bytes held by cached rows and the pair memo (the budgeted state).
  [[nodiscard]] std::size_t cache_bytes() const {
    return cached_rows_bytes() + memo_.memory_bytes();
  }
  /// Bridges found at construction (each roots one prunable pendant).
  [[nodiscard]] std::size_t num_bridges() const { return pendants_.size(); }

  /// Query-mix instrumentation (bench/telemetry).
  struct Stats {
    std::uint64_t full_rows = 0;      ///< full Dijkstra rows computed
    std::uint64_t root_rows = 0;      ///< root-side rows computed
    std::uint64_t point_queries = 0;  ///< pruned runs from a source
    std::uint64_t pendant_runs = 0;   ///< seeded runs inside one pendant
    /// Routers settled by point queries, root-side rows and pendant runs.
    std::uint64_t settled = 0;
    std::uint64_t evictions = 0;  ///< rows of either kind evicted
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  struct HeapEntry {
    double dist;
    std::uint32_t node;
  };

  /// What a run explores and when it stops.
  enum class Run : std::uint8_t {
    kFull,     ///< the whole component, unpruned
    kPoint,    ///< closed pendants skipped; stops once the targets settle
    kRootRow,  ///< closed pendants skipped; runs to completion
    kPendant,  ///< only the open pendants; stops once the targets settle
  };

  /// The far side of one bridge.
  struct Pendant {
    std::uint32_t parent;     ///< enclosing pendant, kNone if outermost
    std::uint32_t outermost;  ///< outermost pendant enclosing this one
    std::uint32_t root;       ///< router at the far end of the bridge
    std::uint32_t attach;     ///< router at the near end of the bridge
    double bridge_delay;      ///< delay of the attach -> root arc
  };

  [[nodiscard]] std::size_t row_bytes() const {
    return num_routers_ * sizeof(double) + sizeof(std::vector<double>);
  }
  [[nodiscard]] std::size_t root_row_bytes() const {
    return root_routers_.size() * sizeof(double) + sizeof(std::vector<double>);
  }
  [[nodiscard]] std::size_t cached_rows_bytes() const {
    return (rows_.size() - root_rows_cached_) * row_bytes() +
           root_rows_cached_ * root_row_bytes();
  }
  /// Outermost pendant holding `node`, kNone on the root side.
  [[nodiscard]] std::uint32_t outermost_of(std::uint32_t node) const {
    const std::uint32_t p = pendant_of_[node];
    return p == kNone ? kNone : pendants_[p].outermost;
  }
  /// Memo key of a canonical (lo <= hi) pair.
  [[nodiscard]] static std::uint64_t pair_key(std::uint32_t lo,
                                              std::uint32_t hi) {
    return std::uint64_t{lo} << 32 | hi;
  }
  /// Throws CheckFailure unless `r` names a router of the graph.
  void check_router(RouterId r) const;
  /// Record a canonical pair's distance, emptying a memo that would
  /// outgrow the byte budget first.
  void memoise(std::uint64_t key, double d);
  /// Tarjan's bridge search (iterative, linear time) over the graph's
  /// CSR; fills pendant_of_, pendants_, root_index_ and root_routers_.
  void find_pendants();
  /// Dijkstra on the pooled workspace from `start` at `start_dist`,
  /// exploring and stopping as `kRun` says: a pruned run opens the start's
  /// pendants, and an early-stopping one stops once `pending` marked
  /// targets have settled. Returns the routers settled; callers read
  /// settled values out of dist_ before the next run.
  template <Run kRun>
  std::uint32_t run_dijkstra(std::uint32_t start, double start_dist,
                             std::size_t pending);
  /// Point query from `source` to the `pending` marked targets.
  void run_point_query(std::uint32_t source, std::size_t pending);
  /// Pendant run inside outermost pendant `p` to its `pending` marked
  /// targets, seeded from the source's root-side row.
  void run_pendant(std::uint32_t p, const double* root_row,
                   std::size_t pending);
  void heap_push(double dist, std::uint32_t node);
  [[nodiscard]] HeapEntry heap_pop();
  /// Evict least-recently-used rows until a row of `bytes` fits the budget
  /// beside the others and the memo (or no row is left); returns storage
  /// for the new row, the last evicted row's if any.
  std::unique_ptr<std::vector<double>> make_room(std::size_t bytes);
  /// Cache `source`'s row of the given kind in `storage`.
  void add_row(std::uint32_t source, bool root_side,
               std::unique_ptr<std::vector<double>> storage);
  /// Compute-and-cache `source`'s full row, evicting LRU rows past the
  /// budget. Returns the cached row.
  const std::vector<double>& cache_row(std::uint32_t source);
  /// Compute-and-cache `source`'s root-side row, likewise.
  void cache_root_row(std::uint32_t source);
  /// The row in `slot` of rows_, marked used; null for kNone. A source's
  /// full row is in slot_of_[source], its root-side row (root_index_
  /// order) in root_slot_of_[source].
  [[nodiscard]] const double* row_in(std::uint32_t slot);
  /// Cache `source`'s row if its point queries have earned one. Call on a
  /// miss, before its run: the row reuses the workspace.
  void promote_if_hot(std::uint32_t source);
  /// Start a new target set (invalidates every target and pendant mark).
  void begin_targets();
  /// Open every pendant enclosing `node` for the next run.
  void open_pendants(std::uint32_t node);
  /// Mark `node` as a target and open its pendants; returns true if it was
  /// not already marked (distinct-target accounting).
  bool mark_target(std::uint32_t node);
  /// dist_ value of `node` after a run: settled distance or +inf.
  [[nodiscard]] double settled_dist(std::uint32_t node) const {
    return dist_stamp_[node] == stamp_ ? dist_[node] : kInf;
  }

  /// Runs relax each router's arcs in the graph's arc order.
  const Graph& graph_;
  DistanceOracleOptions options_;
  std::size_t num_routers_ = 0;

  /// Innermost pendant holding each router (kNone: the root side), and
  /// the pendants in DFS preorder.
  std::vector<std::uint32_t> pendant_of_;
  std::vector<Pendant> pendants_;
  /// Each root-side router's index in a root-side row (kNone inside a
  /// pendant), and the root-side routers in that order.
  std::vector<std::uint32_t> root_index_;
  std::vector<std::uint32_t> root_routers_;

  // Pooled Dijkstra workspace. dist_[v] is valid iff dist_stamp_[v] ==
  // stamp_; bumping stamp_ resets the whole workspace in O(1).
  std::vector<double> dist_;
  std::vector<std::uint32_t> dist_stamp_;
  std::uint32_t stamp_ = 0;
  std::vector<HeapEntry> heap_;  ///< reusable 4-ary heap, lazy deletion
  /// Target and pendant marks of the current target set: == target_gen_.
  std::vector<std::uint32_t> target_stamp_;
  std::vector<std::uint32_t> pendant_mark_;
  std::uint32_t target_gen_ = 0;

  /// Router id -> index into rows_ of its full and of its root-side row,
  /// kNone when not cached. Flat 4-byte-per-router tables: O(1) lookups
  /// with no hashing.
  std::vector<std::uint32_t> slot_of_;
  std::vector<std::uint32_t> root_slot_of_;
  struct Row {
    std::uint32_t source;
    bool root_side;
    std::uint64_t last_used;
    /// unique_ptr keeps row storage stable while rows_ grows or reorders
    /// (distances_from returns references into it).
    std::unique_ptr<std::vector<double>> data;
  };
  std::vector<Row> rows_;
  std::size_t root_rows_cached_ = 0;
  std::uint64_t use_tick_ = 0;
  /// Routers settled by point queries from each source: the promotion rule.
  std::vector<std::uint32_t> settled_by_;
  /// distance() and distances_between() answers, keyed pair_key(lo, hi).
  common::PairMap<double> memo_;
  /// distances_between() scratch: the indices of the targets the memo
  /// missed, (outermost pendant, index) of those bound for pendant runs,
  /// and the indices its runs answered.
  std::vector<std::uint32_t> misses_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> by_pendant_;
  std::vector<std::uint32_t> computed_;

  Stats stats_;
};

}  // namespace decseq::topology
