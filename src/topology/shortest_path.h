// Shortest-path machinery. Messages in the evaluation travel on shortest
// unicast paths (paper §4.1); the sequencing overlay's performance is
// measured against those. A DistanceOracle answers pairwise and per-source
// distance queries off a CSR copy of the adjacency with a pooled Dijkstra
// workspace (versioned visited stamps, a reusable 4-ary heap — no per-query
// allocation):
//
//   - Pendant pruning. Construction finds the graph's bridges with one
//     linear-time DFS (a doubled link is no bridge). The far side of a
//     bridge, seen from the DFS root, is a pendant subtree; a transit-stub
//     topology hangs each stub domain off one uplink. A point query
//     (distance, distances_between, closest) opens the pendants holding its
//     source or a target and never descends a bridge into a closed one: a
//     path into it could only leave by the same bridge.
//   - Point queries stop once their targets settle. distance() and
//     distances_between() share a flat pair memo: each answers a known
//     pair from it (or a cached row) and records the pairs its runs settle,
//     so a repeated pair costs one probe and a batch runs one pruned
//     Dijkstra for its misses only.
//   - Measured promotion. A source whose point queries have settled as
//     many routers as the graph has gets a full row; an evicted source
//     earns its next row afresh. Rows thus never cost more than the point
//     queries before them: on a graph without bridges a source costs at
//     most about twice its one row, while on the transit-stub tier only a
//     source queried hundreds of times earns one.
//   - Full rows (distances_from, promoted sources) sit in a flat slot table.
//     Rows and memo share one byte budget: the least-recently-used row is
//     evicted, and a memo that would outgrow the budget is emptied instead.
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
#include <vector>

#include "common/ids.h"
#include "common/pair_map.h"
#include "topology/graph.h"

namespace decseq::topology {

/// Single-source shortest path distances (ms) to every router.
/// Unreachable routers get +infinity.
[[nodiscard]] std::vector<double> dijkstra(const Graph& g, RouterId source);

struct DistanceOracleOptions {
  /// Byte budget for cached full rows (8 bytes per router per row) and the
  /// pair memo together. Past it the least-recently-used row is evicted,
  /// and a memo that would grow past it is emptied instead; one row is
  /// always allowed so distances_from() works under any budget. The default
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
  explicit DistanceOracle(const Graph& g, DistanceOracleOptions options = {});

  /// Distance in ms from `a` to `b` (symmetric).
  [[nodiscard]] double distance(RouterId a, RouterId b);

  /// Full distance vector from a source, computed by one Dijkstra and
  /// cached. The reference stays valid until the row is evicted by a later
  /// query past the cache budget (never, under the default budget); do not
  /// hold it across other oracle calls on budget-constrained oracles.
  [[nodiscard]] const std::vector<double>& distances_from(RouterId source);

  /// Among `candidates`, the one closest to `target` (ties: first). Runs
  /// (at most) one Dijkstra — from the target, stopping once every
  /// candidate settled — regardless of how many candidates there are.
  [[nodiscard]] RouterId closest(const std::vector<RouterId>& candidates,
                                 RouterId target);

  /// Batched pairwise queries: fills out[i] = distance(common, targets[i]),
  /// bit-identical to individual calls (the fan-out compile's per-member
  /// loop). Targets on `common`'s canonical side (id >= common) answer
  /// from common's row, else from the pair memo distance() shares; the
  /// misses settle together in a single pruned run, whose answers then
  /// join the memo. A batch of known pairs thus runs no Dijkstra at all.
  void distances_between(RouterId common, const std::vector<RouterId>& targets,
                         std::vector<double>& out);

  [[nodiscard]] std::size_t cached_sources() const { return rows_.size(); }
  /// Bytes held by cached rows and the pair memo (the budgeted state).
  [[nodiscard]] std::size_t cache_bytes() const {
    return rows_.size() * row_bytes() + memo_.memory_bytes();
  }
  /// Bridges found at construction (each roots one prunable pendant).
  [[nodiscard]] std::size_t num_bridges() const {
    return pendant_parent_.size();
  }

  /// Query-mix instrumentation (bench/telemetry).
  struct Stats {
    std::uint64_t full_rows = 0;      ///< full Dijkstra rows computed
    std::uint64_t point_queries = 0;  ///< pruned early-terminating runs
    std::uint64_t settled = 0;        ///< routers settled by point queries
    std::uint64_t evictions = 0;      ///< rows evicted under the budget
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  struct HeapEntry {
    double dist;
    std::uint32_t node;
  };

  [[nodiscard]] std::size_t row_bytes() const {
    return num_routers_ * sizeof(double) + sizeof(std::vector<double>);
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
  /// Tarjan's bridge search (iterative, linear time) over the CSR; fills
  /// pendant_of_ and pendant_parent_.
  void find_pendants();
  /// Dijkstra from `source` on the pooled workspace. With `row` non-null,
  /// runs to completion, unpruned, and fills the complete distance vector.
  /// Otherwise it is a point query: it stops once `pending` marked targets
  /// have settled and skips pendants holding none; callers read settled
  /// values out of dist_ before the next run.
  void run_dijkstra(std::uint32_t source, std::vector<double>* row,
                    std::size_t pending);
  void heap_push(double dist, std::uint32_t node);
  [[nodiscard]] HeapEntry heap_pop();
  /// Compute-and-cache `source`'s full row, evicting LRU rows past the
  /// budget. Returns the cached row.
  const std::vector<double>& cache_row(std::uint32_t source);
  /// `source`'s cached row, or null.
  [[nodiscard]] const double* cached_row(std::uint32_t source);
  /// Cache `source`'s row if its point queries have earned one. Call after
  /// reading the last run's values: the row reuses the workspace.
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

  DistanceOracleOptions options_;
  std::size_t num_routers_ = 0;

  /// CSR adjacency: neighbors of router v are adj_target_/adj_delay_
  /// [adj_offset_[v], adj_offset_[v + 1]), in the source graph's edge order
  /// (same relaxation order as the original per-vector walk).
  std::vector<std::uint32_t> adj_offset_;
  std::vector<std::uint32_t> adj_target_;
  std::vector<double> adj_delay_;
  /// Innermost pendant holding each router (kNone: the root side), and
  /// each pendant's enclosing pendant.
  std::vector<std::uint32_t> pendant_of_;
  std::vector<std::uint32_t> pendant_parent_;

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

  /// Router id -> index into rows_, kNone when not cached. A flat
  /// 4-byte-per-router table: O(1) lookups with no hashing.
  std::vector<std::uint32_t> slot_of_;
  struct Row {
    std::uint32_t source;
    std::uint64_t last_used;
    /// unique_ptr keeps row storage stable while rows_ grows or reorders
    /// (distances_from returns references into it).
    std::unique_ptr<std::vector<double>> data;
  };
  std::vector<Row> rows_;
  std::uint64_t use_tick_ = 0;
  /// Routers settled by point queries from each source: the promotion rule.
  std::vector<std::uint32_t> settled_by_;
  /// distance() and distances_between() answers, keyed pair_key(lo, hi).
  common::PairMap<double> memo_;

  Stats stats_;
};

}  // namespace decseq::topology
