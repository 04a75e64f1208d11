#include "topology/shortest_path.h"

#include <algorithm>
#include <queue>
#include <utility>

namespace decseq::topology {

std::vector<double> dijkstra(const Graph& g, RouterId source) {
  DECSEQ_CHECK(source.valid() && source.value() < g.num_routers());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(g.num_routers(), kInf);
  using Entry = std::pair<double, RouterId::underlying_type>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  dist[source.value()] = 0.0;
  pq.emplace(0.0, source.value());
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;  // stale entry
    for (const Edge& e : g.neighbors(RouterId(u))) {
      const double nd = d + e.delay_ms;
      if (nd < dist[e.to.value()]) {
        dist[e.to.value()] = nd;
        pq.emplace(nd, e.to.value());
      }
    }
  }
  return dist;
}

DistanceOracle::DistanceOracle(const Graph& g, DistanceOracleOptions options)
    : graph_(g), options_(options), num_routers_(g.num_routers()) {
  dist_.resize(num_routers_, kInf);
  dist_stamp_.resize(num_routers_, 0);
  target_stamp_.resize(num_routers_, 0);
  slot_of_.resize(num_routers_, kNone);
  root_slot_of_.resize(num_routers_, kNone);
  settled_by_.resize(num_routers_, 0);
  find_pendants();
  pendant_mark_.resize(pendants_.size(), 0);
}

void DistanceOracle::find_pendants() {
  // Tarjan's bridge search with an explicit stack. A DFS tree arc
  // (parent, v) is a bridge iff no back arc from v's subtree reaches
  // parent or above: low[v] > pre[parent]. Each router skips one arc back
  // to its DFS parent — the tree arc itself — so a doubled link to the
  // parent counts as a back arc and is (correctly) no bridge.
  const auto n = static_cast<std::uint32_t>(num_routers_);
  const std::uint32_t* offsets = graph_.offsets();
  const Edge* arcs = graph_.arcs();
  std::vector<std::uint32_t> pre(n, kNone), low(n, 0), parent(n, kNone);
  std::vector<std::uint32_t> preorder;
  preorder.reserve(n);
  std::vector<char> bridge_child(n, 0);
  struct Frame {
    std::uint32_t v;
    std::uint32_t next_arc;
    bool skipped_parent_arc;
  };
  std::vector<Frame> stack;
  const auto visit = [&](std::uint32_t v) {
    pre[v] = low[v] = static_cast<std::uint32_t>(preorder.size());
    preorder.push_back(v);
    stack.push_back({v, offsets[v], false});
  };
  for (std::uint32_t root = 0; root < n; ++root) {
    if (pre[root] != kNone) continue;
    visit(root);
    while (!stack.empty()) {
      // Scan v's arcs up to its next unvisited child, folding back arcs
      // into low[v].
      Frame& f = stack.back();
      const std::uint32_t v = f.v;
      const std::uint32_t end = offsets[v + 1];
      const std::uint32_t parent_v = parent[v];
      bool skipped = f.skipped_parent_arc;
      std::uint32_t low_v = low[v];
      std::uint32_t child = kNone;
      std::uint32_t e = f.next_arc;
      while (e < end) {
        const std::uint32_t w = arcs[e++].to.value();
        const std::uint32_t pre_w = pre[w];
        if (pre_w == kNone) {
          child = w;
          break;
        }
        if (w == parent_v && !skipped) {
          skipped = true;
        } else {
          low_v = std::min(low_v, pre_w);
        }
      }
      f.next_arc = e;
      f.skipped_parent_arc = skipped;
      low[v] = low_v;
      if (child != kNone) {
        parent[child] = v;
        visit(child);  // invalidates f
        continue;
      }
      stack.pop_back();
      const std::uint32_t p = parent[v];
      if (p == kNone) continue;
      low[p] = std::min(low[p], low_v);
      if (low_v > pre[p]) bridge_child[v] = 1;
    }
  }
  // Pendants in preorder, so an enclosing pendant is numbered first.
  pendant_of_.assign(n, kNone);
  root_index_.assign(n, kNone);
  for (const std::uint32_t v : preorder) {
    const std::uint32_t p = parent[v];
    const std::uint32_t enclosing = p == kNone ? kNone : pendant_of_[p];
    if (bridge_child[v] != 0) {
      const auto id = static_cast<std::uint32_t>(pendants_.size());
      // A bridge is a single link, so p has exactly one arc to v.
      double bridge_delay = 0.0;
      for (std::uint32_t e = offsets[p]; e < offsets[p + 1]; ++e) {
        if (arcs[e].to.value() == v) bridge_delay = arcs[e].delay_ms;
      }
      pendants_.push_back(
          {enclosing,
           enclosing == kNone ? id : pendants_[enclosing].outermost, v, p,
           bridge_delay});
      pendant_of_[v] = id;
    } else {
      pendant_of_[v] = enclosing;
    }
    if (pendant_of_[v] == kNone) {
      root_index_[v] = static_cast<std::uint32_t>(root_routers_.size());
      root_routers_.push_back(v);
    }
  }
}

void DistanceOracle::heap_push(double dist, std::uint32_t node) {
  heap_.push_back({dist, node});
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (heap_[parent].dist <= heap_[i].dist) break;
    std::swap(heap_[parent], heap_[i]);
    i = parent;
  }
}

DistanceOracle::HeapEntry DistanceOracle::heap_pop() {
  const HeapEntry top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  std::size_t i = 0;
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = i * 4 + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child = std::min(first_child + 4, n);
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (heap_[c].dist < heap_[best].dist) best = c;
    }
    if (heap_[i].dist <= heap_[best].dist) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
  return top;
}

void DistanceOracle::begin_targets() {
  if (++target_gen_ == 0) {
    // uint32 wraparound: every mark is stale again — reset explicitly.
    std::fill(target_stamp_.begin(), target_stamp_.end(), 0u);
    std::fill(pendant_mark_.begin(), pendant_mark_.end(), 0u);
    target_gen_ = 1;
  }
}

void DistanceOracle::open_pendants(std::uint32_t node) {
  // Every pendant on the way to the root side; an already-open one has its
  // enclosing pendants open too.
  for (std::uint32_t p = pendant_of_[node];
       p != kNone && pendant_mark_[p] != target_gen_; p = pendants_[p].parent) {
    pendant_mark_[p] = target_gen_;
  }
}

bool DistanceOracle::mark_target(std::uint32_t node) {
  if (target_stamp_[node] == target_gen_) return false;
  target_stamp_[node] = target_gen_;
  open_pendants(node);
  return true;
}

template <DistanceOracle::Run kRun>
std::uint32_t DistanceOracle::run_dijkstra(std::uint32_t start,
                                           double start_dist,
                                           std::size_t pending) {
  if (++stamp_ == 0) {
    // uint32 wraparound: every stamp is stale again — reset explicitly.
    std::fill(dist_stamp_.begin(), dist_stamp_.end(), 0u);
    stamp_ = 1;
  }
  constexpr bool kStops = kRun == Run::kPoint || kRun == Run::kPendant;
  if constexpr (kRun == Run::kPoint || kRun == Run::kRootRow) {
    open_pendants(start);
  }
  const std::uint32_t* offsets = graph_.offsets();
  const Edge* arcs = graph_.arcs();
  std::uint32_t settled = 0;
  heap_.clear();
  dist_[start] = start_dist;
  dist_stamp_[start] = stamp_;
  heap_push(start_dist, start);
  while (!heap_.empty()) {
    const HeapEntry top = heap_pop();
    const std::uint32_t u = top.node;
    if (top.dist > dist_[u]) continue;  // stale entry (lazy deletion)
    ++settled;
    if constexpr (kStops) {
      if (target_stamp_[u] == target_gen_ && --pending == 0) break;
    }
    const Edge* end = arcs + offsets[u + 1];
    for (const Edge* e = arcs + offsets[u]; e != end; ++e) {
      const std::uint32_t v = e->to.value();
      if constexpr (kRun != Run::kFull) {
        // Closed pendants hold neither the start nor a target: any path
        // in would leave by the same bridge. The run never gets inside
        // one, so a router in a closed pendant can only be its root,
        // reached across the bridge — which is skipped. A pendant run
        // also treats the root side as closed: it starts at the root of
        // the one outermost pendant it explores.
        const std::uint32_t p = pendant_of_[v];
        if (p == kNone) {
          if constexpr (kRun == Run::kPendant) continue;
        } else if (pendant_mark_[p] != target_gen_) {
          continue;
        }
      }
      const double nd = top.dist + e->delay_ms;
      if (dist_stamp_[v] != stamp_) {
        dist_stamp_[v] = stamp_;
        dist_[v] = nd;
        heap_push(nd, v);
      } else if (nd < dist_[v]) {
        dist_[v] = nd;
        heap_push(nd, v);
      }
    }
  }
  if constexpr (kRun != Run::kFull) stats_.settled += settled;
  return settled;
}

void DistanceOracle::run_point_query(std::uint32_t source,
                                     std::size_t pending) {
  settled_by_[source] += run_dijkstra<Run::kPoint>(source, 0.0, pending);
  ++stats_.point_queries;
}

void DistanceOracle::run_pendant(std::uint32_t p, const double* root_row,
                                 std::size_t pending) {
  // Every path from the source into p crosses its bridge, and the global
  // run relaxes that arc as dist(attach) + delay: the same sum seeds this
  // run at p's root, so it settles the global run's values.
  const Pendant& pendant = pendants_[p];
  const double seed =
      root_row[root_index_[pendant.attach]] + pendant.bridge_delay;
  (void)run_dijkstra<Run::kPendant>(pendant.root, seed, pending);
  ++stats_.pendant_runs;
}

std::unique_ptr<std::vector<double>> DistanceOracle::make_room(
    std::size_t bytes) {
  // Reuse the last evicted row's storage: a buffer of the same size costs
  // nothing to refill, and a full row's buffer holds a root-side row.
  std::unique_ptr<std::vector<double>> storage;
  while (!rows_.empty() &&
         cached_rows_bytes() + bytes + memo_.memory_bytes() >
             options_.max_cache_bytes) {
    std::size_t victim = 0;
    for (std::size_t i = 1; i < rows_.size(); ++i) {
      if (rows_[i].last_used < rows_[victim].last_used) victim = i;
    }
    // An evicted source earns its next row afresh, so rows never cost
    // more than the point queries before them, however tight the budget.
    Row& row = rows_[victim];
    (row.root_side ? root_slot_of_ : slot_of_)[row.source] = kNone;
    root_rows_cached_ -= row.root_side ? 1 : 0;
    settled_by_[row.source] = 0;
    storage = std::move(row.data);
    if (victim != rows_.size() - 1) {
      row = std::move(rows_.back());
      (row.root_side ? root_slot_of_ : slot_of_)[row.source] =
          static_cast<std::uint32_t>(victim);
    }
    rows_.pop_back();
    ++stats_.evictions;
  }
  if (storage == nullptr) storage = std::make_unique<std::vector<double>>();
  return storage;
}

void DistanceOracle::add_row(std::uint32_t source, bool root_side,
                             std::unique_ptr<std::vector<double>> storage) {
  (root_side ? root_slot_of_ : slot_of_)[source] =
      static_cast<std::uint32_t>(rows_.size());
  root_rows_cached_ += root_side ? 1 : 0;
  rows_.push_back({source, root_side, ++use_tick_, std::move(storage)});
}

const std::vector<double>& DistanceOracle::cache_row(std::uint32_t source) {
  // One row is always allowed, whatever the budget.
  std::unique_ptr<std::vector<double>> storage = make_room(row_bytes());
  (void)run_dijkstra<Run::kFull>(source, 0.0, 0);
  ++stats_.full_rows;
  std::vector<double>& row = *storage;
  row.resize(num_routers_);
  for (std::uint32_t v = 0; v < num_routers_; ++v) row[v] = settled_dist(v);
  add_row(source, /*root_side=*/false, std::move(storage));
  return row;
}

void DistanceOracle::cache_root_row(std::uint32_t source) {
  // Only the source's own pendant chain is open: a shortest path to a
  // root-side router enters no other pendant, which it could leave only by
  // the bridge it came in by.
  std::unique_ptr<std::vector<double>> storage = make_room(root_row_bytes());
  begin_targets();
  (void)run_dijkstra<Run::kRootRow>(source, 0.0, 0);
  ++stats_.root_rows;
  std::vector<double>& row = *storage;
  row.resize(root_routers_.size());
  for (std::size_t i = 0; i < root_routers_.size(); ++i) {
    row[i] = settled_dist(root_routers_[i]);
  }
  add_row(source, /*root_side=*/true, std::move(storage));
}

const double* DistanceOracle::row_in(std::uint32_t slot) {
  if (slot == kNone) return nullptr;
  rows_[slot].last_used = ++use_tick_;
  return rows_[slot].data->data();
}

void DistanceOracle::promote_if_hot(std::uint32_t source) {
  // Promotion is measured, not counted: once a source's point queries have
  // settled as many routers as one row does, the row is cheaper for its
  // next miss. Where the root side is at most half the graph, that row is
  // the root-side one.
  if (slot_of_[source] != kNone) return;
  if (2 * root_routers_.size() > num_routers_) {
    if (settled_by_[source] >= num_routers_) (void)cache_row(source);
  } else if (settled_by_[source] >= root_routers_.size() &&
             root_slot_of_[source] == kNone) {
    cache_root_row(source);
  }
}

const std::vector<double>& DistanceOracle::distances_from(RouterId source) {
  check_router(source);
  const std::uint32_t slot = slot_of_[source.value()];
  if (slot != kNone) {
    rows_[slot].last_used = ++use_tick_;
    return *rows_[slot].data;
  }
  return cache_row(source.value());
}

void DistanceOracle::check_router(RouterId r) const {
  DECSEQ_CHECK(r.valid() && r.value() < num_routers_);
}

void DistanceOracle::memoise(std::uint64_t key, double d) {
  // A memo that would outgrow the budget starts over at its capacity.
  if (memo_.grows_on_insert() &&
      cached_rows_bytes() + 2 * memo_.memory_bytes() >
          options_.max_cache_bytes) {
    memo_.clear();
  }
  memo_[key] = d;
}

double DistanceOracle::distance(RouterId a, RouterId b) {
  // Canonical orientation: the same (a, b) query must return the exact
  // same double every time, independent of cache state. Graph distances
  // are symmetric mathematically, but Dijkstra from a and from b sums the
  // path's edge weights in opposite orders, which can differ by an ULP —
  // and an ULP is enough to reorder simultaneous simulator events (a
  // publisher's messages overtaking each other). Always answer from the
  // lower-id endpoint.
  const RouterId lo = std::min(a, b);
  const RouterId hi = std::max(a, b);
  DECSEQ_CHECK(lo.valid() && hi.value() < num_routers_);
  const std::uint32_t lov = lo.value();
  const std::uint32_t hiv = hi.value();
  const std::uint64_t key = pair_key(lov, hiv);
  if (const double* memo = memo_.find(key)) return *memo;
  promote_if_hot(lov);
  if (const double* row = row_in(slot_of_[lov])) return row[hiv];
  const double* root_row = row_in(root_slot_of_[lov]);
  const std::uint32_t p = outermost_of(hiv);
  if (root_row != nullptr && p == kNone) return root_row[root_index_[hiv]];
  begin_targets();
  (void)mark_target(hiv);
  if (root_row != nullptr && p != outermost_of(lov)) {
    run_pendant(p, root_row, 1);
  } else {
    run_point_query(lov, 1);
  }
  const double d = settled_dist(hiv);
  memoise(key, d);
  return d;
}

void DistanceOracle::distances_between(RouterId common,
                                       const std::vector<RouterId>& targets,
                                       std::vector<double>& out) {
  check_router(common);
  for (const RouterId t : targets) check_router(t);
  const std::uint32_t cv = common.value();
  out.resize(targets.size());
  // Targets on `common`'s canonical side (id >= common) read from common's
  // full row, else from the pair memo, else from its root-side row; the
  // misses settle together, in one pruned run and one pendant run per
  // outermost pendant. Lower-id targets must answer from their own side
  // (see distance()) and go through distance() one by one, after these
  // runs' values are read.
  const double* row = row_in(slot_of_[cv]);
  misses_.clear();
  for (std::size_t i = 0; row == nullptr && i < targets.size(); ++i) {
    const std::uint32_t tv = targets[i].value();
    if (tv < cv) continue;
    if (const double* memo = memo_.find(pair_key(cv, tv))) {
      out[i] = *memo;
    } else {
      misses_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  if (!misses_.empty()) {
    promote_if_hot(cv);
    row = row_in(slot_of_[cv]);
  }
  if (row != nullptr) {
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const std::uint32_t tv = targets[i].value();
      if (tv >= cv) out[i] = row[tv];
    }
  } else if (!misses_.empty()) {
    const double* root_row = row_in(root_slot_of_[cv]);
    const std::uint32_t own = outermost_of(cv);
    by_pendant_.clear();
    computed_.clear();
    begin_targets();
    std::size_t pending = 0;
    for (const std::uint32_t i : misses_) {
      const std::uint32_t tv = targets[i].value();
      const std::uint32_t p = outermost_of(tv);
      if (root_row != nullptr && p == kNone) {
        out[i] = root_row[root_index_[tv]];
      } else if (root_row != nullptr && p != own) {
        by_pendant_.emplace_back(p, i);
      } else {
        computed_.push_back(i);
        if (mark_target(tv)) ++pending;
      }
    }
    if (pending > 0) {
      run_point_query(cv, pending);
      for (const std::uint32_t i : computed_) {
        out[i] = settled_dist(targets[i].value());
      }
    }
    // One pendant run per outermost pendant, for all of its targets.
    std::sort(by_pendant_.begin(), by_pendant_.end());
    for (std::size_t first = 0; first < by_pendant_.size();) {
      const std::uint32_t p = by_pendant_[first].first;
      std::size_t last = first;
      begin_targets();
      pending = 0;
      for (; last < by_pendant_.size() && by_pendant_[last].first == p;
           ++last) {
        if (mark_target(targets[by_pendant_[last].second].value())) {
          ++pending;
        }
      }
      run_pendant(p, root_row, pending);
      for (; first < last; ++first) {
        const std::uint32_t i = by_pendant_[first].second;
        out[i] = settled_dist(targets[i].value());
        computed_.push_back(i);
      }
    }
    // Only now, with every value read, record the runs' answers: a memo
    // over budget is emptied on the way. A repeated target is recorded
    // once.
    for (const std::uint32_t i : computed_) {
      const std::uint64_t key = pair_key(cv, targets[i].value());
      if (memo_.find(key) == nullptr) memoise(key, out[i]);
    }
  }
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (targets[i].value() < cv) out[i] = distance(targets[i], common);
  }
}

}  // namespace decseq::topology
