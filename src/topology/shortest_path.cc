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
    : options_(options), num_routers_(g.num_routers()) {
  // CSR copy of the adjacency, preserving per-router edge order so every
  // relaxation happens in the same order (and on the same doubles) as a
  // walk of the source graph.
  adj_offset_.resize(num_routers_ + 1, 0);
  std::size_t total = 0;
  for (std::size_t v = 0; v < num_routers_; ++v) {
    adj_offset_[v] = static_cast<std::uint32_t>(total);
    total += g.neighbors(RouterId(static_cast<RouterId::underlying_type>(v)))
                 .size();
  }
  adj_offset_[num_routers_] = static_cast<std::uint32_t>(total);
  adj_target_.reserve(total);
  adj_delay_.reserve(total);
  for (std::size_t v = 0; v < num_routers_; ++v) {
    for (const Edge& e :
         g.neighbors(RouterId(static_cast<RouterId::underlying_type>(v)))) {
      adj_target_.push_back(e.to.value());
      adj_delay_.push_back(e.delay_ms);
    }
  }

  dist_.resize(num_routers_, kInf);
  dist_stamp_.resize(num_routers_, 0);
  target_stamp_.resize(num_routers_, 0);
  slot_of_.resize(num_routers_, kNone);
  settled_by_.resize(num_routers_, 0);
  find_pendants();
  pendant_mark_.resize(pendant_parent_.size(), 0);
}

void DistanceOracle::find_pendants() {
  // Tarjan's bridge search with an explicit stack. A DFS tree arc
  // (parent, v) is a bridge iff no back arc from v's subtree reaches
  // parent or above: low[v] > pre[parent]. Each router skips one arc back
  // to its DFS parent — the tree arc itself — so a doubled link to the
  // parent counts as a back arc and is (correctly) no bridge.
  const auto n = static_cast<std::uint32_t>(num_routers_);
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
    stack.push_back({v, adj_offset_[v], false});
  };
  for (std::uint32_t root = 0; root < n; ++root) {
    if (pre[root] != kNone) continue;
    visit(root);
    while (!stack.empty()) {
      // Scan v's arcs up to its next unvisited child, folding back arcs
      // into low[v].
      Frame& f = stack.back();
      const std::uint32_t v = f.v;
      const std::uint32_t end = adj_offset_[v + 1];
      const std::uint32_t parent_v = parent[v];
      bool skipped = f.skipped_parent_arc;
      std::uint32_t low_v = low[v];
      std::uint32_t child = kNone;
      std::uint32_t e = f.next_arc;
      while (e < end) {
        const std::uint32_t w = adj_target_[e++];
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
  for (const std::uint32_t v : preorder) {
    const std::uint32_t enclosing =
        parent[v] == kNone ? kNone : pendant_of_[parent[v]];
    if (bridge_child[v] != 0) {
      pendant_of_[v] = static_cast<std::uint32_t>(pendant_parent_.size());
      pendant_parent_.push_back(enclosing);
    } else {
      pendant_of_[v] = enclosing;
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
       p != kNone && pendant_mark_[p] != target_gen_; p = pendant_parent_[p]) {
    pendant_mark_[p] = target_gen_;
  }
}

bool DistanceOracle::mark_target(std::uint32_t node) {
  if (target_stamp_[node] == target_gen_) return false;
  target_stamp_[node] = target_gen_;
  open_pendants(node);
  return true;
}

void DistanceOracle::run_dijkstra(std::uint32_t source,
                                  std::vector<double>* row,
                                  std::size_t pending) {
  if (++stamp_ == 0) {
    // uint32 wraparound: every stamp is stale again — reset explicitly.
    std::fill(dist_stamp_.begin(), dist_stamp_.end(), 0u);
    stamp_ = 1;
  }
  const bool point = row == nullptr;
  if (point) open_pendants(source);
  std::uint32_t settled = 0;
  heap_.clear();
  dist_[source] = 0.0;
  dist_stamp_[source] = stamp_;
  heap_push(0.0, source);
  while (!heap_.empty()) {
    const HeapEntry top = heap_pop();
    const std::uint32_t u = top.node;
    if (top.dist > dist_[u]) continue;  // stale entry (lazy deletion)
    ++settled;
    if (point && target_stamp_[u] == target_gen_ && --pending == 0) break;
    const std::uint32_t begin = adj_offset_[u];
    const std::uint32_t end = adj_offset_[u + 1];
    for (std::uint32_t e = begin; e < end; ++e) {
      const std::uint32_t v = adj_target_[e];
      if (point) {
        // Closed pendants hold neither the source nor a target: any path
        // in would leave by the same bridge. The run never gets inside
        // one, so a router in a closed pendant can only be its root,
        // reached across the bridge — which is skipped.
        const std::uint32_t p = pendant_of_[v];
        if (p != kNone && pendant_mark_[p] != target_gen_) continue;
      }
      const double nd = top.dist + adj_delay_[e];
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
  if (point) {
    ++stats_.point_queries;
    stats_.settled += settled;
    settled_by_[source] += settled;
    return;
  }
  row->resize(num_routers_);
  for (std::size_t v = 0; v < num_routers_; ++v) {
    (*row)[v] = dist_stamp_[v] == stamp_ ? dist_[v] : kInf;
  }
}

const std::vector<double>& DistanceOracle::cache_row(std::uint32_t source) {
  // Evict least-recently-used rows past the byte budget (always keeping
  // room for this one); reuse the evicted storage — rows are all the same
  // size, so the buffer swap costs nothing.
  std::unique_ptr<std::vector<double>> storage;
  while (!rows_.empty() && (rows_.size() + 1) * row_bytes() +
                                   memo_.memory_bytes() >
                               options_.max_cache_bytes) {
    std::size_t victim = 0;
    for (std::size_t i = 1; i < rows_.size(); ++i) {
      if (rows_[i].last_used < rows_[victim].last_used) victim = i;
    }
    // An evicted source earns its next row afresh, so rows never cost
    // more than the point queries before them, however tight the budget.
    slot_of_[rows_[victim].source] = kNone;
    settled_by_[rows_[victim].source] = 0;
    storage = std::move(rows_[victim].data);
    if (victim != rows_.size() - 1) {
      rows_[victim] = std::move(rows_.back());
      slot_of_[rows_[victim].source] = static_cast<std::uint32_t>(victim);
    }
    rows_.pop_back();
    ++stats_.evictions;
  }
  if (storage == nullptr) storage = std::make_unique<std::vector<double>>();
  run_dijkstra(source, storage.get(), 0);
  ++stats_.full_rows;
  slot_of_[source] = static_cast<std::uint32_t>(rows_.size());
  rows_.push_back({source, ++use_tick_, std::move(storage)});
  return *rows_.back().data;
}

const double* DistanceOracle::cached_row(std::uint32_t source) {
  const std::uint32_t slot = slot_of_[source];
  if (slot == kNone) return nullptr;
  rows_[slot].last_used = ++use_tick_;
  return rows_[slot].data->data();
}

void DistanceOracle::promote_if_hot(std::uint32_t source) {
  // Promotion is measured, not counted: once a source's point queries have
  // settled as many routers as one full row does, the row is cheaper.
  if (settled_by_[source] >= num_routers_ && slot_of_[source] == kNone) {
    (void)cache_row(source);
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
      rows_.size() * row_bytes() + 2 * memo_.memory_bytes() >
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
  if (const double* row = cached_row(lov)) return row[hiv];
  begin_targets();
  (void)mark_target(hiv);
  run_dijkstra(lov, nullptr, 1);
  const double d = settled_dist(hiv);
  memoise(key, d);
  promote_if_hot(lov);
  return d;
}

RouterId DistanceOracle::closest(const std::vector<RouterId>& candidates,
                                 RouterId target) {
  DECSEQ_CHECK(!candidates.empty());
  check_router(target);
  for (const RouterId c : candidates) check_router(c);
  // One Dijkstra from the target answers every candidate; never cache a
  // per-candidate row for this query. From a target row this is a pure
  // lookup; otherwise one pruned run settles the whole candidate set.
  const double* row = cached_row(target.value());
  if (row == nullptr) {
    begin_targets();
    std::size_t pending = 0;
    for (const RouterId c : candidates) {
      if (mark_target(c.value())) ++pending;
    }
    run_dijkstra(target.value(), nullptr, pending);
  }
  const auto dist_of = [&](RouterId c) {
    return row != nullptr ? row[c.value()] : settled_dist(c.value());
  };
  RouterId best = candidates.front();
  double best_d = dist_of(best);
  for (const RouterId c : candidates) {
    const double d = dist_of(c);
    if (d < best_d) {
      best = c;
      best_d = d;
    }
  }
  if (row == nullptr) promote_if_hot(target.value());
  return best;
}

void DistanceOracle::distances_between(RouterId common,
                                       const std::vector<RouterId>& targets,
                                       std::vector<double>& out) {
  check_router(common);
  for (const RouterId t : targets) check_router(t);
  const std::uint32_t cv = common.value();
  out.resize(targets.size());
  // Targets on `common`'s canonical side (id >= common) read from common's
  // row, else from the pair memo; the misses settle together in one pruned
  // run. Lower-id targets must answer from their own side (see distance())
  // and go through distance() one by one, after this run's values are read.
  if (const double* row = cached_row(cv)) {
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const std::uint32_t tv = targets[i].value();
      if (tv >= cv) out[i] = row[tv];
    }
  } else {
    begin_targets();
    std::size_t pending = 0;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const std::uint32_t tv = targets[i].value();
      if (tv < cv) continue;
      if (const double* memo = memo_.find(pair_key(cv, tv))) {
        out[i] = *memo;
      } else if (mark_target(tv)) {
        ++pending;
      }
    }
    if (pending > 0) {
      run_dijkstra(cv, nullptr, pending);
      const auto missed = [&](std::uint32_t tv) {
        return tv >= cv && target_stamp_[tv] == target_gen_;
      };
      for (std::size_t i = 0; i < targets.size(); ++i) {
        const std::uint32_t tv = targets[i].value();
        if (missed(tv)) out[i] = settled_dist(tv);
      }
      // Only now, with every value read, record the run's answers: a memo
      // over budget is emptied on the way. A repeated target is recorded
      // once.
      for (std::size_t i = 0; i < targets.size(); ++i) {
        const std::uint32_t tv = targets[i].value();
        const std::uint64_t key = pair_key(cv, tv);
        if (missed(tv) && memo_.find(key) == nullptr) memoise(key, out[i]);
      }
      promote_if_hot(cv);
    }
  }
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (targets[i].value() < cv) out[i] = distance(targets[i], common);
  }
}

}  // namespace decseq::topology
