#include "protocol/network.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/log.h"
#include "common/ref_pool.h"

namespace decseq::protocol {

namespace {

/// Pooled shared wrapper around a finalized message, so a fan-out over N
/// subscribers schedules events that each capture {this, plan, span, ref}
/// (32 bytes, well inside the simulator's inline-callback buffer) instead
/// of N deep copies of the stamp list and body into N heap-spilled
/// lambdas. The header inside is immutable from here on — sequencing is
/// complete once distribute() runs.
class SharedMessage : public common::RefPooled<SharedMessage> {
 public:
  [[nodiscard]] const Message& message() const { return message_; }

 private:
  friend class common::RefPooled<SharedMessage>;

  SharedMessage() = default;

  void init(Message&& m) { message_ = std::move(m); }

  void recycle() {
    message_.data.reset();
    message_.stamps.clear();  // keeps any spilled stamp capacity
    message_.group_seq = 0;
    message_.path_pos = 0;
    message_.epoch = 0;
  }

  Message message_;
};

}  // namespace

SequencingNetwork::SequencingNetwork(
    sim::Simulator& sim, Rng& rng, const seqgraph::SequencingGraph& graph,
    const placement::Colocation& colocation,
    const placement::Assignment& assignment,
    const membership::GroupMembership& membership,
    const topology::HostMap& hosts, topology::DistanceOracle& oracle,
    NetworkOptions options, const topology::Graph* physical_network,
    std::nullptr_t)
    : sim_(&sim),
      rng_(&rng),
      graph_(&graph),
      colocation_(&colocation),
      assignment_(&assignment),
      membership_(&membership),
      hosts_(&hosts),
      oracle_(&oracle),
      options_(options),
      atom_next_seq_(graph.num_atoms(), 1),
      receivers_(membership.num_nodes()),
      seqnode_load_(colocation.num_nodes(), 0),
      node_down_(colocation.num_nodes(), false),
      publisher_down_(membership.num_nodes(), false),
      physical_network_(physical_network) {
  // The ingress retry backs off from the channels' timeout as well.
  DECSEQ_CHECK(std::isfinite(options_.channel.retransmit_timeout_ms) &&
               options_.channel.retransmit_timeout_ms > 0.0);
  DECSEQ_CHECK_MSG(!options_.tree_distribution || physical_network_ != nullptr,
                   "tree distribution needs the physical network graph");
  compile_routes();

  // One receiver per subscriber that belongs to at least one group.
  for (std::size_t n = 0; n < membership.num_nodes(); ++n) {
    const NodeId node(static_cast<NodeId::underlying_type>(n));
    std::vector<GroupId> subs = membership.groups_of(node);
    if (subs.empty()) continue;
    receivers_[n] = std::make_unique<Receiver>(
        node, std::move(subs), relevant_atoms_for(node, graph),
        local_delivery_fn(node));
  }
  // Build every distribution plan at construction. Deferring them to first
  // exit pushed their oracle work (one full row per uncached
  // lower-id member router) into whatever window the first exit happened to
  // land in — measurably, the first reconfigure_async: its cutover fences
  // need the old member set's plans, so a transition on a freshly built
  // system paid ~10x its steady-state control cost (churn_bench's
  // cold-first gate pins this down).
  fanout_plans_.resize(group_routes_.size());
  for (const GroupId g : graph_->groups()) {
    (void)fanout_plan(g, graph_->path(g).back());
  }
}

Receiver::DeliverFn SequencingNetwork::local_delivery_fn(NodeId node) {
  return [this, node](const Message& m, sim::Time at) {
    if (m.data->is_fence()) {
      // A cutover fence is control plane: it drains the transition instead
      // of surfacing as a delivery.
      DECSEQ_CHECK(fences_outstanding_ > 0);
      --fences_outstanding_;
      if (fences_outstanding_ == 0) {
        // Transition drained. The span event delivering this fence is
        // still iterating its stashed fan-out plan, so compact one
        // zero-delay event later, once the stack is clear.
        sim_->schedule_after(0.0, [this] { compact_transition_state(); });
      }
      return;
    }
    tracer_.record({TraceEvent::Kind::kDelivered, m.id(), at, AtomId{},
                    SeqNodeId{}, node, 0});
    if (on_delivery_) on_delivery_(node, m, at);
  };
}

void SequencingNetwork::compile_routes() {
  const std::vector<GroupId> groups = graph_->groups();

  // One FIFO channel per directed path edge in use, stored sorted by
  // (from, to), before the hops so their compilation below can take each
  // Channel* by index.
  (void)append_path_channels(groups, 0);

  // Flatten every group's path into the hop table. This is the state the
  // seed kept in per-atom hash maps (next_hop / prev_hop / next_group_seq);
  // from here on a hop is group_routes_[g].first_hop + path_pos.
  GroupId::underlying_type max_group = 0;
  std::size_t total_hops = 0;
  for (const GroupId g : groups) {
    max_group = std::max(max_group, g.value());
    total_hops += graph_->path(g).size();
  }
  group_routes_.resize(groups.empty() ? 0 : max_group + 1);
  route_hops_.reserve(total_hops);
  for (const GroupId g : groups) {
    append_route_span(g, graph_->path(g), group_routes_[g.value()]);
  }
}

std::size_t SequencingNetwork::append_path_channels(
    const std::vector<GroupId>& groups, std::size_t base) {
  // Every edge of a path laid out at or beyond `base` joins two atoms of
  // the dense range [base, num_atoms). A counting pass buckets the edges
  // (one per group crossing them) by from-atom; each bucket then keeps its
  // distinct to-atoms, a handful at most, in ascending order. So the
  // channels come out in (from, to) order with no comparison sort, whether
  // the paths run along AtomId order (chains) or against it (trees).
  span_base_ = base;
  const std::size_t span = graph_->num_atoms() - base;
  span_channels_.assign(span + 1, 0);
  std::size_t num_edges = 0;
  const auto laid_out = [&](GroupId g) {
    return graph_->has_path(g) && graph_->path(g).front().value() >= base;
  };
  for (const GroupId g : groups) {
    if (!laid_out(g)) continue;  // preserved verbatim: its channels exist
    const auto& path = graph_->path(g);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      DECSEQ_CHECK(path[i].value() >= base && path[i + 1].value() >= base);
      ++span_channels_[path[i].value() - base + 1];
    }
    num_edges += path.size() - 1;
  }
  for (std::size_t k = 0; k < span; ++k) {
    span_channels_[k + 1] += span_channels_[k];
  }
  // Scatter: each bucket's cursor ends at the next bucket's start.
  edge_to_.resize(num_edges);
  for (const GroupId g : groups) {
    if (!laid_out(g)) continue;
    const auto& path = graph_->path(g);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      edge_to_[span_channels_[path[i].value() - base]++] = path[i + 1];
    }
  }
  constexpr std::uint32_t kUnseen = 0xffffffffu;
  edge_seen_.assign(span, kUnseen);
  const std::size_t first_channel = channels_.size();
  std::uint32_t begin = 0;
  for (std::size_t k = 0; k < span; ++k) {
    const std::uint32_t end = span_channels_[k];
    std::uint32_t distinct = begin;
    for (std::uint32_t i = begin; i < end; ++i) {
      const AtomId to = edge_to_[i];
      std::uint32_t& seen = edge_seen_[to.value() - base];
      if (seen == k) continue;
      seen = static_cast<std::uint32_t>(k);
      std::uint32_t j = distinct++;
      for (; j > begin && to < edge_to_[j - 1]; --j) {
        edge_to_[j] = edge_to_[j - 1];
      }
      edge_to_[j] = to;
    }
    // From here on the entry is the bucket's first channel index.
    span_channels_[k] = static_cast<std::uint32_t>(channels_.size());
    const AtomId from(static_cast<AtomId::underlying_type>(base + k));
    for (std::uint32_t i = begin; i < distinct; ++i) {
      const std::pair<AtomId, AtomId> edge{from, edge_to_[i]};
      DECSEQ_CHECK(channel_edges_.empty() || channel_edges_.back() < edge);
      auto channel = make_channel(edge.first, edge.second);
      // A channel born while its receiving machine is down must start in
      // the held state, like the survivors fail_node() flipped.
      if (node_down_[colocation_->node_of(edge.second).value()]) {
        channel->set_receiver_down(true);
      }
      channel_edges_.push_back(edge);
      channels_.push_back(std::move(channel));
    }
    begin = end;
  }
  span_channels_[span] = static_cast<std::uint32_t>(channels_.size());
  return channels_.size() - first_channel;
}

std::unique_ptr<sim::Channel<Message>> SequencingNetwork::make_channel(
    AtomId from, AtomId to) {
  const double delay = machine_distance(from, to);
  std::unique_ptr<sim::Channel<Message>> channel;
  if (spare_channels_.empty()) {
    channel = std::make_unique<sim::Channel<Message>>(*sim_, *rng_, delay,
                                                      options_.channel);
  } else {
    channel = std::move(spare_channels_.back());
    spare_channels_.pop_back();
    channel->reset(*sim_, *rng_, delay, options_.channel);
  }
  // An instant channel delivers as the last protocol action of its data
  // event, so the hops after it may run in place. Any other channel
  // schedules its ack after the delivery; a chain run there would take the
  // ack's place in the queue.
  channel->set_receiver([this, to, tail = channel->instant()](Message&& m) {
    handle_at_atom(to, std::move(m), tail);
  });
  // Exhaustion surfaces here as an edge-tagged fault record instead of
  // killing the run; the channel keeps probing and recover_node /
  // recover_link clear the state (see channel_faults()).
  channel->set_fault_callback([this, from, to](const ChannelFault& f) {
    channel_faults_.push_back({from, to, f.seq, f.attempts, f.at});
  });
  return channel;
}

void SequencingNetwork::append_route_span(GroupId g,
                                          const std::vector<AtomId>& path,
                                          GroupRoute& route) {
  route.first_hop = static_cast<std::uint32_t>(route_hops_.size());
  route.num_hops = static_cast<std::uint32_t>(path.size());
  route.ingress = path.front();
  route.ingress_node = colocation_->node_of(path.front());
  route.ingress_router = machine_of_atom(path.front());
  for (std::size_t i = 0; i < path.size(); ++i) {
    RouteHop hop;
    hop.atom = path[i];
    hop.node = colocation_->node_of(path[i]);
    hop.stamps = graph_->atom(path[i]).stamps(g);
    if (i + 1 < path.size()) {
      // The from-atom's channels are a run of the table; scan it for the
      // to-atom (chain layouts have one, tree layouts a few).
      const std::size_t k = path[i].value() - span_base_;
      DECSEQ_CHECK_MSG(path[i].value() >= span_base_ &&
                           k + 1 < span_channels_.size(),
                       "no channel " << path[i] << " -> " << path[i + 1]);
      std::uint32_t c = span_channels_[k];
      while (c < span_channels_[k + 1] &&
             channel_edges_[c].second != path[i + 1]) {
        ++c;
      }
      DECSEQ_CHECK_MSG(c < span_channels_[k + 1],
                       "no channel " << path[i] << " -> " << path[i + 1]);
      hop.forward = channels_[c].get();
      hop.next_node = colocation_->node_of(path[i + 1]);
      hop.crosses_machine = hop.node != hop.next_node;
    }
    route_hops_.push_back(hop);
  }
}

std::size_t SequencingNetwork::channel_index(AtomId from, AtomId to) const {
  const std::pair<AtomId, AtomId> edge{from, to};
  const auto it =
      std::lower_bound(channel_edges_.begin(), channel_edges_.end(), edge);
  DECSEQ_CHECK_MSG(it != channel_edges_.end() && *it == edge,
                   "no channel " << from << " -> " << to);
  return static_cast<std::size_t>(it - channel_edges_.begin());
}

std::vector<AtomId> SequencingNetwork::compiled_route(GroupId g) const {
  if (!g.valid() || g.value() >= group_routes_.size()) return {};
  const GroupRoute& route = group_routes_[g.value()];
  std::vector<AtomId> atoms;
  atoms.reserve(route.num_hops);
  for (std::uint32_t i = 0; i < route.num_hops; ++i) {
    atoms.push_back(route_hops_[route.first_hop + i].atom);
  }
  return atoms;
}

RouterId SequencingNetwork::machine_of_atom(AtomId a) const {
  return assignment_->machine_of(colocation_->node_of(a));
}

double SequencingNetwork::machine_distance(AtomId a, AtomId b) {
  const RouterId ra = machine_of_atom(a), rb = machine_of_atom(b);
  if (ra == rb) return 0.0;
  // Channel delays are compiled once per channel and stored. A cold machine
  // pair costs the oracle one pruned point query, or, once the lower-id
  // machine has earned its root-side row, a row read or a run inside the
  // other machine's stub domain; never a full row.
  return oracle_->distance(ra, rb);
}

MsgId SequencingNetwork::publish(NodeId sender, GroupId group,
                                 std::uint64_t payload,
                                 std::vector<std::uint8_t> body) {
  return inject(sender, group, payload, body.data(), body.size(),
                /*is_fin=*/false);
}

MsgId SequencingNetwork::publish(NodeId sender, GroupId group,
                                 std::uint64_t payload,
                                 const std::uint8_t* body,
                                 std::size_t body_size) {
  DECSEQ_CHECK(body != nullptr || body_size == 0);
  return inject(sender, group, payload, body, body_size, /*is_fin=*/false);
}

MsgId SequencingNetwork::terminate_group(GroupId group, NodeId initiator) {
  return inject(initiator, group, 0, nullptr, 0, /*is_fin=*/true);
}

MessageRecord SequencingNetwork::record(MsgId id) const {
  DECSEQ_CHECK(id.valid() && id.value() < records_.size());
  const StoredRecord& stored = records_[id.value()];
  MessageRecord rec;
  rec.sender = stored.sender;
  rec.group = stored.group;
  if (!std::isnan(stored.exited_at)) {
    rec.exited_at = stored.exited_at;
    rec.stamps = stored.stamps;
    rec.header_bytes = ordering_header_bytes(rec.stamps);
  }
  rec.rejected = stored.rejected;
  rec.ingress_failed = stored.ingress_failed;
  rec.ingress_retries = stored.ingress_retries;
  return rec;
}

MsgId SequencingNetwork::append_record(NodeId sender, GroupId group) {
  const MsgId id(static_cast<MsgId::underlying_type>(records_.size()));
  StoredRecord& rec = records_.emplace_back();
  rec.group = group;
  rec.sender = sender;
  return id;
}

MsgId SequencingNetwork::inject(NodeId sender, GroupId group,
                                std::uint64_t payload,
                                const std::uint8_t* body,
                                std::size_t body_size, bool is_fin) {
  DECSEQ_CHECK_MSG(graph_->has_path(group),
                   "publish to group " << group << " with no path");
  DECSEQ_CHECK_MSG(!group_terminated(group),
                   "group " << group << " was terminated");
  DECSEQ_CHECK_MSG(!is_fin || !publisher_failed(sender),
                   "group termination initiated from crashed publisher "
                       << sender);
  if (is_fin) group_route(group).terminated = true;
  const MsgId id = append_record(sender, group);
  if (publisher_failed(sender)) {
    // The publisher host is down: the publish never leaves it. Recorded as
    // an ingress failure the publisher (and the fuzzer's oracles) can see.
    records_.back().ingress_failed = true;
    return id;
  }

  // The one payload copy of the message's lifetime: publish bytes into the
  // shared block. Everything downstream passes the reference around.
  PayloadRef block = PayloadBlock::create(id, group, sender, sim_->now(),
                                          payload, body, body_size, is_fin);
  tracer_.record({TraceEvent::Kind::kPublished, id, sim_->now(), AtomId{},
                  SeqNodeId{}, sender, 0});

  const GroupRoute& route = group_route(group);
  const double delay =
      oracle_->distance(hosts_->router_of(sender), route.ingress_router);
  // The ingress leg needs no inter-sequencer FIFO machinery: a constant
  // per-pair delay preserves each sender's send order, and the ingress
  // sequencer defines the global order on arrival.
  sim_->schedule_after(delay,
                       [this, ingress = route.ingress,
                        block = std::move(block)] {
                         arrive_at_ingress(ingress, block, /*attempts=*/0);
                       });
  return id;
}

void SequencingNetwork::arrive_at_ingress(AtomId ingress, PayloadRef payload,
                                          std::uint32_t attempts) {
  GroupRoute& route = group_route(payload->group());
  if (route.num_hops > 0 && ingress != route.ingress) {
    // The group's ingress moved (zero-downtime reconfiguration) while this
    // message's ingress leg was in flight: redirect it from the old ingress
    // machine to the new one, where it is sequenced post-fence, in the new
    // epoch — exactly what its arrival after the cutover means. The extra
    // leg is a constant per (old, new) machine pair, so a sender's publish
    // order holds among the messages redirected together. It does not hold
    // against a later publish sent straight to the new ingress: that one
    // skips the detour and can take a group sequence number first. Only
    // publish_causal chains, which never overlap, keep a sender's order
    // across a cutover.
    const RouterId from = machine_of_atom(ingress);
    const double leg = from == route.ingress_router
                           ? 0.0
                           : oracle_->distance(from, route.ingress_router);
    sim_->schedule_after(leg, [this, target = route.ingress,
                               payload = std::move(payload), attempts] {
      arrive_at_ingress(target, payload, attempts);
    });
    return;
  }
  const SeqNodeId node = route.ingress_node;
  if (node_down_[node.value()]) {
    StoredRecord& rec = records_[payload->id().value()];
    if (publisher_failed(rec.sender)) {
      // The retrying publisher died: nobody is left to drive the loop.
      rec.ingress_failed = true;
      return;
    }
    // Publisher retry, on the channels' backoff schedule so a long
    // ingress-machine outage costs O(log) retries, not a retry storm. It is
    // deliberately NOT jittered: a sender's pending publishes retry in
    // lockstep, so the FIFO tie-break keeps them in publish order through
    // the outage. Jitter decorrelates independent hosts; within one
    // sender's serialized retry pipeline it would only scramble that order.
    DECSEQ_CHECK(rec.ingress_retries <
                 std::numeric_limits<std::uint32_t>::max());
    ++rec.ingress_retries;
    const std::uint32_t next = attempts + 1;
    sim_->schedule_after(
        backoff_delay(options_.channel.retransmit_timeout_ms, next),
        [this, ingress, payload = std::move(payload), next] {
          arrive_at_ingress(ingress, payload, next);
        });
    return;
  }
  if (route.ingress_closed) {
    // The FIN beat this message to the ingress: the group's sequence space
    // is closed and the publish is rejected (paper §3.2: the termination
    // message signifies the *end* of the sequence space).
    DECSEQ_CHECK(!payload->is_fin());
    records_[payload->id().value()].rejected = true;
    return;
  }
  if (payload->is_fin()) route.ingress_closed = true;
  ++seqnode_load_[node.value()];
  // Ingress: assign the group-local sequence number (paper §3.1). Only now
  // does the message grow its mutable ordering header. The routing epoch is
  // fixed here too: everything sequenced from now until the group's next
  // cutover fence rides this epoch's span.
  Message message;
  message.data = std::move(payload);
  message.group_seq = route.next_seq++;
  message.epoch = route.epoch;
  tracer_.record({TraceEvent::Kind::kIngress, message.id(), sim_->now(),
                  ingress, node, NodeId{}, message.group_seq});
  handle_at_atom(ingress, std::move(message), /*tail=*/true);
}

void SequencingNetwork::fail_node(SeqNodeId node) {
  DECSEQ_CHECK(node.valid() && node.value() < node_down_.size());
  DECSEQ_CHECK_MSG(!node_down_[node.value()], "node " << node
                                                      << " already down");
  node_down_[node.value()] = true;
  for (std::size_t i = 0; i < channel_edges_.size(); ++i) {
    if (colocation_->node_of(channel_edges_[i].second) == node) {
      channels_[i]->set_receiver_down(true);
    }
  }
}

void SequencingNetwork::fail_link(AtomId from, AtomId to) {
  sim::Channel<Message>& channel = *channels_[channel_index(from, to)];
  DECSEQ_CHECK_MSG(!channel.link_down(), "link already down");
  channel.set_link_down(true);
}

void SequencingNetwork::recover_link(AtomId from, AtomId to) {
  sim::Channel<Message>& channel = *channels_[channel_index(from, to)];
  DECSEQ_CHECK_MSG(channel.link_down(), "link not down");
  channel.set_link_down(false);
}

bool SequencingNetwork::link_failed(AtomId from, AtomId to) const {
  return channels_[channel_index(from, to)]->link_down();
}

void SequencingNetwork::recover_node(SeqNodeId node) {
  DECSEQ_CHECK(node.valid() && node.value() < node_down_.size());
  DECSEQ_CHECK_MSG(node_down_[node.value()], "node " << node << " not down");
  node_down_[node.value()] = false;
  for (std::size_t i = 0; i < channel_edges_.size(); ++i) {
    if (colocation_->node_of(channel_edges_[i].second) == node) {
      // Clears any surfaced fault and retransmits the held window (the
      // channel's resume-on-recovery semantics).
      channels_[i]->set_receiver_down(false);
    }
  }
}

std::vector<std::pair<AtomId, AtomId>> SequencingNetwork::sever_node_cut(
    const std::vector<char>& side) {
  // channel_edges_ is sorted by (from, to), so the severing (and its RNG
  // consumption downstream) is deterministic without re-sorting.
  std::vector<std::pair<AtomId, AtomId>> severed;
  for (std::size_t i = 0; i < channel_edges_.size(); ++i) {
    const SeqNodeId a = colocation_->node_of(channel_edges_[i].first);
    const SeqNodeId b = colocation_->node_of(channel_edges_[i].second);
    DECSEQ_CHECK(a.value() < side.size() && b.value() < side.size());
    if (side[a.value()] == side[b.value()]) continue;  // same side
    if (channels_[i]->link_down()) continue;           // already severed
    severed.push_back(channel_edges_[i]);
  }
  for (const auto& edge : severed) fail_link(edge.first, edge.second);
  return severed;
}

void SequencingNetwork::fail_publisher(NodeId node) {
  DECSEQ_CHECK(node.valid() && node.value() < publisher_down_.size());
  DECSEQ_CHECK_MSG(!publisher_down_[node.value()],
                   "publisher " << node << " already down");
  publisher_down_[node.value()] = true;
}

void SequencingNetwork::recover_publisher(NodeId node) {
  DECSEQ_CHECK(node.valid() && node.value() < publisher_down_.size());
  DECSEQ_CHECK_MSG(publisher_down_[node.value()],
                   "publisher " << node << " not down");
  publisher_down_[node.value()] = false;
}

std::vector<std::pair<AtomId, AtomId>> SequencingNetwork::faulted_edges()
    const {
  std::vector<std::pair<AtomId, AtomId>> edges;
  for (std::size_t i = 0; i < channel_edges_.size(); ++i) {
    if (channels_[i]->faulted()) edges.push_back(channel_edges_[i]);
  }
  return edges;  // channel_edges_ order is already sorted (from, to)
}

void SequencingNetwork::handle_at_atom(AtomId atom, Message&& message,
                                       bool tail) {
  // The whole forwarding decision: the group's compiled route plus the
  // message's position on it. No hash maps, no graph walks. A message
  // whose epoch predates the group's current span (sequenced before the
  // last cutover fence) drains on the stashed previous span.
  const GroupRoute& route = group_routes_[message.group().value()];
  const bool old_epoch = message.epoch != route.epoch;
  const std::uint32_t first_hop =
      old_epoch ? route.prev_first_hop : route.first_hop;
  const std::uint32_t num_hops =
      old_epoch ? route.prev_num_hops : route.num_hops;
  for (;;) {
    DECSEQ_CHECK_MSG(message.path_pos < num_hops,
                     "message " << message.id() << " at " << atom
                                << " off its compiled route");
    const RouteHop& hop = route_hops_[first_hop + message.path_pos];
    DECSEQ_CHECK_MSG(hop.atom == atom,
                     "message " << message.id() << " at " << atom
                                << " off its compiled route");
    // Stamp if this atom sequences an overlap of the message's group;
    // messages of other groups only transit (the Fig 2(b) redirection).
    //
    // An atom whose partner group was terminated keeps stamping the
    // surviving group until the next graph rebuild removes it — the
    // paper's §3.2 lazy removal: "adding ignored sequence numbers to a
    // message does not hurt correctness, only efficiency." Stopping early
    // would be a real bug: a pre-FIN message of the dead group can still
    // be in flight carrying this atom's stamp, and a post-FIN message of
    // the surviving group would then share no sequencer with it — two
    // overlap members could order the pair differently (found by the
    // chaos property test).
    if (hop.stamps) {
      message.stamps.push_back({atom, atom_next_seq_[atom.value()]++});
      if (tracer_.enabled()) {
        tracer_.record({TraceEvent::Kind::kStamped, message.id(),
                        sim_->now(), atom, hop.node, NodeId{},
                        message.stamps.back().seq});
      }
    } else if (tracer_.enabled()) {
      tracer_.record({TraceEvent::Kind::kTransited, message.id(), sim_->now(),
                      atom, hop.node, NodeId{}, 0});
    }
    if (hop.forward == nullptr) {
      distribute(atom, std::move(message));
      return;
    }
    // Count machine load once per visit: a hop between co-located atoms
    // stays on the same sequencing node.
    if (hop.crosses_machine) {
      ++seqnode_load_[hop.next_node.value()];
      if (tracer_.enabled()) {
        tracer_.record({TraceEvent::Kind::kForwarded, message.id(),
                        sim_->now(), atom, hop.next_node, NodeId{}, 0});
      }
    }
    ++message.path_pos;
    // The next atom runs here, in the place of the data event a send would
    // schedule, when that event would be the very next to fire; the hop
    // table's next entry is the channel's to-atom.
    if (!tail || !hop.forward->pass_in_place()) {
      hop.forward->send(std::move(message));
      return;
    }
    atom = route_hops_[first_hop + message.path_pos].atom;
  }
}

SequencingNetwork::FanOutPlan& SequencingNetwork::fanout_plan(
    GroupId group, AtomId last_atom) {
  const auto gv = group.value();
  if (gv >= fanout_plans_.size()) fanout_plans_.resize(gv + 1);
  auto& slot = fanout_plans_[gv];
  if (slot == nullptr) {
    slot = build_fanout_plan(last_atom, membership_->members(group));
  }
  return *slot;
}

std::unique_ptr<SequencingNetwork::FanOutPlan>
SequencingNetwork::build_fanout_plan(AtomId last_atom,
                                     const std::vector<NodeId>& members) {
  std::unique_ptr<FanOutPlan> plan = take_plan();
  const RouterId egress = machine_of_atom(last_atom);
  plan_routers_.clear();
  for (const NodeId member : members) {
    plan_routers_.push_back(hosts_->router_of(member));
  }
  if (options_.tree_distribution) {
    // One copy flows down the group's shortest-path delivery tree; members
    // hear it at their unicast delay, the network carries far fewer copies.
    plan->tree = std::make_unique<topology::MulticastTree>(
        *physical_network_, egress, plan_routers_);
    plan_delays_.clear();
    for (const RouterId router : plan_routers_) {
      plan_delays_.push_back(plan->tree->delay_to(router));
    }
  } else {
    // Unicast delays come from one batched oracle query, which settles the
    // member set's misses together instead of one point query (or full
    // row) per member.
    oracle_->distances_between(egress, plan_routers_, plan_delays_);
  }
  // Group the fan-out into spans of equal delay so distribution schedules
  // one simulator event per burst of same-time arrivals. Sorting on (delay,
  // member index) keeps members of a span in membership order, and
  // equal-delay targets previously occupied consecutive event-queue slots
  // anyway (FIFO tie-break), so delivery order is bit-identical to
  // per-target events.
  plan_order_.clear();
  for (std::uint32_t m = 0; m < members.size(); ++m) {
    plan_order_.emplace_back(plan_delays_[m], m);
  }
  std::sort(plan_order_.begin(), plan_order_.end());
  plan->targets.reserve(members.size());
  plan->spans.reserve(members.size());
  for (const auto& [delay, m] : plan_order_) {
    Receiver* receiver = receivers_[members[m].value()].get();
    DECSEQ_CHECK_MSG(receiver != nullptr,
                     "group member " << members[m] << " has no receiver");
    plan->targets.push_back({receiver, delay});
  }
  for (std::uint32_t i = 0; i < plan->targets.size();) {
    std::uint32_t j = i + 1;
    while (j < plan->targets.size() &&
           plan->targets[j].delay == plan->targets[i].delay) {
      ++j;
    }
    plan->spans.push_back({i, j, plan->targets[i].delay});
    i = j;
  }
  return plan;
}

std::unique_ptr<SequencingNetwork::FanOutPlan> SequencingNetwork::take_plan() {
  if (spare_plans_.empty()) return std::make_unique<FanOutPlan>();
  std::unique_ptr<FanOutPlan> plan = std::move(spare_plans_.back());
  spare_plans_.pop_back();
  plan->targets.clear();
  plan->spans.clear();
  plan->tree.reset();
  return plan;
}

void SequencingNetwork::distribute(AtomId last_atom, Message&& message) {
  GroupRoute& route = group_routes_[message.group().value()];
  const bool old_epoch = message.epoch != route.epoch;
  StoredRecord& rec = records_[message.id().value()];
  rec.exited_at = sim_->now();
  DECSEQ_CHECK_MSG(
      message.stamps.size() <= std::numeric_limits<std::uint16_t>::max(),
      "message " << message.id() << " exits with " << message.stamps.size()
                 << " stamps, more than its record holds");
  rec.stamps = static_cast<std::uint16_t>(message.stamps.size());
  if (tracer_.enabled()) {
    tracer_.record({TraceEvent::Kind::kExited, message.id(), sim_->now(),
                    last_atom, colocation_->node_of(last_atom), NodeId{}, 0});
  }

  if (message.is_fin() || message.data->is_fence()) {
    // The FIN — or a cutover fence, the last old-epoch message — exits last
    // on its span (FIFO channels: every earlier message already cleared
    // every hop), so that span can be dropped whole. The other epoch's
    // span, if any, lives in a disjoint hop range and keeps draining.
    if (old_epoch) {
      for (std::uint32_t i = 0; i < route.prev_num_hops; ++i) {
        route_hops_[route.prev_first_hop + i] = RouteHop{};
      }
      route.prev_num_hops = 0;
    } else {
      for (std::uint32_t i = 0; i < route.num_hops; ++i) {
        route_hops_[route.first_hop + i] = RouteHop{};
      }
      route.num_hops = 0;
    }
  }

  FanOutPlan* plan_ptr;
  if (old_epoch) {
    // Old-epoch traffic fans out to the *old* member set along the old
    // delays.
    plan_ptr = prev_fanout_plans_[message.group().value()].get();
    DECSEQ_CHECK_MSG(plan_ptr != nullptr,
                     "old-epoch exit without a stashed fan-out plan");
  } else {
    plan_ptr = &fanout_plan(message.group(), last_atom);
  }
  FanOutPlan& plan = *plan_ptr;
  if (plan.tree != nullptr) distribution_stress_.add_tree(*plan.tree);
  // The sequencing path is complete: freeze the message and share one copy
  // across the whole fan-out; each span wakes its whole same-time burst in
  // one event.
  auto shared = SharedMessage::create(std::move(message));
  for (std::uint32_t si = 0; si < plan.spans.size(); ++si) {
    sim_->schedule_after(plan.spans[si].delay,
                         [plan = &plan, si, shared, sim = sim_] {
                           const FanOutPlan::Span& span = plan->spans[si];
                           const sim::Time now = sim->now();
                           for (std::uint32_t t = span.begin; t < span.end;
                                ++t) {
                             plan->targets[t].receiver->receive(
                                 shared->message(), now);
                           }
                         });
  }
}

const std::vector<NodeId>& SequencingNetwork::old_members_of(
    GroupId g,
    const std::vector<std::vector<NodeId>>& old_members_by_slot) const {
  const auto gv = g.value();
  if (gv < old_members_by_slot.size() && !old_members_by_slot[gv].empty()) {
    const std::vector<NodeId>& snapshot = old_members_by_slot[gv];
    DECSEQ_CHECK_MSG(std::is_sorted(snapshot.begin(), snapshot.end()),
                     "unsorted old-member snapshot for group " << g);
    return snapshot;
  }
  // No snapshot: the batch did not touch the group's membership, so the
  // current list is the old one.
  DECSEQ_CHECK_MSG(membership_->is_alive(g),
                   "no old-member snapshot for group " << g);
  return membership_->members(g);
}

ReconfigureReport SequencingNetwork::begin_reconfigure(
    const std::vector<GroupId>& affected,
    const std::vector<std::vector<NodeId>>& old_members_by_slot) {
  ReconfigureReport report;
  DECSEQ_CHECK_MSG(fences_outstanding_ == 0,
                   "begin_reconfigure while a transition is still draining");
  DECSEQ_CHECK_MSG(!options_.tree_distribution,
                   "zero-downtime reconfiguration with tree distribution");
  // Lazily retire the previous transition's plans: the final fence's
  // fan-out events may still reference them at the instant that
  // transition completes, so they are recycled here, at the start of the
  // next one.
  for (auto& plan : prev_fanout_plans_) {
    if (plan != nullptr) spare_plans_.push_back(std::move(plan));
  }
  ++epoch_;

  cut_groups_.assign(affected.begin(), affected.end());
  std::sort(cut_groups_.begin(), cut_groups_.end());
  cut_groups_.erase(std::unique(cut_groups_.begin(), cut_groups_.end()),
                    cut_groups_.end());

  // Grow the dense per-atom / per-machine / per-group state for the delta
  // rebuild's appended atoms and any newly created groups.
  const std::size_t old_num_atoms = atom_next_seq_.size();
  atom_next_seq_.resize(graph_->num_atoms(), 1);
  seqnode_load_.resize(colocation_->num_nodes(), 0);
  node_down_.resize(colocation_->num_nodes(), false);
  if (!cut_groups_.empty() &&
      group_routes_.size() < cut_groups_.back().value() + 1) {
    group_routes_.resize(cut_groups_.back().value() + 1);
  }
  if (fanout_plans_.size() < group_routes_.size()) {
    fanout_plans_.resize(group_routes_.size());
  }
  prev_fanout_plans_.resize(group_routes_.size());
  cut_old_members_.resize(group_routes_.size(), nullptr);

  // Channels for the appended path edges. Re-laid paths are built entirely
  // from appended atoms, so every new edge sorts after every existing one
  // (the edge order keys on the from-atom first): the sorted channel table
  // extends by a plain append and the hot path's Channel* stay put.
  report.channels_created = append_path_channels(cut_groups_, old_num_atoms);

  // Cut each affected group over: stash the old epoch's span + fan-out
  // plan, compile the new span next to it, and flush the cutover fence
  // down the old span to the old member set.
  cut_fenced_.clear();
  for (const GroupId g : cut_groups_) {
    DECSEQ_CHECK_MSG(!group_terminated(g),
                     "reconfigure touches terminated group " << g);
    const auto gv = g.value();
    GroupRoute& route = group_routes_[gv];
    const bool had_old = route.num_hops > 0;
    const bool has_new = graph_->has_path(g);
    cut_old_members_[gv] = nullptr;
    if (!had_old && !has_new) continue;
    if (had_old) {
      const std::vector<NodeId>& old_members =
          old_members_of(g, old_members_by_slot);
      cut_old_members_[gv] = &old_members;
      // The cached plan (if any) predates the membership mutation, i.e. it
      // is the old member set's; otherwise build it from the old list.
      const AtomId old_last =
          route_hops_[route.first_hop + route.num_hops - 1].atom;
      if (fanout_plans_[gv] == nullptr) {
        fanout_plans_[gv] = build_fanout_plan(old_last, old_members);
      }
      prev_fanout_plans_[gv] = std::move(fanout_plans_[gv]);
      route.prev_first_hop = route.first_hop;
      route.prev_num_hops = route.num_hops;
      route.prev_ingress_router = route.ingress_router;
    }
    if (has_new) {
      const auto& path = graph_->path(g);
      append_route_span(g, path, route);
      report.hops_appended += path.size();
      route.epoch = epoch_;
      if (had_old) {
        sequence_fence(g, /*close_group=*/false,
                       cut_old_members_[gv]->size());
        cut_fenced_.push_back(g);
        ++report.groups_refenced;
      } else {
        ++report.groups_created;
      }
    } else {
      // Removed: the route dies behind a FIN-flagged fence. The stale
      // ingress identity stays, so a racing in-flight publish still
      // reaches the (now closed) old ingress and is rejected there.
      route.first_hop = 0;
      route.num_hops = 0;
      route.epoch = epoch_;
      sequence_fence(g, /*close_group=*/true, cut_old_members_[gv]->size());
      cut_fenced_.push_back(g);
      ++report.groups_removed;
    }
  }

  // Receiver cutover: arm the epoch gates (every old member of a fenced
  // group must observe that group's fence before any of its new-epoch
  // traffic may deliver) and claim the new epoch's counter slots.
  cut_over_receivers(old_num_atoms);

  report.fences_outstanding = fences_outstanding_;
  return report;
}

void SequencingNetwork::cut_over_receivers(std::size_t old_num_atoms) {
  const std::uint32_t current_epoch = epoch_;
  if (rc_slot_.empty()) rc_slot_.assign(membership_->num_nodes(), kNoCutSlot);
  // Clear the previous cutover's entries, keeping their lists' capacity.
  for (const std::uint32_t nv : rc_nodes_) {
    ReceiverReconfigure& rc = rc_pool_[rc_slot_[nv]];
    rc.awaited_fences.clear();
    rc.group_inits.clear();
    rc.new_atoms.clear();
    rc_slot_[nv] = kNoCutSlot;
  }
  rc_nodes_.clear();
  const auto rc_of = [&](NodeId n) -> ReceiverReconfigure& {
    std::uint32_t& slot = rc_slot_[n.value()];
    if (slot == kNoCutSlot) {
      slot = static_cast<std::uint32_t>(rc_nodes_.size());
      rc_nodes_.push_back(n.value());
      if (rc_pool_.size() == slot) rc_pool_.emplace_back();
      rc_pool_[slot].epoch = current_epoch;
    }
    return rc_pool_[slot];
  };
  for (const GroupId g : cut_fenced_) {
    for (const NodeId m : *cut_old_members_[g.value()]) {
      rc_of(m).awaited_fences.push_back(g);
    }
  }
  for (const GroupId g : cut_groups_) {
    const auto gv = g.value();
    const GroupRoute& route = group_routes_[gv];
    if (route.num_hops == 0) continue;
    const std::vector<NodeId>* old_members = cut_old_members_[gv];
    for (const NodeId m : membership_->members(g)) {
      // A member that stays keeps its live counters; everyone else — new
      // subscribers and rejoiners — starts at the first post-fence
      // sequence number.
      const bool continuing =
          old_members != nullptr && receivers_[m.value()] != nullptr &&
          std::binary_search(old_members->begin(), old_members->end(), m);
      if (!continuing) rc_of(m).group_inits.emplace_back(g, route.next_seq);
    }
  }
  // Newly relevant atoms (appended by the delta rebuild) need fresh
  // counters: one pass over the appended atoms hands each touched node its
  // new atoms in AtomId order, as relevant_atoms_for(node, graph,
  // old_num_atoms) lists them. An untouched node has none: an appended
  // overlap atom's members subscribe to both its groups, which this
  // cutover re-routed.
  const auto& atoms = graph_->atoms();
  for (std::size_t a = old_num_atoms; a < atoms.size(); ++a) {
    const seqgraph::Atom& atom = atoms[a];
    if (atom.is_ingress_only() || graph_->is_retired(atom.id)) continue;
    for (const NodeId m : atom.overlap_members) {
      const std::uint32_t slot = rc_slot_[m.value()];
      if (slot != kNoCutSlot) rc_pool_[slot].new_atoms.push_back(atom.id);
    }
  }
  std::sort(rc_nodes_.begin(), rc_nodes_.end());
  for (const std::uint32_t nv : rc_nodes_) {
    ReceiverReconfigure& rc = rc_pool_[rc_slot_[nv]];
    if (receivers_[nv] == nullptr) {
      DECSEQ_CHECK(rc.awaited_fences.empty());
      const NodeId node(static_cast<NodeId::underlying_type>(nv));
      std::vector<GroupId> subs = membership_->groups_of(node);
      DECSEQ_CHECK(!subs.empty());
      receivers_[nv] = std::make_unique<Receiver>(
          node, std::move(subs), relevant_atoms_for(node, *graph_),
          local_delivery_fn(node));
      // A fresh receiver seeds every slot at 1 and holds its relevant
      // atoms already; rejoined groups must start at the post-fence
      // sequence number instead.
      rc.new_atoms.clear();
    }
    receivers_[nv]->apply_reconfigure(rc);
  }
}

void SequencingNetwork::sequence_fence(GroupId group, bool close_group,
                                       std::size_t old_member_count) {
  GroupRoute& route = group_route(group);
  DECSEQ_CHECK(route.prev_num_hops > 0);
  const MsgId id = append_record(NodeId{}, group);
  if (close_group) {
    route.terminated = true;
    route.ingress_closed = true;
  }
  // The fence is sequenced synchronously at the old ingress, as the last
  // old-epoch message of the group: it consumes the next group sequence
  // number, travels the previous span collecting stamps like any message,
  // and fans out to the old member set. FIFO channels put everything
  // sequenced before it ahead of it; everything after it is new-epoch.
  Message message;
  message.data =
      PayloadBlock::create(id, group, NodeId{}, sim_->now(), 0, nullptr, 0,
                           /*is_fin=*/close_group, /*is_fence=*/true);
  message.group_seq = route.next_seq++;
  // Any value other than the new route epoch marks the fence old-epoch;
  // the previous epoch number keeps it meaningful in traces.
  message.epoch = epoch_ - 1;
  fences_outstanding_ += old_member_count;
  const RouteHop& first = route_hops_[route.prev_first_hop];
  ++seqnode_load_[first.node.value()];
  tracer_.record({TraceEvent::Kind::kIngress, id, sim_->now(), first.atom,
                  first.node, NodeId{}, message.group_seq});
  // Not in tail position: begin_reconfigure sequences the next fence right
  // after this one, so the first hop must queue behind them as an event.
  handle_at_atom(first.atom, std::move(message), /*tail=*/false);
}

void SequencingNetwork::compact_transition_state() {
  // A new transition may have begun before the deferred zero-delay event
  // fired; its own drain will compact instead.
  if (fences_outstanding_ != 0) return;

  // The drained transition's stashed fan-out plans: every fence has
  // delivered, so no span event references them any more.
  for (auto& plan : prev_fanout_plans_) {
    if (plan != nullptr) spare_plans_.push_back(std::move(plan));
  }

  // Channels serving only retired atoms carry no live route. Reclaim the
  // quiescent ones for the next transition's edges; a channel whose final
  // ack is still in flight (or that surfaced a fault) stays until a later
  // pass. Removal keeps the edge table sorted, and live hops hold Channel*
  // directly, so nothing position-dependent breaks.
  std::size_t w = 0;
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    const auto& [from, to] = channel_edges_[i];
    if (graph_->is_retired(from) && graph_->is_retired(to) &&
        channels_[i]->quiescent()) {
      ++channels_reclaimed_;
      spare_channels_.push_back(std::move(channels_[i]));
      continue;
    }
    if (w != i) {
      channel_edges_[w] = channel_edges_[i];
      channels_[w] = std::move(channels_[i]);
    }
    ++w;
  }
  channel_edges_.resize(w);
  channels_.resize(w);
  // Spares beyond the live table's size are freed: a transition rarely
  // appends more channels than are live, and the pool stays bounded.
  if (spare_channels_.size() > channels_.size()) {
    spare_channels_.resize(channels_.size());
  }

  // Fold the hop table down to the live spans, in place. Every prev span
  // was zeroed when its fence exited, so the live spans are exactly the
  // current ones. Taken in first_hop order, each span moves to or below
  // where it was, onto hops already folded or dead, so no span is
  // overwritten before it moves; the table keeps its capacity for the next
  // transition's spans. In-flight messages locate hops as first_hop +
  // path_pos at event time, so remapping first_hop here is invisible to
  // them.
  fold_order_.clear();
  for (std::size_t gv = 0; gv < group_routes_.size(); ++gv) {
    GroupRoute& route = group_routes_[gv];
    DECSEQ_CHECK(route.prev_num_hops == 0);
    if (route.num_hops == 0) {
      route.first_hop = 0;
      continue;
    }
    fold_order_.emplace_back(route.first_hop, static_cast<std::uint32_t>(gv));
  }
  std::sort(fold_order_.begin(), fold_order_.end());
  std::uint32_t folded = 0;
  for (const auto& [first, gv] : fold_order_) {
    GroupRoute& route = group_routes_[gv];
    if (first != folded) {
      std::copy(route_hops_.begin() + first,
                route_hops_.begin() + first + route.num_hops,
                route_hops_.begin() + folded);
    }
    route.first_hop = folded;
    folded += route.num_hops;
  }
  route_hops_.resize(folded);
  ++compactions_run_;
}

std::size_t SequencingNetwork::routing_table_bytes() const {
  std::size_t bytes =
      route_hops_.capacity() * sizeof(RouteHop) +
      group_routes_.capacity() * sizeof(GroupRoute) +
      channel_edges_.capacity() * sizeof(channel_edges_[0]) +
      (channels_.capacity() + spare_channels_.capacity()) *
          sizeof(channels_[0]) +
      (channels_.size() + spare_channels_.size()) *
          sizeof(sim::Channel<Message>) +
      (fanout_plans_.capacity() + prev_fanout_plans_.capacity() +
       spare_plans_.capacity()) *
          sizeof(fanout_plans_[0]);
  const auto plan_bytes = [](const std::unique_ptr<FanOutPlan>& plan) {
    if (plan == nullptr) return std::size_t{0};
    return sizeof(FanOutPlan) +
           plan->targets.capacity() * sizeof(FanOutTarget) +
           plan->spans.capacity() * sizeof(FanOutPlan::Span);
  };
  for (const auto& plan : fanout_plans_) bytes += plan_bytes(plan);
  for (const auto& plan : prev_fanout_plans_) bytes += plan_bytes(plan);
  for (const auto& plan : spare_plans_) bytes += plan_bytes(plan);
  return bytes;
}

std::vector<std::size_t> SequencingNetwork::gate_held_by_group() const {
  std::vector<std::size_t> by_group(group_routes_.size(), 0);
  for (const auto& r : receivers_) {
    if (r != nullptr) r->accumulate_gate_holds(by_group);
  }
  return by_group;
}

std::size_t SequencingNetwork::deliveries(NodeId node) const {
  if (!node.valid() || node.value() >= membership_->num_nodes()) return 0;
  const auto& receiver = receivers_[node.value()];
  return receiver == nullptr ? 0 : receiver->delivered();
}

std::size_t SequencingNetwork::buffered_at_receivers() const {
  std::size_t total = 0;
  for (const auto& receiver : receivers_) {
    if (receiver != nullptr) total += receiver->buffered();
  }
  return total;
}

const Receiver& SequencingNetwork::receiver(NodeId node) const {
  DECSEQ_CHECK_MSG(node.valid() && node.value() < receivers_.size() &&
                       receivers_[node.value()] != nullptr,
                   "node " << node << " has no receiver");
  return *receivers_[node.value()];
}

}  // namespace decseq::protocol
