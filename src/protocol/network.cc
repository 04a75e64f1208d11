#include "protocol/network.h"

#include <algorithm>
#include <cmath>
#include <map>
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
    runtime::ShardedEngine* engine)
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
      physical_network_(physical_network),
      engine_(engine) {
  // The ingress retry backs off from the channels' timeout as well.
  DECSEQ_CHECK(std::isfinite(options_.channel.retransmit_timeout_ms) &&
               options_.channel.retransmit_timeout_ms > 0.0);
  DECSEQ_CHECK_MSG(!options_.tree_distribution || physical_network_ != nullptr,
                   "tree distribution needs the physical network graph");
  DECSEQ_CHECK_MSG(engine_ == nullptr || !options_.tree_distribution,
                   "tree distribution is not available in sharded mode");
  if (engine_ != nullptr) {
    shard_seqnode_load_.assign(
        engine_->num_shards(),
        std::vector<std::size_t>(colocation.num_nodes(), 0));
    shard_channel_faults_.resize(engine_->num_shards());
    engine_->set_ingest([this](std::uint32_t shard, runtime::IngressItem&& i) {
      ingest(shard, std::move(i));
    });
  }
  compile_routes();

  if (engine_ != nullptr) {
    build_shard_receivers();
    // Distribution plans are built lazily on first exit in single-threaded
    // mode; in sharded mode the first exit happens on a worker, and the
    // build reads the shared distance oracle — so build every plan here,
    // at construction, on the coordinator.
    fanout_plans_.resize(group_routes_.size());
    for (const GroupId g : graph_->groups()) {
      (void)fanout_plan(g, graph_->path(g).back());
    }
    return;
  }

  // One receiver per subscriber that belongs to at least one group.
  for (std::size_t n = 0; n < membership.num_nodes(); ++n) {
    const NodeId node(static_cast<NodeId::underlying_type>(n));
    std::vector<GroupId> subs = membership.groups_of(node);
    if (subs.empty()) continue;
    receivers_[n] = std::make_unique<Receiver>(
        node, std::move(subs), relevant_atoms_for(node, graph),
        local_delivery_fn(node));
  }
  // Build every distribution plan at construction here too. Deferring them
  // to first exit pushed their oracle work (one full row per uncached
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

Receiver::DeliverFn SequencingNetwork::shard_delivery_fn(NodeId node,
                                                         std::uint32_t s) {
  return [this, node, s](const Message& m, sim::Time at) {
    // Cross back to the coordinator as plain data: payload blocks are
    // pooled per thread and must not leave this shard. An old-epoch
    // delivery (sequenced before its group's cutover fence — the fence
    // itself included) keeps the previous epoch's unit as its merge key:
    // that is the stream it was sequenced in.
    const GroupRoute& route = group_routes_[m.group().value()];
    const std::uint32_t unit =
        m.epoch != route.epoch ? route.prev_unit : route.unit;
    engine_->push_delivery(s, {node, m.id(), m.group(), m.sender(),
                               m.payload(), m.sent_at(), at, unit,
                               engine_->next_unit_pos(unit), m.is_fin(),
                               m.data->is_fence()});
  };
}

void SequencingNetwork::build_shard_receivers() {
  const runtime::ShardPlan& plan = engine_->plan();
  shard_receivers_.resize(engine_->num_shards());
  for (auto& per_node : shard_receivers_) {
    per_node.resize(membership_->num_nodes());
  }
  for (std::size_t n = 0; n < membership_->num_nodes(); ++n) {
    const NodeId node(static_cast<NodeId::underlying_type>(n));
    const std::vector<GroupId> subs = membership_->groups_of(node);
    if (subs.empty()) continue;
    const std::vector<AtomId> relevant = relevant_atoms_for(node, *graph_);
    for (std::uint32_t s = 0; s < engine_->num_shards(); ++s) {
      std::vector<GroupId> shard_subs;
      for (const GroupId g : subs) {
        if (plan.shard(g) == s) shard_subs.push_back(g);
      }
      if (shard_subs.empty()) continue;
      // An atom relevant to this node sequences two groups the node
      // subscribes to, so its unit is one of shard_subs' units — filtering
      // by shard keeps every counter the sub-receiver will ever consult.
      std::vector<AtomId> shard_atoms;
      for (const AtomId a : relevant) {
        const std::uint32_t unit = plan.unit_of_atom[a.value()];
        DECSEQ_CHECK(unit != runtime::kNoUnit);
        if (plan.shard_of_unit[unit] == s) shard_atoms.push_back(a);
      }
      shard_receivers_[s][n] = std::make_unique<Receiver>(
          node, std::move(shard_subs), std::move(shard_atoms),
          shard_delivery_fn(node, s));
    }
  }
}

void SequencingNetwork::compile_routes() {
  const std::vector<GroupId> groups = graph_->groups();

  // One FIFO channel per directed path edge in use, stored sorted by
  // (from, to). Build the edge set first, then the channels, so hop
  // compilation below can resolve Channel* by binary search.
  for (const GroupId g : groups) {
    const auto& path = graph_->path(g);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      channel_edges_.emplace_back(path[i], path[i + 1]);
    }
  }
  std::sort(channel_edges_.begin(), channel_edges_.end());
  channel_edges_.erase(
      std::unique(channel_edges_.begin(), channel_edges_.end()),
      channel_edges_.end());
  channels_.reserve(channel_edges_.size());
  for (const auto& [from, to] : channel_edges_) {
    channels_.push_back(make_channel(from, to));
  }

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

std::unique_ptr<sim::Channel<Message>> SequencingNetwork::make_channel(
    AtomId from, AtomId to) {
  // A path edge joins two atoms of the same unit, so in sharded mode the
  // channel lives wholly on the unit's shard: its timers run on that
  // shard's simulator and its retransmit jitter draws from the unit's
  // own RNG stream (shard-count-invariant by construction).
  sim::Simulator* channel_sim = sim_;
  Rng* channel_rng = rng_;
  std::uint32_t shard = 0;
  if (engine_ != nullptr) {
    const std::uint32_t unit = engine_->plan().unit_of_atom[from.value()];
    DECSEQ_CHECK(unit != runtime::kNoUnit &&
                 unit == engine_->plan().unit_of_atom[to.value()]);
    shard = engine_->plan().shard_of_unit[unit];
    channel_sim = &engine_->shard_sim(shard);
    channel_rng = &engine_->unit_rng(unit);
  }
  auto channel = std::make_unique<sim::Channel<Message>>(
      *channel_sim, *channel_rng, machine_distance(from, to),
      options_.channel);
  channel->set_receiver([this, to](Message&& m) {
    handle_at_atom(to, std::move(m));
  });
  // Exhaustion surfaces here as an edge-tagged fault record instead of
  // killing the run; the channel keeps probing and recover_node /
  // recover_link clear the state (see channel_faults()).
  if (engine_ != nullptr) {
    channel->set_fault_callback(
        [this, from, to, shard](const ChannelFault& f) {
          shard_channel_faults_[shard].push_back(
              {from, to, f.seq, f.attempts, f.at});
        });
  } else {
    channel->set_fault_callback(
        [this, from, to](const ChannelFault& f) {
          channel_faults_.push_back({from, to, f.seq, f.attempts, f.at});
        });
  }
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
  if (engine_ != nullptr) {
    route.unit = engine_->plan().unit(g);
    route.shard = engine_->plan().shard_of_unit[route.unit];
  }
  for (std::size_t i = 0; i < path.size(); ++i) {
    RouteHop hop;
    hop.atom = path[i];
    hop.node = colocation_->node_of(path[i]);
    hop.stamps = graph_->atom(path[i]).stamps(g);
    if (i + 1 < path.size()) {
      hop.forward = channels_[channel_index(path[i], path[i + 1])].get();
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
  // Channel delays are compiled once per channel and stored; a cold machine
  // pair costs the oracle one pruned point query, not a full row.
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
  const MsgId id(static_cast<MsgId::underlying_type>(records_.size()));
  records_.push_back({sender, group, sim_->now(), std::nullopt, 0, 0});
  if (publisher_failed(sender)) {
    // The publisher host is down: the publish never leaves it. Recorded as
    // an ingress failure the publisher (and the fuzzer's oracles) can see.
    records_.back().ingress_failed = true;
    return id;
  }

  if (engine_ != nullptr) {
    DECSEQ_CHECK_MSG(!tracer_.enabled(),
                     "per-message tracing is not available in sharded mode");
    // Cross to the owning shard as raw bytes: the payload block is pooled
    // per thread, so the worker materializes it at ingest (see ingest()).
    const GroupRoute& route = group_route(group);
    runtime::IngressItem item;
    item.id = id;
    item.group = group;
    item.sender = sender;
    item.payload = payload;
    item.delay =
        oracle_->distance(hosts_->router_of(sender), route.ingress_router);
    item.is_fin = is_fin;
    item.body.assign(body, body + body_size);
    engine_->push_ingress(route.shard, std::move(item));
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

void SequencingNetwork::ingest(std::uint32_t shard,
                               runtime::IngressItem&& item) {
  sim::Simulator& shard_sim = engine_->shard_sim(shard);
  // The fence protocol advanced this shard's clock to the publish time
  // before the item could be drained, so sent_at and the arrival schedule
  // match the single-threaded run exactly.
  DECSEQ_CHECK(records_[item.id.value()].published_at == shard_sim.now());
  PayloadRef block = PayloadBlock::create(
      item.id, item.group, item.sender, shard_sim.now(), item.payload,
      item.body.data(), item.body.size(), item.is_fin);
  const GroupRoute& route = group_route(item.group);
  shard_sim.schedule_after(item.delay,
                           [this, ingress = route.ingress,
                            block = std::move(block)] {
                             arrive_at_ingress(ingress, block, /*attempts=*/0);
                           });
}

void SequencingNetwork::arrive_at_ingress(AtomId ingress, PayloadRef payload,
                                          std::uint32_t attempts) {
  GroupRoute& route = group_route(payload->group());
  sim::Simulator& sim = route_sim(route);
  if (route.num_hops > 0 && ingress != route.ingress) {
    // The group's ingress moved (zero-downtime reconfiguration) while this
    // message's ingress leg was in flight: redirect it from the old ingress
    // machine to the new one. The extra leg is a constant per
    // (old, new) machine pair, so each sender's publish order is preserved
    // — and the message is sequenced post-fence, in the new epoch, which
    // is exactly what its arrival after the cutover means. (Sharded mode
    // never gets here: queued publishes are rerouted at the fence, and
    // reconfiguration only happens with the engine idle.)
    const RouterId from = machine_of_atom(ingress);
    const double leg = from == route.ingress_router
                           ? 0.0
                           : oracle_->distance(from, route.ingress_router);
    sim.schedule_after(leg, [this, target = route.ingress,
                             payload = std::move(payload), attempts] {
      arrive_at_ingress(target, payload, attempts);
    });
    return;
  }
  const SeqNodeId node = route.ingress_node;
  if (node_down_[node.value()]) {
    MessageRecord& rec = records_[payload->id().value()];
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
    ++rec.ingress_retries;
    const std::uint32_t next = attempts + 1;
    sim.schedule_after(backoff_delay(options_.channel.retransmit_timeout_ms,
                                     next),
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
  if (engine_ != nullptr) {
    ++shard_seqnode_load_[route.shard][node.value()];
  } else {
    ++seqnode_load_[node.value()];
  }
  // Ingress: assign the group-local sequence number (paper §3.1). Only now
  // does the message grow its mutable ordering header. The routing epoch is
  // fixed here too: everything sequenced from now until the group's next
  // cutover fence rides this epoch's span.
  Message message;
  message.data = std::move(payload);
  message.group_seq = route.next_seq++;
  message.epoch = route.epoch;
  tracer_.record({TraceEvent::Kind::kIngress, message.id(), sim.now(),
                  ingress, node, NodeId{}, message.group_seq});
  handle_at_atom(ingress, std::move(message));
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

void SequencingNetwork::handle_at_atom(AtomId atom, Message&& message) {
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
  // surviving group until the next graph rebuild removes it — the paper's
  // §3.2 lazy removal: "adding ignored sequence numbers to a message does
  // not hurt correctness, only efficiency." Stopping early would be a real
  // bug: a pre-FIN message of the dead group can still be in flight
  // carrying this atom's stamp, and a post-FIN message of the surviving
  // group would then share no sequencer with it — two overlap members
  // could order the pair differently (found by the chaos property test).
  if (hop.stamps) {
    message.stamps.push_back({atom, atom_next_seq_[atom.value()]++});
    if (tracer_.enabled()) {
      tracer_.record({TraceEvent::Kind::kStamped, message.id(), sim_->now(),
                      atom, hop.node, NodeId{}, message.stamps.back().seq});
    }
  } else if (tracer_.enabled()) {
    tracer_.record({TraceEvent::Kind::kTransited, message.id(), sim_->now(),
                    atom, hop.node, NodeId{}, 0});
  }
  if (hop.forward == nullptr) {
    distribute(atom, std::move(message));
    return;
  }
  // Count machine load once per visit: a hop between co-located atoms stays
  // on the same sequencing node.
  if (hop.crosses_machine) {
    if (engine_ != nullptr) {
      // Old-epoch events run on the previous span's shard; its counter
      // vector is the one this thread owns.
      ++shard_seqnode_load_[old_epoch ? route.prev_shard : route.shard]
                           [hop.next_node.value()];
    } else {
      ++seqnode_load_[hop.next_node.value()];
    }
    if (tracer_.enabled()) {
      tracer_.record({TraceEvent::Kind::kForwarded, message.id(), sim_->now(),
                      atom, hop.next_node, NodeId{}, 0});
    }
  }
  ++message.path_pos;
  hop.forward->send(std::move(message));
}

SequencingNetwork::FanOutPlan& SequencingNetwork::fanout_plan(
    GroupId group, AtomId last_atom) {
  const auto gv = group.value();
  if (gv >= fanout_plans_.size()) fanout_plans_.resize(gv + 1);
  auto& slot = fanout_plans_[gv];
  if (slot == nullptr) {
    slot = build_fanout_plan(last_atom, membership_->members(group),
                             group_routes_[gv].shard);
  }
  return *slot;
}

std::unique_ptr<SequencingNetwork::FanOutPlan>
SequencingNetwork::build_fanout_plan(AtomId last_atom,
                                     const std::vector<NodeId>& members,
                                     std::uint32_t shard) {
  auto plan = std::make_unique<FanOutPlan>();
  const RouterId egress = machine_of_atom(last_atom);
  if (options_.tree_distribution) {
    // One copy flows down the group's shortest-path delivery tree; members
    // hear it at their unicast delay, the network carries far fewer copies.
    std::vector<RouterId> destinations;
    for (const NodeId member : members) {
      destinations.push_back(hosts_->router_of(member));
    }
    plan->tree = std::make_unique<topology::MulticastTree>(*physical_network_,
                                                           egress,
                                                           destinations);
  }
  // Unicast delays come from one batched oracle query: a single Dijkstra
  // run from the egress settles the whole member set instead of one
  // point query (or full row) per member.
  std::vector<double> delays;
  if (plan->tree == nullptr) {
    std::vector<RouterId> routers;
    routers.reserve(members.size());
    for (const NodeId member : members) {
      routers.push_back(hosts_->router_of(member));
    }
    oracle_->distances_between(egress, routers, delays);
  }
  for (std::size_t m = 0; m < members.size(); ++m) {
    const NodeId member = members[m];
    const double delay = plan->tree != nullptr
                             ? plan->tree->delay_to(hosts_->router_of(member))
                             : delays[m];
    // Sharded mode resolves the member's sub-receiver on the span's shard:
    // the fan-out runs on that shard's thread and the target's counters
    // live there.
    Receiver* receiver = receiver_for(member, shard);
    DECSEQ_CHECK_MSG(receiver != nullptr,
                     "group member " << member << " has no receiver");
    plan->targets.push_back({receiver, delay});
  }
  // Group the fan-out into spans of equal delay so distribution schedules
  // one simulator event per burst of same-time arrivals. The stable sort
  // keeps members of a span in membership order, and equal-delay targets
  // previously occupied consecutive event-queue slots anyway (FIFO
  // tie-break), so delivery order is bit-identical to per-target events.
  std::stable_sort(plan->targets.begin(), plan->targets.end(),
                   [](const FanOutTarget& a, const FanOutTarget& b) {
                     return a.delay < b.delay;
                   });
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

void SequencingNetwork::distribute(AtomId last_atom, Message&& message) {
  GroupRoute& route = group_routes_[message.group().value()];
  const bool old_epoch = message.epoch != route.epoch;
  sim::Simulator& sim =
      engine_ != nullptr
          ? engine_->shard_sim(old_epoch ? route.prev_shard : route.shard)
          : *sim_;
  MessageRecord& rec = records_[message.id().value()];
  rec.exited_at = sim.now();
  rec.stamps = message.stamps.size();
  rec.header_bytes = ordering_header_bytes(message);
  if (tracer_.enabled()) {
    tracer_.record({TraceEvent::Kind::kExited, message.id(), sim.now(),
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
    // delays (its span's shard owns the stashed plan).
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
  // one event. In sharded mode everything — the shared header, the span
  // events, the target sub-receivers — stays on the group's shard.
  auto shared = SharedMessage::create(std::move(message));
  for (std::uint32_t si = 0; si < plan.spans.size(); ++si) {
    sim.schedule_after(plan.spans[si].delay,
                       [plan = &plan, si, shared, sim = &sim] {
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

ReconfigureReport SequencingNetwork::begin_reconfigure(
    const std::vector<GroupId>& affected,
    const std::vector<std::vector<NodeId>>& old_members_by_slot) {
  ReconfigureReport report;
  DECSEQ_CHECK_MSG(fences_outstanding_ == 0,
                   "begin_reconfigure while a transition is still draining");
  DECSEQ_CHECK_MSG(!options_.tree_distribution,
                   "zero-downtime reconfiguration with tree distribution");
  if (engine_ != nullptr) {
    // Sharded transitions happen between runs: no protocol event may be
    // pending. Queued publishes are fine — the facade reroutes them right
    // after this call via reroute_pending_publish().
    DECSEQ_CHECK_MSG(engine_->idle(), "sharded reconfigure mid-run");
  }
  // Lazily retire the previous transition's plans: the final fence's
  // fan-out events may still reference them at the instant that
  // transition completes, so they are freed here, at the start of the
  // next one.
  for (auto& plan : prev_fanout_plans_) plan.reset();
  ++epoch_;

  std::vector<GroupId> affected_list = affected;
  std::sort(affected_list.begin(), affected_list.end());
  affected_list.erase(
      std::unique(affected_list.begin(), affected_list.end()),
      affected_list.end());

  // Grow the dense per-atom / per-machine / per-group state for the delta
  // rebuild's appended atoms and any newly created groups.
  const std::size_t old_num_atoms = atom_next_seq_.size();
  atom_next_seq_.resize(graph_->num_atoms(), 1);
  seqnode_load_.resize(colocation_->num_nodes(), 0);
  node_down_.resize(colocation_->num_nodes(), false);
  for (auto& per_shard : shard_seqnode_load_) {
    per_shard.resize(colocation_->num_nodes(), 0);
  }
  GroupId::underlying_type max_group = 0;
  for (const GroupId g : affected_list) {
    max_group = std::max(max_group, g.value());
  }
  if (!affected_list.empty() && group_routes_.size() < max_group + 1) {
    group_routes_.resize(max_group + 1);
  }
  if (fanout_plans_.size() < group_routes_.size()) {
    fanout_plans_.resize(group_routes_.size());
  }
  prev_fanout_plans_.resize(group_routes_.size());

  // Channels for the appended path edges. Re-laid paths are built entirely
  // from appended atoms, so every new edge sorts after every existing one
  // (the edge order keys on the from-atom first): the sorted channel table
  // extends by a plain append and the hot path's Channel* stay put.
  std::vector<std::pair<AtomId, AtomId>> new_edges;
  for (const GroupId g : affected_list) {
    if (!graph_->has_path(g)) continue;
    const auto& path = graph_->path(g);
    if (path.front().value() < old_num_atoms) continue;  // preserved verbatim
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      new_edges.emplace_back(path[i], path[i + 1]);
    }
  }
  std::sort(new_edges.begin(), new_edges.end());
  new_edges.erase(std::unique(new_edges.begin(), new_edges.end()),
                  new_edges.end());
  for (const auto& edge : new_edges) {
    DECSEQ_CHECK(channel_edges_.empty() || channel_edges_.back() < edge);
    auto channel = make_channel(edge.first, edge.second);
    // A channel born while its receiving machine is down must start in the
    // held state, like the survivors fail_node() flipped.
    if (node_down_[colocation_->node_of(edge.second).value()]) {
      channel->set_receiver_down(true);
    }
    channel_edges_.push_back(edge);
    channels_.push_back(std::move(channel));
  }
  report.channels_created = new_edges.size();

  // Cut each affected group over: stash the old epoch's span + fan-out
  // plan, compile the new span next to it, and flush the cutover fence
  // down the old span to the old member set.
  std::vector<GroupId> fenced;
  std::vector<char> had_old_flag(group_routes_.size(), 0);
  std::vector<std::vector<NodeId>> old_sorted(group_routes_.size());
  for (const GroupId g : affected_list) {
    DECSEQ_CHECK_MSG(!group_terminated(g),
                     "reconfigure touches terminated group " << g);
    const auto gv = g.value();
    GroupRoute& route = group_routes_[gv];
    const bool had_old = route.num_hops > 0;
    const bool has_new = graph_->has_path(g);
    if (!had_old && !has_new) continue;
    if (had_old) {
      DECSEQ_CHECK_MSG(gv < old_members_by_slot.size() &&
                           !old_members_by_slot[gv].empty(),
                       "no old-member snapshot for group " << g);
      had_old_flag[gv] = 1;
      old_sorted[gv] = old_members_by_slot[gv];
      std::sort(old_sorted[gv].begin(), old_sorted[gv].end());
      // The cached plan (if any) predates the membership mutation, i.e. it
      // is the old member set's; otherwise build it from the snapshot.
      const AtomId old_last =
          route_hops_[route.first_hop + route.num_hops - 1].atom;
      if (fanout_plans_[gv] == nullptr) {
        fanout_plans_[gv] = build_fanout_plan(old_last, old_members_by_slot[gv],
                                              route.shard);
      }
      prev_fanout_plans_[gv] = std::move(fanout_plans_[gv]);
      route.prev_first_hop = route.first_hop;
      route.prev_num_hops = route.num_hops;
      route.prev_unit = route.unit;
      route.prev_shard = route.shard;
      route.prev_ingress_router = route.ingress_router;
    }
    if (has_new) {
      const auto& path = graph_->path(g);
      append_route_span(g, path, route);
      report.hops_appended += path.size();
      route.epoch = epoch_;
      if (had_old) {
        sequence_fence(g, /*close_group=*/false,
                       old_members_by_slot[gv].size());
        fenced.push_back(g);
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
      sequence_fence(g, /*close_group=*/true,
                     old_members_by_slot[gv].size());
      fenced.push_back(g);
      ++report.groups_removed;
    }
  }

  // Receiver cutover: arm the epoch gates (every old member of a fenced
  // group must observe that group's fence before any of its new-epoch
  // traffic may deliver) and claim the new epoch's counter slots.
  const std::uint32_t current_epoch = epoch_;
  if (engine_ == nullptr) {
    std::map<std::uint32_t, ReceiverReconfigure> per_node;
    auto rc_of = [&](NodeId n) -> ReceiverReconfigure& {
      auto [it, inserted] = per_node.try_emplace(n.value());
      if (inserted) it->second.epoch = current_epoch;
      return it->second;
    };
    for (const GroupId g : fenced) {
      for (const NodeId m : old_members_by_slot[g.value()]) {
        rc_of(m).awaited_fences.push_back(g);
      }
    }
    for (const GroupId g : affected_list) {
      const auto gv = g.value();
      const GroupRoute& route = group_routes_[gv];
      if (route.num_hops == 0) continue;
      for (const NodeId m : membership_->members(g)) {
        // A member that stays keeps its live counters; everyone else —
        // new subscribers and rejoiners — starts at the first post-fence
        // sequence number.
        const bool continuing =
            had_old_flag[gv] && receivers_[m.value()] != nullptr &&
            std::binary_search(old_sorted[gv].begin(), old_sorted[gv].end(),
                               m);
        if (!continuing) rc_of(m).group_inits.emplace_back(g, route.next_seq);
      }
    }
    for (auto& [nv, rc] : per_node) {
      const NodeId node(static_cast<NodeId::underlying_type>(nv));
      if (receivers_[nv] != nullptr) {
        // Newly relevant atoms (appended by the delta rebuild) need fresh
        // counters; a new receiver below gets them from its constructor.
        rc.new_atoms = relevant_atoms_for(node, *graph_, old_num_atoms);
        receivers_[nv]->apply_reconfigure(rc);
      } else {
        DECSEQ_CHECK(rc.awaited_fences.empty());
        std::vector<GroupId> subs = membership_->groups_of(node);
        DECSEQ_CHECK(!subs.empty());
        receivers_[nv] = std::make_unique<Receiver>(
            node, std::move(subs), relevant_atoms_for(node, *graph_),
            local_delivery_fn(node));
        // A fresh receiver seeds every slot at 1; rejoined groups must
        // start at the post-fence sequence number instead.
        ReceiverReconfigure fresh;
        fresh.epoch = current_epoch;
        fresh.group_inits = rc.group_inits;
        receivers_[nv]->apply_reconfigure(fresh);
      }
    }
  } else {
    // Sharded: per-(shard, node) sub-receivers. The cutover gate is a
    // *node*-wide condition — new-epoch traffic on any of the node's
    // sub-receivers waits for all of the node's fences, which land on
    // old-shard sub-receivers and are relayed at commit time by the
    // coordinator (fence_delivery_committed).
    const runtime::ShardPlan& plan = engine_->plan();
    std::map<std::uint32_t, std::uint32_t> node_fences;
    for (const GroupId g : fenced) {
      for (const NodeId m : old_members_by_slot[g.value()]) {
        ++node_fences[m.value()];
      }
    }
    std::map<std::pair<std::uint32_t, std::uint32_t>, ReceiverReconfigure>
        per_sub;
    auto rc_of = [&](std::uint32_t s, NodeId n) -> ReceiverReconfigure& {
      auto [it, inserted] = per_sub.try_emplace(std::pair{s, n.value()});
      if (inserted) it->second.epoch = current_epoch;
      return it->second;
    };
    for (const GroupId g : affected_list) {
      const auto gv = g.value();
      const GroupRoute& route = group_routes_[gv];
      if (route.num_hops == 0) continue;
      const std::uint32_t s_new = route.shard;
      for (const NodeId m : membership_->members(g)) {
        Receiver* sub = shard_receivers_[s_new][m.value()].get();
        // Counters continue only if the same sub-receiver that held the
        // group before the cut still owns it after (the group stayed on
        // its shard); otherwise the slot (re)initializes post-fence.
        const bool continuing =
            had_old_flag[gv] && route.prev_shard == s_new &&
            sub != nullptr &&
            std::binary_search(old_sorted[gv].begin(), old_sorted[gv].end(),
                               m);
        ReceiverReconfigure& rc = rc_of(s_new, m);
        if (!continuing) rc.group_inits.emplace_back(g, route.next_seq);
      }
    }
    for (auto& [key, rc] : per_sub) {
      const std::uint32_t s = key.first;
      const std::uint32_t nv = key.second;
      const NodeId node(static_cast<NodeId::underlying_type>(nv));
      const auto fit = node_fences.find(nv);
      if (fit != node_fences.end()) {
        rc.external_fences = true;
        rc.external_gate_fences = fit->second;
      }
      auto& sub = shard_receivers_[s][nv];
      if (sub != nullptr) {
        for (const AtomId a :
             relevant_atoms_for(node, *graph_, old_num_atoms)) {
          const std::uint32_t unit = plan.unit_of_atom[a.value()];
          DECSEQ_CHECK(unit != runtime::kNoUnit);
          if (plan.shard_of_unit[unit] == s) rc.new_atoms.push_back(a);
        }
        sub->apply_reconfigure(rc);
      } else {
        std::vector<GroupId> shard_subs;
        for (const GroupId g2 : membership_->groups_of(node)) {
          if (plan.shard(g2) == s) shard_subs.push_back(g2);
        }
        DECSEQ_CHECK(!shard_subs.empty());
        std::vector<AtomId> shard_atoms;
        for (const AtomId a : relevant_atoms_for(node, *graph_)) {
          const std::uint32_t unit = plan.unit_of_atom[a.value()];
          DECSEQ_CHECK(unit != runtime::kNoUnit);
          if (plan.shard_of_unit[unit] == s) shard_atoms.push_back(a);
        }
        sub = std::make_unique<Receiver>(node, std::move(shard_subs),
                                         std::move(shard_atoms),
                                         shard_delivery_fn(node, s));
        ReceiverReconfigure fresh;
        fresh.epoch = current_epoch;
        fresh.group_inits = rc.group_inits;
        fresh.external_fences = rc.external_fences;
        fresh.external_gate_fences = rc.external_gate_fences;
        sub->apply_reconfigure(fresh);
      }
    }
    // New-epoch distribution plans are built eagerly on the coordinator,
    // like at construction (the first exit happens on a worker thread).
    for (const GroupId g : affected_list) {
      if (group_routes_[g.value()].num_hops == 0) continue;
      (void)fanout_plan(g, graph_->path(g).back());
    }
  }

  report.fences_outstanding = fences_outstanding_;
  return report;
}

void SequencingNetwork::sequence_fence(GroupId group, bool close_group,
                                       std::size_t old_member_count) {
  GroupRoute& route = group_route(group);
  DECSEQ_CHECK(route.prev_num_hops > 0);
  sim::Simulator& sim = engine_ != nullptr
                            ? engine_->shard_sim(route.prev_shard)
                            : *sim_;
  const MsgId id(static_cast<MsgId::underlying_type>(records_.size()));
  records_.push_back({NodeId{}, group, sim.now(), std::nullopt, 0, 0});
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
      PayloadBlock::create(id, group, NodeId{}, sim.now(), 0, nullptr, 0,
                           /*is_fin=*/close_group, /*is_fence=*/true);
  message.group_seq = route.next_seq++;
  // Any value other than the new route epoch marks the fence old-epoch;
  // the previous epoch number keeps it meaningful in traces.
  message.epoch = epoch_ - 1;
  fences_outstanding_ += old_member_count;
  const RouteHop& first = route_hops_[route.prev_first_hop];
  if (engine_ != nullptr) {
    ++shard_seqnode_load_[route.prev_shard][first.node.value()];
  } else {
    ++seqnode_load_[first.node.value()];
  }
  tracer_.record({TraceEvent::Kind::kIngress, id, sim.now(), first.atom,
                  first.node, NodeId{}, message.group_seq});
  handle_at_atom(first.atom, std::move(message));
}

void SequencingNetwork::fence_delivery_committed(NodeId node, sim::Time at) {
  DECSEQ_CHECK(engine_ != nullptr);
  DECSEQ_CHECK_MSG(fences_outstanding_ > 0,
                   "fence commit with no transition draining");
  --fences_outstanding_;
  for (auto& per_node : shard_receivers_) {
    Receiver* r = per_node[node.value()].get();
    if (r != nullptr && r->gated()) r->external_fence_delivered(at);
  }
  // Transition drained: compact synchronously. Commits happen with the
  // workers parked, and the fence's span event completed when its delivery
  // was pushed, so nothing references the stashed plans or old hop spans.
  if (fences_outstanding_ == 0) compact_transition_state();
}

void SequencingNetwork::compact_transition_state() {
  // A new transition may have begun before the deferred zero-delay event
  // fired (single-threaded mode); its own drain will compact instead.
  if (fences_outstanding_ != 0) return;

  // The drained transition's stashed fan-out plans: every fence has
  // delivered, so no span event references them any more.
  for (auto& plan : prev_fanout_plans_) plan.reset();

  // Channels serving only retired atoms carry no live route. Destroy the
  // quiescent ones; a channel whose final ack is still in flight (or that
  // surfaced a fault) stays until a later pass. Removal keeps the edge
  // table sorted, and live hops hold Channel* directly, so nothing
  // position-dependent breaks.
  std::size_t w = 0;
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    const auto& [from, to] = channel_edges_[i];
    if (graph_->is_retired(from) && graph_->is_retired(to) &&
        channels_[i]->quiescent()) {
      ++channels_reclaimed_;
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

  // Fold the hop table down to the live spans. Every prev span was zeroed
  // when its fence exited, so the live spans are exactly the current ones;
  // in-flight messages locate hops as first_hop + path_pos at event time,
  // so remapping first_hop here is invisible to them.
  std::size_t live = 0;
  for (const GroupRoute& route : group_routes_) {
    DECSEQ_CHECK(route.prev_num_hops == 0);
    live += route.num_hops;
  }
  std::vector<RouteHop> folded;
  folded.reserve(live);
  for (GroupRoute& route : group_routes_) {
    if (route.num_hops == 0) {
      route.first_hop = 0;
      continue;
    }
    const auto new_first = static_cast<std::uint32_t>(folded.size());
    folded.insert(folded.end(), route_hops_.begin() + route.first_hop,
                  route_hops_.begin() + route.first_hop + route.num_hops);
    route.first_hop = new_first;
  }
  route_hops_ = std::move(folded);
  ++compactions_run_;
}

std::size_t SequencingNetwork::routing_table_bytes() const {
  std::size_t bytes = route_hops_.capacity() * sizeof(RouteHop) +
                      group_routes_.capacity() * sizeof(GroupRoute) +
                      channel_edges_.capacity() * sizeof(channel_edges_[0]) +
                      channels_.capacity() * sizeof(channels_[0]) +
                      channels_.size() * sizeof(sim::Channel<Message>) +
                      fanout_plans_.capacity() * sizeof(fanout_plans_[0]) +
                      prev_fanout_plans_.capacity() *
                          sizeof(prev_fanout_plans_[0]);
  const auto plan_bytes = [](const std::unique_ptr<FanOutPlan>& plan) {
    if (plan == nullptr) return std::size_t{0};
    return sizeof(FanOutPlan) +
           plan->targets.capacity() * sizeof(FanOutTarget) +
           plan->spans.capacity() * sizeof(FanOutPlan::Span);
  };
  for (const auto& plan : fanout_plans_) bytes += plan_bytes(plan);
  for (const auto& plan : prev_fanout_plans_) bytes += plan_bytes(plan);
  return bytes;
}

std::uint32_t SequencingNetwork::reroute_pending_publish(
    runtime::IngressItem& item) {
  const GroupRoute& route = group_route(item.group);
  if (route.epoch == epoch_ && route.num_hops > 0 &&
      route.prev_ingress_router.valid() &&
      route.prev_ingress_router != route.ingress_router) {
    // The group's ingress moved this transition: the queued publish was
    // aimed at the old ingress machine, so it pays the same redirect leg
    // an in-flight single-threaded message would travel.
    item.delay +=
        oracle_->distance(route.prev_ingress_router, route.ingress_router);
  }
  return route.shard;
}

std::vector<std::size_t> SequencingNetwork::gate_held_by_group() const {
  std::vector<std::size_t> by_group(group_routes_.size(), 0);
  if (engine_ != nullptr) {
    for (const auto& per_node : shard_receivers_) {
      for (const auto& r : per_node) {
        if (r != nullptr) r->accumulate_gate_holds(by_group);
      }
    }
  } else {
    for (const auto& r : receivers_) {
      if (r != nullptr) r->accumulate_gate_holds(by_group);
    }
  }
  return by_group;
}

const std::vector<std::size_t>& SequencingNetwork::seqnode_load() const {
  if (engine_ == nullptr) return seqnode_load_;
  merged_seqnode_load_.assign(seqnode_load_.size(), 0);
  for (const auto& per_shard : shard_seqnode_load_) {
    for (std::size_t n = 0; n < per_shard.size(); ++n) {
      merged_seqnode_load_[n] += per_shard[n];
    }
  }
  return merged_seqnode_load_;
}

const std::vector<ChannelFaultRecord>& SequencingNetwork::channel_faults()
    const {
  if (engine_ == nullptr) return channel_faults_;
  merged_channel_faults_.clear();
  for (const auto& per_shard : shard_channel_faults_) {
    merged_channel_faults_.insert(merged_channel_faults_.end(),
                                  per_shard.begin(), per_shard.end());
  }
  // Each shard's log is time-ordered already; a global (at, from, to, seq)
  // sort makes the merged view independent of the shard layout.
  std::stable_sort(merged_channel_faults_.begin(),
                   merged_channel_faults_.end(),
                   [](const ChannelFaultRecord& a,
                      const ChannelFaultRecord& b) {
                     if (a.at != b.at) return a.at < b.at;
                     if (a.from != b.from) return a.from < b.from;
                     if (a.to != b.to) return a.to < b.to;
                     return a.seq < b.seq;
                   });
  return merged_channel_faults_;
}

std::size_t SequencingNetwork::deliveries(NodeId node) const {
  if (!node.valid() || node.value() >= membership_->num_nodes()) return 0;
  if (engine_ != nullptr) {
    std::size_t total = 0;
    for (const auto& per_node : shard_receivers_) {
      if (per_node[node.value()] != nullptr) {
        total += per_node[node.value()]->delivered();
      }
    }
    return total;
  }
  const auto& receiver = receivers_[node.value()];
  return receiver == nullptr ? 0 : receiver->delivered();
}

std::size_t SequencingNetwork::buffered_at_receivers() const {
  std::size_t total = 0;
  if (engine_ != nullptr) {
    for (const auto& per_node : shard_receivers_) {
      for (const auto& receiver : per_node) {
        if (receiver != nullptr) total += receiver->buffered();
      }
    }
    return total;
  }
  for (const auto& receiver : receivers_) {
    if (receiver != nullptr) total += receiver->buffered();
  }
  return total;
}

const Receiver& SequencingNetwork::receiver(NodeId node) const {
  if (engine_ != nullptr) {
    // A node's state may be split across shards; this accessor only makes
    // sense when all of its subscriptions landed on one.
    const Receiver* found = nullptr;
    for (const auto& per_node : shard_receivers_) {
      if (node.valid() && node.value() < per_node.size() &&
          per_node[node.value()] != nullptr) {
        DECSEQ_CHECK_MSG(found == nullptr,
                         "node " << node
                                 << " has sub-receivers on several shards");
        found = per_node[node.value()].get();
      }
    }
    DECSEQ_CHECK_MSG(found != nullptr, "node " << node << " has no receiver");
    return *found;
  }
  DECSEQ_CHECK_MSG(node.valid() && node.value() < receivers_.size() &&
                       receivers_[node.value()] != nullptr,
                   "node " << node << " has no receiver");
  return *receivers_[node.value()];
}

}  // namespace decseq::protocol
