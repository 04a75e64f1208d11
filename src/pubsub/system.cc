#include "pubsub/system.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/log.h"

namespace decseq::pubsub {

PubSubSystem::PubSubSystem(const SystemConfig& config)
    : config_(config),
      rng_(config.seed),
      membership_(config.hosts.num_hosts) {
  switch (config.topology_model) {
    case TopologyModel::kTransitStub: {
      auto topo = topology::generate_transit_stub(config.topology, rng_);
      hosts_ = std::make_unique<topology::HostMap>(
          topology::attach_hosts(topo, config.hosts, rng_));
      net_graph_ = std::move(topo.graph);
      break;
    }
    case TopologyModel::kWaxman: {
      auto topo = topology::generate_waxman(config.waxman, rng_);
      hosts_ = std::make_unique<topology::HostMap>(
          topology::attach_hosts_waxman(topo, config.hosts, rng_));
      net_graph_ = std::move(topo.graph);
      break;
    }
  }
  // Paper-scale topologies keep the oracle's unbounded cache (steady-state
  // publishes are then memo or row lookups — allocation-free); larger
  // topologies bound rows and memo together so the compile never
  // accumulates dense all-pairs state. Distances are bit-identical either
  // way.
  const topology::DistanceOracleOptions oracle_options =
      net_graph_.num_routers() > kScaledOracleRouterThreshold
          ? topology::DistanceOracleOptions::scaled()
          : topology::DistanceOracleOptions{};
  oracle_ =
      std::make_unique<topology::DistanceOracle>(net_graph_, oracle_options);
  rebuild();
}

void PubSubSystem::require_quiescent(const char* op) const {
  // Checked BEFORE any membership mutation: a failed quiescence check must
  // leave the system exactly as it was, not with a half-applied membership
  // table whose sequencing graph still reflects the old world.
  DECSEQ_CHECK_MSG(sim_.idle(), op << " while " << sim_.pending()
                                   << " simulator event(s) are in flight");
  if (engine_ != nullptr) {
    DECSEQ_CHECK_MSG(engine_->idle(),
                     op << " while the sharded runtime has pending events");
    DECSEQ_CHECK_MSG(!engine_->ingress_pending(),
                     op << " while the sharded runtime has queued ingress");
  }
  for (const auto& [sender, state] : causal_) {
    const std::size_t pending =
        state.queue.size() + (state.in_flight.has_value() ? 1u : 0u);
    DECSEQ_CHECK_MSG(pending == 0, op << " while " << pending
                                      << " causal publish(es) from " << sender
                                      << " are pending");
  }
}

void PubSubSystem::rebuild() {
  require_quiescent("membership change");  // backstop; entry points check too
  if (network_ != nullptr) {
    epoch_base_ += static_cast<MsgId::underlying_type>(network_->published());
  }
  overlaps_ = std::make_unique<membership::OverlapIndex>(membership_);
  // Co-locate before layout so the chain keeps same-machine atoms
  // contiguous (§3.4: related atoms on the same machine recover the
  // performance that distributing them would cost).
  const std::vector<std::size_t> labels =
      placement::colocate_overlaps(*overlaps_, config_.colocation, rng_);
  seqgraph::BuildOptions graph_options = config_.graph;
  graph_options.colocation_labels = &labels;
  graph_options.scratch = &graph_scratch_;
  graph_ = std::make_unique<seqgraph::SequencingGraph>(
      build_sequencing_graph(membership_, *overlaps_, graph_options));
  colocation_ = std::make_unique<placement::Colocation>(
      placement::apply_labels(*graph_, labels));
  assignment_ = std::make_unique<placement::Assignment>(
      placement::assign_machines(*graph_, *colocation_, membership_, *hosts_,
                                 net_graph_, config_.assignment, rng_));
  // The engine (and its thread pool) is rebuilt per epoch, like the
  // network: units are a property of the current sequencing graph. Its
  // shard clocks start at zero and are advanced to the facade's clock so
  // payload timestamps line up across epochs.
  network_.reset();  // old network's channels hold timers on the old engine
  if (config_.shards > 0) {
    engine_ = std::make_unique<runtime::ShardedEngine>(
        runtime::build_shard_plan(
            *graph_, membership_,
            static_cast<std::uint32_t>(config_.shards)),
        config_.seed, epoch_counter_);
    engine_->advance_to(sim_.now());
  } else {
    engine_.reset();
  }
  ++epoch_counter_;
  network_ = std::make_unique<protocol::SequencingNetwork>(
      sim_, rng_, *graph_, *colocation_, *assignment_, membership_, *hosts_,
      *oracle_, config_.network, &net_graph_, engine_.get());
  if (engine_ != nullptr) return;  // deliveries merge via the engine's rings
  network_->set_delivery_callback(
      [this](NodeId receiver, const protocol::Message& m, sim::Time at) {
        if (m.is_fin()) return;  // control message: closes the group quietly
        log_.push_back({receiver, MsgId(epoch_base_ + m.id().value()),
                        m.group(), m.sender(), m.payload(), m.sent_at(), at});
        if (user_callback_) user_callback_(receiver, m, at);
        // A sender receiving its own message back releases its next queued
        // causal publish.
        if (receiver == m.sender()) {
          const auto it = causal_.find(m.sender());
          if (it != causal_.end() && it->second.in_flight == m.id()) {
            it->second.in_flight.reset();
            pump_causal_queue(m.sender());
          }
        }
      });
}

GroupId PubSubSystem::create_group(std::vector<NodeId> members) {
  require_quiescent("create_group");
  const GroupId g = membership_.add_group(std::move(members));
  rebuild();
  return g;
}

std::vector<GroupId> PubSubSystem::create_groups(
    std::vector<std::vector<NodeId>> member_lists) {
  require_quiescent("create_groups");
  std::vector<GroupId> ids;
  ids.reserve(member_lists.size());
  for (auto& members : member_lists) {
    ids.push_back(membership_.add_group(std::move(members)));
  }
  rebuild();
  return ids;
}

void PubSubSystem::join(GroupId group, NodeId node) {
  require_quiescent("join");
  membership_.add_member(group, node);
  rebuild();
}

void PubSubSystem::leave(GroupId group, NodeId node) {
  require_quiescent("leave");
  membership_.remove_member(group, node);
  rebuild();
}

void PubSubSystem::remove_group(GroupId group) {
  require_quiescent("remove_group");
  membership_.remove_group(group);
  rebuild();
}

MsgId PubSubSystem::publish(NodeId sender, GroupId group,
                            std::uint64_t payload,
                            std::vector<std::uint8_t> body) {
  DECSEQ_CHECK(network_ != nullptr);
  return MsgId(
      epoch_base_ +
      network_->publish(sender, group, payload, std::move(body)).value());
}

MsgId PubSubSystem::publish(NodeId sender, GroupId group,
                            std::uint64_t payload, const std::uint8_t* body,
                            std::size_t body_size) {
  DECSEQ_CHECK(network_ != nullptr);
  return MsgId(
      epoch_base_ +
      network_->publish(sender, group, payload, body, body_size).value());
}

void PubSubSystem::reserve(std::size_t messages, std::size_t deliveries) {
  DECSEQ_CHECK(network_ != nullptr);
  network_->reserve_messages(messages);
  log_.reserve(deliveries);
}

const protocol::MessageRecord& PubSubSystem::record(MsgId id) const {
  DECSEQ_CHECK_MSG(id.valid() && id.value() >= epoch_base_,
                   "message " << id << " predates the current epoch");
  return network_->record(MsgId(id.value() - epoch_base_));
}

std::string PubSubSystem::trace(MsgId id) const {
  DECSEQ_CHECK_MSG(id.valid() && id.value() >= epoch_base_,
                   "message " << id << " predates the current epoch");
  return network_->tracer().format(MsgId(id.value() - epoch_base_));
}

std::vector<GroupId> PubSubSystem::reconfigure(
    std::vector<MembershipChange> changes) {
  // Epoch boundary: finish everything in flight under the old graph.
  run();
  std::vector<GroupId> created;
  for (MembershipChange& change : changes) {
    switch (change.kind) {
      case MembershipChange::Kind::kCreateGroup:
        created.push_back(membership_.add_group(std::move(change.members)));
        break;
      case MembershipChange::Kind::kRemoveGroup:
        membership_.remove_group(change.group);
        break;
      case MembershipChange::Kind::kJoin:
        membership_.add_member(change.group, change.node);
        break;
      case MembershipChange::Kind::kLeave:
        membership_.remove_member(change.group, change.node);
        break;
    }
  }
  rebuild();
  return created;
}

PubSubSystem::ReconfigureResult PubSubSystem::reconfigure_async(
    std::vector<MembershipChange> changes) {
  DECSEQ_CHECK(network_ != nullptr);
  DECSEQ_CHECK_MSG(!network_->transition_active(),
                   "reconfigure_async while "
                       << network_->fences_outstanding()
                       << " cutover fence(s) from the previous transition "
                          "are still draining");
  ReconfigureResult result;

  // 1. Snapshot every live group's member list *before* the mutation: the
  //    cutover fences must reach the old membership (a leaver still gets
  //    the fence that closes its subscription; a joiner does not).
  std::vector<std::vector<NodeId>> old_members(membership_.num_group_slots());
  for (const GroupId g : membership_.live_groups()) {
    old_members[g.value()] = membership_.members(g);
  }

  // 2. Apply the batch; the directly-touched groups seed the delta.
  std::vector<GroupId> dirty;
  for (MembershipChange& change : changes) {
    switch (change.kind) {
      case MembershipChange::Kind::kCreateGroup: {
        const GroupId g = membership_.add_group(std::move(change.members));
        result.created.push_back(g);
        dirty.push_back(g);
        break;
      }
      case MembershipChange::Kind::kRemoveGroup:
        membership_.remove_group(change.group);
        dirty.push_back(change.group);
        break;
      case MembershipChange::Kind::kJoin:
        membership_.add_member(change.group, change.node);
        dirty.push_back(change.group);
        break;
      case MembershipChange::Kind::kLeave:
        membership_.remove_member(change.group, change.node);
        dirty.push_back(change.group);
        break;
    }
  }

  // 3. Extend the stack layer by layer, in place — the network holds
  //    references to the graph/colocation/assignment objects, so each is
  //    mutated or move-assigned at its existing address. Old atoms keep
  //    their ids, sequencing nodes, and machines; re-laid paths append.
  membership::OverlapIndex new_overlaps(*overlaps_, membership_, dirty);
  const std::vector<std::size_t> labels =
      placement::colocate_overlaps(new_overlaps, config_.colocation, rng_);
  seqgraph::BuildOptions graph_options = config_.graph;
  graph_options.colocation_labels = &labels;
  graph_options.scratch = &graph_scratch_;
  // The delta edits the graph in place; nothing reads *graph_ while it is
  // moved out.
  const std::size_t first_new_atom = graph_->num_atoms();
  *graph_ = seqgraph::build_sequencing_graph_delta(
      std::move(*graph_), *overlaps_, membership_, new_overlaps, dirty,
      graph_options, &result.delta);
  *overlaps_ = std::move(new_overlaps);
  colocation_->extend(*graph_, first_new_atom, labels);
  placement::extend_assignment(*assignment_, *graph_, *colocation_,
                               membership_, *hosts_, net_graph_,
                               config_.assignment, rng_,
                               result.delta.affected_groups, first_new_atom);
  ++transition_counter_;
  if (engine_ != nullptr) {
    engine_->extend_plan(*graph_, membership_, result.delta.affected_groups,
                         transition_counter_);
  }

  // 4. Cut over: compile the affected groups' new spans next to their old
  //    ones and flush a fence down each old span. From here on the network
  //    routes by epoch; run() drains the transition.
  result.report = network_->begin_reconfigure(result.delta.affected_groups,
                                              old_members);

  // 5. Sharded mode: publishes still queued in the ingress rings were
  //    routed under the old plan; re-route them (adding the old-ingress ->
  //    new-ingress leg their single-threaded in-flight counterparts would
  //    travel) onto the shards that now own their groups.
  if (engine_ != nullptr) {
    engine_->redistribute_ingress([this](runtime::IngressItem& item) {
      return network_->reroute_pending_publish(item);
    });
  }
  return result;
}

void PubSubSystem::terminate_group(GroupId group, NodeId initiator) {
  network_->terminate_group(group, initiator);
}

void PubSubSystem::publish_causal(NodeId sender, GroupId group,
                                  std::uint64_t payload) {
  DECSEQ_CHECK_MSG(
      membership_.is_member(group, sender),
      "causal publish requires sender " << sender << " in group " << group);
  causal_[sender].queue.push_back({group, payload});
  pump_causal_queue(sender);
}

void PubSubSystem::pump_causal_queue(NodeId sender) {
  CausalState& state = causal_[sender];
  if (state.in_flight.has_value() || state.queue.empty()) return;
  const CausalPending next = state.queue.front();
  state.queue.pop_front();
  state.in_flight = network_->publish(sender, next.group, next.payload);
}

bool PubSubSystem::causal_pending() const {
  for (const auto& [sender, state] : causal_) {
    if (state.in_flight.has_value() || !state.queue.empty()) return true;
  }
  return false;
}

void PubSubSystem::resolve_failed_causal() {
  for (auto& [sender, state] : causal_) {
    // A causal head that failed ingress (the publisher host crashed) will
    // never be delivered back to release the chain; the rest of the queue
    // belonged to the crashed host, so the whole chain is dropped rather
    // than wedging the drain.
    if (state.in_flight.has_value() &&
        network_->record(*state.in_flight).ingress_failed) {
      state.in_flight.reset();
      state.queue.clear();
    }
  }
}

void PubSubSystem::commit_deliveries() {
  // A committed cutover fence is relayed to the node's gated receivers,
  // which replay their gate-held messages *now* (workers are parked, so
  // touching shard state is fence-legal) — producing fresh delivery events
  // in the rings. Re-drain until a pass commits no fences; released
  // messages are ordinary payload deliveries and cannot cascade further
  // relays. During a transition run_sharded() holds lockstep, so every
  // event in a pass (and every release) shares the slice's fence time and
  // the (time, unit, unit_pos) merge stays shard-count-invariant.
  bool relayed_fence = true;
  while (relayed_fence) {
    relayed_fence = false;
    batch_.clear();
    engine_->drain_deliveries(batch_);
    // The shard-count-invariant merge: time first; ties across units by
    // unit id, within a unit by the unit's own delivery-stream position
    // (which preserves the exact order a lone simulator would produce).
    std::sort(batch_.begin(), batch_.end(),
              [](const runtime::DeliveryEvent& a,
                 const runtime::DeliveryEvent& b) {
                if (a.delivered_at != b.delivered_at) {
                  return a.delivered_at < b.delivered_at;
                }
                if (a.unit != b.unit) return a.unit < b.unit;
                return a.unit_pos < b.unit_pos;
              });
    for (const runtime::DeliveryEvent& ev : batch_) {
      if (ev.fence) {
        network_->fence_delivery_committed(ev.receiver, ev.delivered_at);
        relayed_fence = true;
        continue;  // control message: never reaches the application log
      }
      if (!ev.fin) {
        log_.push_back({ev.receiver, MsgId(epoch_base_ + ev.message.value()),
                        ev.group, ev.sender, ev.payload, ev.sent_at,
                        ev.delivered_at});
      }
      // A sender receiving its own message back releases its next queued
      // causal publish; in lockstep the control clock sits at the delivery
      // time, so the release publishes exactly when the callback would
      // have.
      if (ev.receiver == ev.sender) {
        const auto it = causal_.find(ev.sender);
        if (it != causal_.end() && it->second.in_flight == ev.message) {
          it->second.in_flight.reset();
          pump_causal_queue(ev.sender);
        }
      }
    }
  }
}

sim::Time PubSubSystem::run_sharded() {
  DECSEQ_CHECK_MSG(user_callback_ == nullptr,
                   "delivery callbacks are not available in sharded mode");
  while (true) {
    resolve_failed_causal();
    if (sim_.idle() && engine_->idle() && !engine_->ingress_pending() &&
        !causal_pending()) {
      break;
    }
    if (!causal_pending() && !network_->transition_active()) {
      // Free-run: nothing on a shard can feed back into the control plane,
      // so every shard races ahead to the next control event in parallel.
      // (During a cutover transition fences feed back — a fence commit
      // relays to gated receivers on other shards — so lockstep holds
      // until the transition drains, making the relay instant equal the
      // fence's delivery time for every shard count.)
      // Exclusive fences (run_before) keep fence-time protocol events
      // after fence-time control events, like the FIFO tie-break would.
      const sim::Time fence = sim_.next_event_time();
      engine_->run_before(fence);
      if (std::isinf(fence)) {  // control idle: the shards just drained
        commit_deliveries();
        continue;
      }
      engine_->advance_to(fence);
      sim_.run_until(fence);
      commit_deliveries();
      continue;
    }
    // Lockstep: a delivery can release a causal publish, so fences fall on
    // every event time — the release re-enters the network at exactly the
    // simulated instant the single-threaded callback would have fired.
    sim::Time fence;
    if (engine_->ingress_pending()) {
      // Queued publishes were stamped at the current instant; they must be
      // ingested before any clock moves past it, so re-fence at "now" (the
      // slice ingests first, then runs whatever lands at this time).
      fence = std::max(sim_.now(), engine_->max_now());
    } else {
      fence = std::min(sim_.next_event_time(), engine_->next_event_time());
      DECSEQ_CHECK_MSG(std::isfinite(fence),
                       "causal publishes stuck with an idle simulator");
    }
    engine_->advance_to(fence);
    sim_.advance_to(fence);
    sim_.run_until(fence);
    engine_->run_until(fence);
    commit_deliveries();
  }
  // Leave every clock at the run's completion time, like the lone
  // simulator's clock would be.
  const sim::Time end = std::max(sim_.now(), engine_->max_now());
  sim_.advance_to(end);
  if (std::isfinite(end)) engine_->advance_to(end);
  return end;
}

sim::Time PubSubSystem::run() {
  if (engine_ != nullptr) return run_sharded();
  sim_.run();
  // Causal queues may release messages upon delivery; keep draining until
  // nothing is pending anywhere.
  while (true) {
    resolve_failed_causal();
    if (!causal_pending()) break;
    DECSEQ_CHECK_MSG(!sim_.idle(),
                     "causal publishes stuck with an idle simulator");
    sim_.run();
  }
  return sim_.now();
}

std::vector<Delivery> PubSubSystem::deliveries_to(NodeId node) const {
  std::vector<Delivery> result;
  for (const Delivery& d : log_) {
    if (d.receiver == node) result.push_back(d);
  }
  return result;
}

}  // namespace decseq::pubsub
