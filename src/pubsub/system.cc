#include "pubsub/system.h"

#include <algorithm>
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
  // The network holds references to the layers emptied below; the two
  // epochs' networks never coexist.
  network_.reset();
  overlaps_ = membership::OverlapIndex{};
  graph_ = seqgraph::SequencingGraph{};
  colocation_ = placement::Colocation{};
  assignment_ = placement::Assignment{};
  seqgraph::DeltaBuildStats delta;
  compile(membership_.live_groups(), delta);
  network_ = std::make_unique<protocol::SequencingNetwork>(
      sim_, rng_, graph_, colocation_, assignment_, membership_, *hosts_,
      *oracle_, config_.network, &net_graph_);
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

void PubSubSystem::compile(const std::vector<GroupId>& dirty,
                           seqgraph::DeltaBuildStats& delta) {
  // The next overlap index is built in the spare one, taking the surviving
  // overlaps' member lists from overlaps_, which keeps the old components
  // the graph delta reads; then the two swap.
  spare_overlaps_.rebuild_delta(overlaps_, membership_, dirty);
  // Co-locate before layout so the chain keeps same-machine atoms
  // contiguous (§3.4: related atoms on the same machine recover the
  // performance that distributing them would cost).
  placement::colocate_overlaps(spare_overlaps_, config_.colocation, rng_,
                               colocation_scratch_, labels_);
  seqgraph::BuildOptions graph_options = config_.graph;
  graph_options.colocation_labels = &labels_;
  graph_options.scratch = &graph_scratch_;
  // The delta edits the graph in place; nothing reads graph_ while it is
  // moved out.
  const std::size_t first_new_atom = graph_.num_atoms();
  graph_ = seqgraph::build_sequencing_graph_delta(
      std::move(graph_), overlaps_, membership_, spare_overlaps_, dirty,
      graph_options, &delta);
  std::swap(overlaps_, spare_overlaps_);
  colocation_.extend(graph_, first_new_atom, labels_, extend_scratch_);
  placement::extend_assignment(assignment_, graph_, colocation_, membership_,
                               *hosts_, net_graph_, config_.assignment, rng_,
                               delta.affected_groups, first_new_atom,
                               extend_scratch_);
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

protocol::MessageRecord PubSubSystem::record(MsgId id) const {
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

  // 1. Snapshot the member list of each group the batch mutates, before
  //    its first mutation: the cutover fences must reach the old
  //    membership (a leaver still gets the fence that closes its
  //    subscription; a joiner does not). No other group's members change,
  //    so begin_reconfigure reads their current lists. The previous call's
  //    snapshots, a throwing batch's included, are cleared first.
  for (const GroupId g : dirty_) {
    if (g.value() < old_members_.size()) old_members_[g.value()].clear();
  }
  dirty_.clear();
  const std::size_t slots_before = membership_.num_group_slots();
  if (old_members_.size() < slots_before) old_members_.resize(slots_before);
  const auto snapshot = [&](GroupId g) {
    if (g.valid() && g.value() < slots_before && membership_.is_alive(g) &&
        old_members_[g.value()].empty()) {
      old_members_[g.value()] = membership_.members(g);
    }
  };

  // 2. Apply the batch; the directly-touched groups seed the delta.
  for (MembershipChange& change : changes) {
    switch (change.kind) {
      case MembershipChange::Kind::kCreateGroup: {
        const GroupId g = membership_.add_group(std::move(change.members));
        result.created.push_back(g);
        dirty_.push_back(g);
        break;
      }
      case MembershipChange::Kind::kRemoveGroup:
        snapshot(change.group);
        dirty_.push_back(change.group);
        membership_.remove_group(change.group);
        break;
      case MembershipChange::Kind::kJoin:
        snapshot(change.group);
        dirty_.push_back(change.group);
        membership_.add_member(change.group, change.node);
        break;
      case MembershipChange::Kind::kLeave:
        snapshot(change.group);
        dirty_.push_back(change.group);
        membership_.remove_member(change.group, change.node);
        break;
    }
  }

  // 3. Extend the stack layer by layer, in place. Old atoms keep their
  //    ids, sequencing nodes, and machines; re-laid paths append.
  compile(dirty_, result.delta);

  // 4. Cut over: compile the affected groups' new spans next to their old
  //    ones and flush a fence down each old span. From here on the network
  //    routes by epoch; run() drains the transition.
  result.report = network_->begin_reconfigure(result.delta.affected_groups,
                                              old_members_);
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

sim::Time PubSubSystem::run() {
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
