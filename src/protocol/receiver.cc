#include "protocol/receiver.h"

#include <algorithm>

#include "common/check.h"

namespace decseq::protocol {

Receiver::Receiver(NodeId node, std::vector<GroupId> subscriptions,
                   std::vector<AtomId> relevant_atoms, DeliverFn on_deliver)
    : node_(node), on_deliver_(std::move(on_deliver)) {
  DECSEQ_CHECK(on_deliver_ != nullptr);
  for (const GroupId g : subscriptions) claim_slot(group_slot_, g.value(), 1);
  for (const AtomId a : relevant_atoms) claim_slot(atom_slot_, a.value(), 1);
}

std::int32_t Receiver::claim_slot(std::vector<std::int32_t>& slots,
                                  std::uint32_t id_value, SeqNo first) {
  if (id_value >= slots.size()) slots.resize(id_value + 1, -1);
  if (slots[id_value] >= 0) return slots[id_value];  // already claimed
  slots[id_value] = static_cast<std::int32_t>(next_.size());
  next_.push_back(first);
  closed_.push_back(false);
  wait_head_.push_back(kNone);
  awaiting_fence_.push_back(0);
  return slots[id_value];
}

void Receiver::apply_reconfigure(const ReceiverReconfigure& rc) {
  gate_epoch_ = rc.epoch;
  for (const auto& [g, first] : rc.group_inits) {
    const std::int32_t s = claim_slot(group_slot_, g.value(), first);
    // Rejoining a group whose slot survived from an earlier epoch: the node
    // missed the interim traffic, so it resumes at the new epoch's first
    // sequence number.
    next_[static_cast<std::size_t>(s)] = first;
  }
  for (const AtomId a : rc.new_atoms) claim_slot(atom_slot_, a.value(), 1);
  for (const GroupId g : rc.awaited_fences) {
    const std::int32_t s = group_slot(g);
    DECSEQ_CHECK_MSG(s >= 0, "awaited fence for unknown group " << g);
    if (awaiting_fence_[static_cast<std::size_t>(s)] == 0) {
      awaiting_fence_[static_cast<std::size_t>(s)] = 1;
      ++fence_wait_;
    }
  }
}

void Receiver::accumulate_gate_holds(std::vector<std::size_t>& by_group) const {
  if (by_group.size() < gate_holds_by_group_.size()) {
    by_group.resize(gate_holds_by_group_.size(), 0);
  }
  for (std::size_t i = 0; i < gate_holds_by_group_.size(); ++i) {
    by_group[i] += gate_holds_by_group_[i];
  }
}

bool Receiver::deliverable(const Message& message) const {
  if (fence_wait_ > 0 && message.epoch == gate_epoch_) return false;
  const std::int32_t gs = group_slot(message.group());
  DECSEQ_CHECK_MSG(gs >= 0, "node " << node_
                                    << " got message for unsubscribed group "
                                    << message.group());
  DECSEQ_CHECK_MSG(message.group_seq != 0, "message missing group sequence");
  if (message.group_seq != next_[static_cast<std::size_t>(gs)]) return false;
  if (testhooks::g_skip_stamp_validation) return true;
  for (const Stamp& s : message.stamps) {
    const std::int32_t as = atom_slot(s.atom);
    if (as < 0) continue;  // not relevant to this node
    DECSEQ_CHECK_MSG(s.seq != 0, "unset stamp from atom " << s.atom);
    if (s.seq != next_[static_cast<std::size_t>(as)]) return false;
  }
  return true;
}

std::pair<std::int32_t, SeqNo> Receiver::first_blocker(
    const Message& message) const {
  const std::int32_t gs = group_slot(message.group());
  if (message.group_seq != next_[static_cast<std::size_t>(gs)]) {
    return {gs, message.group_seq};
  }
  if (testhooks::g_skip_stamp_validation) return {-1, 0};
  for (const Stamp& s : message.stamps) {
    const std::int32_t as = atom_slot(s.atom);
    if (as >= 0 && s.seq != next_[static_cast<std::size_t>(as)]) {
      return {as, s.seq};
    }
  }
  return {-1, 0};
}

void Receiver::receive(const Message& message, sim::Time now) {
  if (fence_wait_ > 0 && message.epoch == gate_epoch_) {
    // Epoch gate: a new-epoch message may not deliver until every fence of
    // the old epoch has — otherwise this receiver could order it against a
    // still-in-flight old-epoch message differently from a peer (the two
    // share no sequencing atom across the epoch cut).
    held_.push_back({message, now});
    ++buffered_count_;
    max_buffered_ = std::max(max_buffered_, buffered_count_);
    const std::uint32_t gv = message.group().value();
    if (gv >= gate_holds_by_group_.size()) {
      gate_holds_by_group_.resize(gv + 1, 0);
    }
    ++gate_holds_by_group_[gv];
    return;
  }
  const std::int32_t gs = group_slot(message.group());
  DECSEQ_CHECK_MSG(!(gs >= 0 && closed_[static_cast<std::size_t>(gs)]),
                   "message for group " << message.group()
                                        << " after its FIN at node " << node_);
  if (!deliverable(message)) {
    park(message, now);
    return;
  }
  deliver(message, now);
  process_ready(now);
  maybe_release(now);
}

void Receiver::maybe_release(sim::Time now) {
  while (fence_wait_ == 0 && !held_.empty()) {
    // Drain from a local buffer: a nested receive() may arm a new gate (a
    // delivery callback can start the next transition) and refill held_.
    std::vector<std::pair<Message, sim::Time>> drain;
    drain.swap(held_);
    for (auto& [message, arrived_at] : drain) {
      total_buffer_wait_ += now - arrived_at;
      --buffered_count_;
      receive(message, now);
    }
    // Nothing was held meanwhile: hand the drained buffer back, so the
    // next cutover holds into the capacity this one grew.
    if (held_.empty()) {
      drain.clear();
      held_.swap(drain);
    }
  }
}

void Receiver::park(const Message& message, sim::Time now) {
  std::uint32_t idx;
  if (free_slots_.empty()) {
    idx = static_cast<std::uint32_t>(pending_.size());
    pending_.push_back({message, now, kNone});
  } else {
    idx = free_slots_.back();
    free_slots_.pop_back();
    pending_[idx].message = message;  // shares the payload block
    pending_[idx].arrived_at = now;
    pending_[idx].next = kNone;
  }
  ++buffered_count_;
  max_buffered_ = std::max(max_buffered_, buffered_count_);
  index_waiter(idx);
}

void Receiver::index_waiter(std::uint32_t idx) {
  const auto [slot, seq] = first_blocker(pending_[idx].message);
  DECSEQ_CHECK(slot >= 0);  // callers only park non-deliverable messages
  std::uint32_t& head = wait_head_[static_cast<std::size_t>(slot)];
  for (std::uint32_t n = head; n != kNone; n = wait_nodes_[n].next) {
    if (wait_nodes_[n].value == seq) {
      pending_[idx].next = wait_nodes_[n].waiter;  // chain behind the
      wait_nodes_[n].waiter = idx;                 // existing waiter
      return;
    }
  }
  std::uint32_t node;
  if (wait_free_.empty()) {
    node = static_cast<std::uint32_t>(wait_nodes_.size());
    wait_nodes_.push_back({seq, idx, head});
  } else {
    node = wait_free_.back();
    wait_free_.pop_back();
    wait_nodes_[node] = {seq, idx, head};
  }
  pending_[idx].next = kNone;
  head = node;
  // A required value already below the counter can never match again: the
  // waiter stays parked forever, exactly like the seed's fixpoint scan that
  // never found it deliverable.
}

void Receiver::advance(std::int32_t slot) {
  auto& counter = next_[static_cast<std::size_t>(slot)];
  ++counter;
  // Unlink the index entry for the counter's new value, if any, and detach
  // its whole waiter chain into the ready queue; each entry re-checks its
  // remaining counters there.
  std::uint32_t* link = &wait_head_[static_cast<std::size_t>(slot)];
  while (*link != kNone) {
    WaitNode& node = wait_nodes_[*link];
    if (node.value != counter) {
      link = &node.next;
      continue;
    }
    std::uint32_t idx = node.waiter;
    const std::uint32_t freed = *link;
    *link = node.next;
    wait_free_.push_back(freed);
    while (idx != kNone) {
      const std::uint32_t next = pending_[idx].next;
      pending_[idx].next = kNone;
      ready_.push_back(idx);
      idx = next;
    }
    return;
  }
}

void Receiver::deliver(const Message& message, sim::Time now) {
  // Advance every counter this message was holding; each advance wakes the
  // waiters indexed under the counter's new value.
  const std::int32_t gs = group_slot(message.group());
  advance(gs);
  for (const Stamp& s : message.stamps) {
    const std::int32_t as = atom_slot(s.atom);
    if (as < 0) continue;
    if (testhooks::g_skip_stamp_validation) {
      // Injected bug: atom counters trail whatever arrives instead of
      // gating it, so cross-group order degrades to arrival order.
      next_[static_cast<std::size_t>(as)] =
          std::max(next_[static_cast<std::size_t>(as)], s.seq + 1);
      continue;
    }
    DECSEQ_CHECK(next_[static_cast<std::size_t>(as)] == s.seq);
    advance(as);
  }
  if (message.is_fin()) closed_[static_cast<std::size_t>(gs)] = true;
  if (message.data->is_fence() &&
      awaiting_fence_[static_cast<std::size_t>(gs)] != 0) {
    awaiting_fence_[static_cast<std::size_t>(gs)] = 0;
    DECSEQ_CHECK(fence_wait_ > 0);
    --fence_wait_;  // gate opens at the end of the enclosing receive()
  }
  ++delivered_count_;
  on_deliver_(message, now);
}

void Receiver::process_ready(sim::Time now) {
  while (!ready_.empty()) {
    const std::uint32_t idx = ready_.front();
    ready_.pop_front();
    if (!deliverable(pending_[idx].message)) {
      index_waiter(idx);  // woken but still blocked on a later counter
      continue;
    }
    Message message = std::move(pending_[idx].message);
    total_buffer_wait_ += now - pending_[idx].arrived_at;
    --buffered_count_;
    pending_[idx].message = Message{};  // release the payload reference
    free_slots_.push_back(idx);
    deliver(message, now);  // may push more ready waiters
  }
}

std::vector<AtomId> relevant_atoms_for(NodeId node,
                                       const seqgraph::SequencingGraph& graph,
                                       std::size_t first_atom) {
  std::vector<AtomId> relevant;
  const auto& live = graph.live_atoms();
  const auto first = std::lower_bound(
      live.begin(), live.end(), first_atom,
      [](AtomId a, std::size_t bound) { return a.value() < bound; });
  for (auto it = first; it != live.end(); ++it) {
    const seqgraph::Atom& atom = graph.atoms()[it->value()];
    if (atom.is_ingress_only()) continue;
    if (std::binary_search(atom.overlap_members.begin(),
                           atom.overlap_members.end(), node)) {
      relevant.push_back(atom.id);
    }
  }
  return relevant;
}

}  // namespace decseq::protocol
