// Receiver-side delivery (paper §3.1, §3.3).
//
// Each receiver keeps next-expected counters for (a) every group it
// subscribes to and (b) every sequencing atom whose overlap it belongs to.
// Because a node in overlap(Q) subscribes to *both* groups Q sequences, it
// receives every message Q stamps — the counter spaces it observes are
// gapless, so the deliver-or-buffer decision is immediate and deterministic
// (the paper's second key property). A message is delivered once its
// group-local number and all *relevant* stamps equal the next-expected
// values; delivery increments those counters and may release buffered
// messages.
//
// Counters live in one dense array indexed by *slot* (group and atom ids
// are dense small ints; the constructor maps each subscribed group and
// relevant atom to a slot), so the deliver-or-buffer test is a branchy
// array walk with no hashing. A blocked message is parked in a slab,
// indexed under the exact (slot, sequence number) it is waiting for;
// advancing a counter looks up its new value and wakes exactly the waiters
// that were blocked on it — O(1) per advance, the paper's "instant
// decision" made literal (the seed's list + O(n²) fixpoint re-scan is
// gone). A woken message still blocked on a later counter re-parks there;
// each wake re-parks at most once per remaining counter, so cascades are
// linear in released work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/ring_buffer.h"
#include "protocol/message.h"
#include "seqgraph/graph.h"

namespace decseq::protocol {

namespace testhooks {
/// Fault injection for the fuzzer's self-test (tests/fuzz_test.cc and
/// fuzz_driver --inject-stamp-bug): when set, receivers validate and advance
/// only the group-local counter and ignore overlap stamps entirely — exactly
/// the cross-group ordering bug the stamps exist to prevent. The fuzzer must
/// detect the resulting pairwise-consistency violation and shrink it to a
/// minimal scenario. Never set outside tests.
inline bool g_skip_stamp_validation = false;
}  // namespace testhooks

/// One zero-downtime reconfiguration, as seen by a single receiver: which
/// cutover fences it must observe before new-epoch traffic may deliver,
/// plus the counter slots the new epoch adds. See "Zero-downtime
/// reconfiguration" in protocol/network.h for the whole picture.
struct ReceiverReconfigure {
  /// The new routing epoch; messages tagged with it are gated until every
  /// awaited fence has been delivered.
  std::uint32_t epoch = 0;
  /// Groups whose fence (or FIN+fence) this receiver delivers and must
  /// wait for. The receiver already holds slots for them (it was an
  /// old-epoch member).
  std::vector<GroupId> awaited_fences;
  /// Group slots to claim or re-initialize: (group, first expected seq).
  /// A new or rejoining subscriber starts at the group's first new-epoch
  /// sequence number (the fence consumed the last old one).
  std::vector<std::pair<GroupId, SeqNo>> group_inits;
  /// Newly relevant atoms (appended by the delta rebuild); counters start
  /// at 1 like any fresh atom sequence space.
  std::vector<AtomId> new_atoms;
};

/// Delivery state machine for one subscriber node.
class Receiver {
 public:
  using DeliverFn =
      std::function<void(const Message& message, sim::Time now)>;

  /// `relevant_atoms`: atoms whose overlap contains this node.
  Receiver(NodeId node, std::vector<GroupId> subscriptions,
           std::vector<AtomId> relevant_atoms, DeliverFn on_deliver);

  [[nodiscard]] NodeId node() const { return node_; }

  /// A message arrived from the distribution layer: deliver it now if its
  /// counters line up, otherwise buffer it. Either way the decision is
  /// immediate. Cascades deliveries of previously buffered messages.
  void receive(const Message& message, sim::Time now);

  /// Arm the epoch gate and claim the new epoch's counter slots. New-epoch
  /// messages are held (in arrival order) until every awaited fence has
  /// been delivered; old-epoch traffic flows untouched. Counter slots are
  /// append-only: old slots keep draining the old epoch.
  void apply_reconfigure(const ReceiverReconfigure& rc);

  /// True while the epoch gate is armed (fences still outstanding).
  [[nodiscard]] bool gated() const { return fence_wait_ > 0; }

  /// Messages ever held at the epoch gate, per group — the bench's
  /// "messages stalled by reconfiguration" metric (untouched groups are
  /// never gated, so their count must stay 0).
  void accumulate_gate_holds(std::vector<std::size_t>& by_group) const;

  /// True iff `message` would be delivered immediately — i.e. no prior
  /// message is still missing. This is the paper's "committed without
  /// ambiguity" test: the application can tell that nothing earlier is
  /// delayed.
  [[nodiscard]] bool deliverable(const Message& message) const;

  /// Messages waiting for earlier ones.
  [[nodiscard]] std::size_t buffered() const { return buffered_count_; }
  [[nodiscard]] std::size_t delivered() const { return delivered_count_; }

  /// True once the group's FIN has been delivered: its sequence space is
  /// closed and further messages for it are a protocol error.
  [[nodiscard]] bool group_closed(GroupId g) const {
    const std::int32_t slot = group_slot(g);
    return slot >= 0 && closed_[static_cast<std::size_t>(slot)];
  }

  /// Peak reorder-buffer occupancy and cumulative buffering time — the
  /// receiver-side cost of the ordering guarantee (used by the
  /// ordering-wait experiment).
  [[nodiscard]] std::size_t max_buffered() const { return max_buffered_; }
  [[nodiscard]] sim::Time total_buffer_wait() const {
    return total_buffer_wait_;
  }

 private:
  /// Slab index sentinel / end-of-chain marker.
  static constexpr std::uint32_t kNone = 0xffffffff;

  struct PendingSlot {
    Message message;
    sim::Time arrived_at = 0.0;
    /// Next waiter blocked on the same (counter, value), or kNone.
    std::uint32_t next = kNone;
  };

  [[nodiscard]] std::int32_t group_slot(GroupId g) const {
    return g.valid() && g.value() < group_slot_.size()
               ? group_slot_[g.value()]
               : -1;
  }
  [[nodiscard]] std::int32_t atom_slot(AtomId a) const {
    return a.valid() && a.value() < atom_slot_.size() ? atom_slot_[a.value()]
                                                      : -1;
  }

  /// First counter holding `message` back, as (slot, required value);
  /// slot -1 if none (the message is deliverable).
  [[nodiscard]] std::pair<std::int32_t, SeqNo> first_blocker(
      const Message& message) const;

  /// Map an id to its counter slot, creating the slot (with first expected
  /// value `first`) if absent. Keeps next_/closed_/wait_head_/
  /// awaiting_fence_ in tandem.
  std::int32_t claim_slot(std::vector<std::int32_t>& slots,
                          std::uint32_t id_value, SeqNo first);

  void park(const Message& message, sim::Time now);
  void index_waiter(std::uint32_t idx);
  void advance(std::int32_t slot);
  void deliver(const Message& message, sim::Time now);
  void process_ready(sim::Time now);
  /// Replay gate-held messages once the last awaited fence is in.
  void maybe_release(sim::Time now);

  NodeId node_;
  DeliverFn on_deliver_;

  /// Dense id → counter-slot maps (-1 = not subscribed / not relevant).
  std::vector<std::int32_t> group_slot_;
  std::vector<std::int32_t> atom_slot_;
  /// Next expected sequence number per slot, 1-based.
  std::vector<SeqNo> next_;
  /// Per-slot closed flag (meaningful for group slots: FIN delivered).
  std::vector<bool> closed_;
  /// One (required value → waiter chain) entry of a slot's waiting index.
  /// Entries live in a shared slab (wait_nodes_) recycled through
  /// wait_free_, so parking a message allocates nothing once the slab is
  /// warm — the former unordered_map index paid one hash-node allocation
  /// per park, the last allocating step on the publish→deliver path.
  struct WaitNode {
    SeqNo value = 0;
    std::uint32_t waiter = kNone;  ///< head of a pending_ index chain
    std::uint32_t next = kNone;    ///< next entry in the same slot's list
  };
  /// Per-slot waiting index: head of a singly-linked list of WaitNodes in
  /// wait_nodes_, one per distinct blocked-on value. Lists are as short as
  /// the number of distinct values parked against that counter (a correct
  /// run has at most one waiter per (slot, value); chains only appear under
  /// hand-crafted duplicate traffic in tests), so lookup is a short pointer
  /// chase instead of a hash probe plus node allocation.
  std::vector<std::uint32_t> wait_head_;
  std::vector<WaitNode> wait_nodes_;
  std::vector<std::uint32_t> wait_free_;

  /// Reorder-buffer slab + free list; parked messages keep their payload
  /// blocks alive by reference, nothing is copied.
  std::vector<PendingSlot> pending_;
  std::vector<std::uint32_t> free_slots_;
  /// Waiters woken by a counter advance, pending their re-check (FIFO).
  common::RingBuffer<std::uint32_t> ready_;

  std::size_t buffered_count_ = 0;
  std::size_t delivered_count_ = 0;
  std::size_t max_buffered_ = 0;
  sim::Time total_buffer_wait_ = 0.0;

  /// --- Epoch gate (zero-downtime reconfiguration) ---
  /// Messages of gate_epoch_ are held while fence_wait_ > 0. Old-epoch
  /// messages bypass the gate entirely (their counters are still live), so
  /// a group untouched by the reconfiguration never waits here.
  std::uint32_t gate_epoch_ = 0;
  std::uint32_t fence_wait_ = 0;
  /// Per-slot flag: delivering this group's fence decrements fence_wait_.
  std::vector<char> awaiting_fence_;
  /// Gate-held messages in arrival order (replayed in the same order).
  /// The release hands the drained buffer back, so its capacity serves
  /// the next cutover.
  std::vector<std::pair<Message, sim::Time>> held_;
  /// Cumulative gate holds per group value (metric only).
  std::vector<std::size_t> gate_holds_by_group_;
};

/// The live overlap atoms among graph atoms [first_atom, num_atoms) whose
/// overlap includes `node`, in AtomId order: its relevant atoms, or with
/// first_atom at the old atom count, those a delta rebuild appended.
[[nodiscard]] std::vector<AtomId> relevant_atoms_for(
    NodeId node, const seqgraph::SequencingGraph& graph,
    std::size_t first_atom = 0);

}  // namespace decseq::protocol
