// The sequencing network runtime: ingress, sequencing, distribution
// (paper §3, three phases).
//
// Wires one state machine per sequencing atom, reliable FIFO channels along
// the tree edges the group paths use (§3.1's channel assumption), and one
// Receiver per subscriber. Ingress and distribution legs travel on shortest
// unicast paths, like the paper's evaluation (§4.1: "messages travel from
// publishers to subscribers on the shortest path").
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "membership/membership.h"
#include "placement/assignment.h"
#include "placement/colocation.h"
#include "protocol/message.h"
#include "protocol/receiver.h"
#include "protocol/trace.h"
#include "seqgraph/graph.h"
#include "sim/channel.h"
#include "sim/simulator.h"
#include "topology/hosts.h"
#include "topology/multicast_tree.h"
#include "topology/shortest_path.h"

namespace decseq::protocol {

struct NetworkOptions {
  /// Options for inter-sequencer channels (loss is 0 in experiments; tests
  /// raise it to exercise retransmission).
  ChannelOptions channel;
  /// Distribute exiting messages through a shortest-path multicast tree per
  /// group (the paper's "delivery tree", §3) instead of per-member
  /// unicasts. Delivery times are identical (tree edges follow shortest
  /// paths); the difference is network cost, accounted in
  /// distribution_stress().
  bool tree_distribution = false;
};

/// Everything recorded about one published message, as record() reports
/// it. The network stores each message in 24 bytes (see StoredRecord in
/// SequencingNetwork) and assembles this value from them on every call.
struct MessageRecord {
  NodeId sender;
  GroupId group;
  /// When the message left the sequencing network for distribution.
  std::optional<sim::Time> exited_at;
  /// Number of sequence-number stamps collected (== atoms of its group);
  /// 0 until the message exits.
  std::size_t stamps = 0;
  /// Final ordering-header size in bytes, ordering_header_bytes() of a
  /// message carrying `stamps` stamps: 16 + 12 × stamps once the message
  /// exits, 0 until then.
  std::size_t header_bytes = 0;
  /// The message raced a concurrent group termination and reached the
  /// ingress after the FIN closed the sequence space: never sequenced,
  /// never delivered (the publisher lost the race, as with any send to a
  /// group that just ceased to exist).
  bool rejected = false;
  /// The publisher host crashed before the ingress leg completed (either
  /// it was already down at publish time, or it died while retrying into a
  /// failed ingress machine): the message never entered the sequencing
  /// network and is never delivered. Surfaced to the publisher — the
  /// paper's fail-free assumption covers sequencers, not publishers.
  bool ingress_failed = false;
  /// Ingress-leg retries this message needed (ingress machine down when it
  /// arrived). Retried messages can be ingress-sequenced out of publish
  /// order relative to the sender's other traffic.
  std::uint32_t ingress_retries = 0;
};

/// One channel-exhaustion event, recorded when the inter-sequencer channel
/// `from -> to` exhausted its retransmission budget (a ChannelFault
/// surfaced with the edge attached).
struct ChannelFaultRecord {
  AtomId from;
  AtomId to;
  std::uint64_t seq = 0;
  std::uint32_t attempts = 0;
  sim::Time at = 0.0;
};

/// What one begin_reconfigure() call did (telemetry for the churn bench and
/// the facade's reporting).
struct ReconfigureReport {
  std::size_t groups_refenced = 0;  ///< pre-existing groups cut over
  std::size_t groups_created = 0;
  std::size_t groups_removed = 0;   ///< fenced with FIN
  /// Fence deliveries pending when the call returned; the transition is
  /// drained when transition_active() goes false.
  std::size_t fences_outstanding = 0;
  std::size_t channels_created = 0;
  std::size_t hops_appended = 0;
};

/// A full simulated deployment of the ordering protocol.
class SequencingNetwork {
 public:
  /// (receiver, message, delivery time) for every in-order delivery.
  using DeliveryFn =
      std::function<void(NodeId receiver, const Message&, sim::Time)>;

  /// `physical_network` is only needed for tree distribution (it is where
  /// the delivery trees are built); pass nullptr otherwise.
  ///
  /// The trailing parameter takes nothing: it remains only because
  /// perfbench/src/layers.cc still passes a trailing nullptr, and goes
  /// with that call.
  SequencingNetwork(sim::Simulator& sim, Rng& rng,
                    const seqgraph::SequencingGraph& graph,
                    const placement::Colocation& colocation,
                    const placement::Assignment& assignment,
                    const membership::GroupMembership& membership,
                    const topology::HostMap& hosts,
                    topology::DistanceOracle& oracle,
                    NetworkOptions options = {},
                    const topology::Graph* physical_network = nullptr,
                    std::nullptr_t = nullptr);

  SequencingNetwork(const SequencingNetwork&) = delete;
  SequencingNetwork& operator=(const SequencingNetwork&) = delete;

  void set_delivery_callback(DeliveryFn fn) { on_delivery_ = std::move(fn); }

  /// Publish `payload` from `sender` to `group` at the current simulated
  /// time. The sender need not subscribe (but causal ordering then does not
  /// cover it, §3.3). `body` is opaque application bytes carried verbatim
  /// (delivered through the Message seen by delivery callbacks). Returns
  /// the message id.
  MsgId publish(NodeId sender, GroupId group, std::uint64_t payload = 0,
                std::vector<std::uint8_t> body = {});

  /// Span-style publish: identical semantics, but the body bytes are read
  /// straight from `body[0..body_size)` into the payload block — no
  /// intermediate std::vector, so a steady-state publisher re-sending from
  /// a fixed buffer never touches the allocator. `body` may be null iff
  /// `body_size` is 0.
  MsgId publish(NodeId sender, GroupId group, std::uint64_t payload,
                const std::uint8_t* body, std::size_t body_size);

  /// Pre-size the message-record log (24 bytes a message): publishing up
  /// to `messages` messages over this network's lifetime will not
  /// reallocate it (capacity planning for allocation-free steady state;
  /// see bench/system_bench).
  void reserve_messages(std::size_t messages) { records_.reserve(messages); }

  /// End `group`'s sequence space (§3.2): a termination message — the
  /// paper's "TCP FIN" — travels the group's sequencing path, ordered like
  /// any message. Each sequencing atom that inspects it retires lazily
  /// (stops stamping; its other group falls back to group-local order) and
  /// the group's forwarding state is dropped; receivers close the group
  /// after delivering the FIN. Further publishes to the group are an error.
  MsgId terminate_group(GroupId group, NodeId initiator);

  [[nodiscard]] bool group_terminated(GroupId group) const {
    return group.valid() && group.value() < group_routes_.size() &&
           group_routes_[group.value()].terminated;
  }

  // --- Zero-downtime reconfiguration (dual-epoch routing, PROTOCOL §3.4). ---
  // The graph/colocation/assignment/membership objects this network holds
  // references to have been extended in place (delta rebuild: old atom ids
  // preserved, re-laid paths appended). begin_reconfigure() cuts the
  // affected groups over *without quiescence*: each group's old compiled
  // span and fan-out plan are stashed as the previous epoch, the new span
  // is compiled next to them, and a cutover fence — a control message that
  // takes the group's next sequence number — is flushed down the old span
  // to the group's *old* members. Messages sequenced before the fence
  // drain on the old routes; messages sequenced after it ride the new
  // ones; receivers hold new-epoch messages until every fence they await
  // has been delivered, which preserves per-receiver order. Untouched
  // groups are never stalled.
  //
  // `old_members_by_slot[g.value()]` holds a group's sorted member list as
  // of *before* the membership mutation; an affected group whose slot is
  // missing or empty there must still be alive and unchanged, and its
  // current list is read instead (the facade snapshots only the groups its
  // batch mutates). Only one transition may drain at a time: the caller
  // must wait for transition_active() to go false before the next
  // begin_reconfigure().
  ReconfigureReport begin_reconfigure(
      const std::vector<GroupId>& affected,
      const std::vector<std::vector<NodeId>>& old_members_by_slot);

  /// True while cutover fences from the last begin_reconfigure() are still
  /// undelivered somewhere.
  [[nodiscard]] bool transition_active() const {
    return fences_outstanding_ > 0;
  }
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }
  [[nodiscard]] std::size_t fences_outstanding() const {
    return fences_outstanding_;
  }

  /// Messages ever held by receiver cutover gates, per group id value
  /// (cumulative across all transitions) — the "messages stalled by
  /// reconfiguration" metric. Untouched groups must read 0 here.
  [[nodiscard]] std::vector<std::size_t> gate_held_by_group() const;

  /// Bytes held by the compiled routing tables: the hop table, the
  /// per-group route headers, the channel table with the reclaimed channels
  /// kept for reuse, and the current, stashed and spare fan-out plans.
  /// Epoch compaction folds the live spans together and reclaims retired
  /// channels when a transition drains, so a churn loop of
  /// reconfigurations holds it steady instead of growing per transition
  /// (asserted by bench/churn_bench). The hop table keeps the capacity of
  /// its largest transition.
  [[nodiscard]] std::size_t routing_table_bytes() const;
  /// Epoch compactions run (one per fully drained transition).
  [[nodiscard]] std::size_t compactions_run() const {
    return compactions_run_;
  }
  /// Retired-epoch channels destroyed by compaction so far.
  [[nodiscard]] std::size_t channels_reclaimed() const {
    return channels_reclaimed_;
  }

  // --- Failure injection (beyond the paper's fail-free assumption). ---
  // Fail-stop model with synchronous state replication: a failed
  // sequencing machine stops receiving — upstream retransmission buffers
  // (§3.1) hold its traffic and publishers retry their ingress legs with
  // exponential backoff — and recovery resumes with the counters intact,
  // so no sequence number is ever lost or duplicated. A downtime longer
  // than the channels' retransmission budget does not abort: the affected
  // channels surface faults (see channel_faults()/faulted_edges()) and
  // keep probing; recover_node()/recover_link() clear them and retransmit
  // the held window immediately.
  void fail_node(SeqNodeId node);
  void recover_node(SeqNodeId node);
  [[nodiscard]] bool node_failed(SeqNodeId node) const {
    DECSEQ_CHECK(node.valid() && node.value() < node_down_.size());
    return node_down_[node.value()];
  }

  /// Sever / restore the directed inter-sequencer link `from -> to` (it
  /// must be an edge some group's path uses). Messages queue in the §3.1
  /// retransmission buffer until recovery; partition semantics are
  /// arrival-time (in-flight traffic dies inside the window, see
  /// sim/channel.h "Failure model").
  void fail_link(AtomId from, AtomId to);
  void recover_link(AtomId from, AtomId to);
  [[nodiscard]] bool link_failed(AtomId from, AtomId to) const;

  /// Partition the sequencing machines into two sides (`side[machine]` is
  /// 0 or 1) and sever every directed inter-atom channel crossing the cut
  /// that is not already down. Returns the severed edges in deterministic
  /// (from, to) order — pass each to recover_link() to heal the partition.
  [[nodiscard]] std::vector<std::pair<AtomId, AtomId>> sever_node_cut(
      const std::vector<char>& side);

  /// Fail-stop a publisher host: it stops publishing (a publish from a
  /// downed publisher records ingress_failed and goes nowhere) and any
  /// in-progress ingress retry loops it was driving are abandoned at their
  /// next retry. Subscriber state on the host is unaffected — the
  /// receiving endpoint's reliable channels hold its traffic exactly as
  /// for a sequencing-machine crash.
  void fail_publisher(NodeId node);
  void recover_publisher(NodeId node);
  [[nodiscard]] bool publisher_failed(NodeId node) const {
    return node.valid() && node.value() < publisher_down_.size() &&
           publisher_down_[node.value()];
  }

  /// Every channel-exhaustion event since construction, in the order the
  /// channels surfaced them (deterministic under the simulator).
  [[nodiscard]] const std::vector<ChannelFaultRecord>& channel_faults() const {
    return channel_faults_;
  }

  /// Edges whose channel is faulted *right now* (budget exhausted, not yet
  /// recovered or drained), sorted by (from, to).
  [[nodiscard]] std::vector<std::pair<AtomId, AtomId>> faulted_edges() const;

  /// What is recorded about message `id` (a runtime id below
  /// published()), assembled by value from its stored 24 bytes.
  [[nodiscard]] MessageRecord record(MsgId id) const;
  [[nodiscard]] std::size_t published() const { return records_.size(); }

  /// Messages handled per sequencing node (counted once per visit to the
  /// machine, however many co-located atoms touch the message there).
  [[nodiscard]] const std::vector<std::size_t>& seqnode_load() const {
    return seqnode_load_;
  }

  /// Messages delivered per subscriber node.
  [[nodiscard]] std::size_t deliveries(NodeId node) const;

  /// Total messages sitting in receiver reorder buffers right now.
  [[nodiscard]] std::size_t buffered_at_receivers() const;

  [[nodiscard]] const Receiver& receiver(NodeId node) const;

  /// Per-message tracing; call tracer().enable() before publishing.
  [[nodiscard]] Tracer& tracer() { return tracer_; }
  [[nodiscard]] const Tracer& tracer() const { return tracer_; }

  /// Link-stress accumulated by the distribution phase (tree mode only).
  [[nodiscard]] const topology::LinkStress& distribution_stress() const {
    return distribution_stress_;
  }

  /// The compiled sequencing route of `g`, as the flat hop table sees it —
  /// must mirror graph().path(g) for every live group of the epoch, and is
  /// empty once the group's FIN exited (its forwarding state is dropped).
  /// Introspection for tests: routing is table-driven, so the table *is*
  /// the protocol state worth pinning across rebuilds.
  [[nodiscard]] std::vector<AtomId> compiled_route(GroupId g) const;

  /// The channel of the path edge `from -> to`. Introspection for tests:
  /// its counters show how many hops crossed it and whether it drained.
  [[nodiscard]] const sim::Channel<Message>& channel(AtomId from,
                                                     AtomId to) const {
    return *channels_[channel_index(from, to)];
  }

 private:
  /// One compiled hop of a group's sequencing path. The routing state the
  /// seed kept in per-atom hash maps (`next_hop`, `prev_hop`, the
  /// `(from, to) -> channel` map) is flattened at construction — the
  /// quiescent epoch boundary where PubSubSystem rebuilds the graph — into
  /// one contiguous array of these, indexed by
  /// `group_routes_[g].first_hop + message.path_pos`: the per-hop
  /// forwarding decision is two array loads, no hashing, no tree walks.
  /// The reverse path (§3.1) is the same table read backward.
  struct RouteHop {
    /// Channel to the next atom on the path; null at the egress hop (the
    /// message leaves for distribution).
    sim::Channel<Message>* forward = nullptr;
    /// The atom at this position (guards against stale path_pos values).
    AtomId atom;
    /// Sequencing machine hosting `atom`.
    SeqNodeId node;
    /// Machine hosting the next hop's atom (meaningful iff forward != null).
    SeqNodeId next_node;
    /// Whether `atom` stamps this group's messages (a double-overlap atom
    /// of the group). Stays true after the partner group's FIN: §3.2's lazy
    /// removal — the atom keeps stamping until the next graph rebuild
    /// removes it, because a pre-FIN message of the dead group may still be
    /// in flight carrying this atom's numbers.
    bool stamps = false;
    /// Whether the forward leg crosses to a different sequencing machine
    /// (load accounting and the kForwarded trace record).
    bool crosses_machine = false;
  };

  /// Per-group compiled routing state: the hop-table span plus the ingress
  /// identity and its group-local sequence counter (each group has exactly
  /// one ingress atom, so the counter lives here, not per atom).
  struct GroupRoute {
    std::uint32_t first_hop = 0;  ///< offset into route_hops_
    std::uint32_t num_hops = 0;   ///< 0: no path, or FIN dropped the route
    AtomId ingress;
    SeqNodeId ingress_node;
    RouterId ingress_router;
    /// Next group-local sequence number the ingress assigns (§3.1).
    SeqNo next_seq = 1;
    /// The group's FIN passed the ingress: the sequence space is closed and
    /// data messages that lost the race against the FIN are rejected.
    bool ingress_closed = false;
    /// A FIN was injected (or a closing fence sequenced) for the group:
    /// further publishes are an error. Sits in the padding after
    /// ingress_closed.
    bool terminated = false;
    /// Dual-epoch routing (zero-downtime reconfiguration). The epoch the
    /// *current* span belongs to; a message whose stamped epoch differs
    /// was sequenced before this group's last cutover fence and routes on
    /// the prev_* span below instead. The previous span drains behind its
    /// fence and is zeroed when the fence exits.
    std::uint32_t epoch = 0;
    std::uint32_t prev_first_hop = 0;
    std::uint32_t prev_num_hops = 0;  ///< 0: no old span draining
    /// Old ingress machine, kept for the redirect leg a stale in-flight
    /// publish travels from the old ingress to the new one.
    RouterId prev_ingress_router;
  };

  /// One distribution-leg destination: the member's receiver and its
  /// propagation delay from the group's egress machine.
  struct FanOutTarget {
    Receiver* receiver;
    double delay;
  };
  /// Per-group distribution plan, computed once per membership epoch (the
  /// membership snapshot is immutable for the network's lifetime): the
  /// resolved (receiver, delay) list, plus the delivery tree in tree mode
  /// so per-message stress accounting keeps working. Saves a membership
  /// walk, router lookups, and distance/tree queries on every message.
  /// Targets are sorted by (delay, member index) and grouped into spans of
  /// equal delay, so the fan-out schedules one simulator event per *burst*
  /// of same-time arrivals instead of one per delivery (see distribute()).
  struct FanOutPlan {
    /// Targets that arrive together: targets[begin..end) share `delay`.
    struct Span {
      std::uint32_t begin;
      std::uint32_t end;
      double delay;
    };
    std::vector<FanOutTarget> targets;
    std::vector<Span> spans;
    std::unique_ptr<topology::MulticastTree> tree;
  };

  /// One hop: stamp, then forward or distribute. Takes the message by
  /// rvalue reference; it leaves by one move, into the next channel's
  /// output slot or the shared fan-out copy.
  ///
  /// `tail` says the call is the last protocol action of its event: an
  /// ingress arrival, or a delivery by an instant (0 ms, loss-free)
  /// channel, whose only work after it is releasing that channel's own
  /// output slot (and cancelling its retransmit timer if that drains a
  /// window a fault had filled). Then each forward whose channel passes
  /// in place (sim::Channel::pass_in_place(): the send's data event would
  /// be the very next to fire) is handled by the same call at the next
  /// atom, as a loop: no event, no buffer. The result is exact because in
  /// place and as an event the next atom runs on the same state and
  /// schedules the same events in the same queue order. Two callers are
  /// not in tail position: sequence_fence, whose caller sequences more
  /// fences after it, and a delivery by a channel with flight time or
  /// loss, which schedules its ack after the delivery.
  void handle_at_atom(AtomId atom, Message&& message, bool tail);
  MsgId inject(NodeId sender, GroupId group, std::uint64_t payload,
               const std::uint8_t* body, std::size_t body_size, bool is_fin);
  /// Ingress-leg arrival; retries with exponential backoff while the
  /// ingress machine is down (publisher retry, mirroring the channels'
  /// retransmission) and abandons the message — ingress_failed — if the
  /// publisher itself dies mid-retry. Takes the shared payload block: the
  /// ordering header does not exist until the ingress sequencer assigns
  /// the group sequence number here. `attempts` counts the retries so far.
  /// A message whose group's ingress atom changed while its leg was in
  /// flight is sequenced at the new ingress: here, when that sits on the
  /// same machine, else after a redirect leg between the two machines.
  void arrive_at_ingress(AtomId ingress, PayloadRef payload,
                         std::uint32_t attempts);
  void distribute(AtomId last_atom, Message&& message);
  [[nodiscard]] FanOutPlan& fanout_plan(GroupId group, AtomId last_atom);
  /// Materialize a group's distribution plan from its egress atom and an
  /// explicit member list (fanout_plan() uses the current membership; the
  /// reconfiguration path uses the old-member snapshot).
  [[nodiscard]] std::unique_ptr<FanOutPlan> build_fanout_plan(
      AtomId last_atom, const std::vector<NodeId>& members);
  /// A plan to fill: a drained one from spare_plans_ (its lists keep
  /// their capacity), or a new one.
  [[nodiscard]] std::unique_ptr<FanOutPlan> take_plan();
  /// Create the reliable FIFO channel for the path edge `from -> to`
  /// (compile_routes() and the reconfiguration channel append share it),
  /// re-arming a channel from spare_channels_ when there is one.
  [[nodiscard]] std::unique_ptr<sim::Channel<Message>> make_channel(
      AtomId from, AtomId to);
  /// Append a channel for every distinct directed edge of the paths of
  /// `groups` that start at or beyond atom `base` (the paths the calling
  /// compile laid out; all their atoms lie there), in (from, to) order
  /// after the existing channels, and index them by from-atom for
  /// append_route_span(). Returns the number appended.
  std::size_t append_path_channels(const std::vector<GroupId>& groups,
                                   std::size_t base);
  /// Compile `path` as `route`'s current span at the end of route_hops_
  /// (ingress identity and hop table entries).
  /// Every edge of `path` must be a channel the last append_path_channels()
  /// call appended; each hop takes its Channel* from that call's index.
  void append_route_span(GroupId g, const std::vector<AtomId>& path,
                         GroupRoute& route);
  /// The affected group's member list before the mutation: its snapshot
  /// when the caller took one, else its (unchanged) current list.
  [[nodiscard]] const std::vector<NodeId>& old_members_of(
      GroupId g,
      const std::vector<std::vector<NodeId>>& old_members_by_slot) const;
  /// Receiver cutover of begin_reconfigure(): one ReceiverReconfigure per
  /// touched node in rc_pool_, applied in node order (the previous
  /// cutover's entries are cleared first).
  void cut_over_receivers(std::size_t old_num_atoms);
  /// Sequence `group`'s cutover fence: synchronously take the next group
  /// sequence number and enter the *previous* span as the last old-epoch
  /// message. `close_group` additionally marks the fence as the group's FIN
  /// (group removal). `old_member_count` fence deliveries are added to the
  /// outstanding count.
  void sequence_fence(GroupId group, bool close_group,
                      std::size_t old_member_count);
  /// Epoch compaction, run when a transition's last cutover fence delivers
  /// (fences_outstanding_ back to 0): free the stashed previous-epoch
  /// fan-out plans, destroy quiescent channels whose endpoints the delta
  /// rebuild retired, and fold the hop table down to the live spans
  /// (remapping every route's first_hop). Reached via a zero-delay event —
  /// the span lambda delivering the final fence still iterates a stashed
  /// plan — so the fence count is re-checked in case a new transition
  /// began first.
  void compact_transition_state();
  [[nodiscard]] double machine_distance(AtomId a, AtomId b);
  [[nodiscard]] RouterId machine_of_atom(AtomId a) const;
  /// Compile the per-group hop tables and the dense ingress state from the
  /// sequencing graph (constructor only; the tables are immutable for the
  /// epoch except for FIN route drops).
  void compile_routes();
  [[nodiscard]] GroupRoute& group_route(GroupId g) {
    DECSEQ_CHECK(g.valid() && g.value() < group_routes_.size());
    return group_routes_[g.value()];
  }
  /// Index of the directed channel `from -> to` in channels_ / channel
  /// edges (cold paths only: failure injection and fault introspection;
  /// the hot path reads Channel* straight from the hop table).
  [[nodiscard]] std::size_t channel_index(AtomId from, AtomId to) const;
  /// Delivery callback for `node`'s receiver: consumes cutover fences into
  /// the transition accounting, traces, and forwards real deliveries to
  /// the delivery callback.
  [[nodiscard]] Receiver::DeliverFn local_delivery_fn(NodeId node);

  /// What the network keeps per published message, for its lifetime: the
  /// fields of MessageRecord that are not derived. `header_bytes` follows
  /// from the stamp count, and the exit time is NaN until the message
  /// exits, so the record fits in 24 bytes whatever the path.
  struct StoredRecord {
    sim::Time exited_at = std::numeric_limits<sim::Time>::quiet_NaN();
    GroupId group;
    NodeId sender;
    std::uint32_t ingress_retries = 0;
    /// Stamps collected; written once, at exit, range-checked there.
    std::uint16_t stamps = 0;
    bool rejected = false;
    bool ingress_failed = false;
  };
  static_assert(sizeof(StoredRecord) <= 24,
                "a published message keeps at most 24 bytes");
  /// Append the record of a message published now (its id is the
  /// record's index).
  [[nodiscard]] MsgId append_record(NodeId sender, GroupId group);

  sim::Simulator* sim_;
  Rng* rng_;
  const seqgraph::SequencingGraph* graph_;
  const placement::Colocation* colocation_;
  const placement::Assignment* assignment_;
  const membership::GroupMembership* membership_;
  const topology::HostMap* hosts_;
  topology::DistanceOracle* oracle_;
  NetworkOptions options_;

  /// Per-atom overlap sequence counters (dense, indexed by atom id).
  std::vector<SeqNo> atom_next_seq_;
  /// Compiled routing tables (see RouteHop / GroupRoute): every group's
  /// path flattened into one contiguous hop array.
  std::vector<RouteHop> route_hops_;
  std::vector<GroupRoute> group_routes_;
  /// Directed inter-atom channels for every path edge in use, parallel to
  /// channel_edges_ and sorted by (from, to) — cold-path lookups binary
  /// search, iteration is deterministic without re-sorting, and the hot
  /// path never looks up at all (hop tables hold the Channel*).
  std::vector<std::pair<AtomId, AtomId>> channel_edges_;
  std::vector<std::unique_ptr<sim::Channel<Message>>> channels_;
  /// Receivers indexed by node id value; null for non-subscribers.
  std::vector<std::unique_ptr<Receiver>> receivers_;
  std::vector<StoredRecord> records_;
  std::vector<std::size_t> seqnode_load_;
  std::vector<bool> node_down_;
  /// Per-publisher-host fail-stop flags, indexed by NodeId value.
  std::vector<bool> publisher_down_;
  /// Channel-exhaustion log (append-only; see channel_faults()).
  std::vector<ChannelFaultRecord> channel_faults_;
  Tracer tracer_;
  /// Lazily built distribution plans indexed by group id value.
  std::vector<std::unique_ptr<FanOutPlan>> fanout_plans_;
  /// build_fanout_plan() scratch: member routers, their delays, and the
  /// (delay, member index) order of the targets.
  std::vector<RouterId> plan_routers_;
  std::vector<double> plan_delays_;
  std::vector<std::pair<double, std::uint32_t>> plan_order_;
  /// Previous-epoch distribution plans for groups draining behind a fence.
  /// Freed by epoch compaction once the transition drains (one zero-delay
  /// event after the final fence delivery, because that fence's fan-out
  /// event still references its plan), and defensively
  /// again at the next begin_reconfigure().
  std::vector<std::unique_ptr<FanOutPlan>> prev_fanout_plans_;
  /// Drained previous-epoch plans, refilled by build_fanout_plan().
  std::vector<std::unique_ptr<FanOutPlan>> spare_plans_;
  /// Quiescent channels reclaimed by compaction (no more than are live),
  /// re-armed by make_channel() for the next transition's appended edges.
  std::vector<std::unique_ptr<sim::Channel<Message>>> spare_channels_;
  /// Compaction scratch: the live spans as (first_hop, group value), the
  /// order the in-place fold moves them in.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> fold_order_;
  /// append_path_channels() state, kept across compiles: its first atom,
  /// per from-atom in [span_base_, num_atoms) the index of its first
  /// channel (one entry more, the end), the edges' to-atoms bucketed by
  /// from-atom, and the to-atoms a bucket has already seen.
  std::size_t span_base_ = 0;
  std::vector<std::uint32_t> span_channels_;
  std::vector<AtomId> edge_to_;
  std::vector<std::uint32_t> edge_seen_;
  /// begin_reconfigure() scratch, kept across transitions so a warm
  /// cutover allocates only for the state it creates: the sorted affected
  /// groups, the fenced groups and, per group slot, the old member list of
  /// an affected group with an old span (null otherwise; set for every
  /// affected group on each call, and valid only during it).
  std::vector<GroupId> cut_groups_;
  std::vector<GroupId> cut_fenced_;
  std::vector<const std::vector<NodeId>*> cut_old_members_;
  /// The receiver cutover: rc_slot_ maps a node value to
  /// its entry in rc_pool_ (kNoCutSlot: untouched by the last cutover),
  /// and rc_nodes_ lists the touched nodes.
  static constexpr std::uint32_t kNoCutSlot = 0xffffffffu;
  std::vector<std::uint32_t> rc_slot_;
  std::vector<ReceiverReconfigure> rc_pool_;
  std::vector<std::uint32_t> rc_nodes_;
  /// Current routing epoch; bumped once per begin_reconfigure().
  std::uint32_t epoch_ = 0;
  /// Cutover-fence deliveries still pending (sum over fenced groups of
  /// their old member count); the transition is drained at 0.
  std::size_t fences_outstanding_ = 0;
  std::size_t compactions_run_ = 0;
  std::size_t channels_reclaimed_ = 0;
  topology::LinkStress distribution_stress_;
  const topology::Graph* physical_network_ = nullptr;
  DeliveryFn on_delivery_;
};

}  // namespace decseq::protocol
