// The sequencing network runtime: ingress, sequencing, distribution
// (paper §3, three phases).
//
// Wires one state machine per sequencing atom, reliable FIFO channels along
// the tree edges the group paths use (§3.1's channel assumption), and one
// Receiver per subscriber. Ingress and distribution legs travel on shortest
// unicast paths, like the paper's evaluation (§4.1: "messages travel from
// publishers to subscribers on the shortest path").
#pragma once

#include <cstdint>
#include <functional>
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
#include "runtime/sharded_engine.h"
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

/// Everything recorded about one published message.
struct MessageRecord {
  NodeId sender;
  GroupId group;
  sim::Time published_at = 0.0;
  /// When the message left the sequencing network for distribution.
  std::optional<sim::Time> exited_at;
  /// Number of sequence-number stamps collected (== atoms of its group).
  std::size_t stamps = 0;
  /// Final ordering-header size in bytes.
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
  /// `engine` selects the sharded runtime: channels, sequencing state, and
  /// receivers are pinned to the engine's shards (per the engine's
  /// ShardPlan) instead of running on `sim`, publishes cross to the owning
  /// shard via the engine's ingress rings, and deliveries come back through
  /// its delivery rings (the facade merges and commits them — the
  /// set_delivery_callback() path is bypassed). Restrictions in sharded
  /// mode: no tree distribution, no per-message tracing.
  SequencingNetwork(sim::Simulator& sim, Rng& rng,
                    const seqgraph::SequencingGraph& graph,
                    const placement::Colocation& colocation,
                    const placement::Assignment& assignment,
                    const membership::GroupMembership& membership,
                    const topology::HostMap& hosts,
                    topology::DistanceOracle& oracle,
                    NetworkOptions options = {},
                    const topology::Graph* physical_network = nullptr,
                    runtime::ShardedEngine* engine = nullptr);

  /// Whether this network runs on a sharded engine.
  [[nodiscard]] bool sharded() const { return engine_ != nullptr; }

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

  /// Pre-size the message-record log: publishing up to `messages` messages
  /// over this network's lifetime will not reallocate it (capacity
  /// planning for allocation-free steady state; see bench/system_bench).
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

  // --- Zero-downtime reconfiguration (dual-epoch routing, PROTOCOL §9). ---
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
  // `old_members_by_slot[g.value()]` must hold every affected group's
  // member list as of *before* the membership mutation (the facade
  // snapshots all live groups pre-mutation). Only one transition may drain
  // at a time: the caller must wait for transition_active() to go false
  // before the next begin_reconfigure().
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

  /// Sharded mode only: the facade calls this when it *commits* a delivery
  /// carrying DeliveryEvent::fence. Decrements the outstanding-fence count
  /// and relays the fence to every gated sub-receiver of `node` (the gate
  /// is cross-unit, so it cannot be released shard-locally; commit time is
  /// shard-count-invariant under the lockstep the facade runs during a
  /// transition).
  void fence_delivery_committed(NodeId node, sim::Time at);

  /// Sharded mode only: reroute hook for the engine's ingress
  /// redistribution, called once per still-queued publish immediately after
  /// begin_reconfigure(). Adds the old-ingress -> new-ingress redirect leg
  /// to the item's delay when its group moved ingress this transition
  /// (mirroring the in-flight redirect single-threaded mode performs), and
  /// returns the owning shard.
  [[nodiscard]] std::uint32_t reroute_pending_publish(
      runtime::IngressItem& item);

  /// Messages ever held by receiver cutover gates, per group id value
  /// (cumulative across all transitions) — the "messages stalled by
  /// reconfiguration" metric. Untouched groups must read 0 here.
  [[nodiscard]] std::vector<std::size_t> gate_held_by_group() const;

  /// Bytes held by the compiled routing tables: the hop table, the
  /// per-group route headers, the channel table, and the (current and
  /// stashed) fan-out plans. Epoch compaction folds this back to the live
  /// working set when a transition drains, so a churn loop of
  /// reconfigurations holds it steady instead of growing per transition
  /// (asserted by bench/churn_bench).
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
  /// channels surfaced them (deterministic under the simulator). Sharded
  /// mode records per shard and merges here by (at, from, to, seq) — a
  /// shard-count-independent order; call only at a fence (between run()s).
  [[nodiscard]] const std::vector<ChannelFaultRecord>& channel_faults() const;

  /// Edges whose channel is faulted *right now* (budget exhausted, not yet
  /// recovered or drained), sorted by (from, to).
  [[nodiscard]] std::vector<std::pair<AtomId, AtomId>> faulted_edges() const;

  [[nodiscard]] const MessageRecord& record(MsgId id) const {
    DECSEQ_CHECK(id.valid() && id.value() < records_.size());
    return records_[id.value()];
  }
  [[nodiscard]] std::size_t published() const { return records_.size(); }

  /// Messages handled per sequencing node (counted once per visit to the
  /// machine, however many co-located atoms touch the message there).
  /// Sharded mode counts per shard and sums here; call only at a fence.
  [[nodiscard]] const std::vector<std::size_t>& seqnode_load() const;

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
    /// ingress_closed, so the route stays 72 bytes.
    bool terminated = false;
    /// Sharded mode: the overlap unit this group belongs to and the worker
    /// shard the unit is pinned to (see runtime/shard_plan.h). The hot path
    /// reads the shard straight off the route — no plan lookups per
    /// message. Both 0 in single-threaded mode.
    std::uint32_t unit = 0;
    std::uint32_t shard = 0;
    /// Dual-epoch routing (zero-downtime reconfiguration). The epoch the
    /// *current* span belongs to; a message whose stamped epoch differs
    /// was sequenced before this group's last cutover fence and routes on
    /// the prev_* span below instead. The previous span drains behind its
    /// fence and is zeroed when the fence exits.
    std::uint32_t epoch = 0;
    std::uint32_t prev_first_hop = 0;
    std::uint32_t prev_num_hops = 0;  ///< 0: no old span draining
    /// Merge/placement identity of the previous epoch's span (sharded
    /// mode): old-epoch deliveries keep the old unit's merge keys and the
    /// old span's events stay on the old shard.
    std::uint32_t prev_unit = 0;
    std::uint32_t prev_shard = 0;
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
  /// Targets are stable-sorted by delay and grouped into spans of equal
  /// delay, so the fan-out schedules one simulator event per *burst* of
  /// same-time arrivals instead of one per delivery (see distribute()).
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
  void handle_at_atom(AtomId atom, Message&& message);
  MsgId inject(NodeId sender, GroupId group, std::uint64_t payload,
               const std::uint8_t* body, std::size_t body_size, bool is_fin);
  /// Ingress-leg arrival; retries with exponential backoff while the
  /// ingress machine is down (publisher retry, mirroring the channels'
  /// retransmission) and abandons the message — ingress_failed — if the
  /// publisher itself dies mid-retry. Takes the shared payload block: the
  /// ordering header does not exist until the ingress sequencer assigns
  /// the group sequence number here. `attempts` counts the retries so far.
  void arrive_at_ingress(AtomId ingress, PayloadRef payload,
                         std::uint32_t attempts);
  void distribute(AtomId last_atom, Message&& message);
  [[nodiscard]] FanOutPlan& fanout_plan(GroupId group, AtomId last_atom);
  /// Materialize a group's distribution plan from its egress atom, an
  /// explicit member list and its shard (fanout_plan() uses the current
  /// membership; the reconfiguration path uses the old-member snapshot).
  [[nodiscard]] std::unique_ptr<FanOutPlan> build_fanout_plan(
      AtomId last_atom, const std::vector<NodeId>& members,
      std::uint32_t shard);
  /// Create the reliable FIFO channel for the path edge `from -> to`
  /// (compile_routes() and the reconfiguration channel append share it).
  [[nodiscard]] std::unique_ptr<sim::Channel<Message>> make_channel(
      AtomId from, AtomId to);
  /// Compile `path` as `route`'s current span at the end of route_hops_
  /// (ingress identity, unit/shard in sharded mode, hop table entries).
  void append_route_span(GroupId g, const std::vector<AtomId>& path,
                         GroupRoute& route);
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
  /// (remapping every route's first_hop). Single-threaded mode reaches
  /// here via a zero-delay event — the span lambda delivering the final
  /// fence still iterates a stashed plan — so the fence count is
  /// re-checked in case a new transition began first. Sharded mode calls
  /// it directly from fence_delivery_committed (workers parked).
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
  /// The simulator a group's protocol events run on: its shard's simulator
  /// in sharded mode, the shared one otherwise.
  [[nodiscard]] sim::Simulator& route_sim(const GroupRoute& route) {
    return engine_ != nullptr ? engine_->shard_sim(route.shard) : *sim_;
  }
  /// The receiver that handles `member`'s subscriptions living on `shard`.
  [[nodiscard]] Receiver* receiver_for(NodeId member, std::uint32_t shard) {
    return engine_ != nullptr ? shard_receivers_[shard][member.value()].get()
                              : receivers_[member.value()].get();
  }
  /// Delivery callback for `node`'s receiver (single-threaded mode):
  /// consumes cutover fences into the transition accounting, traces, and
  /// forwards real deliveries to the delivery callback.
  [[nodiscard]] Receiver::DeliverFn local_delivery_fn(NodeId node);
  /// Delivery callback for `node`'s sub-receiver on shard `s`: crosses the
  /// delivery back to the coordinator with the epoch's merge keys.
  [[nodiscard]] Receiver::DeliverFn shard_delivery_fn(NodeId node,
                                                      std::uint32_t s);
  /// Worker-side ingest hook (sharded mode): materialize the payload block
  /// on the owning shard's thread and schedule the ingress arrival.
  void ingest(std::uint32_t shard, runtime::IngressItem&& item);
  /// Build the per-(shard, node) sub-receivers for sharded mode: each holds
  /// the slice of the node's subscriptions (and relevant atoms) whose unit
  /// lives on that shard, so its counters are disjoint from every other
  /// shard's and delivery decisions stay shard-local.
  void build_shard_receivers();

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
  /// Single-threaded mode only — sharded mode uses shard_receivers_.
  std::vector<std::unique_ptr<Receiver>> receivers_;
  /// Sharded mode: sub-receivers indexed [shard][node id value]; null where
  /// the node subscribes to nothing on that shard. A node with groups in
  /// several units may have one sub-receiver per shard; their counter
  /// spaces are disjoint (a group and all atoms relevant to it live in one
  /// unit), so splitting them changes no deliver-or-buffer decision.
  std::vector<std::vector<std::unique_ptr<Receiver>>> shard_receivers_;
  std::vector<MessageRecord> records_;
  std::vector<std::size_t> seqnode_load_;
  std::vector<bool> node_down_;
  /// Per-publisher-host fail-stop flags, indexed by NodeId value.
  std::vector<bool> publisher_down_;
  /// Channel-exhaustion log (append-only; see channel_faults()).
  std::vector<ChannelFaultRecord> channel_faults_;
  /// Sharded mode: per-shard counters the workers write during slices,
  /// merged into the mutable caches below when an accessor is called at a
  /// fence (workers parked — the dispatch mutex orders the accesses).
  std::vector<std::vector<std::size_t>> shard_seqnode_load_;
  std::vector<std::vector<ChannelFaultRecord>> shard_channel_faults_;
  mutable std::vector<std::size_t> merged_seqnode_load_;
  mutable std::vector<ChannelFaultRecord> merged_channel_faults_;
  Tracer tracer_;
  /// Lazily built distribution plans indexed by group id value.
  std::vector<std::unique_ptr<FanOutPlan>> fanout_plans_;
  /// Previous-epoch distribution plans for groups draining behind a fence.
  /// Freed by epoch compaction once the transition drains (one zero-delay
  /// event after the final fence delivery in single-threaded mode, because
  /// that fence's fan-out event still references its plan), and defensively
  /// again at the next begin_reconfigure().
  std::vector<std::unique_ptr<FanOutPlan>> prev_fanout_plans_;
  /// Current routing epoch; bumped once per begin_reconfigure().
  std::uint32_t epoch_ = 0;
  /// Cutover-fence deliveries still pending (sum over fenced groups of
  /// their old member count); the transition is drained at 0.
  std::size_t fences_outstanding_ = 0;
  std::size_t compactions_run_ = 0;
  std::size_t channels_reclaimed_ = 0;
  topology::LinkStress distribution_stress_;
  const topology::Graph* physical_network_ = nullptr;
  runtime::ShardedEngine* engine_ = nullptr;
  DeliveryFn on_delivery_;
};

}  // namespace decseq::protocol
