// End-to-end pub/sub system facade — the library's primary public API.
//
// Owns the whole stack: physical topology, host attachment, group
// membership, the sequencing graph and its placement, and the simulated
// protocol runtime. Applications use the paper's API surface (§1): join and
// leave groups, send messages to any group, and receive messages — here via
// a recorded, inspectable delivery log plus optional callbacks.
//
// Two publishing modes:
//  * publish():        fire-and-forget; all subscribers of overlapping
//                      groups still deliver in a consistent order.
//  * publish_causal(): the sender's next message enters the network only
//                      after its previous one was delivered back to the
//                      sender (which must subscribe to the target group) —
//                      the §3.3 condition under which the consistent order
//                      is also a causal order.
//
// Membership changes rebuild the sequencing graph from the global picture
// (§3.2), through one compile that extends every layer by the delta of the
// changed groups. The classic entry points (join/leave/reconfigure/...) are
// allowed between runs, while no messages are in flight — the
// static-membership regime the paper evaluates (§4) — and compile from the
// empty epoch with every live group dirty, then replace the network.
// reconfigure_async() instead compiles the delta of the batch's groups
// alone and cuts the affected groups over with in-band fences, so untouched
// groups keep flowing with zero downtime.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "membership/membership.h"
#include "membership/overlap.h"
#include "placement/assignment.h"
#include "placement/colocation.h"
#include "protocol/network.h"
#include "seqgraph/graph.h"
#include "sim/simulator.h"
#include "topology/hosts.h"
#include "topology/shortest_path.h"
#include "topology/transit_stub.h"
#include "topology/waxman.h"

namespace decseq::pubsub {

/// Which physical-network model underlies the deployment.
enum class TopologyModel {
  kTransitStub,  ///< hierarchical GT-ITM transit-stub (the paper's setup)
  kWaxman,       ///< flat random Waxman plane (sensitivity experiments)
};

struct SystemConfig {
  std::uint64_t seed = 1;
  TopologyModel topology_model = TopologyModel::kTransitStub;
  topology::TransitStubParams topology;  ///< used for kTransitStub
  topology::WaxmanParams waxman;         ///< used for kWaxman
  topology::HostAttachmentParams hosts;
  seqgraph::BuildOptions graph;
  placement::ColocationOptions colocation;
  placement::AssignmentOptions assignment;
  protocol::NetworkOptions network;
};

/// One in-order delivery, as observed by the application.
struct Delivery {
  NodeId receiver;
  MsgId message;
  GroupId group;
  NodeId sender;
  std::uint64_t payload = 0;
  sim::Time sent_at = 0.0;
  sim::Time delivered_at = 0.0;
};

class PubSubSystem {
 public:
  explicit PubSubSystem(const SystemConfig& config);
  /// The network points at sim_ and net_graph_, and the oracle reads
  /// net_graph_ in place: a copied or moved system would use the old one's.
  PubSubSystem(const PubSubSystem&) = delete;
  PubSubSystem& operator=(const PubSubSystem&) = delete;

  // --- Membership (allowed only while quiescent; rebuilds the graph). ---
  GroupId create_group(std::vector<NodeId> members);
  /// Create many groups with a single graph rebuild (bulk setup).
  std::vector<GroupId> create_groups(
      std::vector<std::vector<NodeId>> member_lists);

  /// One deferred membership operation for reconfigure().
  struct MembershipChange {
    enum class Kind { kCreateGroup, kRemoveGroup, kJoin, kLeave };
    Kind kind;
    GroupId group;               ///< for kRemoveGroup/kJoin/kLeave
    NodeId node;                 ///< for kJoin/kLeave
    std::vector<NodeId> members; ///< for kCreateGroup

    static MembershipChange create(std::vector<NodeId> members) {
      return {Kind::kCreateGroup, GroupId{}, NodeId{}, std::move(members)};
    }
    static MembershipChange remove(GroupId g) {
      return {Kind::kRemoveGroup, g, NodeId{}, {}};
    }
    static MembershipChange join(GroupId g, NodeId n) {
      return {Kind::kJoin, g, n, {}};
    }
    static MembershipChange leave(GroupId g, NodeId n) {
      return {Kind::kLeave, g, n, {}};
    }
  };

  /// Apply a batch of membership operations to a *live* system: drains all
  /// in-flight traffic first (every published message is delivered under
  /// the old sequencing graph — the graceful epoch boundary), applies the
  /// whole batch, and rebuilds the graph once. Returns the ids of groups
  /// created by the batch, in order.
  std::vector<GroupId> reconfigure(std::vector<MembershipChange> changes);

  /// What one reconfigure_async() call did.
  struct ReconfigureResult {
    /// Ids of groups created by the batch, in order.
    std::vector<GroupId> created;
    /// Network-level cutover telemetry (fences flushed, spans compiled).
    protocol::ReconfigureReport report;
    /// Delta-rebuild telemetry: the affected closure and how much of the
    /// sequencing graph was actually re-laid.
    seqgraph::DeltaBuildStats delta;
  };

  /// Zero-downtime reconfiguration: apply the batch *without* draining
  /// in-flight traffic. The overlap index, sequencing graph, colocation and
  /// machine assignment are all extended incrementally — untouched groups
  /// keep their atoms, routes and counters verbatim, and their messages
  /// are never stalled.
  /// Each affected group is cut over by an in-band fence (see
  /// protocol/network.h "Zero-downtime reconfiguration"): messages
  /// sequenced before it drain on the old routes, messages sequenced after
  /// it ride the new ones, and receivers gate new-epoch traffic until the
  /// fence lands. The transition drains during subsequent run() calls;
  /// only one may be in flight (wait for transition_active() before the
  /// next). Publishing remains legal throughout — including from delivery
  /// callbacks, where this may even be called with messages mid-flight.
  ReconfigureResult reconfigure_async(std::vector<MembershipChange> changes);

  /// True while cutover fences from the last reconfigure_async() are still
  /// undelivered (run() drains them).
  [[nodiscard]] bool transition_active() const {
    return network_->transition_active();
  }
  void join(GroupId group, NodeId node);
  void leave(GroupId group, NodeId node);
  void remove_group(GroupId group);

  // --- Messaging. ---
  /// Publish immediately. Returns the message id — globally unique across
  /// membership epochs (graph rebuilds), unlike the runtime's internal ids.
  /// `body` is opaque application bytes, visible to delivery callbacks via
  /// protocol::Message::body.
  MsgId publish(NodeId sender, GroupId group, std::uint64_t payload = 0,
                std::vector<std::uint8_t> body = {});

  /// Span-style publish: body bytes are read straight from
  /// `body[0..body_size)` — no intermediate std::vector, so a steady-state
  /// publisher re-sending from a fixed buffer never touches the allocator.
  MsgId publish(NodeId sender, GroupId group, std::uint64_t payload,
                const std::uint8_t* body, std::size_t body_size);

  /// Capacity planning for allocation-free steady state: size the epoch's
  /// message-record log for `messages` published messages and the delivery
  /// log for `deliveries` entries (both totals since the last rebuild).
  /// Within those bounds neither log reallocates while traffic flows.
  void reserve(std::size_t messages, std::size_t deliveries);

  /// The runtime record of a message published through this facade (by its
  /// global id), as a value assembled from the network's 24-byte stored
  /// record. Available until the next membership change replaces the
  /// network; a message of an earlier epoch is an error.
  [[nodiscard]] protocol::MessageRecord record(MsgId id) const;

  /// Human-readable trace of a message published through this facade
  /// (enable network_mutable().tracer() first). Unlike the raw tracer,
  /// this accepts the facade's global message ids.
  [[nodiscard]] std::string trace(MsgId id) const;
  /// Publish behind the sender's previous causal message (sender must be a
  /// member of `group`). The id is assigned when the message enters the
  /// network; the returned handle resolves after run().
  void publish_causal(NodeId sender, GroupId group, std::uint64_t payload = 0);

  /// Close a group's sequence space at runtime (§3.2): a FIN travels the
  /// group's sequencing path; sequencers retire lazily and subscribers stop
  /// accepting its messages. Unlike remove_group(), this needs no
  /// quiescence and no graph rebuild — the graph is cleaned up lazily at
  /// the next membership operation.
  void terminate_group(GroupId group, NodeId initiator);

  /// Failure injection: crash / restore a sequencing machine mid-run (see
  /// protocol::SequencingNetwork::fail_node for the fault model). While a
  /// machine is down its traffic queues in upstream retransmission buffers;
  /// nothing is lost or reordered across groups, but same-sender FIFO for
  /// non-causal publishes may reorder across the failure window (retried
  /// ingress legs race recovery, as in any retrying transport).
  void fail_sequencing_node(SeqNodeId node) { network_->fail_node(node); }
  void recover_sequencing_node(SeqNodeId node) {
    network_->recover_node(node);
  }

  /// Crash / restore a publisher host mid-run (fail-stop; see
  /// protocol::SequencingNetwork::fail_publisher). Publishes from a downed
  /// host record ingress_failed instead of entering the network; a causal
  /// chain whose in-flight message fails ingress is dropped at the next
  /// run() — the messages queued behind it belonged to the crashed host.
  void fail_publisher(NodeId node) { network_->fail_publisher(node); }
  void recover_publisher(NodeId node) { network_->recover_publisher(node); }

  /// Drain the simulator: every published message is sequenced, distributed,
  /// and delivered. Returns simulated completion time (ms).
  sim::Time run();

  // --- Observation. ---
  [[nodiscard]] const std::vector<Delivery>& deliveries() const {
    return log_;
  }
  /// Deliveries observed by one node, in delivery order.
  [[nodiscard]] std::vector<Delivery> deliveries_to(NodeId node) const;
  /// Install an additional live delivery callback.
  void set_delivery_callback(protocol::SequencingNetwork::DeliveryFn fn) {
    user_callback_ = std::move(fn);
  }

  // --- Introspection for tools, tests, and benches. ---
  [[nodiscard]] const membership::GroupMembership& membership() const {
    return membership_;
  }
  [[nodiscard]] const membership::OverlapIndex& overlaps() const {
    return overlaps_;
  }
  [[nodiscard]] const seqgraph::SequencingGraph& graph() const {
    return graph_;
  }
  [[nodiscard]] const placement::Colocation& colocation() const {
    return colocation_;
  }
  [[nodiscard]] const placement::Assignment& assignment() const {
    return assignment_;
  }
  [[nodiscard]] const topology::HostMap& hosts() const { return *hosts_; }
  [[nodiscard]] const topology::Graph& topology_graph() const {
    return net_graph_;
  }
  [[nodiscard]] topology::DistanceOracle& oracle() { return *oracle_; }
  [[nodiscard]] const protocol::SequencingNetwork& network() const {
    return *network_;
  }
  /// Mutable runtime access (tracing, failure injection at network level).
  /// Invalidated by membership changes (the runtime is rebuilt).
  [[nodiscard]] protocol::SequencingNetwork& network_mutable() {
    return *network_;
  }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

 private:
  /// Router count above which the oracle switches from its unbounded cache
  /// to the byte-budgeted scaled mode (bit-identical distances; see
  /// DistanceOracleOptions::scaled). Paper-scale transit-stub
  /// topologies (10k routers) stay below it.
  static constexpr std::size_t kScaledOracleRouterThreshold = 20'000;

  /// Assert nothing is in flight (simulator, causal queues), naming `op`
  /// and the offending counts. Every membership entry
  /// point calls this BEFORE touching the membership table, so a violation
  /// aborts with the system state unmodified.
  void require_quiescent(const char* op) const;
  /// The full compile: drop the network, empty the layers, compile() with
  /// every live group dirty, and build a fresh network on the result.
  void rebuild();
  /// The one epoch compile, shared by rebuild() and reconfigure_async():
  /// extend every layer in place by the delta of the `dirty` groups — the
  /// overlap index, co-location labels, sequencing graph, colocation and
  /// machine assignment — writing the graph delta's telemetry to `delta`.
  /// The network holds references to the layers, so each is mutated or
  /// move-assigned at its own address.
  void compile(const std::vector<GroupId>& dirty,
               seqgraph::DeltaBuildStats& delta);
  void pump_causal_queue(NodeId sender);
  [[nodiscard]] bool causal_pending() const;
  /// Drop causal chains whose in-flight head failed ingress (the publisher
  /// host crashed): nobody is left to release them.
  void resolve_failed_causal();

  SystemConfig config_;
  Rng rng_;
  topology::Graph net_graph_;
  std::unique_ptr<topology::DistanceOracle> oracle_;
  std::unique_ptr<topology::HostMap> hosts_;
  membership::GroupMembership membership_;
  membership::OverlapIndex overlaps_;
  /// compile() builds the next overlap index here, in place, then swaps it
  /// with overlaps_: the two indexes alternate, so a warm transition reuses
  /// both one's lists.
  membership::OverlapIndex spare_overlaps_;
  /// Co-location buffers and labels, reused by every compile.
  placement::ColocationScratch colocation_scratch_;
  std::vector<std::size_t> labels_;
  /// reconfigure_async's batch: the groups it mutates (`dirty_`) and, per
  /// group slot, the member list of each such pre-existing group before
  /// its first mutation (empty otherwise). Cleared at the next call; the
  /// lists keep their capacity.
  std::vector<GroupId> dirty_;
  std::vector<std::vector<NodeId>> old_members_;
  seqgraph::SequencingGraph graph_;
  /// Reused across every graph compile (each rebuild and each
  /// reconfigure_async delta) so repeated transitions — including the first
  /// after construction — run against warm, pre-sized layout buffers.
  seqgraph::BuildScratch graph_scratch_;
  placement::Colocation colocation_;
  placement::Assignment assignment_;
  /// compile()'s co-location and assignment extension buffers.
  placement::ExtendScratch extend_scratch_;

  sim::Simulator sim_;
  std::unique_ptr<protocol::SequencingNetwork> network_;

  std::vector<Delivery> log_;
  protocol::SequencingNetwork::DeliveryFn user_callback_;
  /// Message-id offset of the current epoch: runtime ids restart at zero on
  /// every rebuild; facade-visible ids are base + runtime id.
  MsgId::underlying_type epoch_base_ = 0;

  struct CausalPending {
    GroupId group;
    std::uint64_t payload;
  };
  /// Per-sender causal queues; front is in flight once `in_flight` is set.
  struct CausalState {
    std::deque<CausalPending> queue;
    std::optional<MsgId> in_flight;
  };
  std::unordered_map<NodeId, CausalState> causal_;
};

}  // namespace decseq::pubsub
