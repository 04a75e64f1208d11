// decseqd — the sequencing protocol as a real node daemon.
//
// A decseqd process is one rank of a cluster (app/cluster_config.h): it
// owns the sequencing atoms colocated on it, the receiver state machines
// of the subscriber hosts assigned to it, and one UDP endpoint. Peer
// daemons are reached over reliable transport channels (transport/
// channel.h) carrying codec-encoded messages (protocol/codec.cc) in
// transport frames (transport/frame.h); everything on the same rank is a
// direct function call — colocation made literal.
//
// Two classes:
//
//  * NodeEngine — the protocol logic of one rank against the abstract
//    Transport interface: publish ingress (group-local sequence numbers,
//    FIN closing the sequence space, post-FIN rejection), stamp
//    propagation along compiled hop tables, distribution fan-out, and
//    protocol::Receiver (reused verbatim) for delivery. Works identically
//    over SimTransport (the in-process conformance test) and UdpTransport
//    (the daemon). The FIN flag travels in the frame header — the pinned
//    message codec does not carry it — and is reattached on decode. A warm
//    engine's hops are allocation-free: it encodes every outgoing message
//    into one scratch buffer (the channel copies it into its own frame)
//    and decodes arrivals in place from the channel's view of the
//    datagram into pooled payload blocks.
//
//  * Daemon — the process harness around a NodeEngine: UDP bootstrap
//    (JOIN to the coordinator until the PEERS address book arrives),
//    control channels (the coordinator drives publishes/terminations and
//    collects delivery reports), a per-rank trace file, and the poll loop.
//
// The control protocol (commands down, reports up) is a tiny varint codec
// over the same reliable channels — the conformance harness in
// tests/transport_cluster_test.cc is the coordinator.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "app/cluster_config.h"
#include "common/rng.h"
#include "protocol/message.h"
#include "protocol/receiver.h"
#include "transport/channel.h"
#include "transport/udp_transport.h"

namespace decseq::app {

// --- Control-plane payloads (carried as channel payloads) ----------------

struct Command {
  enum class Kind : std::uint8_t {
    kPublish = 1,
    kTerminate = 2,
    kShutdown = 3,
  };
  Kind kind = Kind::kPublish;
  std::uint32_t ordinal = 0;
  std::uint32_t sender = 0;  ///< publishing host / FIN initiator host
  std::uint32_t group = 0;
  std::uint64_t payload = 0;
};

struct Report {
  enum class Kind : std::uint8_t {
    kReady = 1,     ///< rank finished bootstrap
    kDelivery = 2,  ///< one in-order delivery at `receiver`
    kFin = 3,       ///< FIN delivered at `receiver` (closes the group there)
    kRejected = 4,  ///< publish refused at ingress (FIN won the race)
  };
  Kind kind = Kind::kReady;
  std::uint32_t rank = 0;
  std::uint32_t receiver = 0;
  std::uint32_t group = 0;
  std::uint32_t sender = 0;
  std::uint64_t payload = 0;
  std::uint64_t group_seq = 0;
};

[[nodiscard]] std::vector<std::uint8_t> encode_command(const Command& c);
[[nodiscard]] std::optional<Command> decode_command(const std::uint8_t* data,
                                                    std::size_t size);
[[nodiscard]] std::vector<std::uint8_t> encode_report(const Report& r);
[[nodiscard]] std::optional<Report> decode_report(const std::uint8_t* data,
                                                  std::size_t size);

// --- NodeEngine ----------------------------------------------------------

/// Protocol logic of one rank, transport-agnostic.
class NodeEngine {
 public:
  struct Stats {
    std::uint64_t published = 0;   ///< local publish calls
    std::uint64_t ingressed = 0;   ///< messages assigned a group seq here
    std::uint64_t rejected = 0;    ///< post-FIN publishes refused at ingress
    std::uint64_t stamped = 0;     ///< stamps written at local atoms
    std::uint64_t forwarded = 0;   ///< cross-rank hop sends
    std::uint64_t distributed = 0; ///< cross-rank distribution sends
    std::uint64_t delivered = 0;   ///< non-FIN deliveries at local hosts
    std::uint64_t fins_delivered = 0;
  };

  using DeliveryFn = std::function<void(NodeId receiver,
                                        const protocol::Message& message,
                                        double now_ms)>;
  /// A publish this rank's ingress refused because the group's FIN had
  /// already closed the sequence space.
  using RejectFn =
      std::function<void(GroupId group, NodeId sender, std::uint64_t payload)>;

  /// Builds channels for every edge in the config's table that touches
  /// `rank` (control edges excluded — those belong to the Daemon) and
  /// registers them with `channels`. The transport must outlive the engine.
  NodeEngine(transport::Transport& transport, transport::ChannelSet& channels,
             const ClusterConfig& config, std::uint32_t rank,
             DeliveryFn on_delivery, RejectFn on_reject = {});
  NodeEngine(const NodeEngine&) = delete;
  NodeEngine& operator=(const NodeEngine&) = delete;

  /// Publish from a host that lives on this rank. `ordinal` becomes the
  /// message id; FIN if `fin` (payload still travels, for attribution).
  void publish(std::uint32_t ordinal, NodeId sender, GroupId group,
               std::uint64_t payload, bool fin = false);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::uint32_t rank() const { return rank_; }
  /// Atom-edge channels currently in the surfaced-fault state.
  [[nodiscard]] std::size_t faulted_channels() const;

 private:
  struct GroupState {
    std::vector<HopEntry> hops;
    std::vector<NodeId> members;
    /// Remote ranks with at least one member (sorted, unique).
    std::vector<std::uint32_t> remote_member_ranks;
    /// Members living on this rank.
    std::vector<NodeId> local_members;
    SeqNo next_seq = 1;          ///< ingress counter (ingress rank only)
    bool ingress_closed = false; ///< FIN passed ingress
  };

  void ingress_arrive(protocol::Message message);
  void at_atom(std::size_t pos, protocol::Message message);
  void distribute(protocol::Message message);
  void deliver_local(const protocol::Message& message);
  void on_delivered(NodeId receiver, const protocol::Message& message,
                    double now_ms);

  [[nodiscard]] std::size_t hop_pos(GroupId group, AtomId atom) const;
  transport::SendChannel& atom_out(AtomId from, AtomId to);

  transport::Transport* transport_;
  std::uint32_t rank_;
  DeliveryFn on_delivery_;
  RejectFn on_reject_;
  Rng rng_;
  ChannelOptions channel_options_;

  std::vector<GroupState> groups_;
  std::vector<SeqNo> atom_next_seq_;
  /// Per-host receiver state machines for hosts on this rank (nullptr for
  /// hosts that live elsewhere or subscribe to nothing).
  std::vector<std::unique_ptr<protocol::Receiver>> receivers_;
  /// Host rank lookup (all hosts, any rank).
  std::vector<std::uint32_t> host_rank_;

  // Channels, keyed as the edge table dictates. unique_ptr: channels are
  // address-stable once armed (in-flight timers capture them).
  std::vector<std::unique_ptr<transport::SendChannel>> ingress_out_;  // [rank]
  std::vector<std::unique_ptr<transport::SendChannel>> dist_out_;     // [rank]
  std::unordered_map<std::uint64_t, transport::SendChannel*> atom_out_;
  std::vector<std::unique_ptr<transport::SendChannel>> atom_out_store_;
  std::vector<std::unique_ptr<transport::RecvChannel>> recv_store_;

  /// Encoding scratch for outgoing messages, reused by every send.
  std::vector<std::uint8_t> wire_;
  Stats stats_;
};

// --- Daemon --------------------------------------------------------------

struct DaemonOptions {
  std::string config_path;
  std::uint32_t rank = 0;
  std::string coordinator_ip = "127.0.0.1";
  std::uint16_t coordinator_port = 0;
  std::string trace_path;  ///< per-receiver delivery trace (written on exit)
  std::string log_path;    ///< daemon log; empty = stderr
};

/// One decseqd process: bootstrap, control loop, engine, trace.
class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();

  /// Run until the coordinator's SHUTDOWN command. Returns the process
  /// exit code (0 on clean shutdown).
  int run();

 private:
  struct State;
  State* state_;
};

}  // namespace decseq::app
