#include "app/decseqd.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <limits>
#include <utility>

#include "common/check.h"
#include "protocol/codec.h"

namespace decseq::app {

namespace {

using protocol::decode_varint;
using protocol::encode_varint;

/// Decode a channel payload in place, reattaching the frame's FIN flag:
/// the pinned message codec does not carry it, so it travels in the frame
/// header and goes straight into the decoded payload block.
protocol::Message decode_wire_message(const std::uint8_t* payload,
                                      std::size_t size, std::uint8_t flags) {
  std::optional<protocol::Message> decoded = protocol::decode_message(
      payload, size, (flags & transport::kFrameFlagFin) != 0);
  // The reliable channel has already CRC-checked and deduplicated; an
  // undecodable payload here means the *sender* put garbage on a healthy
  // channel — an invariant violation, not a network fault.
  DECSEQ_CHECK_MSG(decoded.has_value(),
                   "undecodable message on reliable channel");
  return std::move(*decoded);
}

/// Widest value a 32-bit field of a command or report may carry: a larger
/// varint is refused rather than truncated onto some other host or group.
constexpr std::uint64_t kU32Max = 0xffffffffULL;

std::uint64_t atom_pair_key(AtomId from, AtomId to) {
  return static_cast<std::uint64_t>(from.value()) << 32 | to.value();
}

/// Bytes of the largest message the engine can encode carrying `stamps`
/// stamps, in the codec's layout (protocol/codec.h): magic and version,
/// every varint at its field's widest value, and an empty body, since the
/// engine publishes none (its payload is the varint tag).
std::size_t max_encoded_size(std::size_t stamps) {
  using protocol::varint_size;
  const std::size_t id = varint_size(MsgId::kInvalid);
  const std::size_t seq = varint_size(std::numeric_limits<SeqNo>::max());
  const std::size_t payload =
      varint_size(std::numeric_limits<std::uint64_t>::max());
  // id, group, sender, group seq, payload, stamp count, stamps, body size.
  return 2 + 3 * id + seq + payload + varint_size(stamps) +
         stamps * (id + seq) + varint_size(0);
}

}  // namespace

// --- Control codec -------------------------------------------------------

std::vector<std::uint8_t> encode_command(const Command& c) {
  std::vector<std::uint8_t> out;
  encode_varint(static_cast<std::uint64_t>(c.kind), out);
  encode_varint(c.ordinal, out);
  encode_varint(c.sender, out);
  encode_varint(c.group, out);
  encode_varint(c.payload, out);
  return out;
}

std::optional<Command> decode_command(const std::uint8_t* data,
                                      std::size_t size) {
  std::size_t offset = 0;
  Command c;
  const auto kind = decode_varint(data, size, offset);
  const auto ordinal = decode_varint(data, size, offset);
  const auto sender = decode_varint(data, size, offset);
  const auto group = decode_varint(data, size, offset);
  const auto payload = decode_varint(data, size, offset);
  if (!kind || !ordinal || !sender || !group || !payload || offset != size) {
    return std::nullopt;
  }
  if (*kind < 1 || *kind > 3) return std::nullopt;
  if (*ordinal > kU32Max || *sender > kU32Max || *group > kU32Max) {
    return std::nullopt;
  }
  c.kind = static_cast<Command::Kind>(*kind);
  c.ordinal = static_cast<std::uint32_t>(*ordinal);
  c.sender = static_cast<std::uint32_t>(*sender);
  c.group = static_cast<std::uint32_t>(*group);
  c.payload = *payload;
  return c;
}

std::vector<std::uint8_t> encode_report(const Report& r) {
  std::vector<std::uint8_t> out;
  encode_varint(static_cast<std::uint64_t>(r.kind), out);
  encode_varint(r.rank, out);
  encode_varint(r.receiver, out);
  encode_varint(r.group, out);
  encode_varint(r.sender, out);
  encode_varint(r.payload, out);
  encode_varint(r.group_seq, out);
  return out;
}

std::optional<Report> decode_report(const std::uint8_t* data,
                                    std::size_t size) {
  std::size_t offset = 0;
  Report r;
  const auto kind = decode_varint(data, size, offset);
  const auto rank = decode_varint(data, size, offset);
  const auto receiver = decode_varint(data, size, offset);
  const auto group = decode_varint(data, size, offset);
  const auto sender = decode_varint(data, size, offset);
  const auto payload = decode_varint(data, size, offset);
  const auto group_seq = decode_varint(data, size, offset);
  if (!kind || !rank || !receiver || !group || !sender || !payload ||
      !group_seq || offset != size) {
    return std::nullopt;
  }
  if (*kind < 1 || *kind > 4) return std::nullopt;
  if (*rank > kU32Max || *receiver > kU32Max || *group > kU32Max ||
      *sender > kU32Max) {
    return std::nullopt;
  }
  r.kind = static_cast<Report::Kind>(*kind);
  r.rank = static_cast<std::uint32_t>(*rank);
  r.receiver = static_cast<std::uint32_t>(*receiver);
  r.group = static_cast<std::uint32_t>(*group);
  r.sender = static_cast<std::uint32_t>(*sender);
  r.payload = *payload;
  r.group_seq = *group_seq;
  return r;
}

// --- NodeEngine ----------------------------------------------------------

NodeEngine::NodeEngine(transport::Transport& transport,
                       transport::ChannelSet& channels,
                       const ClusterConfig& config, std::uint32_t rank,
                       DeliveryFn on_delivery, RejectFn on_reject)
    : transport_(&transport),
      rank_(rank),
      on_delivery_(std::move(on_delivery)),
      on_reject_(std::move(on_reject)),
      rng_(config.seed ^ (0x9E3779B97F4A7C15ULL * (rank + 1))) {
  DECSEQ_CHECK(rank_ < config.num_ranks);
  DECSEQ_CHECK(on_delivery_ != nullptr);
  channel_options_.retransmit_timeout_ms = config.retransmit_timeout_ms;
  channel_options_.max_retransmits = config.max_retransmits;

  host_rank_.resize(config.hosts.size());
  receivers_.resize(config.hosts.size());
  std::uint32_t max_atom = 0;
  for (const GroupEntry& group : config.groups) {
    for (const HopEntry& hop : group.path) {
      max_atom = std::max(max_atom, hop.atom.value());
    }
  }
  atom_next_seq_.assign(max_atom + 1, 1);

  for (std::size_t h = 0; h < config.hosts.size(); ++h) {
    const HostEntry& host = config.hosts[h];
    host_rank_[h] = host.rank;
    if (host.rank != rank_ || host.subscriptions.empty()) continue;
    const NodeId node(static_cast<std::uint32_t>(h));
    receivers_[h] = std::make_unique<protocol::Receiver>(
        node, host.subscriptions, host.relevant_atoms,
        [this, node](const protocol::Message& m, sim::Time now) {
          on_delivered(node, m, now);
        });
  }

  groups_.resize(config.groups.size());
  for (std::size_t g = 0; g < config.groups.size(); ++g) {
    const GroupEntry& entry = config.groups[g];
    GroupState& state = groups_[g];
    state.hops = entry.path;
    state.members = entry.members;
    for (const NodeId member : entry.members) {
      const std::uint32_t r = host_rank_[member.value()];
      if (r == rank_) {
        state.local_members.push_back(member);
      } else {
        state.remote_member_ranks.push_back(r);
      }
    }
    auto& ranks = state.remote_member_ranks;
    std::sort(ranks.begin(), ranks.end());
    ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  }

  // Size the encode scratch once, for the largest message any rank can
  // send: a publish carries no stamps, a forward or a distribution at most
  // its group's stamping hops. Sized by whatever earlier sends happened to
  // encode instead, a warm rank would allocate the first time a varint
  // crossed a byte boundary or a longer path was routed through it.
  std::size_t max_stamps = 0;
  for (const GroupEntry& entry : config.groups) {
    std::size_t stamps = 0;
    for (const HopEntry& hop : entry.path) stamps += hop.stamps ? 1 : 0;
    max_stamps = std::max(max_stamps, stamps);
  }
  wire_.reserve(max_encoded_size(max_stamps));

  // Channels, one per edge-table entry touching this rank (control edges
  // belong to the Daemon; same-rank pairs are direct calls, no channel).
  ingress_out_.resize(config.num_ranks);
  dist_out_.resize(config.num_ranks);
  for (const EdgeSpec& edge : build_edge_table(config)) {
    if (edge.kind == EdgeKind::kControlCommand ||
        edge.kind == EdgeKind::kControlReport) {
      continue;
    }
    if (edge.src_rank == edge.dst_rank) continue;
    if (edge.src_rank == rank_) {
      auto sender = std::make_unique<transport::SendChannel>(
          *transport_, rng_, edge.id, channel_options_);
      channels.add_sender(sender.get());
      switch (edge.kind) {
        case EdgeKind::kIngress:
          ingress_out_[edge.dst_rank] = std::move(sender);
          break;
        case EdgeKind::kDistribute:
          dist_out_[edge.dst_rank] = std::move(sender);
          break;
        case EdgeKind::kAtom:
          atom_out_[atom_pair_key(edge.from, edge.to)] = sender.get();
          atom_out_store_.push_back(std::move(sender));
          break;
        default:
          break;
      }
    } else if (edge.dst_rank == rank_) {
      transport::RecvChannel::DeliverFn deliver;
      switch (edge.kind) {
        case EdgeKind::kIngress:
          deliver = [this](const std::uint8_t* payload, std::size_t size,
                           std::uint8_t flags) {
            ingress_arrive(decode_wire_message(payload, size, flags));
          };
          break;
        case EdgeKind::kDistribute:
          deliver = [this](const std::uint8_t* payload, std::size_t size,
                           std::uint8_t flags) {
            deliver_local(decode_wire_message(payload, size, flags));
          };
          break;
        case EdgeKind::kAtom:
          deliver = [this, to = edge.to](const std::uint8_t* payload,
                                         std::size_t size,
                                         std::uint8_t flags) {
            protocol::Message m = decode_wire_message(payload, size, flags);
            // Compute the hop position before handing off the message:
            // at_atom takes it by value, and argument evaluation order
            // would otherwise be free to move it out first.
            const std::size_t pos = hop_pos(m.group(), to);
            at_atom(pos, std::move(m));
          };
          break;
        default:
          break;
      }
      auto receiver = std::make_unique<transport::RecvChannel>(
          *transport_, edge.id, std::move(deliver));
      channels.add_receiver(receiver.get());
      recv_store_.push_back(std::move(receiver));
    }
  }
}

const char* NodeEngine::publish_refusal(NodeId sender, GroupId group) const {
  // Both ids arrive in a control command from outside the process: range
  // check them before they index anything.
  if (!group.valid() || group.value() >= groups_.size()) {
    return "unknown group";
  }
  if (groups_[group.value()].hops.empty()) return "dead group";
  if (!sender.valid() || sender.value() >= host_rank_.size()) {
    return "unknown host";
  }
  if (host_rank_[sender.value()] != rank_) return "host on another rank";
  return nullptr;
}

void NodeEngine::publish(std::uint32_t ordinal, NodeId sender, GroupId group,
                         std::uint64_t payload, bool fin) {
  const char* refusal = publish_refusal(sender, group);
  DECSEQ_CHECK_MSG(refusal == nullptr,
                   "publish from host " << sender << " to group " << group
                                        << " on rank " << rank_ << ": "
                                        << refusal);
  const GroupState& state = groups_[group.value()];
  ++stats_.published;
  protocol::MessageSpec spec;
  spec.id = MsgId(ordinal);
  spec.group = group;
  spec.sender = sender;
  spec.payload = payload;
  spec.is_fin = fin;
  spec.sent_at = transport_->now_ms();
  protocol::Message message = protocol::Message::make(std::move(spec));
  const std::uint32_t ingress_rank = state.hops.front().rank;
  if (ingress_rank == rank_) {
    ingress_arrive(std::move(message));
    return;
  }
  protocol::encode_message(message, wire_);
  DECSEQ_CHECK(ingress_out_[ingress_rank] != nullptr);
  ingress_out_[ingress_rank]->send(wire_.data(), wire_.size(),
                                   fin ? transport::kFrameFlagFin : 0);
}

void NodeEngine::ingress_arrive(protocol::Message message) {
  GroupState& state = groups_[message.group().value()];
  DECSEQ_CHECK(!state.hops.empty());
  DECSEQ_CHECK(state.hops.front().rank == rank_);
  if (state.ingress_closed) {
    // The FIN beat this publish to the ingress: the sequence space is
    // closed, the publish is rejected (paper §3.2) — and reported, so the
    // coordinator can square its delivery expectations.
    DECSEQ_CHECK(!message.is_fin());
    ++stats_.rejected;
    if (on_reject_) {
      on_reject_(message.group(), message.sender(), message.payload());
    }
    return;
  }
  if (message.is_fin()) state.ingress_closed = true;
  message.group_seq = state.next_seq++;
  ++stats_.ingressed;
  at_atom(0, std::move(message));
}

void NodeEngine::at_atom(std::size_t pos, protocol::Message message) {
  GroupState& state = groups_[message.group().value()];
  while (true) {
    DECSEQ_CHECK(pos < state.hops.size());
    const HopEntry& hop = state.hops[pos];
    DECSEQ_CHECK_MSG(hop.rank == rank_, "message for atom "
                                            << hop.atom << " landed on rank "
                                            << rank_);
    if (hop.stamps) {
      message.stamps.push_back(
          {hop.atom, atom_next_seq_[hop.atom.value()]++});
      ++stats_.stamped;
    }
    if (pos + 1 == state.hops.size()) {
      distribute(std::move(message));
      return;
    }
    const HopEntry& next = state.hops[pos + 1];
    if (next.rank == rank_) {
      ++pos;
      continue;
    }
    protocol::encode_message(message, wire_);
    atom_out(hop.atom, next.atom)
        .send(wire_.data(), wire_.size(),
              message.is_fin() ? transport::kFrameFlagFin : 0);
    ++stats_.forwarded;
    return;
  }
}

void NodeEngine::distribute(protocol::Message message) {
  const GroupState& state = groups_[message.group().value()];
  if (!state.remote_member_ranks.empty()) {
    // Encode once; every remote rank gets the same bytes and demuxes to
    // its own subscribed hosts.
    protocol::encode_message(message, wire_);
    const std::uint8_t flags =
        message.is_fin() ? transport::kFrameFlagFin : 0;
    for (const std::uint32_t r : state.remote_member_ranks) {
      DECSEQ_CHECK(dist_out_[r] != nullptr);
      dist_out_[r]->send(wire_.data(), wire_.size(), flags);
      ++stats_.distributed;
    }
  }
  deliver_local(message);
}

void NodeEngine::deliver_local(const protocol::Message& message) {
  const GroupState& state = groups_[message.group().value()];
  const double now = transport_->now_ms();
  for (const NodeId member : state.local_members) {
    protocol::Receiver* receiver = receivers_[member.value()].get();
    DECSEQ_CHECK_MSG(receiver != nullptr,
                     "member " << member << " has no receiver state");
    receiver->receive(message, now);
  }
}

void NodeEngine::on_delivered(NodeId receiver,
                              const protocol::Message& message,
                              double now_ms) {
  if (message.is_fin()) {
    ++stats_.fins_delivered;
  } else {
    ++stats_.delivered;
  }
  on_delivery_(receiver, message, now_ms);
}

std::size_t NodeEngine::hop_pos(GroupId group, AtomId atom) const {
  DECSEQ_CHECK(group.valid() && group.value() < groups_.size());
  const GroupState& state = groups_[group.value()];
  for (std::size_t i = 0; i < state.hops.size(); ++i) {
    if (state.hops[i].atom == atom) return i;
  }
  DECSEQ_CHECK_MSG(false,
                   "atom " << atom << " not on path of group " << group);
  return 0;
}

transport::SendChannel& NodeEngine::atom_out(AtomId from, AtomId to) {
  const auto it = atom_out_.find(atom_pair_key(from, to));
  DECSEQ_CHECK_MSG(it != atom_out_.end(),
                   "no channel for atom edge " << from << " -> " << to);
  return *it->second;
}

std::size_t NodeEngine::faulted_channels() const {
  std::size_t count = 0;
  for (const auto& channel : atom_out_store_) {
    if (channel->faulted()) ++count;
  }
  for (const auto& channel : ingress_out_) {
    if (channel && channel->faulted()) ++count;
  }
  for (const auto& channel : dist_out_) {
    if (channel && channel->faulted()) ++count;
  }
  return count;
}

// --- Daemon --------------------------------------------------------------

struct Daemon::State {
  DaemonOptions options;
  ClusterConfig config;
  transport::UdpTransport io;
  transport::ChannelSet channels;
  transport::UdpAddr coordinator{};
  Rng ctrl_rng;

  std::unique_ptr<transport::SendChannel> report_out;
  std::unique_ptr<transport::RecvChannel> command_in;
  std::unique_ptr<NodeEngine> engine;

  struct TraceEntry {
    std::uint32_t receiver;
    std::uint32_t group;
    std::uint32_t sender;
    std::uint64_t payload;
    std::uint64_t group_seq;
  };
  std::vector<TraceEntry> trace;

  bool peers_received = false;
  bool done = false;
  /// Commands that did not decode or that the engine refused.
  std::uint64_t commands_dropped = 0;
  std::FILE* log = nullptr;

  explicit State(DaemonOptions opts)
      : options(std::move(opts)),
        config(load_cluster_config(options.config_path)),
        io("127.0.0.1", 0),
        ctrl_rng(config.seed ^ 0xC0FFEE ^ options.rank) {}

  void logf(const char* format, ...) {
    std::FILE* out = log != nullptr ? log : stderr;
    std::fprintf(out, "[decseqd %u] ", options.rank);
    va_list args;
    va_start(args, format);
    std::vfprintf(out, format, args);
    va_end(args);
    std::fprintf(out, "\n");
    std::fflush(out);
  }

  void send_report(const Report& report) {
    const std::vector<std::uint8_t> bytes = encode_report(report);
    report_out->send(bytes.data(), bytes.size());
  }

  void send_join() {
    if (peers_received || done) return;
    const std::vector<std::uint8_t> frame = transport::encode_frame(
        transport::FrameType::kJoin, 0, /*edge=*/0, options.rank);
    io.send_to(coordinator, frame.data(), frame.size());
    io.schedule_after(25.0, [this] { send_join(); });
  }

  void on_peers(const transport::Frame& frame) {
    if (peers_received) return;  // duplicate PEERS broadcast
    const auto peers = transport::decode_peers(frame);
    if (!peers.has_value()) {
      logf("malformed PEERS frame dropped");
      return;
    }
    std::vector<transport::UdpAddr> rank_addr(config.num_ranks);
    std::vector<char> seen(config.num_ranks, 0);
    for (const transport::PeerAddr& peer : *peers) {
      if (peer.rank >= config.num_ranks) continue;
      rank_addr[peer.rank] = {peer.ip_be, peer.port};
      seen[peer.rank] = 1;
    }
    for (std::uint32_t r = 0; r < config.num_ranks; ++r) {
      DECSEQ_CHECK_MSG(seen[r], "PEERS missing rank " << r);
    }
    // Register every data edge touching this rank: the edge id maps to the
    // remote end's address from either side (DATA one way, ACKs the other).
    for (const EdgeSpec& edge : build_edge_table(config)) {
      if (edge.kind == EdgeKind::kControlCommand ||
          edge.kind == EdgeKind::kControlReport) {
        continue;
      }
      if (edge.src_rank == edge.dst_rank) continue;
      if (edge.src_rank == options.rank) {
        io.add_edge(edge.id, rank_addr[edge.dst_rank]);
      } else if (edge.dst_rank == options.rank) {
        io.add_edge(edge.id, rank_addr[edge.src_rank]);
      }
    }
    engine = std::make_unique<NodeEngine>(
        io, channels, config, options.rank,
        [this](NodeId receiver, const protocol::Message& m, double) {
          on_delivery(receiver, m);
        },
        [this](GroupId group, NodeId sender, std::uint64_t payload) {
          Report report;
          report.kind = Report::Kind::kRejected;
          report.rank = options.rank;
          report.group = group.value();
          report.sender = sender.value();
          report.payload = payload;
          send_report(report);
        });
    peers_received = true;
    logf("joined: %zu hosts, %zu group slots", config.hosts.size(),
         config.groups.size());
    Report ready;
    ready.kind = Report::Kind::kReady;
    ready.rank = options.rank;
    send_report(ready);
  }

  void on_delivery(NodeId receiver, const protocol::Message& m) {
    Report report;
    report.rank = options.rank;
    report.receiver = receiver.value();
    report.group = m.group().value();
    report.sender = m.sender().value();
    report.payload = m.payload();
    report.group_seq = m.group_seq;
    if (m.is_fin()) {
      report.kind = Report::Kind::kFin;
    } else {
      report.kind = Report::Kind::kDelivery;
      trace.push_back({receiver.value(), m.group().value(),
                       m.sender().value(), m.payload(), m.group_seq});
    }
    send_report(report);
  }

  /// A command arrives from outside the process: one that does not decode
  /// or that the engine would refuse is logged, counted and dropped.
  void on_command(const std::uint8_t* payload, std::size_t size) {
    const std::optional<Command> command = decode_command(payload, size);
    if (!command.has_value()) {
      ++commands_dropped;
      logf("command dropped: undecodable (%zu bytes)", size);
      return;
    }
    switch (command->kind) {
      case Command::Kind::kPublish:
      case Command::Kind::kTerminate: {
        const NodeId sender(command->sender);
        const GroupId group(command->group);
        const char* refusal = engine == nullptr
                                  ? "before bootstrap"
                                  : engine->publish_refusal(sender, group);
        if (refusal != nullptr) {
          ++commands_dropped;
          logf("command dropped: %s (host %u, group %u)", refusal,
               command->sender, command->group);
          return;
        }
        engine->publish(command->ordinal, sender, group, command->payload,
                        command->kind == Command::Kind::kTerminate);
        break;
      }
      case Command::Kind::kShutdown:
        done = true;
        break;
    }
  }

  void write_trace() {
    if (options.trace_path.empty()) return;
    std::ofstream out(options.trace_path);
    DECSEQ_CHECK_MSG(out.good(),
                     "cannot open trace file " << options.trace_path);
    for (const TraceEntry& entry : trace) {
      out << "deliver " << entry.receiver << " " << entry.group << " "
          << entry.sender << " " << entry.payload << " " << entry.group_seq
          << "\n";
    }
  }
};

Daemon::Daemon(DaemonOptions options) : state_(new State(std::move(options))) {}

Daemon::~Daemon() {
  if (state_->log != nullptr) std::fclose(state_->log);
  delete state_;
}

int Daemon::run() {
  State& s = *state_;
  if (!s.options.log_path.empty()) {
    s.log = std::fopen(s.options.log_path.c_str(), "a");
  }
  DECSEQ_CHECK(s.options.rank < s.config.num_ranks);
  DECSEQ_CHECK_MSG(s.options.coordinator_port != 0,
                   "coordinator port required");
  s.coordinator = {transport::parse_ipv4(s.options.coordinator_ip),
                   s.options.coordinator_port};

  // Control channels: commands arrive from the coordinator, reports flow
  // back. Both edges resolve to the coordinator's address.
  const std::uint32_t ranks = s.config.num_ranks;
  const transport::EdgeId command_edge = s.options.rank;
  const transport::EdgeId report_edge = ranks + s.options.rank;
  s.io.add_edge(command_edge, s.coordinator);
  s.io.add_edge(report_edge, s.coordinator);
  ChannelOptions ctrl_options;
  ctrl_options.retransmit_timeout_ms = s.config.retransmit_timeout_ms;
  ctrl_options.max_retransmits = s.config.max_retransmits;
  s.report_out = std::make_unique<transport::SendChannel>(
      s.io, s.ctrl_rng, report_edge, ctrl_options);
  s.channels.add_sender(s.report_out.get());
  s.command_in = std::make_unique<transport::RecvChannel>(
      s.io, command_edge,
      [&s](const std::uint8_t* payload, std::size_t size, std::uint8_t) {
        s.on_command(payload, size);
      });
  s.channels.add_receiver(s.command_in.get());
  s.channels.set_control_handler(
      [&s](const transport::Frame& frame, const transport::Origin&) {
        if (frame.type == transport::FrameType::kPeers) s.on_peers(frame);
      });
  s.io.set_datagram_sink([&s](const std::uint8_t* data, std::size_t size,
                              const transport::Origin& origin) {
    s.channels.handle(data, size, origin);
  });

  s.logf("listening on port %u, joining coordinator port %u",
         s.io.local_addr().port, s.options.coordinator_port);
  s.send_join();
  while (!s.done) {
    s.io.poll(10.0);
  }
  s.write_trace();
  if (s.engine != nullptr) {
    const NodeEngine::Stats& stats = s.engine->stats();
    s.logf("shutdown: published=%llu ingressed=%llu rejected=%llu "
           "stamped=%llu forwarded=%llu distributed=%llu delivered=%llu "
           "fins=%llu rx_rejected=%zu commands_dropped=%llu",
           static_cast<unsigned long long>(stats.published),
           static_cast<unsigned long long>(stats.ingressed),
           static_cast<unsigned long long>(stats.rejected),
           static_cast<unsigned long long>(stats.stamped),
           static_cast<unsigned long long>(stats.forwarded),
           static_cast<unsigned long long>(stats.distributed),
           static_cast<unsigned long long>(stats.delivered),
           static_cast<unsigned long long>(stats.fins_delivered),
           s.channels.rejected(),
           static_cast<unsigned long long>(s.commands_dropped));
  }
  return 0;
}

}  // namespace decseq::app
