// Datagram transport abstraction — one protocol codebase, two drivers.
//
// Everything above this interface (reliable channels, the sequencing
// engine, the decseqd daemon) is written against three primitives:
//
//   * send(edge, bytes)      — fire a datagram at the peer of a directed
//                              edge; unreliable, unordered, may be dropped,
//                              duplicated, or reordered in flight;
//   * a datagram sink        — raw datagrams arriving at this endpoint,
//                              with the (transport-specific) origin of each;
//   * timers                 — cancellable one-shot callbacks in the
//                              endpoint's local clock, reusing the
//                              monotone radix event queue of
//                              sim/simulator.h.
//
// Two backends implement it (the Protolib shape from SNIPPETS.md: one
// protocol engine driven either by a simulation environment or by real
// sockets and timers):
//
//   * SimTransport (sim_transport.h) — endpoints share a sim::Simulator;
//     datagrams are byte buffers scheduled across simulated propagation
//     delay, with per-edge loss/duplication/jitter knobs. Deterministic,
//     runs the whole multi-endpoint world in one process and one thread.
//   * UdpTransport (udp_transport.h) — one nonblocking UDP socket per
//     endpoint, edges mapped to peer socket addresses, timers driven by a
//     private simulator queue advanced to CLOCK_MONOTONIC between polls.
//
// Edges are *directed* and named by small dense integers agreed across the
// deployment (app/cluster_config.h derives the numbering from the cluster
// config); a datagram sent on edge e arrives at e's destination endpoint
// carrying e in its frame header, so one socket serves every channel.
//
// The simulated pub/sub stack (pubsub/system.h) deliberately does NOT go
// through this interface: its in-memory sim::Channel<Message> moves typed
// messages by reference with zero serialization, which is what the figure
// benchmarks measure. The transport layer is the wire-facing counterpart —
// the same channel windows (common/channel_window.h, driven by channel.h),
// same codec, real bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "sim/simulator.h"

namespace decseq::transport {

/// Directed edge identifier, agreed across the deployment.
using EdgeId = std::uint32_t;

/// Where a datagram came from, as far as the backend can tell. UDP fills
/// in the sender's IPv4 address and port (used only by the JOIN bootstrap,
/// before edges exist); the simulator fills in the sending endpoint index.
struct Origin {
  std::uint32_t ip_be = 0;    ///< IPv4 in network byte order (UDP backend)
  std::uint16_t port = 0;     ///< UDP port, host byte order
  std::uint32_t endpoint = 0; ///< sending endpoint index (sim backend)
};

/// One endpoint's view of the datagram fabric plus its local timer wheel.
class Transport {
 public:
  using TimerId = sim::Simulator::TimerId;
  using DatagramSink =
      std::function<void(const std::uint8_t* data, std::size_t size,
                         const Origin& origin)>;

  virtual ~Transport() = default;

  /// Local clock in milliseconds (simulated time or monotonic wall time —
  /// only differences and orderings are meaningful).
  [[nodiscard]] virtual double now_ms() = 0;

  /// Fire a datagram at the destination of `edge`. Best effort: the bytes
  /// may never arrive, may arrive twice, or may arrive after later sends.
  virtual void send(EdgeId edge, const std::uint8_t* data,
                    std::size_t size) = 0;

  /// Install the arrival callback. One sink per endpoint; frame parsing
  /// and edge demultiplexing happen above (see ChannelSet in channel.h).
  virtual void set_datagram_sink(DatagramSink sink) = 0;

  /// Schedule `cb` after `delay_ms` on this endpoint's clock. The returned
  /// handle cancels it; generation-tagged, so stale handles are inert.
  virtual TimerId schedule_after(double delay_ms,
                                 sim::Simulator::Callback cb) = 0;
  virtual bool cancel(TimerId id) = 0;
};

}  // namespace decseq::transport
