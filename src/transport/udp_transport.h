// Nonblocking UDP backend for the transport interface.
//
// One endpoint = one SOCK_DGRAM socket bound to a loopback (or given)
// address; a directed edge is a peer socket address registered with
// add_edge() in a flat table indexed by edge id (edge_table.h), so
// send(edge, bytes) is a table load and a single sendto(), and every inbound
// datagram — whatever edge its frame names — arrives on the one socket and
// is handed to the datagram sink with its source address (the JOIN
// bootstrap needs the source; channels demux by the edge id inside the
// frame).
//
// Timers reuse the monotone radix event queue of sim/simulator.h verbatim:
// a private sim::Simulator whose clock is *driven by CLOCK_MONOTONIC* —
// each poll() advances it to wall-now with run_until(), firing whatever
// came due. The queue neither knows nor cares that "simulated
// milliseconds" are now real ones; schedule/cancel/backoff logic above is
// byte-for-byte the code the simulator runs (the Protolib ProtoTimer move).
//
// poll(max_wait_ms) is the whole event loop step:
//   1. advance timers to wall-now;
//   2. block in ::poll() on the socket until the earliest pending timer or
//      max_wait_ms, whichever is sooner;
//   3. drain every readable datagram into the sink;
//   4. advance timers again.
// Run loops (the decseqd daemon, the proxy, the tests) just call poll() in
// a loop and check their own exit conditions between calls.
//
// Send errors are deliberately not surfaced: a full socket buffer
// (EAGAIN/ENOBUFS) drops the datagram exactly like the network would, and
// the channel layer's retransmission already owns that failure mode. They
// are counted (send_errors()) for observability.
#pragma once

#include <cstdint>
#include <string>

#include "sim/simulator.h"
#include "transport/transport.h"

namespace decseq::transport {

/// A peer's socket address in plain-data form (no <netinet/in.h> in this
/// header; the .cc converts).
struct UdpAddr {
  std::uint32_t ip_be = 0;  ///< IPv4, network byte order
  std::uint16_t port = 0;   ///< host byte order

  friend bool operator==(const UdpAddr&, const UdpAddr&) = default;
};

/// Parse dotted-quad "a.b.c.d" into network byte order; CHECK-fails on
/// malformed input.
[[nodiscard]] std::uint32_t parse_ipv4(const std::string& dotted);

class UdpTransport final : public Transport {
 public:
  /// Bind to `ip`:`port` (port 0 = kernel-assigned; read it back with
  /// local_addr()). Throws CheckFailure if the socket cannot be set up.
  explicit UdpTransport(const std::string& ip = "127.0.0.1",
                        std::uint16_t port = 0);
  ~UdpTransport() override;
  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  [[nodiscard]] UdpAddr local_addr() const { return local_; }

  /// Map a directed edge to its peer. Re-registering an edge overwrites
  /// the peer address (the bootstrap registers the coordinator first, then
  /// the real address book).
  void add_edge(EdgeId edge, UdpAddr peer);
  [[nodiscard]] bool has_edge(EdgeId edge) const;

  /// Send a datagram straight to an address, outside any edge — the JOIN
  /// bootstrap, before the address book exists.
  void send_to(UdpAddr peer, const std::uint8_t* data, std::size_t size);

  /// One event-loop step; see file header. Returns the number of
  /// datagrams delivered to the sink.
  std::size_t poll(double max_wait_ms);

  // --- Transport interface ---
  [[nodiscard]] double now_ms() override;
  void send(EdgeId edge, const std::uint8_t* data, std::size_t size) override;
  void set_datagram_sink(DatagramSink sink) override;
  TimerId schedule_after(double delay_ms,
                         sim::Simulator::Callback cb) override;
  bool cancel(TimerId id) override;

  // --- Stats ---
  [[nodiscard]] std::size_t datagrams_sent() const { return sent_; }
  [[nodiscard]] std::size_t datagrams_received() const { return received_; }
  [[nodiscard]] std::size_t send_errors() const { return send_errors_; }

 private:
  struct Impl;  ///< holds the fd, peer table, and receive buffer
  Impl* impl_;

  UdpAddr local_;
  sim::Simulator timers_;
  DatagramSink sink_;
  double clock_base_ = 0.0;  ///< CLOCK_MONOTONIC at construction (ms)
  std::size_t sent_ = 0;
  std::size_t received_ = 0;
  std::size_t send_errors_ = 0;
};

}  // namespace decseq::transport
