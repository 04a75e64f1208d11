// Reliable FIFO channels over an unreliable datagram transport.
//
// The wire side of the §3.1 channel in common/channel_window.h: the same
// sender and reorder windows as sim::Channel<T>, but split into their two
// endpoint halves, because over a real network the sender and receiver
// live in different processes. Each half owns its state and everything on
// the wire is a frame (frame.h) of real bytes.
//
// What the wire adds, all forced by the deployment model rather than
// chosen:
//  * Retransmitted packets are the *stored encoded frames* — encode once,
//    resend bytes.
//  * There is no set_link_down / set_receiver_down: a real transport has
//    no oracle for remote failure. The fault state therefore never parks
//    the timer — the channel keeps probing at the capped backoff cadence
//    until an ack drains the window (which clears the fault), exactly the
//    sim channel's pure-loss fault behavior.
//  * The receiver bounds its reorder window (kMaxReorderWindow): a valid
//    CRC does not make a sequence number sane, and an attacker-controlled
//    (or wildly corrupted) seq must not size an allocation. Packets beyond
//    the window are dropped but still acked with the highest-contiguous
//    cumulative seq — the sender's window advances past everything already
//    received and the retransmit machinery re-delivers the dropped packets
//    once the window has advanced.
//
// ChannelSet is the per-endpoint demultiplexer: it owns the table from
// edge id to channel half, parses each arriving datagram exactly once,
// routes DATA to the edge's receiver and ACK to the edge's sender, hands
// bootstrap frames (JOIN/PEERS) to a control hook, and counts everything
// it rejects — malformed frames, unknown edges, out-of-window packets,
// acks beyond anything sent — so the wire-robustness tests can assert
// that garbage is dropped, not acted on.
//
// Memory: a warm channel pair moves bytes without touching the heap. The
// sender encodes each DATA frame into a buffer recycled from frames the
// peer already acked (common/buffer_pool.h), the receiver encodes ACKs
// into a 24-byte array and parks out-of-order payloads in recycled
// buffers, and the demultiplexer hands each channel a view into the
// datagram (frame.h). Every pool holds at most its stage's in-flight
// high-water mark of buffers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/buffer_pool.h"
#include "common/channel_window.h"
#include "common/check.h"
#include "common/rng.h"
#include "transport/edge_table.h"
#include "transport/frame.h"
#include "transport/transport.h"

namespace decseq::transport {

/// Sender half: numbers payloads, buffers the encoded frames until the
/// cumulative ack releases them, retransmits with backoff.
class SendChannel : public SendWindow<common::BufferPool::Buffer> {
 public:
  /// `options.loss_probability` must be 0: the wire brings its own loss.
  SendChannel(Transport& transport, Rng& rng, EdgeId edge,
              ChannelOptions options = {});
  ~SendChannel();

  /// Queue `payload` for exactly-once in-order delivery at the peer.
  /// `flags` rides in the frame header (kFrameFlagFin for FIN payloads).
  void send(const std::uint8_t* payload, std::size_t size,
            std::uint8_t flags = 0);

  /// The peer's cumulative ack arrived: release every frame below it; a
  /// drained window disarms the timer and clears any fault. Returns false,
  /// changing nothing, for a cumulative above every sequence number sent:
  /// no honest receiver acks a frame that does not exist yet.
  bool on_ack(std::uint64_t cumulative);

  [[nodiscard]] EdgeId edge() const { return edge_; }

 private:
  void arm_timer(double deadline);
  void on_timer();

  Transport* transport_;
  Rng* rng_;
  EdgeId edge_;
  /// Buffers of acked frames, reused by the next sends.
  common::BufferPool frames_;
  Transport::TimerId timer_;
};

/// A payload the receiver parked ahead of a gap, with its frame flags.
struct ParkedPayload {
  std::uint8_t flags = 0;
  common::BufferPool::Buffer payload;
};

/// Receiver half: reorders arrivals into send order, delivers exactly
/// once, acks cumulatively on every arrival (so a lost ack is repaired by
/// the next one, including retransmit-induced duplicates).
class RecvChannel : public ReorderWindow<ParkedPayload> {
 public:
  using DeliverFn = std::function<void(const std::uint8_t* payload,
                                       std::size_t size, std::uint8_t flags)>;

  /// Furthest ahead of the next expected sequence number a packet may be
  /// and still be buffered. Far beyond what the sender's window produces
  /// in practice; its job is bounding memory against insane seq values.
  static constexpr std::uint64_t kMaxReorderWindow = 4096;

  RecvChannel(Transport& transport, EdgeId edge, DeliverFn deliver);

  /// A DATA frame for this edge arrived. Returns false iff the packet was
  /// dropped for being beyond the reorder window (the drop is still acked
  /// with the highest-contiguous cumulative seq, so the sender's window
  /// advances instead of retransmitting everything below the drop).
  bool on_data(std::uint64_t seq, std::uint8_t flags,
               const std::uint8_t* payload, std::size_t size);

  [[nodiscard]] EdgeId edge() const { return edge_; }
  [[nodiscard]] std::size_t delivered() const { return delivered_; }
  [[nodiscard]] std::size_t duplicates() const { return duplicates_; }
  /// Packets dropped for landing beyond the reorder window (each one was
  /// still acked cumulatively; see on_data).
  [[nodiscard]] std::size_t window_overruns() const {
    return window_overruns_;
  }

 private:
  void send_ack(std::uint64_t cumulative);

  Transport* transport_;
  EdgeId edge_;
  DeliverFn deliver_;
  /// Buffers of parked payloads already delivered, reused by the next.
  common::BufferPool parked_;
  std::size_t delivered_ = 0;
  std::size_t duplicates_ = 0;
  std::size_t window_overruns_ = 0;
};

/// Per-endpoint datagram demultiplexer: edge id → channel half, in flat
/// tables indexed by edge id (edge_table.h).
class ChannelSet {
 public:
  using ControlFn = std::function<void(const Frame&, const Origin&)>;

  void add_sender(SendChannel* channel);
  void add_receiver(RecvChannel* channel);
  /// Bootstrap frames (JOIN/PEERS) land here instead of a channel.
  void set_control_handler(ControlFn handler) {
    control_ = std::move(handler);
  }

  /// Parse and route one datagram. Returns true iff the frame decoded and
  /// was accepted by its channel (or the control hook).
  bool handle(const std::uint8_t* data, std::size_t size,
              const Origin& origin);

  /// Datagrams dropped: undecodable frames, unknown edges, DATA beyond the
  /// receiver's reorder window, ACKs beyond everything the sender sent.
  /// The robustness tests pin that garbage only ever increments this — it
  /// never reaches a channel or kills the process.
  [[nodiscard]] std::size_t rejected() const { return rejected_; }
  [[nodiscard]] std::size_t accepted() const { return accepted_; }

 private:
  EdgeTable<SendChannel*> senders_;
  EdgeTable<RecvChannel*> receivers_;
  ControlFn control_;
  std::size_t rejected_ = 0;
  std::size_t accepted_ = 0;
};

}  // namespace decseq::transport
