// Reliable FIFO channels over an unreliable datagram transport.
//
// The wire-facing twin of sim/channel.h: the same §3.1 algorithm — per
// channel sequence numbers, a sender-side output retransmission ring with
// one earliest-deadline timer, per-packet exponential backoff with capped
// multiplicative jitter, a receiver-side reorder ring released strictly in
// send order, cumulative acks — but split into its two endpoint halves,
// because over a real network the sender and receiver live in different
// processes. sim::Channel<T> keeps both halves in one object (and moves
// typed payloads by reference, which is what the figure benchmarks
// measure); here each half owns its state and everything on the wire is a
// frame (frame.h) of real bytes.
//
// Differences from the simulator channel, all forced by the deployment
// model rather than chosen:
//  * Retransmitted packets are the *stored encoded frames* — encode once,
//    resend bytes.
//  * There is no set_link_down / set_receiver_down: a real transport has
//    no oracle for remote failure. The fault state (max_retransmits
//    exhausted) therefore never parks the timer — the channel keeps
//    probing at the capped backoff cadence until an ack drains the window
//    (which clears the fault), exactly the sim channel's pure-loss fault
//    behavior.
//  * The receiver bounds its reorder window (kMaxReorderWindow): a valid
//    CRC does not make a sequence number sane, and an attacker-controlled
//    (or wildly corrupted) seq must not size an allocation. Packets beyond
//    the window are dropped but still acked with the highest-contiguous
//    cumulative seq — the sender's window advances past everything already
//    received and the retransmit machinery re-delivers the dropped packets
//    once the window has advanced.
//
//  * The sender applies the same rule to acks: a cumulative ack above
//    anything it has sent is refused and leaves the window untouched. A
//    corrupted or forged ack that passed the CRC would otherwise release
//    frames that never arrived, and the receiver would park everything
//    behind the hole forever.
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
#include <optional>
#include <vector>

#include "common/buffer_pool.h"
#include "common/check.h"
#include "common/ring_buffer.h"
#include "common/rng.h"
#include "transport/edge_table.h"
#include "transport/frame.h"
#include "transport/transport.h"

namespace decseq::transport {

/// Tuning knobs; field meanings match sim::ChannelOptions (minus the
/// simulated loss coin — real networks bring their own).
struct ChannelOptions {
  double retransmit_timeout_ms = 50.0;
  std::size_t max_retransmits = 100;
  double backoff_factor = 2.0;
  double max_backoff_factor = 64.0;
  double backoff_jitter = 0.1;
};

/// Surfaced fault: the packet whose retransmission budget ran out.
struct ChannelFault {
  std::uint64_t seq = 0;
  std::uint32_t attempts = 0;
  double at = 0.0;
};

/// Sender half: numbers payloads, buffers the encoded frames until the
/// cumulative ack releases them, retransmits with backoff.
class SendChannel {
 public:
  using FaultFn = std::function<void(const ChannelFault&)>;

  SendChannel(Transport& transport, Rng& rng, EdgeId edge,
              ChannelOptions options = {});
  SendChannel(const SendChannel&) = delete;
  SendChannel& operator=(const SendChannel&) = delete;
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

  void set_fault_callback(FaultFn on_fault) { on_fault_ = std::move(on_fault); }

  [[nodiscard]] EdgeId edge() const { return edge_; }
  [[nodiscard]] bool faulted() const { return fault_.has_value(); }
  [[nodiscard]] const std::optional<ChannelFault>& fault() const {
    return fault_;
  }
  [[nodiscard]] std::size_t faults_entered() const { return faults_entered_; }
  [[nodiscard]] std::size_t unacked() const { return out_.size(); }
  [[nodiscard]] std::size_t transmissions() const { return transmissions_; }
  [[nodiscard]] std::size_t retransmit_timer_fires() const {
    return retransmit_timer_fires_;
  }

 private:
  struct OutPacket {
    common::BufferPool::Buffer frame;  ///< full encoded DATA frame
    double deadline = 0.0;
    std::uint32_t attempts = 0;
  };

  [[nodiscard]] double backoff_delay(std::uint32_t attempts);
  void arm_timer(double deadline);
  void on_timer();

  Transport* transport_;
  Rng* rng_;
  EdgeId edge_;
  ChannelOptions options_;
  FaultFn on_fault_;

  std::uint64_t next_send_seq_ = 0;
  std::uint64_t send_base_ = 0;  ///< seq of out_.front()
  common::RingBuffer<OutPacket> out_;
  /// Buffers of acked frames, reused by the next sends.
  common::BufferPool frames_;
  Transport::TimerId timer_;
  std::optional<ChannelFault> fault_;
  std::size_t faults_entered_ = 0;
  std::size_t transmissions_ = 0;
  std::size_t retransmit_timer_fires_ = 0;
};

/// Receiver half: reorders arrivals into send order, delivers exactly
/// once, acks cumulatively on every arrival (so a lost ack is repaired by
/// the next one, including retransmit-induced duplicates).
class RecvChannel {
 public:
  using DeliverFn = std::function<void(const std::uint8_t* payload,
                                       std::size_t size, std::uint8_t flags)>;

  /// Furthest ahead of the next expected sequence number a packet may be
  /// and still be buffered. Far beyond what the sender's window produces
  /// in practice; its job is bounding memory against insane seq values.
  static constexpr std::uint64_t kMaxReorderWindow = 4096;

  RecvChannel(Transport& transport, EdgeId edge, DeliverFn deliver);
  RecvChannel(const RecvChannel&) = delete;
  RecvChannel& operator=(const RecvChannel&) = delete;

  /// A DATA frame for this edge arrived. Returns false iff the packet was
  /// dropped for being beyond the reorder window (the drop is still acked
  /// with the highest-contiguous cumulative seq, so the sender's window
  /// advances instead of retransmitting everything below the drop).
  bool on_data(std::uint64_t seq, std::uint8_t flags,
               const std::uint8_t* payload, std::size_t size);

  [[nodiscard]] EdgeId edge() const { return edge_; }
  [[nodiscard]] std::size_t reorder_buffered() const {
    return reorder_buffered_;
  }
  [[nodiscard]] std::size_t delivered() const { return delivered_; }
  [[nodiscard]] std::size_t duplicates() const { return duplicates_; }
  /// Packets dropped for landing beyond the reorder window (each one was
  /// still acked cumulatively; see on_data).
  [[nodiscard]] std::size_t window_overruns() const {
    return window_overruns_;
  }
  [[nodiscard]] std::uint64_t next_deliver_seq() const {
    return next_deliver_seq_;
  }

 private:
  struct Parked {
    std::uint8_t flags = 0;
    common::BufferPool::Buffer payload;
  };

  void send_ack();

  Transport* transport_;
  EdgeId edge_;
  DeliverFn deliver_;

  std::uint64_t next_deliver_seq_ = 0;
  common::RingBuffer<std::optional<Parked>> reorder_;
  /// Buffers of parked payloads already delivered, reused by the next.
  common::BufferPool parked_;
  std::size_t reorder_buffered_ = 0;
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
