// The reliable FIFO channel of paper §3.1, written once for both channels.
//
// The protocol assumes a FIFO channel between any two sequencers, an output
// retransmission buffer per successor, and acknowledgments that release
// buffered packets. This header holds that algorithm without its wire:
//
//  * SendWindow<Slot>, the sender half. It numbers payloads from 0 and
//    keeps every unacked one in a flat ring (common/ring_buffer.h) indexed
//    by contiguous sequence numbers. Each packet carries its own deadline;
//    the window computes the earliest, at which the channel arms its single
//    retransmit timer, and an acked packet never wakes the timer: a
//    loss-free run fires no retransmit callback. Due packets retransmit
//    on the capped, jittered backoff below, so an outage of duration W
//    costs O(log(W/rto)) retransmissions per packet, not W/rto. A packet
//    crossing the retransmission budget surfaces a ChannelFault, with one
//    callback per transition, and never aborts: the channel keeps probing
//    at the capped cadence, and an ack that drains the window clears the
//    fault. A cumulative ack above anything sent is refused and changes
//    nothing; no honest receiver produces one, and releasing frames that
//    never arrived would park the receiver behind the hole forever.
//  * ReorderWindow<Slot>, the receiver half. The next expected packet with
//    nothing parked behind it is delivered in place (the loss-free steady
//    state). A later one parks in a flat ring until the gap fills, and the
//    ring drains in send order. Every arrival, duplicates included, is
//    answered by one cumulative ack, so a lost ack is repaired by the next
//    arrival.
//
// The channel that derives from a window supplies the wire: what a slot
// holds, how a transmission and an ack travel, and how the timer is
// armed. sim::Channel<T> (sim/channel.h) holds both halves and moves typed
// payloads across simulated delay; transport::SendChannel and RecvChannel
// (transport/channel.h) hold one half each and move encoded frames over a
// Transport. Once both rings reach the flow's high-water mark, neither
// touches the heap again. A payload handed to the receiver without the
// wire (sim::Channel's in-place pass) is counted through both halves'
// pass_through(), so later sequence numbers stay gapless.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/ring_buffer.h"
#include "common/rng.h"

namespace decseq {

/// The settable values of a reliable channel.
struct ChannelOptions {
  /// Drop chance per transmission, data and acks alike. Only the simulated
  /// channel tosses this coin; a real network brings its own loss.
  double loss_probability = 0.0;
  double retransmit_timeout_ms = 200.0;
  /// Retransmissions of one packet before the channel declares itself
  /// faulted. The paper assumes fail-free sequencers, so a deployment must
  /// report transport exhaustion upward, never die; probing continues at
  /// the capped backoff cadence while faulted.
  std::size_t max_retransmits = 100;
};

/// A surfaced fault: the packet whose retransmission budget ran out, how
/// often it was sent, and when the channel gave up fast-path retrying.
struct ChannelFault {
  std::uint64_t seq = 0;
  std::uint32_t attempts = 0;
  double at = 0.0;
};

/// Retry i of one packet waits rto * kBackoffFactor^(i-1), capped at
/// kMaxBackoffFactor * rto. A channel scales each retry by a uniform draw
/// from [1, 1 + kBackoffJitter) so co-timed packets decorrelate; the first
/// transmission's deadline is exactly one rto, with no draw, so loss-free
/// runs consume no randomness.
inline constexpr double kBackoffFactor = 2.0;
inline constexpr double kMaxBackoffFactor = 64.0;
inline constexpr double kBackoffJitter = 0.1;

/// The unjittered delay before retry `attempts` at timeout `rto_ms`.
[[nodiscard]] inline double backoff_delay(double rto_ms,
                                          std::uint32_t attempts) {
  const double cap = rto_ms * kMaxBackoffFactor;
  double delay = rto_ms;
  for (std::uint32_t i = 1; i < attempts && delay < cap; ++i) {
    delay *= kBackoffFactor;
  }
  return std::min(delay, cap);
}

/// Sender half of a reliable channel; a channel class derives from it.
template <typename Slot>
class SendWindow {
 public:
  using FaultFn = std::function<void(const ChannelFault&)>;

  explicit SendWindow(const ChannelOptions& options) : options_(options) {
    // A zero timeout re-arms at the same instant forever, each expiry
    // queueing one more retransmission: the clock never advances.
    DECSEQ_CHECK(std::isfinite(options_.retransmit_timeout_ms) &&
                 options_.retransmit_timeout_ms > 0.0);
  }
  SendWindow(const SendWindow&) = delete;
  SendWindow& operator=(const SendWindow&) = delete;

  /// Called once per transition into the fault state, from inside the
  /// retransmit timer. It must not destroy the channel; it may inspect
  /// status and schedule recovery.
  void set_fault_callback(FaultFn on_fault) { on_fault_ = std::move(on_fault); }

  /// Some packet exhausted max_retransmits and the window has neither
  /// drained since nor been restarted.
  [[nodiscard]] bool faulted() const { return fault_.has_value(); }
  /// Details of the current fault; nullopt while healthy.
  [[nodiscard]] const std::optional<ChannelFault>& fault() const {
    return fault_;
  }
  /// Times the channel has entered the fault state over its lifetime.
  [[nodiscard]] std::size_t faults_entered() const { return faults_entered_; }
  /// Packets still awaiting acknowledgment (the "output retransmission
  /// buffer" of §3.1's state list).
  [[nodiscard]] std::size_t unacked() const { return out_.size(); }
  /// Transmissions launched, first sends and retransmissions alike.
  [[nodiscard]] std::size_t transmissions() const { return transmissions_; }
  /// Retransmit-timer expiries that found a timed-out packet (each one
  /// retransmits at least one packet).
  [[nodiscard]] std::size_t retransmit_timer_fires() const {
    return retransmit_timer_fires_;
  }

 protected:
  struct Packet {
    Slot slot;
    /// When this packet times out (last transmission + current backoff).
    double deadline = 0.0;
    std::uint32_t attempts = 0;  ///< retransmissions so far
  };
  struct Pushed {
    std::uint64_t seq;
    Packet& packet;
  };

  ~SendWindow() = default;

  /// Start over as a fresh window under `options`, keeping the output
  /// buffer's capacity. Only for a drained window (nothing unacked).
  void reset(const ChannelOptions& options) {
    DECSEQ_CHECK(out_.empty());
    DECSEQ_CHECK(std::isfinite(options.retransmit_timeout_ms) &&
                 options.retransmit_timeout_ms > 0.0);
    options_ = options;
    on_fault_ = nullptr;
    next_send_seq_ = 0;
    send_base_ = 0;
    fault_.reset();
    faults_entered_ = 0;
    transmissions_ = 0;
    retransmit_timer_fires_ = 0;
  }

  [[nodiscard]] const ChannelOptions& options() const { return options_; }

  /// Number the next payload and append its packet, due one rto after
  /// `now`; the channel fills in the slot and launches it.
  Pushed push(double now) {
    Packet& packet = out_.emplace_back();
    packet.deadline = now + options_.retransmit_timeout_ms;
    ++transmissions_;
    return {next_send_seq_++, packet};
  }

  /// Number the next payload and release it at once, as sent: the channel
  /// handed it to its receiver in place. Only for a drained window.
  void pass_through() {
    ++next_send_seq_;
    ++send_base_;
    ++transmissions_;
  }

  /// The slot of `seq`; valid only while seq is unacked.
  [[nodiscard]] Slot& slot(std::uint64_t seq) {
    DECSEQ_CHECK(seq >= send_base_ && seq - send_base_ < out_.size());
    return out_[static_cast<std::size_t>(seq - send_base_)].slot;
  }

  /// The retransmit timer expired at `now`: hand every packet whose
  /// deadline passed to `retransmit(seq, slot)`, back it off, and return
  /// the earliest deadline left, where the channel re-arms. The timer may
  /// be armed before the true earliest deadline (acks released the
  /// packets it was armed for); such an expiry just re-arms.
  template <typename Retransmit>
  double expire(double now, Rng& rng, Retransmit&& retransmit) {
    bool any_due = false;
    double earliest = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < out_.size(); ++i) {
      Packet& packet = out_[i];
      if (packet.deadline <= now) {
        any_due = true;
        const std::uint32_t attempts = ++packet.attempts;
        if (attempts > options_.max_retransmits && !fault_.has_value()) {
          fault_ = ChannelFault{send_base_ + i, attempts, now};
          ++faults_entered_;
          if (on_fault_) on_fault_(*fault_);
        }
        ++transmissions_;
        retransmit(send_base_ + i, packet.slot);
        packet.deadline =
            now + backoff_delay(options_.retransmit_timeout_ms, attempts) *
                      (1.0 + rng.next_double() * kBackoffJitter);
      }
      if (packet.deadline < earliest) earliest = packet.deadline;
    }
    if (any_due) ++retransmit_timer_fires_;
    return earliest;
  }

  /// Clear any fault, reset every unacked packet's budget and deadline
  /// (one rto from `now`), and launch each again through `launch(seq)`.
  template <typename Launch>
  void restart(double now, Launch&& launch) {
    fault_.reset();
    for (std::size_t i = 0; i < out_.size(); ++i) {
      out_[i].attempts = 0;
      out_[i].deadline = now + options_.retransmit_timeout_ms;
      ++transmissions_;
      launch(send_base_ + i);
    }
  }

  /// The receiver consumed everything below `cumulative`: hand each such
  /// slot to `drop` and release it. A drained window clears any fault (the
  /// "lost" window made it through after all). Returns false, changing
  /// nothing, for a cumulative above every sequence number sent.
  template <typename Drop>
  bool release(std::uint64_t cumulative, Drop&& drop) {
    if (cumulative > next_send_seq_) return false;
    while (!out_.empty() && send_base_ < cumulative) {
      drop(out_.front().slot);
      out_.pop_front();
      ++send_base_;
    }
    if (out_.empty()) fault_.reset();
    return true;
  }

 private:
  ChannelOptions options_;
  FaultFn on_fault_;
  std::uint64_t next_send_seq_ = 0;
  /// Sequence number of out_.front() (the lowest unacked packet).
  std::uint64_t send_base_ = 0;
  /// Output retransmission buffer, contiguous [send_base_, next_send_seq_).
  common::RingBuffer<Packet> out_;
  std::optional<ChannelFault> fault_;
  std::size_t faults_entered_ = 0;
  std::size_t transmissions_ = 0;
  std::size_t retransmit_timer_fires_ = 0;
};

/// Receiver half of a reliable channel; a channel class derives from it.
template <typename Slot>
class ReorderWindow {
 public:
  ReorderWindow() = default;
  ReorderWindow(const ReorderWindow&) = delete;
  ReorderWindow& operator=(const ReorderWindow&) = delete;

  /// Packets parked waiting for earlier ones.
  [[nodiscard]] std::size_t reorder_buffered() const {
    return reorder_buffered_;
  }
  /// Every sequence number below this one has been delivered.
  [[nodiscard]] std::uint64_t next_deliver_seq() const {
    return next_deliver_seq_;
  }

 protected:
  ~ReorderWindow() = default;

  /// Start over at sequence number 0, keeping the reorder buffer's
  /// capacity. Only for a window with nothing parked.
  void reset() {
    DECSEQ_CHECK(reorder_buffered_ == 0);
    next_deliver_seq_ = 0;
    reorder_.clear();
  }

  /// Count the next expected packet as delivered without an arrival: the
  /// sender handed it over in place. Only with nothing parked.
  void pass_through() { ++next_deliver_seq_; }

  /// One arrival of `seq`. The next expected packet with nothing parked
  /// goes straight to `deliver_now()`; a later one not yet parked is parked
  /// as `park()`; then every parked packet that became next goes to
  /// `deliver(Slot&&)`, in order, and `ack(cumulative)` answers the arrival
  /// once. Returns false for a duplicate: already delivered or parked.
  template <typename DeliverNow, typename Park, typename Deliver, typename Ack>
  bool arrive(std::uint64_t seq, DeliverNow&& deliver_now, Park&& park,
              Deliver&& deliver, Ack&& ack) {
    if (seq == next_deliver_seq_ && reorder_.empty()) {
      ++next_deliver_seq_;
      deliver_now();
      ack(next_deliver_seq_);
      return true;
    }
    bool fresh = false;
    if (seq >= next_deliver_seq_) {
      const std::size_t index =
          static_cast<std::size_t>(seq - next_deliver_seq_);
      if (index >= reorder_.size()) reorder_.resize(index + 1);
      if (!reorder_[index].has_value()) {
        reorder_[index].emplace(park());
        ++reorder_buffered_;
        fresh = true;
      }
    }
    while (!reorder_.empty() && reorder_.front().has_value()) {
      Slot slot = std::move(*reorder_.front());
      reorder_.pop_front();
      --reorder_buffered_;
      ++next_deliver_seq_;
      deliver(std::move(slot));
    }
    ack(next_deliver_seq_);
    return fresh;
  }

 private:
  std::uint64_t next_deliver_seq_ = 0;
  /// Slot i holds sequence number next_deliver_seq_ + i.
  common::RingBuffer<std::optional<Slot>> reorder_;
  std::size_t reorder_buffered_ = 0;
};

}  // namespace decseq
