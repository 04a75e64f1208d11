// Reliable FIFO point-to-point channel (paper §3.1).
//
// The protocol assumes a FIFO channel between any two sequencers, an output
// retransmission buffer per successor, and acknowledgments that release
// buffered packets. This template implements exactly that: per-channel
// sequence numbers, a sender-side retransmission buffer with timeout, a
// receiver-side reorder buffer that releases payloads strictly in send
// order, and cumulative acks. With loss probability 0 (the experiment
// configuration) it degenerates to a pure propagation-delay pipe; tests
// inject loss to exercise the recovery path.
//
// Buffer layout (see docs/PROTOCOL.md, "Event engine"): both buffers are
// flat ring buffers (common/ring_buffer.h) indexed by contiguous sequence
// numbers — the sender's output buffer starts at the lowest unacked packet
// and cumulative acks pop its front, the receiver's reorder window starts
// at the next sequence number to deliver. No tree maps, and once the rings
// reach the flow's high-water mark, no per-packet heap traffic at all
// (a deque here would churn ~512-byte nodes forever as packets flow
// through).
//
// Retransmission timing: every unacked packet carries its own deadline,
// but the channel arms a single cancellable simulator timer at the
// earliest of them instead of one event per packet. When the output buffer
// drains the timer is cancelled, so an acked packet never wakes the
// simulator: a loss-free run fires zero retransmit-timer callbacks
// (asserted by tests via retransmit_timer_fires()).
//
// Retransmissions back off exponentially per packet: retry i of one packet
// waits retransmit_timeout_ms * backoff_factor^(i-1), capped at
// max_backoff_factor * retransmit_timeout_ms, with multiplicative jitter in
// [1, 1 + backoff_jitter) so co-timed packets decorrelate. During an
// outage of duration W a packet is therefore retransmitted O(log(W/rto))
// times, not W/rto times. The first transmission's deadline is exactly
// retransmit_timeout_ms with no jitter (and no RNG draw), so loss-free
// runs consume no extra randomness.
//
// Failure model (partitions and faults):
//  * set_link_down(true) severs the link. Link state is sampled both when
//    a transmission is launched and when it arrives: traffic (data and
//    acks) already in flight when the partition starts dies inside it.
//    A partition therefore behaves like a physical cut, not a send-time
//    loss coin — nothing leaks through the window in either direction.
//  * set_receiver_down(true) fail-stops the receiving endpoint: arrivals
//    are dropped without acknowledgment (the sender's buffers hold
//    everything), also sampled at arrival time.
//    (A 0 ms loss-free channel samples both flags at launch only; see the
//    last bullet.)
//  * Exhausting max_retransmits on any packet does NOT abort: the channel
//    enters a surfaced fault state — faulted() turns true, fault() carries
//    the packet/attempt/time, and the fault callback fires once per
//    transition. A faulted channel keeps probing at the capped backoff
//    cadence (the analogue of TCP's persist timer), so a fault is a
//    status, never a wedge: if the outage heals by itself a probe gets
//    through, the acks drain the buffer, and the fault clears.
//  * Recovery (set_link_down(false) / set_receiver_down(false)) models the
//    transport re-establishing the connection: the fault clears, every
//    unacked packet's attempt budget resets, and the whole window is
//    retransmitted immediately rather than waiting out the current
//    backoff. Duplicates this may create are suppressed by sequence number
//    at the receiver, as always.
//  * A channel with delay 0 and loss probability 0 — the hop between two
//    atoms colocated on one sequencing machine (§3.4) — is a same-machine
//    hand-off with no flight time. It samples link and receiver state
//    once, when a transmission is launched. A launch that gets through
//    schedules only its data event, which delivers the payload and
//    releases it from the output buffer: no ack event, no retransmit
//    timer. A launch that does not get through is buffered with its timer
//    armed at the send, exactly as on any other channel, and recovery
//    retransmits it. No timer that could fire moves: every data event is
//    scheduled where it always was, so it keeps its (time, insertion)
//    place, and a launch that gets through is delivered and released
//    within its own instant, so the timer it no longer arms would have
//    been cancelled by its ack inside that instant. The one difference
//    from sampling at arrival is a fault call that lands after a launch
//    and before its arrival, inside the same instant: the packet now
//    arrives. The fuzz runner, the sharded fences and the benches schedule
//    their fault events ahead of the protocol events of that instant, so
//    none of them produces the case. The fault path is why a 0 ms hop
//    still has a channel: node and link failures reach it, and a launch
//    made while it is down needs the buffer and the timer. A lossy 0 ms
//    channel keeps its acks, timers and loss-coin draws.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/ring_buffer.h"
#include "common/rng.h"
#include "sim/simulator.h"

namespace decseq::sim {

struct ChannelOptions {
  double loss_probability = 0.0;  ///< per-transmission drop chance
  Time retransmit_timeout_ms = 200.0;
  /// Retransmissions of one packet before the channel declares itself
  /// faulted (surfaced via faulted()/the fault callback — the paper
  /// assumes fail-free sequencers, so a real deployment must report
  /// transport exhaustion upward, never die). Probing continues at the
  /// capped backoff cadence while faulted.
  std::size_t max_retransmits = 100;
  /// Exponential backoff base: retry i waits retransmit_timeout_ms *
  /// backoff_factor^(i-1) (before the cap and jitter below).
  double backoff_factor = 2.0;
  /// Backoff ceiling as a multiple of retransmit_timeout_ms.
  double max_backoff_factor = 64.0;
  /// Multiplicative jitter: each retry delay is scaled by a uniform draw
  /// from [1, 1 + backoff_jitter).
  double backoff_jitter = 0.1;
};

/// Everything known about a channel's surfaced fault: the packet whose
/// retransmission budget ran out, how often it was sent, and when the
/// channel gave up fast-path retrying.
struct ChannelFault {
  std::uint64_t seq = 0;
  std::uint32_t attempts = 0;
  Time at = 0.0;
};

/// One-directional reliable FIFO channel carrying payloads of type T.
template <typename T>
class Channel {
 public:
  /// Receives each payload by rvalue reference to a local the channel
  /// owns for the call, never to a slot of its buffers.
  using DeliverFn = std::function<void(T&&)>;
  using FaultFn = std::function<void(const ChannelFault&)>;

  Channel(Simulator& sim, Rng& rng, Time delay_ms, ChannelOptions options = {})
      : sim_(&sim),
        rng_(&rng),
        delay_ms_(delay_ms),
        options_(options),
        instant_(delay_ms == 0.0 && options.loss_probability == 0.0) {
    DECSEQ_CHECK(delay_ms >= 0.0);
    // A zero timeout re-arms at the same instant forever, each expiry
    // queueing one more retransmission: the simulator never advances.
    DECSEQ_CHECK(std::isfinite(options_.retransmit_timeout_ms) &&
                 options_.retransmit_timeout_ms > 0.0);
    DECSEQ_CHECK(options_.backoff_factor >= 1.0);
    DECSEQ_CHECK(options_.max_backoff_factor >= 1.0);
    DECSEQ_CHECK(options_.backoff_jitter >= 0.0);
  }

  // In-flight events capture `this`; the channel must stay put once armed.
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Install the receiver callback; payloads arrive in send order,
  /// exactly once.
  void set_receiver(DeliverFn deliver) { deliver_ = std::move(deliver); }

  /// Notification for entering the fault state (invoked once per
  /// transition, from inside the retransmit timer). The callback must not
  /// destroy the channel; it may inspect status and schedule recovery.
  void set_fault_callback(FaultFn on_fault) { on_fault_ = std::move(on_fault); }

  /// Fail-stop the receiving endpoint: while down, arriving transmissions
  /// (on a 0 ms loss-free channel: transmissions launched) are dropped
  /// without acknowledgment, so the sender's retransmission
  /// buffer holds everything and the timer keeps retrying; after
  /// set_receiver_down(false), the whole unacked window is retransmitted
  /// immediately (see "Failure model" above). Models a crashed sequencing
  /// machine whose state survives (synchronous replication) but which
  /// stops talking.
  void set_receiver_down(bool down) {
    const bool was = receiver_down_;
    receiver_down_ = down;
    if (was && !down) resume();
  }
  [[nodiscard]] bool receiver_down() const { return receiver_down_; }

  /// Sever the physical link: transmissions and acknowledgments vanish if
  /// the link is down when they are sent *or* when they would arrive (a
  /// partition kills in-flight traffic; a 0 ms loss-free channel has none
  /// in flight and samples at launch only). Both endpoints stay alive; on
  /// set_link_down(false) the unacked window retransmits immediately.
  void set_link_down(bool down) {
    const bool was = link_down_;
    link_down_ = down;
    if (was && !down) resume();
  }
  [[nodiscard]] bool link_down() const { return link_down_; }

  /// Queue a payload for in-order delivery to the receiver. The payload
  /// moves into its output slot in place, and out of it once on delivery.
  void send(T&& payload) {
    DECSEQ_CHECK_MSG(deliver_ != nullptr, "channel has no receiver");
    const std::uint64_t seq = next_send_seq_++;
    const Time deadline = sim_->now() + options_.retransmit_timeout_ms;
    OutPacket& packet = out_.emplace_back();
    packet.payload = std::move(payload);
    packet.deadline = deadline;
    // An instant launch that gets through is delivered and released within
    // this instant: no timer for it could ever fire (see "Failure model").
    if (transmit(seq) && instant_) return;
    if (!timer_.valid()) arm_timer(deadline);
  }
  void send(const T& payload) { send(T(payload)); }

  /// The channel exhausted max_retransmits on some packet and has not yet
  /// recovered (by an ack draining the buffer, or by resume-on-recovery).
  [[nodiscard]] bool faulted() const { return fault_.has_value(); }
  /// Details of the current fault; nullopt while healthy.
  [[nodiscard]] const std::optional<ChannelFault>& fault() const {
    return fault_;
  }
  /// Times the channel has entered the fault state over its lifetime.
  [[nodiscard]] std::size_t faults_entered() const { return faults_entered_; }

  /// Packets still awaiting acknowledgment (the "output retransmission
  /// buffer" size from §3.1's state list).
  [[nodiscard]] std::size_t unacked() const { return out_.size(); }
  /// Packets buffered at the receiver waiting for earlier ones.
  [[nodiscard]] std::size_t reorder_buffered() const {
    return reorder_buffered_;
  }
  [[nodiscard]] std::size_t transmissions() const { return transmissions_; }
  /// Retransmit-timer expiries that found a timed-out packet (each one
  /// retransmits at least one packet). Zero in a loss-free run whose acks
  /// return within the timeout: the cumulative ack cancels the timer first.
  [[nodiscard]] std::size_t retransmit_timer_fires() const {
    return retransmit_timer_fires_;
  }
  [[nodiscard]] Time delay_ms() const { return delay_ms_; }

  /// No unacked packets, no armed retransmit timer, no in-flight data or
  /// ack events, and no surfaced fault: every scheduled lambda capturing
  /// `this` has fired, so the channel can be destroyed safely. Lets the
  /// control plane reclaim channels whose endpoints were retired by a
  /// reconfiguration (a still-returning final ack just postpones the
  /// reclaim to a later compaction pass).
  [[nodiscard]] bool quiescent() const {
    return out_.empty() && !timer_.valid() && pending_events_ == 0 &&
           !fault_.has_value();
  }

 private:
  struct OutPacket {
    T payload;
    /// When this packet times out (last transmission + current backoff).
    Time deadline;
    std::uint32_t attempts = 0;  ///< retransmissions so far
  };

  /// The sender-side slot for `seq`; valid only while seq is unacked.
  [[nodiscard]] OutPacket& out_slot(std::uint64_t seq) {
    DECSEQ_CHECK(seq >= send_base_ && seq - send_base_ < out_.size());
    return out_[static_cast<std::size_t>(seq - send_base_)];
  }

  /// Launch one transmission of `seq`; true iff it got onto the wire.
  bool transmit(std::uint64_t seq) {
    ++transmissions_;
    if (link_down_) return false;  // severed at launch
    // An instant hop samples its receiver at launch too, so no data event
    // is scheduled only to die on arrival.
    if (instant_ && receiver_down_) return false;
    // The loss coin is only tossed when loss is possible: a loss-free
    // channel consumes no randomness per packet, so its RNG stream position
    // is independent of traffic volume (and the hot path skips a draw).
    if (options_.loss_probability > 0.0 &&
        rng_->next_bool(options_.loss_probability)) {
      return false;  // dropped
    }
    ++pending_events_;
    sim_->schedule_after(delay_ms_, [this, seq] {
      --pending_events_;
      on_data(seq);
    });
    return true;
  }

  /// Delay before retransmission `attempts` of a packet fires again:
  /// exponential in the attempt count, capped, jittered. Consumes one RNG
  /// draw — only ever called on the (rare) retransmit path.
  [[nodiscard]] Time backoff_delay(std::uint32_t attempts) {
    const double cap =
        options_.retransmit_timeout_ms * options_.max_backoff_factor;
    double delay = options_.retransmit_timeout_ms;
    for (std::uint32_t i = 1; i < attempts && delay < cap; ++i) {
      delay *= options_.backoff_factor;
    }
    delay = std::min(delay, cap);
    return delay * (1.0 + rng_->next_double() * options_.backoff_jitter);
  }

  void arm_timer(Time deadline) {
    timer_ = sim_->schedule_at(deadline, [this] { on_timer(); });
  }

  /// The channel's single retransmit timer expired. Retransmit every
  /// packet whose deadline passed, then re-arm at the earliest remaining
  /// deadline. The timer is armed at (or before) the true earliest
  /// deadline; an early expiry — possible after acks released the packets
  /// it was armed for — just re-arms. A packet crossing its retransmission
  /// budget flips the channel into the fault state (once) but keeps
  /// probing at the capped cadence.
  void on_timer() {
    timer_ = Simulator::TimerId();
    if (out_.empty()) return;  // raced with the draining ack
    const Time now = sim_->now();
    bool any_due = false;
    Time earliest = std::numeric_limits<Time>::infinity();
    for (std::size_t i = 0; i < out_.size(); ++i) {
      OutPacket& packet = out_[i];
      if (packet.deadline <= now) {
        any_due = true;
        const std::uint32_t attempts = ++packet.attempts;
        if (attempts > options_.max_retransmits && !fault_.has_value()) {
          fault_ = ChannelFault{send_base_ + i, attempts, now};
          ++faults_entered_;
          if (on_fault_) on_fault_(*fault_);
        }
        transmit(send_base_ + i);
        packet.deadline = now + backoff_delay(attempts);
      }
      if (packet.deadline < earliest) earliest = packet.deadline;
    }
    if (any_due) ++retransmit_timer_fires_;
    // Once faulted with the endpoint *known* down (receiver crashed, link
    // severed), further probes are pointless and would keep the simulator
    // busy forever on an unrecovered outage: park until the recovery
    // notification resumes the channel. A fault with neither flag set
    // (pure loss exhausted the budget) keeps probing — only a delivered
    // probe can clear it.
    if (fault_.has_value() && (receiver_down_ || link_down_)) return;
    arm_timer(earliest);
  }

  /// Recovery notification (link or receiver back up): clear any fault,
  /// reset every packet's attempt budget, and retransmit the whole unacked
  /// window now instead of waiting out the current (possibly capped)
  /// backoff.
  void resume() {
    fault_.reset();
    if (out_.empty()) return;
    const Time now = sim_->now();
    for (std::size_t i = 0; i < out_.size(); ++i) {
      out_[i].attempts = 0;
      out_[i].deadline = now + options_.retransmit_timeout_ms;
      transmit(send_base_ + i);
    }
    if (timer_.valid()) {
      sim_->cancel(timer_);
      timer_ = Simulator::TimerId();
    }
    arm_timer(now + options_.retransmit_timeout_ms);
  }

  void on_data(std::uint64_t seq) {
    // A transmission with flight time samples the link and the receiver
    // again on arrival: it dies inside a partition (arrival-time cut) or at
    // a crashed endpoint (silence, no ack). An instant one was sampled at
    // launch.
    if (!instant_ && (link_down_ || receiver_down_)) return;
    // Fast path — the loss-free steady state: the next expected packet
    // arrives and nothing is parked behind it, so it goes straight to the
    // application without touching the reorder window.
    if (seq == next_deliver_seq_ && reorder_.empty()) {
      ++next_deliver_seq_;
      // Move the payload out before the receiver runs: a receiver that
      // sends on this channel may grow out_ underneath a reference into it.
      T payload = std::move(out_slot(seq).payload);
      deliver_(std::move(payload));
      acknowledge(next_deliver_seq_);
      return;
    }
    // Ack everything received so far (cumulative), even duplicates, so a
    // lost ack is repaired by the next arrival.
    if (seq >= next_deliver_seq_) {
      const std::size_t index =
          static_cast<std::size_t>(seq - next_deliver_seq_);
      if (index >= reorder_.size()) reorder_.resize(index + 1);
      if (!reorder_[index].has_value()) {
        // The payload still lives in the sender's (unacked) output buffer;
        // move it across the simulated wire. A later duplicate transmission
        // is ignored above, so the moved-from slot is never read again.
        reorder_[index].emplace(std::move(out_slot(seq).payload));
        ++reorder_buffered_;
      }
    }
    while (!reorder_.empty() && reorder_.front().has_value()) {
      T payload = std::move(*reorder_.front());
      reorder_.pop_front();
      --reorder_buffered_;
      ++next_deliver_seq_;
      deliver_(std::move(payload));
    }
    acknowledge(next_deliver_seq_);
  }

  /// Tell the sender the receiver consumed everything below `cumulative`:
  /// an instant hop's sender shares the receiver's instant and releases
  /// at once, any other hears it from an ack after the channel delay.
  void acknowledge(std::uint64_t cumulative) {
    if (instant_) {
      release(cumulative);
      return;
    }
    if (link_down_) return;
    if (options_.loss_probability > 0.0 &&
        rng_->next_bool(options_.loss_probability)) {
      return;  // the ack dropped
    }
    ++pending_events_;
    sim_->schedule_after(delay_ms_, [this, cumulative] {
      --pending_events_;
      if (link_down_) return;  // the ack died inside the partition
      release(cumulative);
    });
  }

  /// Release every packet the receiver has consumed; once nothing is left
  /// unacked, disarm the retransmit timer — acked packets never wake the
  /// simulator again — and clear any fault: the "lost" window made it
  /// through after all.
  void release(std::uint64_t cumulative) {
    while (!out_.empty() && send_base_ < cumulative) {
      out_.pop_front();
      ++send_base_;
    }
    if (out_.empty()) {
      fault_.reset();
      if (timer_.valid()) {
        sim_->cancel(timer_);
        timer_ = Simulator::TimerId();
      }
    }
  }

  Simulator* sim_;
  Rng* rng_;
  Time delay_ms_;
  ChannelOptions options_;
  DeliverFn deliver_;
  FaultFn on_fault_;

  std::uint64_t next_send_seq_ = 0;
  std::uint64_t next_deliver_seq_ = 0;
  /// Sequence number of out_.front() (the lowest unacked packet).
  std::uint64_t send_base_ = 0;
  bool receiver_down_ = false;
  bool link_down_ = false;
  /// Delay 0 and loss-free: launches are sampled once and need no acks or
  /// timers (see "Failure model"). Beside the other flags, so it costs no
  /// bytes.
  const bool instant_;
  /// Output retransmission buffer, contiguous [send_base_, next_send_seq_).
  common::RingBuffer<OutPacket> out_;
  /// Receiver reorder window, slot i holds sequence next_deliver_seq_ + i.
  common::RingBuffer<std::optional<T>> reorder_;
  /// The channel's single retransmit timer (invalid when disarmed). Armed
  /// at or before the earliest outstanding deadline whenever out_ is
  /// non-empty.
  Simulator::TimerId timer_;
  /// Set while some packet has exhausted max_retransmits and the buffer
  /// has neither drained nor been resumed by a recovery notification.
  std::optional<ChannelFault> fault_;
  std::size_t faults_entered_ = 0;
  std::size_t reorder_buffered_ = 0;
  /// Scheduled data/ack events that have not fired yet (each captures
  /// `this`); part of the quiescent() destruction-safety predicate.
  std::size_t pending_events_ = 0;
  std::size_t transmissions_ = 0;
  std::size_t retransmit_timer_fires_ = 0;
};

}  // namespace decseq::sim
