// Reliable FIFO point-to-point channel (paper §3.1) on the simulator.
//
// The algorithm (numbering, the output retransmission ring, one
// earliest-deadline timer, capped jittered backoff, the fault budget,
// cumulative acks, the reorder ring) lives in common/channel_window.h; this
// channel holds both of its halves in one object and supplies the simulated
// wire. A payload moves into its output slot on send and out of it on
// delivery (or into the reorder ring, when it arrives ahead of a gap): it
// is never copied. Transmissions and acks cross the channel's propagation
// delay as simulator events, each tossing the options' loss coin. With loss
// probability 0 (the experiment configuration) the channel degenerates to
// a pure propagation-delay pipe; tests inject loss to exercise recovery.
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
//  * An exhausted retransmission budget surfaces a fault and never aborts.
//    Once faulted with the endpoint *known* down (receiver crashed, link
//    severed), the channel parks its timer until the recovery notification:
//    further probes are pointless and would keep the simulator busy forever
//    on an unrecovered outage. A fault with neither flag set (pure loss
//    exhausted the budget) keeps probing, since only a delivered probe can
//    clear it.
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

#include <functional>
#include <utility>

#include "common/channel_window.h"
#include "common/check.h"
#include "common/rng.h"
#include "sim/simulator.h"

namespace decseq::sim {

/// One-directional reliable FIFO channel carrying payloads of type T.
template <typename T>
class Channel : public SendWindow<T>, public ReorderWindow<T> {
 public:
  /// Receives each payload by rvalue reference to a local the channel
  /// owns for the call, never to a slot of its buffers.
  using DeliverFn = std::function<void(T&&)>;

  Channel(Simulator& sim, Rng& rng, Time delay_ms, ChannelOptions options = {})
      : SendWindow<T>(options),
        sim_(&sim),
        rng_(&rng),
        delay_ms_(delay_ms),
        instant_(delay_ms == 0.0 && options.loss_probability == 0.0) {
    DECSEQ_CHECK(delay_ms >= 0.0);
  }

  /// Re-arm a quiescent channel as a new one on `sim` and `rng` with
  /// `delay_ms` and `options`: sequence numbers, counters, outage flags and
  /// both callbacks start over, the buffers keep their capacity. Lets the
  /// control plane reuse a channel it reclaimed instead of allocating one.
  void reset(Simulator& sim, Rng& rng, Time delay_ms,
             const ChannelOptions& options) {
    DECSEQ_CHECK(quiescent());
    DECSEQ_CHECK(delay_ms >= 0.0);
    SendWindow<T>::reset(options);
    ReorderWindow<T>::reset();
    sim_ = &sim;
    rng_ = &rng;
    delay_ms_ = delay_ms;
    instant_ = delay_ms == 0.0 && options.loss_probability == 0.0;
    deliver_ = nullptr;
    receiver_down_ = false;
    link_down_ = false;
  }

  /// Install the receiver callback; payloads arrive in send order,
  /// exactly once.
  void set_receiver(DeliverFn deliver) { deliver_ = std::move(deliver); }

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
    auto [seq, packet] = this->push(sim_->now());
    packet.slot = std::move(payload);
    // An instant launch that gets through is delivered and released within
    // this instant: no timer for it could ever fire (see "Failure model").
    if (transmit(seq) && instant_) return;
    if (!timer_.valid()) arm_timer(packet.deadline);
  }
  void send(const T& payload) { send(T(payload)); }

  [[nodiscard]] Time delay_ms() const { return delay_ms_; }

  /// No unacked packets, no armed retransmit timer, no in-flight data or
  /// ack events, and no surfaced fault: every scheduled lambda capturing
  /// `this` has fired, so the channel can be destroyed safely. Lets the
  /// control plane reclaim channels whose endpoints were retired by a
  /// reconfiguration (a still-returning final ack just postpones the
  /// reclaim to a later compaction pass).
  [[nodiscard]] bool quiescent() const {
    return this->unacked() == 0 && !timer_.valid() && pending_events_ == 0 &&
           !this->faulted();
  }

 private:
  /// Launch one transmission of `seq`; true iff it got onto the wire.
  bool transmit(std::uint64_t seq) {
    if (link_down_) return false;  // severed at launch
    // An instant hop samples its receiver at launch too, so no data event
    // is scheduled only to die on arrival.
    if (instant_ && receiver_down_) return false;
    if (lost()) return false;
    ++pending_events_;
    sim_->schedule_after(delay_ms_, [this, seq] {
      --pending_events_;
      on_data(seq);
    });
    return true;
  }

  /// The loss coin is only tossed when loss is possible: a loss-free
  /// channel consumes no randomness per packet, so its RNG stream position
  /// is independent of traffic volume (and the hot path skips a draw).
  [[nodiscard]] bool lost() {
    const double loss = this->options().loss_probability;
    return loss > 0.0 && rng_->next_bool(loss);
  }

  void arm_timer(Time deadline) {
    timer_ = sim_->schedule_at(deadline, [this] { on_timer(); });
  }

  void on_timer() {
    timer_ = Simulator::TimerId();
    if (this->unacked() == 0) return;  // raced with the draining ack
    const Time earliest = this->expire(
        sim_->now(), *rng_, [this](std::uint64_t seq, T&) { transmit(seq); });
    if (this->faulted() && (receiver_down_ || link_down_)) return;  // park
    arm_timer(earliest);
  }

  /// Recovery notification (link or receiver back up): clear any fault,
  /// reset every packet's attempt budget, and retransmit the whole unacked
  /// window now instead of waiting out the current (possibly capped)
  /// backoff.
  void resume() {
    const Time now = sim_->now();
    this->restart(now, [this](std::uint64_t seq) { transmit(seq); });
    if (this->unacked() == 0) return;
    if (timer_.valid()) sim_->cancel(timer_);
    arm_timer(now + this->options().retransmit_timeout_ms);
  }

  void on_data(std::uint64_t seq) {
    // A transmission with flight time samples the link and the receiver
    // again on arrival: it dies inside a partition (arrival-time cut) or at
    // a crashed endpoint (silence, no ack). An instant one was sampled at
    // launch.
    if (!instant_ && (link_down_ || receiver_down_)) return;
    // The payload still lives in the sender's (unacked) output slot; it
    // moves out across the simulated wire. A duplicate transmission is
    // never delivered or parked, so a moved-from slot is never read again.
    this->arrive(
        seq,
        [this, seq] {
          // Move the payload out before the receiver runs: a receiver that
          // sends on this channel may grow the output ring underneath a
          // reference into it.
          T payload = std::move(this->slot(seq));
          deliver_(std::move(payload));
        },
        [this, seq]() -> T&& { return std::move(this->slot(seq)); },
        [this](T&& payload) { deliver_(std::move(payload)); },
        [this](std::uint64_t cumulative) { acknowledge(cumulative); });
  }

  /// Tell the sender the receiver consumed everything below `cumulative`:
  /// an instant hop's sender shares the receiver's instant and releases
  /// at once, any other hears it from an ack after the channel delay.
  void acknowledge(std::uint64_t cumulative) {
    if (instant_) {
      on_ack(cumulative);
      return;
    }
    if (link_down_ || lost()) return;  // the ack is cut or dropped
    ++pending_events_;
    sim_->schedule_after(delay_ms_, [this, cumulative] {
      --pending_events_;
      if (link_down_) return;  // the ack died inside the partition
      on_ack(cumulative);
    });
  }

  /// Release every packet the receiver has consumed; once nothing is left
  /// unacked, disarm the retransmit timer: acked packets never wake the
  /// simulator again.
  void on_ack(std::uint64_t cumulative) {
    this->release(cumulative, [](T&) {});
    if (this->unacked() == 0 && timer_.valid()) {
      sim_->cancel(timer_);
      timer_ = Simulator::TimerId();
    }
  }

  Simulator* sim_;
  Rng* rng_;
  Time delay_ms_;
  DeliverFn deliver_;
  /// The channel's single retransmit timer (invalid when disarmed). Armed
  /// at or before the earliest outstanding deadline whenever a packet is
  /// unacked, except after an instant launch that got through.
  Simulator::TimerId timer_;
  /// Scheduled data/ack events that have not fired yet (each captures
  /// `this`); part of the quiescent() destruction-safety predicate.
  std::size_t pending_events_ = 0;
  bool receiver_down_ = false;
  bool link_down_ = false;
  /// Delay 0 and loss-free: launches are sampled once and need no acks or
  /// timers (see "Failure model").
  bool instant_;
};

}  // namespace decseq::sim
