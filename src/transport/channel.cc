#include "transport/channel.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

namespace decseq::transport {

// --- SendChannel ---------------------------------------------------------

SendChannel::SendChannel(Transport& transport, Rng& rng, EdgeId edge,
                         ChannelOptions options)
    : transport_(&transport), rng_(&rng), edge_(edge), options_(options) {
  DECSEQ_CHECK(std::isfinite(options_.retransmit_timeout_ms) &&
               options_.retransmit_timeout_ms > 0.0);
  DECSEQ_CHECK(options_.backoff_factor >= 1.0);
  DECSEQ_CHECK(options_.max_backoff_factor >= 1.0);
  DECSEQ_CHECK(options_.backoff_jitter >= 0.0);
}

SendChannel::~SendChannel() {
  if (timer_.valid()) transport_->cancel(timer_);
}

void SendChannel::send(const std::uint8_t* payload, std::size_t size,
                       std::uint8_t flags) {
  const std::uint64_t seq = next_send_seq_++;
  OutPacket packet;
  packet.frame = frames_.acquire(kFrameHeaderBytes + size);
  encode_frame(packet.frame.data(), FrameType::kData, flags, edge_, seq,
               payload, size);
  packet.deadline = transport_->now_ms() + options_.retransmit_timeout_ms;
  ++transmissions_;
  transport_->send(edge_, packet.frame.data(), packet.frame.size());
  out_.push_back(std::move(packet));
  if (!timer_.valid()) arm_timer(out_.back().deadline);
}

bool SendChannel::on_ack(std::uint64_t cumulative) {
  if (cumulative > next_send_seq_) return false;
  while (!out_.empty() && send_base_ < cumulative) {
    frames_.release(std::move(out_.front().frame));
    out_.pop_front();
    ++send_base_;
  }
  if (out_.empty()) {
    // The whole window made it through: any surfaced fault is over, and
    // acked packets must never wake the timer again.
    fault_.reset();
    if (timer_.valid()) {
      transport_->cancel(timer_);
      timer_ = Transport::TimerId();
    }
  }
  return true;
}

double SendChannel::backoff_delay(std::uint32_t attempts) {
  const double cap =
      options_.retransmit_timeout_ms * options_.max_backoff_factor;
  double delay = options_.retransmit_timeout_ms;
  for (std::uint32_t i = 1; i < attempts && delay < cap; ++i) {
    delay *= options_.backoff_factor;
  }
  delay = std::min(delay, cap);
  return delay * (1.0 + rng_->next_double() * options_.backoff_jitter);
}

void SendChannel::arm_timer(double deadline) {
  const double now = transport_->now_ms();
  timer_ = transport_->schedule_after(std::max(0.0, deadline - now),
                                      [this] { on_timer(); });
}

void SendChannel::on_timer() {
  timer_ = Transport::TimerId();
  if (out_.empty()) return;  // raced with the draining ack
  const double now = transport_->now_ms();
  bool any_due = false;
  double earliest = std::numeric_limits<double>::infinity();
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
      ++transmissions_;
      transport_->send(edge_, packet.frame.data(), packet.frame.size());
      packet.deadline = now + backoff_delay(attempts);
    }
    if (packet.deadline < earliest) earliest = packet.deadline;
  }
  if (any_due) ++retransmit_timer_fires_;
  // Unlike the simulator channel there is no known-down oracle to park on:
  // a faulted channel keeps probing at the capped cadence — a fault is a
  // status, never a wedge — until an ack drains the window.
  arm_timer(earliest);
}

// --- RecvChannel ---------------------------------------------------------

RecvChannel::RecvChannel(Transport& transport, EdgeId edge, DeliverFn deliver)
    : transport_(&transport), edge_(edge), deliver_(std::move(deliver)) {
  DECSEQ_CHECK(deliver_ != nullptr);
}

bool RecvChannel::on_data(std::uint64_t seq, std::uint8_t flags,
                          const std::uint8_t* payload, std::size_t size) {
  if (seq < next_deliver_seq_) {
    // Retransmit-induced duplicate of something already delivered: the ack
    // that released it was lost. Re-ack, drop.
    ++duplicates_;
    send_ack();
    return true;
  }
  const std::uint64_t ahead = seq - next_deliver_seq_;
  if (ahead >= kMaxReorderWindow) {
    // Beyond the reorder window: drop, but still send the cumulative ack.
    // A sender that legitimately ran a full window ahead of a stalled head
    // learns where the receiver actually is and stops retransmitting the
    // packets below it; staying silent here turned one stall into a
    // full-window retransmit storm (every dropped packet kept its timer).
    ++window_overruns_;
    send_ack();
    return false;
  }
  // Fast path: the next expected packet with nothing parked behind it.
  if (ahead == 0 && reorder_.empty()) {
    ++next_deliver_seq_;
    ++delivered_;
    deliver_(payload, size, flags);
    send_ack();
    return true;
  }
  const std::size_t index = static_cast<std::size_t>(ahead);
  if (index >= reorder_.size()) reorder_.resize(index + 1);
  if (!reorder_[index].has_value()) {
    Parked parked;
    parked.flags = flags;
    parked.payload = parked_.acquire(size);
    std::copy_n(payload, size, parked.payload.data());
    reorder_[index].emplace(std::move(parked));
    ++reorder_buffered_;
  } else {
    ++duplicates_;
  }
  while (!reorder_.empty() && reorder_.front().has_value()) {
    Parked parked = std::move(*reorder_.front());
    reorder_.pop_front();
    --reorder_buffered_;
    ++next_deliver_seq_;
    ++delivered_;
    deliver_(parked.payload.data(), parked.payload.size(), parked.flags);
    parked_.release(std::move(parked.payload));
  }
  send_ack();
  return true;
}

void RecvChannel::send_ack() {
  std::array<std::uint8_t, kFrameHeaderBytes> frame;
  encode_frame(frame.data(), FrameType::kAck, 0, edge_, next_deliver_seq_);
  transport_->send(edge_, frame.data(), frame.size());
}

// --- ChannelSet ----------------------------------------------------------

void ChannelSet::add_sender(SendChannel* channel) {
  DECSEQ_CHECK(channel != nullptr);
  DECSEQ_CHECK_MSG(senders_.insert(channel->edge(), channel),
                   "duplicate sender for edge " << channel->edge());
}

void ChannelSet::add_receiver(RecvChannel* channel) {
  DECSEQ_CHECK(channel != nullptr);
  DECSEQ_CHECK_MSG(receivers_.insert(channel->edge(), channel),
                   "duplicate receiver for edge " << channel->edge());
}

bool ChannelSet::handle(const std::uint8_t* data, std::size_t size,
                        const Origin& origin) {
  const std::optional<Frame> frame = decode_frame(data, size);
  if (!frame.has_value()) {
    ++rejected_;
    return false;
  }
  switch (frame->type) {
    case FrameType::kData: {
      RecvChannel* const* receiver = receivers_.find(frame->edge);
      if (receiver == nullptr ||
          !(*receiver)->on_data(frame->seq, frame->flags, frame->payload,
                                frame->payload_size)) {
        break;
      }
      ++accepted_;
      return true;
    }
    case FrameType::kAck: {
      SendChannel* const* sender = senders_.find(frame->edge);
      if (sender == nullptr || !(*sender)->on_ack(frame->seq)) break;
      ++accepted_;
      return true;
    }
    case FrameType::kJoin:
    case FrameType::kPeers:
      if (control_) {
        control_(*frame, origin);
        ++accepted_;
        return true;
      }
      break;
  }
  ++rejected_;
  return false;
}

}  // namespace decseq::transport
