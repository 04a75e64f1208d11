#include "transport/channel.h"

#include <algorithm>
#include <array>
#include <optional>
#include <utility>

namespace decseq::transport {

// --- SendChannel ---------------------------------------------------------

SendChannel::SendChannel(Transport& transport, Rng& rng, EdgeId edge,
                         ChannelOptions options)
    : SendWindow(options), transport_(&transport), rng_(&rng), edge_(edge) {
  DECSEQ_CHECK(options.loss_probability == 0.0);
}

SendChannel::~SendChannel() {
  if (timer_.valid()) transport_->cancel(timer_);
}

void SendChannel::send(const std::uint8_t* payload, std::size_t size,
                       std::uint8_t flags) {
  auto [seq, packet] = push(transport_->now_ms());
  packet.slot = frames_.acquire(kFrameHeaderBytes + size);
  encode_frame(packet.slot.data(), FrameType::kData, flags, edge_, seq,
               payload, size);
  transport_->send(edge_, packet.slot.data(), packet.slot.size());
  if (!timer_.valid()) arm_timer(packet.deadline);
}

bool SendChannel::on_ack(std::uint64_t cumulative) {
  if (!release(cumulative, [this](common::BufferPool::Buffer& frame) {
        frames_.release(std::move(frame));
      })) {
    return false;
  }
  // Acked packets must never wake the timer again.
  if (unacked() == 0 && timer_.valid()) {
    transport_->cancel(timer_);
    timer_ = Transport::TimerId();
  }
  return true;
}

void SendChannel::arm_timer(double deadline) {
  const double now = transport_->now_ms();
  timer_ = transport_->schedule_after(std::max(0.0, deadline - now),
                                      [this] { on_timer(); });
}

void SendChannel::on_timer() {
  timer_ = Transport::TimerId();
  if (unacked() == 0) return;  // raced with the draining ack
  // Unlike the simulator channel there is no known-down oracle to park on:
  // a faulted channel keeps probing at the capped cadence — a fault is a
  // status, never a wedge — until an ack drains the window.
  arm_timer(expire(transport_->now_ms(), *rng_,
                   [this](std::uint64_t, common::BufferPool::Buffer& frame) {
                     transport_->send(edge_, frame.data(), frame.size());
                   }));
}

// --- RecvChannel ---------------------------------------------------------

RecvChannel::RecvChannel(Transport& transport, EdgeId edge, DeliverFn deliver)
    : transport_(&transport), edge_(edge), deliver_(std::move(deliver)) {
  DECSEQ_CHECK(deliver_ != nullptr);
}

bool RecvChannel::on_data(std::uint64_t seq, std::uint8_t flags,
                          const std::uint8_t* payload, std::size_t size) {
  if (seq >= next_deliver_seq() &&
      seq - next_deliver_seq() >= kMaxReorderWindow) {
    // Beyond the reorder window: drop, but still send the cumulative ack.
    // A sender that legitimately ran a full window ahead of a stalled head
    // learns where the receiver actually is and stops retransmitting the
    // packets below it; staying silent here turned one stall into a
    // full-window retransmit storm (every dropped packet kept its timer).
    ++window_overruns_;
    send_ack(next_deliver_seq());
    return false;
  }
  const bool fresh = arrive(
      seq,
      [&] {
        ++delivered_;
        deliver_(payload, size, flags);
      },
      [&] {
        ParkedPayload parked;
        parked.flags = flags;
        parked.payload = parked_.acquire(size);
        std::copy_n(payload, size, parked.payload.data());
        return parked;
      },
      [this](ParkedPayload&& parked) {
        ++delivered_;
        deliver_(parked.payload.data(), parked.payload.size(), parked.flags);
        parked_.release(std::move(parked.payload));
      },
      [this](std::uint64_t cumulative) { send_ack(cumulative); });
  // A retransmit-induced duplicate: the ack that released it was lost, and
  // the arrival's ack repairs that.
  if (!fresh) ++duplicates_;
  return true;
}

void RecvChannel::send_ack(std::uint64_t cumulative) {
  std::array<std::uint8_t, kFrameHeaderBytes> frame;
  encode_frame(frame.data(), FrameType::kAck, 0, edge_, cumulative);
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
