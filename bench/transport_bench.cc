// Transport-layer microbenchmark: the real-socket data path added with the
// decseqd daemon, measured against the simulator backend it must stay
// sequence-equivalent to.
//
// Three measurements, written to BENCH_transport.json (path overridable
// via DECSEQ_BENCH_JSON):
//  1. frame_codec — encode+decode throughput of the 24-byte CRC-framed
//     datagram header around a typical sequenced-message payload, in
//     frames/sec. This prices the per-datagram integrity tax (CRC-32 over
//     the whole frame) that the UDP backend pays and the simulator does
//     not.
//  2. sim_channel — reliable-channel throughput (SendChannel→RecvChannel)
//     over the simulator backend on a lossless edge: wall-clock
//     messages/sec for an in-order exactly-once stream, i.e. the
//     transport-interface overhead with zero kernel involvement.
//  3. udp_loopback — the identical channel pair over two real UDP sockets
//     on 127.0.0.1, poll-loop driven: wall-clock messages/sec end to end
//     through sendto/recvfrom, ack traffic included. The ratio to
//     sim_channel is the price of real sockets, not of the protocol.
//
// Environment knobs:
//   DECSEQ_BENCH_SCALE — message-count multiplier (default 1; CI uses a
//                        small value — the smoke test checks structure,
//                        not numbers)
//   DECSEQ_BENCH_REPS  — repetitions, best-of reported (default 3)
//   DECSEQ_BENCH_JSON  — output path for BENCH_transport.json
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/rng.h"
#include "protocol/codec.h"
#include "protocol/message.h"
#include "sim/simulator.h"
#include "transport/channel.h"
#include "transport/frame.h"
#include "transport/sim_transport.h"
#include "transport/udp_transport.h"

namespace decseq::bench {
namespace {

using Clock = std::chrono::steady_clock;

/// The channel options both channel benches run with: a 50 ms timeout.
const ChannelOptions kOptions{.retransmit_timeout_ms = 50.0};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A representative wire payload: a sequenced message with two stamps and
/// a small body, through the pinned message codec.
std::vector<std::uint8_t> sample_payload() {
  protocol::MessageSpec spec;
  spec.id = MsgId(12345);
  spec.group = GroupId(17);
  spec.sender = NodeId(42);
  spec.group_seq = 1000;
  spec.payload = 77;
  spec.body = {0xde, 0xad, 0xbe, 0xef};
  protocol::StampVec stamps;
  stamps.push_back({AtomId(3), 512});
  stamps.push_back({AtomId(9), 640});
  return protocol::encode_message(
      protocol::Message::make(std::move(spec), std::move(stamps)));
}

double bench_frame_codec(std::size_t frames) {
  const std::vector<std::uint8_t> payload = sample_payload();
  std::uint64_t checksum = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < frames; ++i) {
    const std::vector<std::uint8_t> wire = transport::encode_frame(
        transport::FrameType::kData, 0, /*edge=*/7, /*seq=*/i, payload.data(),
        payload.size());
    const auto frame = transport::decode_frame(wire.data(), wire.size());
    DECSEQ_CHECK(frame.has_value());
    checksum += frame->seq + frame->payload_size;
  }
  const double elapsed = seconds_since(start);
  DECSEQ_CHECK(checksum != 0);
  return static_cast<double>(frames) / elapsed;
}

double bench_sim_channel(std::size_t messages) {
  sim::Simulator sim;
  transport::SimNet net(sim, /*seed=*/2026);
  net.add_endpoints(2);
  net.add_edge(/*id=*/1, 0, 1);
  Rng rng(7);
  transport::SendChannel sender(net.endpoint(0), rng, /*edge=*/1, kOptions);
  std::size_t delivered = 0;
  transport::RecvChannel receiver(
      net.endpoint(1), /*edge=*/1,
      [&delivered](const std::uint8_t*, std::size_t, std::uint8_t) {
        ++delivered;
      });
  transport::ChannelSet set_send, set_recv;
  set_send.add_sender(&sender);
  set_recv.add_receiver(&receiver);
  net.endpoint(0).set_datagram_sink(
      [&set_send](const std::uint8_t* d, std::size_t n,
                  const transport::Origin& o) { set_send.handle(d, n, o); });
  net.endpoint(1).set_datagram_sink(
      [&set_recv](const std::uint8_t* d, std::size_t n,
                  const transport::Origin& o) { set_recv.handle(d, n, o); });

  const std::vector<std::uint8_t> payload = sample_payload();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < messages; ++i) {
    sender.send(payload.data(), payload.size());
    sim.run();
  }
  const double elapsed = seconds_since(start);
  DECSEQ_CHECK(delivered == messages);
  DECSEQ_CHECK(sender.unacked() == 0);
  return static_cast<double>(messages) / elapsed;
}

double bench_udp_loopback(std::size_t messages) {
  transport::UdpTransport a("127.0.0.1", 0);
  transport::UdpTransport b("127.0.0.1", 0);
  a.add_edge(/*edge=*/1, b.local_addr());
  b.add_edge(/*edge=*/1, a.local_addr());
  Rng rng(7);
  transport::SendChannel sender(a, rng, /*edge=*/1, kOptions);
  std::size_t delivered = 0;
  transport::RecvChannel receiver(
      b, /*edge=*/1,
      [&delivered](const std::uint8_t*, std::size_t, std::uint8_t) {
        ++delivered;
      });
  transport::ChannelSet set_send, set_recv;
  set_send.add_sender(&sender);
  set_recv.add_receiver(&receiver);
  a.set_datagram_sink([&set_send](const std::uint8_t* d, std::size_t n,
                                  const transport::Origin& o) {
    set_send.handle(d, n, o);
  });
  b.set_datagram_sink([&set_recv](const std::uint8_t* d, std::size_t n,
                                  const transport::Origin& o) {
    set_recv.handle(d, n, o);
  });

  const std::vector<std::uint8_t> payload = sample_payload();
  const auto start = Clock::now();
  // Windowed pipelining: keep a bounded burst in flight so the benchmark
  // measures the channel, not a ping-pong RTT chain — but stay far below
  // the socket buffer so loopback never drops and the number is a
  // throughput, not a retransmission storm.
  constexpr std::size_t kWindow = 32;
  std::size_t sent = 0;
  while (delivered < messages) {
    while (sent < messages && sent - delivered < kWindow) {
      sender.send(payload.data(), payload.size());
      ++sent;
    }
    a.poll(0.0);
    b.poll(1.0);
    a.poll(0.0);
  }
  while (sender.unacked() > 0) {
    b.poll(0.0);
    a.poll(1.0);
  }
  const double elapsed = seconds_since(start);
  DECSEQ_CHECK(delivered == messages);
  return static_cast<double>(messages) / elapsed;
}

template <typename Fn>
double best_of(std::size_t reps, Fn&& fn) {
  double best = 0.0;
  for (std::size_t r = 0; r < reps; ++r) best = std::max(best, fn());
  return best;
}

}  // namespace
}  // namespace decseq::bench

int main() {
  using namespace decseq::bench;
  const std::size_t scale = env_or("DECSEQ_BENCH_SCALE", 1);
  const std::size_t reps = env_or("DECSEQ_BENCH_REPS", 3);
  const std::size_t frames = 200000 * scale;
  const std::size_t sim_msgs = 50000 * scale;
  const std::size_t udp_msgs = 20000 * scale;

  const double frame_rate =
      best_of(reps, [&] { return bench_frame_codec(frames); });
  std::printf("frame_codec: %.0f frames/s (%zu frames)\n", frame_rate,
              frames);
  const double sim_rate =
      best_of(reps, [&] { return bench_sim_channel(sim_msgs); });
  std::printf("sim_channel: %.0f msgs/s (%zu messages)\n", sim_rate,
              sim_msgs);
  const double udp_rate =
      best_of(reps, [&] { return bench_udp_loopback(udp_msgs); });
  std::printf("udp_loopback: %.0f msgs/s (%zu messages)\n", udp_rate,
              udp_msgs);
  std::printf("sim/udp ratio: %.2fx\n", sim_rate / udp_rate);

  const char* json_path = std::getenv("DECSEQ_BENCH_JSON");
  std::ofstream out(json_path != nullptr ? json_path
                                         : "BENCH_transport.json");
  out << "{\n"
      << "  \"env\": " << env_json() << ",\n"
      << "  \"scale\": " << scale << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"frame_codec_frames_per_sec\": " << frame_rate << ",\n"
      << "  \"sim_channel_msgs_per_sec\": " << sim_rate << ",\n"
      << "  \"udp_loopback_msgs_per_sec\": " << udp_rate << "\n"
      << "}\n";
  return 0;
}
