// Transport layer tests: frame wire format and robustness, reliable
// channels over the simulated fabric, a real-UDP loopback channel, and the
// in-process cluster conformance check — NodeEngine ranks over
// SimTransport replaying committed fuzz scenarios against the in-memory
// PubSubSystem (the single-process twin of tests/transport_cluster_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/fnv1a.h"
#include "common/rng.h"
#include "fuzz/repro.h"
#include "app/cluster_config.h"
#include "app/decseqd.h"
#include "app/replay.h"
#include "protocol/codec.h"
#include "sim/simulator.h"
#include "tests/test_util.h"
#include "transport/channel.h"
#include "transport/frame.h"
#include "transport/sim_transport.h"
#include "transport/udp_transport.h"

namespace decseq::transport {
namespace {

// --- Frame format --------------------------------------------------------

/// Bytewise CRC-32 (IEEE, reflected, one bit per step): the reference the
/// table-driven crc32() must match on every input.
std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t size) {
  std::vector<std::uint8_t> bytes(size);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
  return bytes;
}

TEST(Frame, Crc32MatchesIeeeCheckVector) {
  // The canonical CRC-32 check value: crc32("123456789") = 0xCBF43926
  // pins polynomial, reflection, init, and final xor all at once.
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(digits, sizeof(digits)), 0xCBF43926u);
}

TEST(Frame, Crc32ChainsIncrementally) {
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  const std::uint32_t prefix = crc32(digits, 4);
  EXPECT_EQ(crc32(digits + 4, 5, prefix), 0xCBF43926u);

  // Chained at every split point of a 300-byte buffer — every alignment
  // of the slicing loop on both sides of the seam — the CRC equals the
  // reference over the whole buffer.
  Rng rng(2027);
  const std::vector<std::uint8_t> bytes = random_bytes(rng, 300);
  const std::uint32_t whole = reference_crc32(bytes.data(), bytes.size());
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    const std::uint32_t head = crc32(bytes.data(), split);
    EXPECT_EQ(head, reference_crc32(bytes.data(), split)) << "split " << split;
    EXPECT_EQ(crc32(bytes.data() + split, bytes.size() - split, head), whole)
        << "split " << split;
  }
}

TEST(Frame, Crc32MatchesBytewiseReference) {
  // Every length 0-300 from every start offset 0-15: the eight-byte
  // slicing steps, every tail length, and every input alignment.
  Rng rng(2028);
  const std::vector<std::uint8_t> bytes = random_bytes(rng, 16 + 300);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t size = 0; size <= 300; ++size) {
      ASSERT_EQ(crc32(bytes.data() + offset, size),
                reference_crc32(bytes.data() + offset, size))
          << "offset " << offset << " size " << size;
    }
  }
}

TEST(Frame, GoldenLayout) {
  // Pin every byte position of the 24-byte header. Together with the CRC
  // check-vector test this makes the format platform-stable: any change to
  // field order, width, or endianness lands here.
  const std::uint8_t payload[] = {0xAA, 0xBB};
  const auto frame =
      encode_frame(FrameType::kData, kFrameFlagFin, /*edge=*/0x01020304,
                   /*seq=*/0x1122334455667788ULL, payload, sizeof(payload));
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + sizeof(payload));

  std::vector<std::uint8_t> expected = {
      0xDC, 0x5E,              // magic
      0x01,                    // version
      0x01,                    // type = DATA
      0x01,                    // flags = FIN
      0x00, 0x00, 0x00,        // reserved
      0x04, 0x03, 0x02, 0x01,  // edge id, little-endian
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // seq, little-endian
      0x00, 0x00, 0x00, 0x00,  // CRC placeholder (zeroed for computation)
      0xAA, 0xBB,              // payload verbatim
  };
  const std::uint32_t crc = crc32(expected.data(), expected.size());
  expected[20] = static_cast<std::uint8_t>(crc);
  expected[21] = static_cast<std::uint8_t>(crc >> 8);
  expected[22] = static_cast<std::uint8_t>(crc >> 16);
  expected[23] = static_cast<std::uint8_t>(crc >> 24);
  EXPECT_EQ(frame, expected);

  const auto decoded = decode_frame(frame.data(), frame.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, FrameType::kData);
  EXPECT_EQ(decoded->flags, kFrameFlagFin);
  EXPECT_EQ(decoded->edge, 0x01020304u);
  EXPECT_EQ(decoded->seq, 0x1122334455667788ULL);
  ASSERT_EQ(decoded->payload_size, 2u);
  EXPECT_EQ(decoded->payload[0], 0xAA);
  EXPECT_EQ(decoded->payload[1], 0xBB);
}

TEST(Frame, RejectsEveryTruncation) {
  const std::uint8_t payload[] = {1, 2, 3, 4, 5};
  const auto frame = encode_frame(FrameType::kData, 0, 7, 9, payload,
                                  sizeof(payload));
  for (std::size_t n = 0; n < frame.size(); ++n) {
    EXPECT_FALSE(decode_frame(frame.data(), n).has_value())
        << "prefix of " << n << " bytes decoded";
  }
  EXPECT_TRUE(decode_frame(frame.data(), frame.size()).has_value());
}

TEST(Frame, RejectsEveryBitFlip) {
  const std::uint8_t payload[] = {0x10, 0x20, 0x30};
  const auto frame =
      encode_frame(FrameType::kAck, 0, 123, 456, payload, sizeof(payload));
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto corrupt = frame;
      corrupt[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(decode_frame(corrupt.data(), corrupt.size()).has_value())
          << "flip of byte " << byte << " bit " << bit << " survived";
    }
  }
}

TEST(Frame, RejectsRandomGarbage) {
  Rng rng(2026);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t size = rng.next_below(81);
    std::vector<std::uint8_t> junk(size);
    for (auto& b : junk) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    const auto decoded = decode_frame(junk.data(), junk.size());
    // A random buffer passing magic + version + reserved + CRC checks is a
    // ~2^-80 event; with a fixed seed this is deterministic anyway.
    EXPECT_FALSE(decoded.has_value());
  }
}

TEST(Frame, EncodeIntoDirtyReusedBufferMatchesFresh) {
  // Frames encoded one after another into one reused buffer, larger than
  // any of them and full of the previous frames' bytes, equal a fresh
  // encode byte for byte and decode back.
  Rng rng(2029);
  std::vector<std::uint8_t> reused = random_bytes(rng, 512);
  const FrameType types[] = {FrameType::kData, FrameType::kAck,
                             FrameType::kJoin, FrameType::kPeers};
  for (int trial = 0; trial < 500; ++trial) {
    const std::vector<std::uint8_t> payload =
        random_bytes(rng, rng.next_below(200));
    const FrameType type = types[rng.next_below(4)];
    const auto flags = static_cast<std::uint8_t>(rng.next_below(256));
    const auto edge = static_cast<EdgeId>(rng());
    const std::uint64_t seq = rng();
    const auto fresh =
        encode_frame(type, flags, edge, seq, payload.data(), payload.size());
    const std::size_t size = encode_frame(reused.data(), type, flags, edge,
                                          seq, payload.data(), payload.size());
    ASSERT_EQ(size, fresh.size());
    ASSERT_TRUE(std::equal(fresh.begin(), fresh.end(), reused.begin()))
        << "trial " << trial;
    const auto decoded = decode_frame(reused.data(), size);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->type, type);
    EXPECT_EQ(decoded->flags, flags);
    EXPECT_EQ(decoded->edge, edge);
    EXPECT_EQ(decoded->seq, seq);
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(), decoded->payload,
                           decoded->payload + decoded->payload_size));
  }
}

TEST(Frame, PeersAddressBookRoundTrips) {
  const std::vector<PeerAddr> peers = {
      {0, 0x0100007F, 40001},  // 127.0.0.1 network order
      {1, 0x0100007F, 40002},
      {2, 0xFFFFFFFF, 65535},
  };
  const auto payload = encode_peers(peers);
  const auto frame = encode_frame(FrameType::kPeers, 0, 0, peers.size(),
                                  payload.data(), payload.size());
  const auto decoded = decode_frame(frame.data(), frame.size());
  ASSERT_TRUE(decoded.has_value());
  const auto book = decode_peers(*decoded);
  ASSERT_TRUE(book.has_value());
  ASSERT_EQ(book->size(), peers.size());
  for (std::size_t i = 0; i < peers.size(); ++i) {
    EXPECT_EQ((*book)[i].rank, peers[i].rank);
    EXPECT_EQ((*book)[i].ip_be, peers[i].ip_be);
    EXPECT_EQ((*book)[i].port, peers[i].port);
  }

  // A count whose byte size wraps 64 bits must be refused, not sized into
  // an allocation: 2^63 entries claim 0 bytes and 2^63 + 1 claim 10.
  const std::pair<std::uint64_t, std::size_t> wrapped[] = {
      {1ULL << 63, 0}, {(1ULL << 63) + 1, 10}};
  for (const auto& [count, bytes] : wrapped) {
    const auto forged = encode_frame(FrameType::kPeers, 0, 0, count,
                                     payload.data(), bytes);
    const auto forged_frame = decode_frame(forged.data(), forged.size());
    ASSERT_TRUE(forged_frame.has_value());
    EXPECT_FALSE(decode_peers(*forged_frame).has_value()) << "count " << count;
  }
}

// --- Reliable channels over the simulated fabric -------------------------

/// Two endpoints joined by one chaotic edge, with a channel pair on it.
struct SimLink {
  sim::Simulator sim;
  SimNet net{sim, 99};
  Rng rng{7};
  ChannelSet set_a;
  ChannelSet set_b;
  std::unique_ptr<SendChannel> sender;
  std::unique_ptr<RecvChannel> receiver;
  std::vector<std::uint64_t> received;

  explicit SimLink(SimEdgeOptions options, ChannelOptions channel = {}) {
    net.add_endpoints(2);
    net.add_edge(1, 0, 1, options);
    sender = std::make_unique<SendChannel>(net.endpoint(0), rng, 1, channel);
    receiver = std::make_unique<RecvChannel>(
        net.endpoint(1), 1,
        [this](const std::uint8_t* payload, std::size_t size, std::uint8_t) {
          std::vector<std::uint8_t> buffer(payload, payload + size);
          std::size_t offset = 0;
          const auto value = protocol::decode_varint(buffer, offset);
          ASSERT_TRUE(value.has_value());
          received.push_back(*value);
        });
    set_a.add_sender(sender.get());
    set_b.add_receiver(receiver.get());
    net.endpoint(0).set_datagram_sink(
        [this](const std::uint8_t* d, std::size_t n, const Origin& o) {
          set_a.handle(d, n, o);
        });
    net.endpoint(1).set_datagram_sink(
        [this](const std::uint8_t* d, std::size_t n, const Origin& o) {
          set_b.handle(d, n, o);
        });
  }

  void send_value(std::uint64_t value) {
    std::vector<std::uint8_t> payload;
    protocol::encode_varint(value, payload);
    sender->send(payload.data(), payload.size());
  }
};

TEST(Channel, SendChannelRejectsNonPositiveRetransmitTimeout) {
  sim::Simulator sim;
  SimNet net(sim, 99);
  net.add_endpoints(2);
  net.add_edge(1, 0, 1, SimEdgeOptions{});
  Rng rng(7);
  for (const double rto : {0.0, -5.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    ChannelOptions options;
    options.retransmit_timeout_ms = rto;
    EXPECT_THROW(SendChannel(net.endpoint(0), rng, 1, options), CheckFailure)
        << "rto " << rto;
  }
  EXPECT_EQ(sim.events_scheduled(), 0u);
}

TEST(Channel, InOrderExactlyOnceUnderLossDupAndReorder) {
  SimEdgeOptions chaos;
  chaos.loss_probability = 0.3;
  chaos.duplicate_probability = 0.15;
  chaos.jitter_ms = 2.0;  // enough to genuinely reorder in flight
  ChannelOptions options;
  options.retransmit_timeout_ms = 5.0;
  SimLink link(chaos, options);

  constexpr std::uint64_t kCount = 500;
  for (std::uint64_t i = 0; i < kCount; ++i) link.send_value(i);
  link.sim.run();

  ASSERT_EQ(link.received.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) EXPECT_EQ(link.received[i], i);
  EXPECT_EQ(link.sender->unacked(), 0u);
  EXPECT_FALSE(link.sender->faulted());
  // The chaos actually happened: more transmissions than payloads, drops
  // recorded by the fabric, and everything that arrived was accepted.
  EXPECT_GT(link.sender->transmissions(), kCount);
  EXPECT_GT(link.net.datagrams_dropped(), 0u);
  EXPECT_EQ(link.set_b.rejected(), 0u);
}

TEST(Channel, FaultSurfacesOnOutageAndClearsOnRecovery) {
  SimEdgeOptions healthy;  // default: lossless
  ChannelOptions options;
  options.retransmit_timeout_ms = 4.0;
  options.max_retransmits = 3;
  SimLink link(healthy, options);

  std::vector<ChannelFault> faults;
  link.sender->set_fault_callback(
      [&faults](const ChannelFault& fault) { faults.push_back(fault); });

  // Total outage: every datagram (data and acks alike) is lost.
  SimEdgeOptions outage;
  outage.loss_probability = 1.0;
  link.net.set_edge_options(1, outage);

  link.send_value(42);
  link.sim.run_until(link.sim.now() + 2000.0);
  ASSERT_TRUE(link.sender->faulted());
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_GT(faults[0].attempts, 3u);
  EXPECT_TRUE(link.received.empty());

  // The channel must keep probing while faulted — lift the outage and the
  // next probe delivers, the ack drains the window, the fault clears.
  link.net.set_edge_options(1, healthy);
  link.sim.run();
  ASSERT_EQ(link.received.size(), 1u);
  EXPECT_EQ(link.received[0], 42u);
  EXPECT_FALSE(link.sender->faulted());
  EXPECT_EQ(link.sender->unacked(), 0u);
}

TEST(Channel, GarbageDatagramsAreCountedNotActedOn) {
  SimLink link(SimEdgeOptions{});
  Rng rng(5);
  Origin origin;

  // Garbage of every flavor into the receiving demultiplexer: random
  // bytes, truncated real frames, bit-flipped real frames, and real frames
  // for an unknown edge.
  std::vector<std::uint8_t> payload = {0x55};
  const auto real = encode_frame(FrameType::kData, 0, 1, 0, payload.data(),
                                 payload.size());
  std::size_t fed = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> junk(rng.next_below(65));
    for (auto& b : junk) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    link.set_b.handle(junk.data(), junk.size(), origin);
    ++fed;
  }
  for (std::size_t n = 0; n < real.size(); ++n) {
    link.set_b.handle(real.data(), n, origin);
    ++fed;
  }
  for (std::size_t byte = 0; byte < real.size(); ++byte) {
    auto corrupt = real;
    corrupt[byte] ^= 0x40;
    link.set_b.handle(corrupt.data(), corrupt.size(), origin);
    ++fed;
  }
  const auto unknown_edge =
      encode_frame(FrameType::kData, 0, 999, 0, payload.data(),
                   payload.size());
  link.set_b.handle(unknown_edge.data(), unknown_edge.size(), origin);
  ++fed;

  EXPECT_EQ(link.set_b.rejected(), fed);
  EXPECT_TRUE(link.received.empty());
  EXPECT_EQ(link.receiver->next_deliver_seq(), 0u);

  // The channel still works: none of the garbage desynced anything.
  link.send_value(7);
  link.send_value(8);
  link.sim.run();
  ASSERT_EQ(link.received.size(), 2u);
  EXPECT_EQ(link.received[0], 7u);
  EXPECT_EQ(link.received[1], 8u);
}

TEST(Channel, InsaneSequenceNumberCannotSizeAnAllocation) {
  SimLink link(SimEdgeOptions{});
  Origin origin;
  std::vector<std::uint8_t> payload = {0x01};
  // A validly-framed DATA packet whose seq is absurd: beyond the reorder
  // window it must be dropped (and counted), not buffered at index 2^60.
  const auto insane = encode_frame(FrameType::kData, 0, 1, 1ULL << 60,
                                   payload.data(), payload.size());
  EXPECT_FALSE(link.set_b.handle(insane.data(), insane.size(), origin));
  EXPECT_EQ(link.set_b.rejected(), 1u);
  EXPECT_EQ(link.receiver->reorder_buffered(), 0u);

  const auto edge_of_window =
      encode_frame(FrameType::kData, 0, 1, RecvChannel::kMaxReorderWindow - 1,
                   payload.data(), payload.size());
  EXPECT_TRUE(
      link.set_b.handle(edge_of_window.data(), edge_of_window.size(), origin));
  EXPECT_EQ(link.receiver->reorder_buffered(), 1u);
}

TEST(Channel, BeyondWindowDropIsStillAckedCumulatively) {
  SimLink link(SimEdgeOptions{});
  // Advance the channel a little so the cumulative ack is distinguishable
  // from the initial zero.
  link.send_value(0);
  link.send_value(1);
  link.send_value(2);
  link.sim.run();
  ASSERT_EQ(link.receiver->next_deliver_seq(), 3u);

  // Capture every frame the receiver's endpoint sends back to the sender.
  std::vector<std::uint64_t> acks;
  link.net.endpoint(0).set_datagram_sink(
      [&acks](const std::uint8_t* d, std::size_t n, const Origin&) {
        const auto frame = decode_frame(d, n);
        ASSERT_TRUE(frame.has_value());
        if (frame->type == FrameType::kAck) acks.push_back(frame->seq);
      });

  // A packet a full window beyond the head must be dropped (never sized
  // into the reorder ring) — but the drop still produces a cumulative ack
  // of the highest-contiguous seq, so a sender stalled behind a lost head
  // learns where the receiver actually is instead of retransmitting its
  // whole window forever.
  std::vector<std::uint8_t> payload = {0x01};
  const auto beyond =
      encode_frame(FrameType::kData, 0, 1, 3 + RecvChannel::kMaxReorderWindow,
                   payload.data(), payload.size());
  Origin origin;
  EXPECT_FALSE(link.set_b.handle(beyond.data(), beyond.size(), origin));
  link.sim.run();
  EXPECT_EQ(link.receiver->window_overruns(), 1u);
  EXPECT_EQ(link.receiver->reorder_buffered(), 0u);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0], 3u);

  // The overrun desynced nothing: restore the ack path and the channel
  // keeps delivering in order.
  link.net.endpoint(0).set_datagram_sink(
      [&link](const std::uint8_t* d, std::size_t n, const Origin& o) {
        link.set_a.handle(d, n, o);
      });
  link.send_value(3);
  link.sim.run();
  ASSERT_EQ(link.received.size(), 4u);
  EXPECT_EQ(link.received.back(), 3u);
  EXPECT_EQ(link.sender->unacked(), 0u);
}

TEST(Channel, AckBeyondSentIsRejected) {
  // A CRC-valid ack above everything the sender has sent — a corrupted or
  // forged one — must not release the window. If it did, the lost seq 0
  // would never be retransmitted and the receiver would park everything
  // behind the hole forever.
  SimLink link(SimEdgeOptions{});
  SimEdgeOptions cut;
  cut.loss_probability = 1.0;
  link.net.set_edge_options(1, cut);
  link.send_value(0);  // seq 0 is lost on the wire
  link.net.set_edge_options(1, SimEdgeOptions{});

  const auto forged = encode_frame(FrameType::kAck, 0, 1, /*seq=*/1000);
  Origin origin;
  EXPECT_FALSE(link.set_a.handle(forged.data(), forged.size(), origin));
  EXPECT_EQ(link.set_a.rejected(), 1u);
  EXPECT_EQ(link.sender->unacked(), 1u);

  for (std::uint64_t v = 1; v <= 3; ++v) link.send_value(v);
  link.sim.run_until(link.sim.now() + 60000.0);
  ASSERT_EQ(link.received.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(link.received[i], i);
  EXPECT_EQ(link.receiver->reorder_buffered(), 0u);
  EXPECT_EQ(link.sender->unacked(), 0u);
  EXPECT_EQ(link.set_a.rejected(), 1u);
}

// --- Real-UDP loopback channel -------------------------------------------

TEST(UdpChannel, LoopbackDeliversInOrder) {
  UdpTransport a;
  UdpTransport b;
  a.add_edge(1, b.local_addr());
  b.add_edge(1, a.local_addr());

  Rng rng(3);
  ChannelOptions options;
  options.retransmit_timeout_ms = 5.0;
  SendChannel sender(a, rng, 1, options);
  std::vector<std::uint64_t> received;
  RecvChannel receiver(
      b, 1,
      [&received](const std::uint8_t* payload, std::size_t size,
                  std::uint8_t) {
        std::vector<std::uint8_t> buffer(payload, payload + size);
        std::size_t offset = 0;
        received.push_back(*protocol::decode_varint(buffer, offset));
      });
  ChannelSet set_a;
  ChannelSet set_b;
  set_a.add_sender(&sender);
  set_b.add_receiver(&receiver);
  a.set_datagram_sink([&set_a](const std::uint8_t* d, std::size_t n,
                               const Origin& o) { set_a.handle(d, n, o); });
  b.set_datagram_sink([&set_b](const std::uint8_t* d, std::size_t n,
                               const Origin& o) { set_b.handle(d, n, o); });

  constexpr std::uint64_t kCount = 100;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    std::vector<std::uint8_t> payload;
    protocol::encode_varint(i, payload);
    sender.send(payload.data(), payload.size());
  }
  // Real time: pump both endpoints until delivered or a generous deadline.
  const double deadline = a.now_ms() + 10000.0;
  while ((received.size() < kCount || sender.unacked() > 0) &&
         a.now_ms() < deadline) {
    a.poll(1.0);
    b.poll(1.0);
  }
  ASSERT_EQ(received.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) EXPECT_EQ(received[i], i);
  EXPECT_EQ(sender.unacked(), 0u);
  EXPECT_FALSE(sender.faulted());
}

// --- In-process cluster conformance --------------------------------------

/// (group, sender, payload) per receiver, in delivery order — the trace
/// shape both executions are reduced to.
using Trace = std::map<std::uint32_t,
                       std::vector<std::tuple<std::uint32_t, std::uint32_t,
                                              std::uint64_t>>>;

Trace reference_trace(const std::vector<pubsub::Delivery>& deliveries) {
  Trace trace;
  for (const pubsub::Delivery& d : deliveries) {
    trace[d.receiver.value()].emplace_back(d.group.value(), d.sender.value(),
                                           d.payload);
  }
  return trace;
}

/// Replay a committed fuzz scenario on `num_ranks` NodeEngines over a
/// chaotic SimNet and require the per-receiver delivery traces to equal
/// the in-memory PubSubSystem's on the same lockstep workload. Delivery
/// order is loss-invariant by design, so `timing_digest`, if given,
/// receives one FNV-1a digest of what loss does move: every delivery's
/// time, every op's drain time, the fabric's datagram counts and each
/// rank's accepted datagrams. A positive `overlap_ms` replaces the
/// lockstep drain: each op runs the simulator only that long before the
/// next is published, so several messages share a channel and the reorder
/// windows park and drain. That order no longer matches the lockstep
/// reference, so it is folded into the digest instead of compared.
void run_sim_cluster_conformance(const std::string& repro,
                                 std::uint32_t num_ranks,
                                 std::uint64_t* timing_digest = nullptr,
                                 double overlap_ms = 0.0) {
  const std::string path =
      std::string(DECSEQ_FUZZ_CORPUS_DIR) + "/" + repro;
  const fuzz::Scenario scenario = fuzz::load_repro(path);
  const app::ClusterScript script = app::script_from_scenario(scenario);
  ASSERT_FALSE(script.ops.empty());

  auto system = app::make_reference_system(script);
  const app::ClusterConfig config = app::build_cluster_config(
      *system, num_ranks, /*retransmit_timeout_ms=*/5.0,
      /*max_retransmits=*/200, /*seed=*/1234);
  const Trace expected =
      reference_trace(app::run_reference(script, *system));

  sim::Simulator sim;
  SimNet net(sim, 4321);
  net.add_endpoints(num_ranks);
  SimEdgeOptions chaos;
  chaos.loss_probability = 0.1;
  chaos.duplicate_probability = 0.05;
  chaos.jitter_ms = 1.0;
  for (const app::EdgeSpec& edge : app::build_edge_table(config)) {
    if (edge.kind == app::EdgeKind::kControlCommand ||
        edge.kind == app::EdgeKind::kControlReport ||
        edge.src_rank == edge.dst_rank) {
      continue;
    }
    net.add_edge(edge.id, edge.src_rank, edge.dst_rank, chaos);
  }

  Trace actual;
  std::uint64_t digest = kFnvOffsetBasis;
  std::vector<std::unique_ptr<ChannelSet>> sets;
  std::vector<std::unique_ptr<app::NodeEngine>> engines;
  for (std::uint32_t r = 0; r < num_ranks; ++r) {
    sets.push_back(std::make_unique<ChannelSet>());
    engines.push_back(std::make_unique<app::NodeEngine>(
        net.endpoint(r), *sets.back(), config, r,
        [&actual, &digest](NodeId receiver, const protocol::Message& m,
                           double now_ms) {
          digest = fnv1a_word(digest, receiver.value());
          digest = fnv1a_word(digest, std::bit_cast<std::uint64_t>(now_ms));
          if (m.is_fin()) return;  // the facade's log excludes FINs too
          actual[receiver.value()].emplace_back(
              m.group().value(), m.sender().value(), m.payload());
        }));
    ChannelSet* set = sets.back().get();
    net.endpoint(r).set_datagram_sink(
        [set](const std::uint8_t* d, std::size_t n, const Origin& o) {
          set->handle(d, n, o);
        });
  }

  for (const app::ScriptOp& op : script.ops) {
    const std::uint32_t rank = config.hosts[op.sender].rank;
    engines[rank]->publish(op.ordinal, NodeId(op.sender), GroupId(op.group),
                           op.ordinal,
                           op.kind == app::ScriptOp::Kind::kTerminate);
    if (overlap_ms > 0.0) {
      sim.run_until(sim.now() + overlap_ms);
    } else {
      sim.run();  // lockstep: full drain between ops
    }
    digest = fnv1a_word(digest, std::bit_cast<std::uint64_t>(sim.now()));
  }
  if (overlap_ms > 0.0) {
    sim.run();
    for (const auto& [receiver, deliveries] : actual) {
      for (const auto& [group, sender, payload] : deliveries) {
        digest = fnv1a_word(digest, receiver);
        digest = fnv1a_word(digest, group);
        digest = fnv1a_word(digest, sender);
        digest = fnv1a_word(digest, payload);
      }
    }
  }
  digest = fnv1a_word(digest, net.datagrams_delivered());
  digest = fnv1a_word(digest, net.datagrams_dropped());
  for (const auto& set : sets) digest = fnv1a_word(digest, set->accepted());
  if (timing_digest != nullptr) *timing_digest = digest;

  std::size_t delivered = 0;
  std::size_t fins = 0;
  for (std::uint32_t r = 0; r < num_ranks; ++r) {
    EXPECT_EQ(sets[r]->rejected(), 0u) << "rank " << r;
    EXPECT_EQ(engines[r]->faulted_channels(), 0u) << "rank " << r;
    delivered += engines[r]->stats().delivered;
    fins += engines[r]->stats().fins_delivered;
  }
  EXPECT_GT(delivered, 0u);
  if (overlap_ms == 0.0) {
    EXPECT_EQ(actual, expected);
  }
  (void)fins;
}

TEST(SimCluster, ConformsOnCorpusSeed7ThreeRanks) {
  run_sim_cluster_conformance("seed-7.repro", 3);
}

TEST(SimCluster, ConformsOnCorpusSeed1FourRanks) {
  run_sim_cluster_conformance("seed-1.repro", 4);
}

TEST(SimCluster, ConformsOnHostileSeed2TwoRanks) {
  run_sim_cluster_conformance("hostile-seed-2.repro", 2);
}

TEST(SimCluster, ConformsOnWholeCorpus) {
  // Every committed scenario at 2, 3 and 4 ranks, under loss, duplication
  // and reordering jitter: the retransmit, duplicate and reorder-parking
  // paths, each of which recycles buffers, run on every scenario.
  const auto files = test::corpus_files();
  ASSERT_FALSE(files.empty()) << "empty corpus in " << DECSEQ_FUZZ_CORPUS_DIR;
  for (const auto& file : files) {
    const std::string name = file.filename().string();
    for (const std::uint32_t ranks : {2u, 3u, 4u}) {
      SCOPED_TRACE(name + " at " + std::to_string(ranks) + " ranks");
      run_sim_cluster_conformance(name, ranks);
    }
  }
}

/// Timing digests of run_sim_cluster_conformance per corpus file at 2, 3
/// and 4 ranks, in lockstep and with ops kOverlapMs apart. They pin the
/// reliable channels' retransmit, reorder and ack paths (loss 0.1,
/// duplication 0.05, 1 ms jitter, rto 5 ms), which the order check above
/// cannot see; lockstep keeps one message per channel in flight, so only
/// the overlapped replay parks and drains the reorder windows. Regenerate
/// an entry only for a deliberate change of behaviour; a channel refactor
/// must leave the table untouched.
constexpr double kOverlapMs = 0.01;
struct TimingDigest {
  const char* file;
  std::uint64_t lockstep[3];    ///< at 2, 3 and 4 ranks
  std::uint64_t overlapped[3];  ///< at 2, 3 and 4 ranks
};
constexpr TimingDigest kTimingDigests[] = {
    {"hostile-seed-2.repro",
     {0xf97753d43617a460ULL, 0x3fe9be36cc8c166bULL, 0x575be9a626a0c74cULL},
     {0xff6c87003bc45677ULL, 0x59975f28497a5fb3ULL, 0xdfba1472d7a99da4ULL}},
    {"hostile-seed-9.repro",
     {0xe6ac73000dc082feULL, 0x223944e6178427d3ULL, 0x135d855c40c536ecULL},
     {0x1beb35b2e76657c4ULL, 0x73c45c80fff09dfbULL, 0xea4f8e4b0b13d2f3ULL}},
    {"seed-1.repro",
     {0x013a656c57ce29d1ULL, 0x541c92ce73323d81ULL, 0xf67b615f5bcedd40ULL},
     {0xc8355b52a1f5ec54ULL, 0xe21e98303a94998dULL, 0x437399d6d06a8447ULL}},
    {"seed-10.repro",
     {0x6d6d728a806c967eULL, 0x139196f1ac60d2cdULL, 0x73a2d9f65f959fc0ULL},
     {0x60f7bee8df13ea9cULL, 0x01309ba7290e835bULL, 0x2cdb2a827760c039ULL}},
    {"seed-22.repro",
     {0x986070625a3af25eULL, 0x12b3756dc87f229bULL, 0x7a14142dfcfbaeb4ULL},
     {0x5e6ec1499697b52cULL, 0x035c62da9d1dce93ULL, 0x98d6947aac9b33f5ULL}},
    {"seed-25.repro",
     {0x960348b66742b118ULL, 0x5995224a9b39f77dULL, 0x0ac62df223c83193ULL},
     {0x43fbfdd26be1057cULL, 0x9a214cb5a6d995e4ULL, 0xd67bed765debfab8ULL}},
    {"seed-29.repro",
     {0xd5775f8b1438f466ULL, 0xbb4f81eea9632b44ULL, 0x27ba87a410deff00ULL},
     {0x988338afa3036b3dULL, 0x01aa7a20f7920fe2ULL, 0x672849c483032184ULL}},
    {"seed-6.repro",
     {0x009e49762e973584ULL, 0xb2bf8c340f8924f9ULL, 0xf7741c5b17ff1e84ULL},
     {0x528914783b8ab756ULL, 0x20eed85055e960deULL, 0x84a6295cf330fd1bULL}},
    {"seed-7.repro",
     {0x081d5b151c9d33acULL, 0x0b3a0b66724cb873ULL, 0x135d9313bf2c67abULL},
     {0x18ba08d5f067890fULL, 0xda71079965a0fbf3ULL, 0x9b4128fcfdfadf89ULL}},
};

TEST(SimCluster, CorpusTimingMatchesGoldenDigests) {
  const auto files = test::corpus_files();
  ASSERT_FALSE(files.empty()) << "empty corpus in " << DECSEQ_FUZZ_CORPUS_DIR;
  std::size_t matched = 0;
  for (const auto& file : files) {
    const std::string name = file.filename().string();
    const TimingDigest* golden = nullptr;
    for (const TimingDigest& g : kTimingDigests) {
      if (name == g.file) golden = &g;
    }
    if (golden != nullptr) ++matched;
    for (const double overlap_ms : {0.0, kOverlapMs}) {
      for (const std::uint32_t ranks : {2u, 3u, 4u}) {
        SCOPED_TRACE(name + " at " + std::to_string(ranks) + " ranks" +
                     (overlap_ms > 0.0 ? ", overlapped" : ", lockstep"));
        std::uint64_t got = 0;
        run_sim_cluster_conformance(name, ranks, &got, overlap_ms);
        if (golden == nullptr) {
          ADD_FAILURE() << "no golden digest; got 0x" << std::hex << got;
          continue;
        }
        const std::uint64_t want = overlap_ms > 0.0
                                       ? golden->overlapped[ranks - 2]
                                       : golden->lockstep[ranks - 2];
        EXPECT_EQ(want, got) << "want 0x" << std::hex << want << ", got 0x"
                             << got;
      }
    }
  }
  EXPECT_EQ(matched, std::size(kTimingDigests))
      << "a golden digest names a file missing from the corpus";
}

TEST(NodeEngine, PublishRejectsUnknownSender) {
  // A publish command names its sender from outside the process. One the
  // config does not know must fail the range check, not index the per-host
  // rank table out of bounds.
  app::ClusterConfig config;
  config.num_ranks = 2;
  for (std::uint32_t h = 0; h < 2; ++h) {
    config.hosts.push_back({h, {GroupId(1)}, {AtomId(0)}});
  }
  config.groups.resize(2);
  config.groups[1].members = {NodeId(0), NodeId(1)};
  config.groups[1].path = {{AtomId(0), true, 0}, {AtomId(2), false, 1}};

  sim::Simulator sim;
  SimNet net(sim, 99);
  net.add_endpoints(2);
  for (const app::EdgeSpec& edge : app::build_edge_table(config)) {
    if (edge.kind == app::EdgeKind::kControlCommand ||
        edge.kind == app::EdgeKind::kControlReport ||
        edge.src_rank == edge.dst_rank) {
      continue;
    }
    net.add_edge(edge.id, edge.src_rank, edge.dst_rank, SimEdgeOptions{});
  }
  std::size_t delivered = 0;
  std::vector<std::unique_ptr<ChannelSet>> sets;
  std::vector<std::unique_ptr<app::NodeEngine>> engines;
  for (std::uint32_t r = 0; r < 2; ++r) {
    sets.push_back(std::make_unique<ChannelSet>());
    engines.push_back(std::make_unique<app::NodeEngine>(
        net.endpoint(r), *sets.back(), config, r,
        [&delivered](NodeId, const protocol::Message&, double) {
          ++delivered;
        }));
    ChannelSet* set = sets.back().get();
    net.endpoint(r).set_datagram_sink(
        [set](const std::uint8_t* d, std::size_t n, const Origin& o) {
          set->handle(d, n, o);
        });
  }

  for (const NodeId sender : {NodeId(2), NodeId(5'000'000), NodeId{}}) {
    EXPECT_THROW(engines[0]->publish(1, sender, GroupId(1), 7), CheckFailure)
        << "sender " << sender;
  }
  EXPECT_THROW(engines[0]->publish(1, NodeId(1), GroupId(1), 7), CheckFailure)
      << "host 1 lives on rank 1";
  // The daemon asks first and drops the command, naming the reason.
  const app::NodeEngine& engine = *engines[0];
  EXPECT_STREQ(engine.publish_refusal(NodeId(0), GroupId(2)), "unknown group");
  EXPECT_STREQ(engine.publish_refusal(NodeId(0), GroupId{}), "unknown group");
  EXPECT_STREQ(engine.publish_refusal(NodeId(0), GroupId(0)), "dead group");
  EXPECT_STREQ(engine.publish_refusal(NodeId(2), GroupId(1)), "unknown host");
  EXPECT_STREQ(engine.publish_refusal(NodeId(1), GroupId(1)),
               "host on another rank");
  EXPECT_EQ(engine.publish_refusal(NodeId(0), GroupId(1)), nullptr);
  EXPECT_EQ(engines[0]->stats().published, 0u);
  engines[0]->publish(1, NodeId(0), GroupId(1), 7);
  sim.run();
  EXPECT_EQ(delivered, 2u) << "a known sender still publishes to both hosts";
}

// --- Control codec -------------------------------------------------------

TEST(ClusterConfig, RejectsNonPositiveRto) {
  app::ClusterConfig config;
  config.num_ranks = 2;
  std::ostringstream out;
  app::write_cluster_config(config, out);
  const std::string text = out.str();
  const std::string rto_line = "rto 50\n";
  const std::size_t at = text.find(rto_line);
  ASSERT_NE(at, std::string::npos) << text;
  const auto parse = [&](const std::string& rto) {
    std::string edited = text;
    edited.replace(at, rto_line.size(), "rto " + rto + "\n");
    std::istringstream in(edited);
    return app::read_cluster_config(in);
  };
  EXPECT_EQ(parse("0.5").retransmit_timeout_ms, 0.5);
  for (const char* rto : {"0", "-0", "-5", "nan", "inf"}) {
    EXPECT_THROW(parse(rto), CheckFailure) << "rto " << rto;
  }
}

TEST(ClusterConfig, RejectsMalformedInput) {
  // Two hosts on two ranks, group slot 0 dead, group 1 on atoms 0 and 2.
  app::ClusterConfig config;
  config.num_ranks = 2;
  for (std::uint32_t h = 0; h < 2; ++h) {
    config.hosts.push_back({h, {GroupId(1)}, {AtomId(0)}});
  }
  config.groups.resize(2);
  config.groups[1].members = {NodeId(0), NodeId(1)};
  config.groups[1].path = {{AtomId(0), true, 0}, {AtomId(2), false, 1}};
  std::ostringstream out;
  app::write_cluster_config(config, out);
  const std::string text = out.str();
  const auto parse = [](const std::string& edited) {
    std::istringstream in(edited);
    return app::read_cluster_config(in);
  };
  const app::ClusterConfig read = parse(text);
  ASSERT_EQ(read.hosts.size(), 2u);
  ASSERT_EQ(read.groups.size(), 2u);
  EXPECT_TRUE(read.groups[0].path.empty());
  ASSERT_EQ(read.groups[1].path.size(), 2u);
  EXPECT_EQ(read.groups[1].path[1].atom, AtomId(2));
  EXPECT_TRUE(read.groups[1].path[0].stamps);
  EXPECT_EQ(read.groups[1].path[1].rank, 1u);

  const std::string host1 = "host 1 1 subs 1 atoms 0\n";
  const std::string group1 = "group 1 members 0 1 path 0:1:0 2:0:1\n";
  const std::string ranks = "ranks 2\n";
  const std::string budget = "budget 200\n";
  const std::string seed = "seed 1\n";
  ASSERT_NE(text.find(host1), std::string::npos) << text;
  ASSERT_NE(text.find(group1), std::string::npos) << text;
  ASSERT_NE(text.find(budget), std::string::npos) << text;
  ASSERT_NE(text.find(seed), std::string::npos) << text;
  const auto edit = [&](const std::string& line, const std::string& with) {
    std::string edited = text;
    edited.replace(edited.find(line), line.size(), with + "\n");
    return edited;
  };
  const std::pair<std::string, std::string> bad[] = {
      // Host indices: wrapping, huge, gapped, repeated.
      {host1, "host 18446744073709551615 1 subs 1 atoms 0"},
      {host1, "host 1000000000000 1 subs 1 atoms 0"},
      {host1, "host 2 1 subs 1 atoms 0"},
      {host1, "host 0 1 subs 1 atoms 0"},
      // Host rank and ids: out of range, truncating, signed, not a number.
      {host1, "host 1 2 subs 1 atoms 0"},
      {host1, "host 1 1 subs 4294967297 atoms 0"},
      {host1, "host 1 1 subs 1 atoms 4294967296"},
      {host1, "host 1 1 subs -1 atoms 0"},
      {host1, "host 1 1 subs x atoms 0"},
      {host1, "host 1 1 subs 5 atoms 0"},
      {host1, "host 1 1 subs 1 atoms 3"},
      // Group indices: wrapping, huge, at the cap, repeated.
      {group1, "group 18446744073709551615 members 0 1 path 0:1:0 2:0:1"},
      {group1, "group 1000000000000 members 0 1 path 0:1:0 2:0:1"},
      {group1, "group 1048576 members 0 1 path 0:1:0 2:0:1"},
      {group1, group1 + "group 1 members 0 1 path 0:1:0 2:0:1"},
      // Members and hops: not a host, truncating, out of range, bad flag.
      {group1, "group 1 members 0 2 path 0:1:0 2:0:1"},
      {group1, "group 1 members 0 4294967296 path 0:1:0 2:0:1"},
      {group1, "group 1 members 0 1 path 0:1:0 2:0:2"},
      {group1, "group 1 members 0 1 path 0:1:0 4294967298:0:1"},
      {group1, "group 1 members 0 1 path 0:1:0 2:0:4294967297"},
      {group1, "group 1 members 0 1 path 0:1:0 1048576:0:1"},
      {group1, "group 1 members 0 1 path 0:1:0 2:7:1"},
      // Rank counts past the edge-table bound, and a signed budget.
      {ranks, "ranks 4294967295"},
      {ranks, "ranks -1"},
      {ranks, "ranks 1025"},
      {budget, "budget -1"},
      // A seed that wraps, overflows or trails junk.
      {seed, "seed -1"},
      {seed, "seed 18446744073709551616"},
      {seed, "seed 12x"},
  };
  for (const auto& [line, with] : bad) {
    EXPECT_THROW(parse(edit(line, with)), CheckFailure) << with;
  }
}

TEST(ControlCodec, CommandRoundTrips) {
  app::Command command;
  command.kind = app::Command::Kind::kTerminate;
  command.ordinal = 17;
  command.sender = 3;
  command.group = 5;
  command.payload = 0xABCDEF;
  const auto bytes = app::encode_command(command);
  const auto decoded = app::decode_command(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, command.kind);
  EXPECT_EQ(decoded->ordinal, command.ordinal);
  EXPECT_EQ(decoded->sender, command.sender);
  EXPECT_EQ(decoded->group, command.group);
  EXPECT_EQ(decoded->payload, command.payload);
  EXPECT_FALSE(app::decode_command(bytes.data(), bytes.size() - 1));

  // A varint wider than its 32-bit field is refused, not truncated: sender
  // 2^32 + 1 must not decode as host 1. 2^32 - 1 still fits.
  const std::uint64_t fits = 0xffffffffULL;
  const std::uint64_t wide = (1ULL << 32) + 1;
  const auto decode = [](const std::vector<std::uint64_t>& fields) {
    std::vector<std::uint8_t> raw;
    for (const std::uint64_t field : fields) {
      protocol::encode_varint(field, raw);
    }
    return app::decode_command(raw.data(), raw.size());
  };
  const auto widest = decode({2, fits, fits, fits, 7});
  ASSERT_TRUE(widest.has_value());
  EXPECT_EQ(widest->sender, fits);
  for (std::size_t field = 1; field <= 3; ++field) {
    std::vector<std::uint64_t> fields = {2, 17, 3, 5, 7};
    fields[field] = wide;
    EXPECT_FALSE(decode(fields).has_value()) << "field " << field;
  }
}

TEST(ControlCodec, ReportRoundTrips) {
  app::Report report;
  report.kind = app::Report::Kind::kDelivery;
  report.rank = 2;
  report.receiver = 9;
  report.group = 4;
  report.sender = 11;
  report.payload = 77;
  report.group_seq = 13;
  const auto bytes = app::encode_report(report);
  const auto decoded = app::decode_report(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->kind, report.kind);
  EXPECT_EQ(decoded->rank, report.rank);
  EXPECT_EQ(decoded->receiver, report.receiver);
  EXPECT_EQ(decoded->group, report.group);
  EXPECT_EQ(decoded->sender, report.sender);
  EXPECT_EQ(decoded->payload, report.payload);
  EXPECT_EQ(decoded->group_seq, report.group_seq);
  EXPECT_FALSE(app::decode_report(bytes.data(), bytes.size() - 1));

  // Rank, receiver, group and sender are 32-bit: a wider varint is refused.
  const std::uint64_t fits = 0xffffffffULL;
  const std::uint64_t wide = (1ULL << 32) + 1;
  const auto decode = [](const std::vector<std::uint64_t>& fields) {
    std::vector<std::uint8_t> raw;
    for (const std::uint64_t field : fields) {
      protocol::encode_varint(field, raw);
    }
    return app::decode_report(raw.data(), raw.size());
  };
  const auto widest = decode({2, fits, fits, fits, fits, 77, 13});
  ASSERT_TRUE(widest.has_value());
  EXPECT_EQ(widest->receiver, fits);
  for (std::size_t field = 1; field <= 4; ++field) {
    std::vector<std::uint64_t> fields = {2, 2, 9, 4, 11, 77, 13};
    fields[field] = wide;
    EXPECT_FALSE(decode(fields).has_value()) << "field " << field;
  }
}

}  // namespace
}  // namespace decseq::transport
