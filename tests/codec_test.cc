#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "protocol/codec.h"

namespace decseq::protocol {
namespace {

Message sample_message() {
  return Message::make(
      {.id = MsgId(12345), .group = GroupId(7), .sender = NodeId(42),
       .group_seq = 300, .payload = 0xdeadbeefULL},
      {{AtomId(1), 1}, {AtomId(200), 129}, {AtomId(65536), 1ULL << 40}});
}

void expect_same_message(const Message& a, const Message& b) {
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a.group(), b.group());
  EXPECT_EQ(a.sender(), b.sender());
  EXPECT_EQ(a.group_seq, b.group_seq);
  EXPECT_EQ(a.payload(), b.payload());
  EXPECT_EQ(a.body(), b.body());
  ASSERT_EQ(a.stamps.size(), b.stamps.size());
  for (std::size_t i = 0; i < a.stamps.size(); ++i) {
    EXPECT_EQ(a.stamps[i], b.stamps[i]);
  }
}

/// Decode `bytes` through both entry points: the vector form, and the span
/// form reading the same bytes from inside a larger buffer of junk (a
/// decoder straying past its span reads the junk). Both must reach the
/// same verdict and the same message, and the span form must set the FIN
/// flag it was handed. Returns the vector form's result.
std::optional<Message> decode_both(const std::vector<std::uint8_t>& bytes) {
  std::optional<Message> from_vector = decode_message(bytes);
  std::vector<std::uint8_t> framed(bytes.size() + 16, 0x80);
  std::copy(bytes.begin(), bytes.end(), framed.begin() + 8);
  const std::optional<Message> from_span =
      decode_message(framed.data() + 8, bytes.size(), /*is_fin=*/true);
  EXPECT_EQ(from_vector.has_value(), from_span.has_value());
  if (from_vector.has_value() && from_span.has_value()) {
    expect_same_message(*from_vector, *from_span);
    EXPECT_FALSE(from_vector->is_fin());
    EXPECT_TRUE(from_span->is_fin());
  }
  return from_vector;
}

TEST(Varint, RoundTripsBoundaries) {
  for (const std::uint64_t v :
       {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL, (1ULL << 32),
        ~0ULL}) {
    std::vector<std::uint8_t> buffer;
    encode_varint(v, buffer);
    EXPECT_EQ(buffer.size(), varint_size(v));
    std::size_t offset = 0;
    const auto decoded = decode_varint(buffer, offset);
    ASSERT_TRUE(decoded.has_value()) << v;
    EXPECT_EQ(*decoded, v);
    EXPECT_EQ(offset, buffer.size());
  }
}

TEST(Varint, SmallValuesAreOneByte) {
  std::vector<std::uint8_t> buffer;
  encode_varint(127, buffer);
  EXPECT_EQ(buffer.size(), 1u);
  encode_varint(128, buffer);
  EXPECT_EQ(buffer.size(), 3u);  // second value took two bytes
}

TEST(Varint, ByteLengthTransitions) {
  // LEB128 crosses from k to k+1 bytes exactly at 2^(7k). Pin the edges on
  // both sides for the 1-, 2-, 4-, and 8-byte encodings (and, cheaply, the
  // whole ladder up to the 10-byte cap for a full 64-bit value).
  for (const unsigned k : {1u, 2u, 4u, 8u}) {
    const std::uint64_t boundary = 1ULL << (7 * k);
    EXPECT_EQ(varint_size(boundary - 1), k) << "below 2^" << 7 * k;
    EXPECT_EQ(varint_size(boundary), k + 1) << "at 2^" << 7 * k;
    for (const std::uint64_t v : {boundary - 1, boundary, boundary + 1}) {
      std::vector<std::uint8_t> buffer;
      encode_varint(v, buffer);
      EXPECT_EQ(buffer.size(), varint_size(v)) << v;
      std::size_t offset = 0;
      const auto decoded = decode_varint(buffer, offset);
      ASSERT_TRUE(decoded.has_value()) << v;
      EXPECT_EQ(*decoded, v);
    }
  }
  for (unsigned k = 1; k <= 9; ++k) {
    EXPECT_EQ(varint_size((1ULL << (7 * k)) - 1), k);
  }
  EXPECT_EQ(varint_size(~0ULL), 10u);  // 64 bits / 7 rounds up to 10
}

TEST(Varint, TruncationDetected) {
  std::vector<std::uint8_t> buffer;
  encode_varint(1ULL << 40, buffer);
  buffer.pop_back();
  std::size_t offset = 0;
  EXPECT_FALSE(decode_varint(buffer, offset).has_value());
}

TEST(Codec, RoundTrip) {
  const Message original = sample_message();
  const auto wire = encode_message(original);
  const auto decoded = decode_message(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id(), original.id());
  EXPECT_EQ(decoded->group(), original.group());
  EXPECT_EQ(decoded->sender(), original.sender());
  EXPECT_EQ(decoded->group_seq, original.group_seq);
  EXPECT_EQ(decoded->payload(), original.payload());
  ASSERT_EQ(decoded->stamps.size(), original.stamps.size());
  for (std::size_t i = 0; i < original.stamps.size(); ++i) {
    EXPECT_EQ(decoded->stamps[i].atom, original.stamps[i].atom);
    EXPECT_EQ(decoded->stamps[i].seq, original.stamps[i].seq);
  }
}

TEST(Codec, EncodedSizeMatchesBuffer) {
  const Message m = sample_message();
  EXPECT_EQ(encode_message(m).size(), encoded_size(m));
  const Message empty = Message::make(
      {.id = MsgId(0), .group = GroupId(0), .sender = NodeId(0),
       .group_seq = 1});
  EXPECT_EQ(encode_message(empty).size(), encoded_size(empty));
}

TEST(Codec, CompactForTypicalMessages) {
  // A realistic message (few stamps, small ids) stays tiny — far below the
  // 1 KiB a 128-node vector timestamp costs.
  const Message m = Message::make(
      {.id = MsgId(90), .group = GroupId(3), .sender = NodeId(17),
       .group_seq = 12},
      {{AtomId(4), 9}, {AtomId(11), 13}});
  EXPECT_LE(encoded_size(m), 16u);
  EXPECT_LT(encoded_size(m), vector_timestamp_bytes(128) / 50);
}

Message message_with_stamps(std::size_t count) {
  StampVec stamps;
  for (std::size_t i = 0; i < count; ++i) {
    stamps.push_back({AtomId(static_cast<unsigned>(i)), 100 + i});
  }
  return Message::make(
      {.id = MsgId(5), .group = GroupId(2), .sender = NodeId(3),
       .group_seq = 9},
      std::move(stamps));
}

TEST(Codec, StampVecSpillsToHeapAtExactlyNineStamps) {
  // kInlineStamps == 8: the 8th stamp still lives inline, the 9th forces
  // the spill. Both sides of the boundary must round-trip through the
  // codec identically — the wire format doesn't know about the storage.
  StampVec v;
  for (std::size_t i = 0; i < kInlineStamps; ++i) {
    v.push_back({AtomId(static_cast<unsigned>(i)), i + 1});
    EXPECT_TRUE(v.is_inline()) << "stamp " << i + 1 << " spilled early";
  }
  v.push_back({AtomId(8), 9});
  EXPECT_FALSE(v.is_inline()) << "9th stamp should spill to heap";

  for (const std::size_t count : {kInlineStamps, kInlineStamps + 1}) {
    const Message m = message_with_stamps(count);
    EXPECT_EQ(m.stamps.is_inline(), count <= kInlineStamps);
    const auto decoded = decode_message(encode_message(m));
    ASSERT_TRUE(decoded.has_value()) << count << " stamps";
    ASSERT_EQ(decoded->stamps.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(decoded->stamps[i].atom, m.stamps[i].atom);
      EXPECT_EQ(decoded->stamps[i].seq, m.stamps[i].seq);
    }
  }
}

TEST(Codec, TruncatedSpilledStampMessageRejectedEverywhere) {
  // A message whose stamp list spilled past the inline capacity must still
  // reject truncation at every byte offset (the decoder's stamp loop walks
  // into the spilled region).
  const auto wire = encode_message(message_with_stamps(kInlineStamps + 1));
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(
        wire.begin(), wire.begin() + static_cast<long>(cut));
    EXPECT_FALSE(decode_message(prefix).has_value()) << "cut at " << cut;
  }
}

TEST(Codec, RejectsBadMagicAndVersion) {
  auto wire = encode_message(sample_message());
  auto bad_magic = wire;
  bad_magic[0] = 0x00;
  EXPECT_FALSE(decode_message(bad_magic).has_value());
  auto bad_version = wire;
  bad_version[1] = 99;
  EXPECT_FALSE(decode_message(bad_version).has_value());
}

TEST(Codec, RejectsTruncationAnywhere) {
  const auto wire = encode_message(sample_message());
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(wire.begin(),
                                           wire.begin() + static_cast<long>(cut));
    EXPECT_FALSE(decode_message(prefix).has_value()) << "cut at " << cut;
  }
}

TEST(Codec, RejectsTrailingGarbage) {
  auto wire = encode_message(sample_message());
  wire.push_back(0x00);
  EXPECT_FALSE(decode_message(wire).has_value());
}

TEST(Codec, RejectsHugeStampCount) {
  // Hand-craft a header whose stamp count claims more than the buffer can
  // hold; the decoder must refuse rather than allocate.
  std::vector<std::uint8_t> wire{0xD5, 0x01};
  for (int field = 0; field < 5; ++field) encode_varint(0, wire);
  encode_varint(1ULL << 40, wire);  // absurd stamp count
  EXPECT_FALSE(decode_message(wire).has_value());
}

TEST(Codec, EmptyBufferRejected) {
  EXPECT_FALSE(decode_message({}).has_value());
  EXPECT_FALSE(decode_message({0xD5}).has_value());
}

TEST(Codec, BodyBytesRoundTrip) {
  Message m = sample_message();
  m = Message::make(
      {.id = m.id(), .group = m.group(), .sender = m.sender(),
       .group_seq = m.group_seq, .payload = m.payload(),
       .body = {0x00, 0xff, 0x42, 0x80, 0x7f}},
      m.stamps);
  const auto wire = encode_message(m);
  EXPECT_EQ(wire.size(), encoded_size(m));
  const auto decoded = decode_message(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->body(), m.body());
}

TEST(Codec, BodyLengthOverrunRejected) {
  const Message m = Message::make(
      {.id = MsgId(9), .group = GroupId(1), .sender = NodeId(2),
       .group_seq = 4, .body = {1, 2, 3}});
  auto wire = encode_message(m);
  // Drop the final body byte: the declared length now overruns the buffer.
  wire.pop_back();
  EXPECT_FALSE(decode_message(wire).has_value());
}

TEST(Codec, FuzzRandomBuffersNeverCrash) {
  // Arbitrary bytes must decode to nullopt or to a structurally valid
  // message — never crash, never over-allocate.
  Rng rng(31337);
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<std::uint8_t> bytes(rng.next_below(64));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
    const auto decoded = decode_both(bytes);
    if (decoded.has_value()) {
      // Anything that decodes must re-encode to the same bytes (canonical
      // encoding: one varint form per value).
      EXPECT_EQ(encode_message(*decoded), bytes);
    }
  }
}

TEST(Codec, FuzzBitFlipsRejectedOrReencodable) {
  Rng rng(4242);
  const auto wire = encode_message(sample_message());
  for (int trial = 0; trial < 2000; ++trial) {
    auto mutated = wire;
    const std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    const auto decoded = decode_both(mutated);
    if (decoded.has_value()) {
      EXPECT_EQ(encode_message(*decoded), mutated);
    }
  }
}

TEST(Codec, FuzzRandomMessagesRoundTrip) {
  Rng rng(987);
  // One buffer reused across trials, dirty with the previous encoding and
  // at first larger than any of them: encoding into it must equal a fresh
  // encode.
  std::vector<std::uint8_t> reused(512, 0xA5);
  for (int trial = 0; trial < 500; ++trial) {
    StampVec stamps;
    const std::size_t num_stamps = rng.next_below(12);
    for (std::size_t s = 0; s < num_stamps; ++s) {
      stamps.push_back(
          {AtomId(static_cast<unsigned>(rng.next_below(1u << 24))), rng()});
    }
    const Message m = Message::make(
        {.id = MsgId(static_cast<unsigned>(rng.next_below(1u << 30))),
         .group = GroupId(static_cast<unsigned>(rng.next_below(1u << 16))),
         .sender = NodeId(static_cast<unsigned>(rng.next_below(1u << 20))),
         .group_seq = rng(),
         .payload = rng()},
        std::move(stamps));
    const std::vector<std::uint8_t> fresh = encode_message(m);
    encode_message(m, reused);
    EXPECT_EQ(reused, fresh);
    const auto decoded = decode_both(fresh);
    ASSERT_TRUE(decoded.has_value());
    expect_same_message(*decoded, m);
    EXPECT_EQ(decoded->group_seq, m.group_seq);
    EXPECT_EQ(decoded->payload(), m.payload());
    ASSERT_EQ(decoded->stamps.size(), m.stamps.size());
    for (std::size_t s = 0; s < num_stamps; ++s) {
      EXPECT_EQ(decoded->stamps[s].seq, m.stamps[s].seq);
    }
  }
}

TEST(Codec, WireVsNominalHeaderBytes) {
  // Randomized pinning of the two header metrics. ordering_header_bytes()
  // is the *nominal* fixed-width figure (group + sender + group_seq at
  // 4+4+8 bytes plus 12 per stamp) used for the §4.4 comparison against
  // vector timestamps; wire_ordering_header_bytes() is what the varint
  // codec actually spends. Two invariants:
  //  1. encoded_size decomposes exactly into framing + id + payload tag +
  //     wire header + body framing — for *any* message.
  //  2. For realistic field magnitudes (dense ids, 64-group deployments,
  //     sequence numbers below 2^32), the wire header never exceeds the
  //     nominal one: varints only help.
  Rng rng(20060806);
  for (int trial = 0; trial < 1000; ++trial) {
    StampVec stamps;
    const std::size_t num_stamps = rng.next_below(17);
    for (std::size_t s = 0; s < num_stamps; ++s) {
      stamps.push_back(
          {AtomId(static_cast<unsigned>(rng.next_below(1u << 24))),
           1 + rng.next_below(1ULL << 48)});
    }
    std::vector<std::uint8_t> body(rng.next_below(100));
    for (auto& b : body) b = static_cast<std::uint8_t>(rng.next_below(256));
    const Message m = Message::make(
        {.id = MsgId(static_cast<unsigned>(rng.next_below(1u << 21))),
         .group = GroupId(static_cast<unsigned>(rng.next_below(1u << 16))),
         .sender = NodeId(static_cast<unsigned>(rng.next_below(1u << 20))),
         .group_seq = 1 + rng.next_below(1ULL << 32),
         .payload = rng(),
         .body = std::move(body)},
        std::move(stamps));

    const std::size_t framing = 2 + varint_size(m.id().value()) +
                                varint_size(m.payload()) +
                                varint_size(m.body().size()) +
                                m.body().size();
    EXPECT_EQ(encoded_size(m), framing + wire_ordering_header_bytes(m));
    EXPECT_EQ(encode_message(m).size(), encoded_size(m));
    EXPECT_LE(wire_ordering_header_bytes(m), ordering_header_bytes(m));
  }
}

TEST(Codec, GoldenWireBytes) {
  // Pin the exact wire bytes of a representative message. The codec is
  // byte-oriented by construction (LEB128 varints, no unaligned or
  // host-endian loads anywhere — audited when the transport frame header
  // was added), so this encoding is identical on every platform; any codec
  // change that shifts a byte lands here.
  const Message m = Message::make(
      {.id = MsgId(3), .group = GroupId(2), .sender = NodeId(5),
       .group_seq = 300, .payload = 9, .body = {'o', 'k'}},
      {{AtomId(4), 1}});
  const std::vector<std::uint8_t> expected = {
      0xD5, 0x01,  // magic, version
      0x03,        // id
      0x02,        // group
      0x05,        // sender
      0xAC, 0x02,  // group_seq = 300: LEB128 little-endian groups
      0x09,        // payload
      0x01,        // stamp count
      0x04, 0x01,  // stamp: atom 4, seq 1
      0x02,        // body length
      'o', 'k',    // body verbatim
  };
  EXPECT_EQ(encode_message(m), expected);

  const auto decoded = decode_message(expected);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id(), MsgId(3));
  EXPECT_EQ(decoded->group_seq, 300u);
  ASSERT_EQ(decoded->stamps.size(), 1u);
  EXPECT_EQ(decoded->stamps[0], (Stamp{AtomId(4), 1}));
  EXPECT_EQ(encode_message(*decoded), expected);
}

}  // namespace
}  // namespace decseq::protocol
