// Wire frame carried by every transport datagram.
//
// protocol/codec.cc pins the *message* encoding (ordering header + body);
// this header wraps it with what the wire additionally needs: which edge
// the datagram belongs to, the channel sequence number that makes the edge
// a reliable FIFO, the frame kind (data / ack / bootstrap), the FIN flag
// (deliberately not part of the pinned message codec — it is transport
// metadata, like a TCP flag), and an integrity checksum. Layout, fixed
// 24-byte header, every multi-byte integer little-endian and assembled
// byte-by-byte (no unaligned or host-endian loads — the codec audit that
// motivated this file found none in codec.cc either, because both are
// byte-oriented by construction):
//
//   offset  size  field
//   0       2     magic 0xDC 0x5E
//   2       1     version (1)
//   3       1     type (1=DATA, 2=ACK, 3=JOIN, 4=PEERS)
//   4       1     flags (bit 0: FIN travels in this datagram's payload)
//   5       3     reserved, must be zero
//   8       4     edge id
//   12      8     sequence number (DATA: channel seq; ACK: cumulative ack;
//                 JOIN: joining rank; PEERS: number of peers)
//   20      4     CRC-32 (IEEE 802.3, reflected) over the whole frame with
//                 this field zeroed
//   24      ...   payload (DATA: encode_message bytes; PEERS: address book)
//
// decode_frame validates magic/version/reserved/truncation and the CRC, so
// a truncated, bit-flipped, or garbage datagram is rejected before it can
// reach a channel — corruption costs a retransmit, never a desync (the
// wire-robustness tests in tests/transport_test.cc feed exactly those).
// The golden-hex test pins these bytes so the format is platform-stable.
//
// Neither direction touches the heap on the data path: encode_frame
// writes into the caller's buffer (a channel's recycled frame buffer, or a
// 24-byte array for an ACK), and decode_frame hands back a view of the
// payload inside the datagram, which the message codec then decodes in
// place. Each end makes one table-driven CRC pass over the frame.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "transport/transport.h"

namespace decseq::transport {

inline constexpr std::uint8_t kFrameMagic0 = 0xDC;
inline constexpr std::uint8_t kFrameMagic1 = 0x5E;
inline constexpr std::uint8_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 24;

enum class FrameType : std::uint8_t {
  kData = 1,   ///< channel payload (carries one encoded protocol::Message)
  kAck = 2,    ///< cumulative acknowledgment, no payload
  kJoin = 3,   ///< bootstrap: "rank <seq> is listening at this origin"
  kPeers = 4,  ///< bootstrap: the coordinator's rank → address book
};

/// Frame flag bits. FIN rides here because the pinned message codec does
/// not encode it: the flag is reattached to the decoded message by the
/// receiving engine.
inline constexpr std::uint8_t kFrameFlagFin = 0x01;

/// A decoded frame header plus a view of the payload bytes inside the
/// original datagram buffer (valid only while that buffer lives).
struct Frame {
  FrameType type = FrameType::kData;
  std::uint8_t flags = 0;
  EdgeId edge = 0;
  std::uint64_t seq = 0;
  const std::uint8_t* payload = nullptr;
  std::size_t payload_size = 0;
};

/// CRC-32 (IEEE, reflected polynomial 0xEDB88320), the UDP-payload
/// integrity check the kernel's optional UDP checksum does not guarantee
/// end-to-end through proxies and rewrites. Table-driven, eight bytes per
/// step (slicing-by-8); chains: crc32(b, nb, crc32(a, na)) is the CRC of
/// a followed by b.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t size,
                                  std::uint32_t seed = 0);

/// Serialize header + payload into `out`, which must have room for
/// kFrameHeaderBytes + payload_size bytes (its prior contents do not
/// matter); returns the frame size. The one frame encoder: reliable
/// channels write DATA frames into recycled buffers and ACKs into a
/// 24-byte array, so a hop's frames cost no heap allocation.
std::size_t encode_frame(std::uint8_t* out, FrameType type,
                         std::uint8_t flags, EdgeId edge, std::uint64_t seq,
                         const std::uint8_t* payload = nullptr,
                         std::size_t payload_size = 0);

/// The same bytes in a fresh vector, for the JOIN/PEERS bootstrap, tests
/// and benches.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    FrameType type, std::uint8_t flags, EdgeId edge, std::uint64_t seq,
    const std::uint8_t* payload = nullptr, std::size_t payload_size = 0);

/// Parse a datagram. Returns nullopt for anything malformed: short buffer,
/// bad magic/version, nonzero reserved bytes, unknown type, CRC mismatch.
/// The CRC check is one pass over the frame; the returned payload is a
/// view into `data`, never a copy.
[[nodiscard]] std::optional<Frame> decode_frame(const std::uint8_t* data,
                                                std::size_t size);

/// One entry of the PEERS address book (bootstrap payload).
struct PeerAddr {
  std::uint32_t rank = 0;
  std::uint32_t ip_be = 0;  ///< IPv4, network byte order
  std::uint16_t port = 0;   ///< host byte order
};

/// PEERS payload: per peer, rank u32 LE + address 4 raw bytes (network
/// order) + port u16 LE. The frame's seq field carries the entry count.
[[nodiscard]] std::vector<std::uint8_t> encode_peers(
    const std::vector<PeerAddr>& peers);
[[nodiscard]] std::optional<std::vector<PeerAddr>> decode_peers(
    const Frame& frame);

}  // namespace decseq::transport
