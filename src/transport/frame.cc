#include "transport/frame.h"

#include <algorithm>
#include <array>

namespace decseq::transport {

namespace {

/// Slicing-by-8 tables for the reflected IEEE polynomial, computed at
/// compile time. Table 0 is the classic bytewise table; table s advances a
/// byte's contribution through s more zero bytes, so eight lookups fold
/// eight input bytes into the CRC at once.
constexpr std::size_t kCrcSlices = 8;
using CrcTables = std::array<std::array<std::uint32_t, 256>, kCrcSlices>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < kCrcSlices; ++s) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

void put_u32le(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_u64le(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::uint32_t get_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t get_u64le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = v << 8 | p[i];
  return v;
}

/// Advance a raw (pre-inverted) CRC register over `size` bytes: eight
/// bytes per step through the slicing tables, then bytewise for the tail.
/// Loads are assembled byte by byte, like every field of the frame, so the
/// result is the same on any host.
std::uint32_t crc_update(std::uint32_t c, const std::uint8_t* data,
                         std::size_t size) {
  const CrcTables& t = kCrcTables;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = c ^ get_u32le(data);
    const std::uint32_t hi = get_u32le(data + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

constexpr std::size_t kCrcOffset = 20;

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size,
                    std::uint32_t seed) {
  return crc_update(seed ^ 0xFFFFFFFFu, data, size) ^ 0xFFFFFFFFu;
}

std::size_t encode_frame(std::uint8_t* out, FrameType type,
                         std::uint8_t flags, EdgeId edge, std::uint64_t seq,
                         const std::uint8_t* payload,
                         std::size_t payload_size) {
  out[0] = kFrameMagic0;
  out[1] = kFrameMagic1;
  out[2] = kFrameVersion;
  out[3] = static_cast<std::uint8_t>(type);
  out[4] = flags;
  out[5] = out[6] = out[7] = 0;  // reserved
  put_u32le(out + 8, edge);
  put_u64le(out + 12, seq);
  // CRC computed with its own field zeroed, then patched in.
  put_u32le(out + kCrcOffset, 0);
  if (payload_size > 0) {
    std::copy_n(payload, payload_size, out + kFrameHeaderBytes);
  }
  const std::size_t size = kFrameHeaderBytes + payload_size;
  put_u32le(out + kCrcOffset, crc32(out, size));
  return size;
}

std::vector<std::uint8_t> encode_frame(FrameType type, std::uint8_t flags,
                                       EdgeId edge, std::uint64_t seq,
                                       const std::uint8_t* payload,
                                       std::size_t payload_size) {
  std::vector<std::uint8_t> out(kFrameHeaderBytes + payload_size);
  encode_frame(out.data(), type, flags, edge, seq, payload, payload_size);
  return out;
}

std::optional<Frame> decode_frame(const std::uint8_t* data, std::size_t size) {
  if (size < kFrameHeaderBytes) return std::nullopt;
  if (data[0] != kFrameMagic0 || data[1] != kFrameMagic1) return std::nullopt;
  if (data[2] != kFrameVersion) return std::nullopt;
  const std::uint8_t type = data[3];
  if (type < 1 || type > 4) return std::nullopt;
  if (data[5] != 0 || data[6] != 0 || data[7] != 0) return std::nullopt;
  // One CRC pass over the frame with its CRC field zeroed, without
  // mutating the caller's buffer: a zeroed copy of the header, then the
  // payload in place.
  std::array<std::uint8_t, kFrameHeaderBytes> header;
  std::copy_n(data, kFrameHeaderBytes, header.begin());
  put_u32le(header.data() + kCrcOffset, 0);
  const std::uint32_t c =
      crc_update(crc_update(0xFFFFFFFFu, header.data(), header.size()),
                 data + kFrameHeaderBytes, size - kFrameHeaderBytes);
  if ((c ^ 0xFFFFFFFFu) != get_u32le(data + kCrcOffset)) return std::nullopt;
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.flags = data[4];
  frame.edge = get_u32le(data + 8);
  frame.seq = get_u64le(data + 12);
  frame.payload = data + kFrameHeaderBytes;
  frame.payload_size = size - kFrameHeaderBytes;
  return frame;
}

std::vector<std::uint8_t> encode_peers(const std::vector<PeerAddr>& peers) {
  std::vector<std::uint8_t> out(peers.size() * 10);
  std::uint8_t* p = out.data();
  for (const PeerAddr& peer : peers) {
    put_u32le(p, peer.rank);
    // The address is stored as its four network-order bytes, verbatim.
    p[4] = static_cast<std::uint8_t>(peer.ip_be);
    p[5] = static_cast<std::uint8_t>(peer.ip_be >> 8);
    p[6] = static_cast<std::uint8_t>(peer.ip_be >> 16);
    p[7] = static_cast<std::uint8_t>(peer.ip_be >> 24);
    p[8] = static_cast<std::uint8_t>(peer.port);
    p[9] = static_cast<std::uint8_t>(peer.port >> 8);
    p += 10;
  }
  return out;
}

std::optional<std::vector<PeerAddr>> decode_peers(const Frame& frame) {
  if (frame.type != FrameType::kPeers) return std::nullopt;
  // Divide rather than multiply: count * 10 wraps for a count near 2^64.
  if (frame.payload_size % 10 != 0 || frame.payload_size / 10 != frame.seq) {
    return std::nullopt;
  }
  std::vector<PeerAddr> peers(static_cast<std::size_t>(frame.seq));
  const std::uint8_t* p = frame.payload;
  for (PeerAddr& peer : peers) {
    peer.rank = get_u32le(p);
    peer.ip_be = static_cast<std::uint32_t>(p[4]) |
                 static_cast<std::uint32_t>(p[5]) << 8 |
                 static_cast<std::uint32_t>(p[6]) << 16 |
                 static_cast<std::uint32_t>(p[7]) << 24;
    peer.port = static_cast<std::uint16_t>(p[8] |
                                           static_cast<std::uint16_t>(p[9])
                                               << 8);
    p += 10;
  }
  return peers;
}

}  // namespace decseq::transport
