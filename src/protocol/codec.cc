#include "protocol/codec.h"

#include <algorithm>

namespace decseq::protocol {

namespace {
constexpr std::uint8_t kMagic = 0xD5;
constexpr std::uint8_t kVersion = 1;
}  // namespace

std::size_t varint_size(std::uint64_t value) {
  std::size_t bytes = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++bytes;
  }
  return bytes;
}

namespace {

/// Write `value` as a LEB128 varint at `p`; returns the byte after it.
std::uint8_t* put_varint(std::uint8_t* p, std::uint64_t value) {
  while (value >= 0x80) {
    *p++ = static_cast<std::uint8_t>(value) | 0x80;
    value >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(value);
  return p;
}

}  // namespace

void encode_varint(std::uint64_t value, std::vector<std::uint8_t>& out) {
  const std::size_t at = out.size();
  out.resize(at + varint_size(value));
  put_varint(out.data() + at, value);
}

std::optional<std::uint64_t> decode_varint(const std::uint8_t* in,
                                           std::size_t size,
                                           std::size_t& offset) {
  // Fast path: small ids, counts and early sequence numbers are one byte.
  if (offset < size && in[offset] < 0x80) return in[offset++];
  std::uint64_t value = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    if (offset >= size) return std::nullopt;  // truncated
    const std::uint8_t byte = in[offset++];
    // Canonical form only: a terminating zero byte after the first would
    // be non-minimal padding (two wire forms of one value invite
    // dedup/signature bugs), and the 10th byte may carry at most bit 63.
    if ((byte & 0x80) == 0 && byte == 0 && i > 0) return std::nullopt;
    if (i == 9 && byte > 1) return std::nullopt;  // would overflow 64 bits
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
  return std::nullopt;  // over-long varint
}

std::optional<std::uint64_t> decode_varint(const std::vector<std::uint8_t>& in,
                                           std::size_t& offset) {
  return decode_varint(in.data(), in.size(), offset);
}

void encode_message(const Message& m, std::vector<std::uint8_t>& out) {
  out.resize(encoded_size(m));
  std::uint8_t* p = out.data();
  *p++ = kMagic;
  *p++ = kVersion;
  p = put_varint(p, m.id().value());
  p = put_varint(p, m.group().value());
  p = put_varint(p, m.sender().value());
  p = put_varint(p, m.group_seq);
  p = put_varint(p, m.payload());
  p = put_varint(p, m.stamps.size());
  for (const Stamp& s : m.stamps) {
    p = put_varint(p, s.atom.value());
    p = put_varint(p, s.seq);
  }
  p = put_varint(p, m.body().size());
  std::copy(m.body().begin(), m.body().end(), p);
}

std::vector<std::uint8_t> encode_message(const Message& m) {
  std::vector<std::uint8_t> out;
  encode_message(m, out);
  return out;
}

std::optional<Message> decode_message(const std::uint8_t* in,
                                      std::size_t size, bool is_fin) {
  if (size < 2 || in[0] != kMagic || in[1] != kVersion) return std::nullopt;
  std::size_t offset = 2;
  auto next = [&]() { return decode_varint(in, size, offset); };

  const auto id = next(), group = next(), sender = next(), group_seq = next(),
             payload = next(), count = next();
  if (!id || !group || !sender || !group_seq || !payload || !count) {
    return std::nullopt;
  }
  // Bound the stamp count by the remaining bytes (each stamp is >= 2
  // bytes) so a corrupt count cannot trigger a huge allocation.
  if (*count > (size - offset) / 2 + 1) return std::nullopt;
  Message m;
  m.stamps.reserve(*count);
  for (std::uint64_t i = 0; i < *count; ++i) {
    const auto atom = next(), seq = next();
    if (!atom || !seq) return std::nullopt;
    m.stamps.push_back(
        {AtomId(static_cast<AtomId::underlying_type>(*atom)), *seq});
  }
  const auto body_size = next();
  if (!body_size || *body_size > size - offset) return std::nullopt;
  const std::uint8_t* body = in + offset;
  offset += *body_size;
  if (offset != size) return std::nullopt;  // trailing garbage
  // The body is copied once, from the input straight into the pooled
  // block.
  m.data = PayloadBlock::create(
      MsgId(static_cast<MsgId::underlying_type>(*id)),
      GroupId(static_cast<GroupId::underlying_type>(*group)),
      NodeId(static_cast<NodeId::underlying_type>(*sender)),
      /*sent_at=*/0.0, *payload, body, static_cast<std::size_t>(*body_size),
      is_fin);
  m.group_seq = *group_seq;
  return m;
}

std::optional<Message> decode_message(const std::vector<std::uint8_t>& in) {
  return decode_message(in.data(), in.size());
}

std::size_t encoded_size(const Message& m) {
  std::size_t size = 2;  // magic + version
  size += varint_size(m.id().value());
  size += varint_size(m.payload());
  size += wire_ordering_header_bytes(m);
  size += varint_size(m.body().size()) + m.body().size();
  return size;
}

std::size_t wire_ordering_header_bytes(const Message& m) {
  std::size_t size = varint_size(m.group().value()) +
                     varint_size(m.sender().value()) +
                     varint_size(m.group_seq) + varint_size(m.stamps.size());
  for (const Stamp& s : m.stamps) {
    size += varint_size(s.atom.value()) + varint_size(s.seq);
  }
  return size;
}

}  // namespace decseq::protocol
