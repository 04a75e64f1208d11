// Binary wire codec for sequenced messages.
//
// The overhead argument of §2/§4.4 is about bytes on the wire; this codec
// makes it concrete. Layout (all integers LEB128 varints, so small sequence
// numbers and ids cost one byte):
//
//   magic     0xD5            (1 byte)
//   version   1               (1 byte)
//   msg id, group, sender, group_seq, payload      (varints)
//   stamp count                                    (varint)
//   per stamp: atom id, sequence number            (varints)
//   body length, body bytes                        (varint + raw)
//
// decode() validates magic/version/truncation and rejects trailing bytes,
// so a corrupted buffer fails loudly instead of yielding a plausible
// message.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "protocol/message.h"

namespace decseq::protocol {

/// Append a LEB128 varint to `out`.
void encode_varint(std::uint64_t value, std::vector<std::uint8_t>& out);

/// Read a varint at `offset` of `in[0, size)` into `value`, advancing
/// `offset`. Returns false on truncation, a non-canonical encoding, or a
/// varint longer than 10 bytes. One-byte values take a fast path. Inline,
/// so a decoder keeps the value in a register: an out-of-line
/// std::optional return travels through the stack, and its reload stalls
/// on the store just made.
[[nodiscard]] inline bool read_varint(const std::uint8_t* in, std::size_t size,
                                      std::size_t& offset,
                                      std::uint64_t& value) {
  if (offset < size && in[offset] < 0x80) {
    value = in[offset++];
    return true;
  }
  value = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    if (offset >= size) return false;  // truncated
    const std::uint8_t byte = in[offset++];
    // Canonical form only: a terminating zero byte after the first would
    // be non-minimal padding (two wire forms of one value invite
    // dedup/signature bugs), and the 10th byte may carry at most bit 63.
    if (byte == 0 && i > 0) return false;
    if (i == 9 && byte > 1) return false;  // would overflow 64 bits
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return true;
    shift += 7;
  }
  return false;  // over-long varint
}

/// read_varint() as an optional: nullopt where it returns false.
[[nodiscard]] std::optional<std::uint64_t> decode_varint(
    const std::uint8_t* in, std::size_t size, std::size_t& offset);
[[nodiscard]] std::optional<std::uint64_t> decode_varint(
    const std::vector<std::uint8_t>& in, std::size_t& offset);

/// Bytes encode_varint() would emit for `value`.
[[nodiscard]] std::size_t varint_size(std::uint64_t value);

/// Serialize a message (ordering header + payload tag + body) into `out`,
/// replacing its contents; a reused buffer keeps its capacity, so a warm
/// encoder does not allocate.
void encode_message(const Message& m, std::vector<std::uint8_t>& out);
/// The same bytes in a fresh vector.
[[nodiscard]] std::vector<std::uint8_t> encode_message(const Message& m);

/// Parse `in[0, size)` as produced by encode_message, straight into a
/// pooled payload block: no intermediate copy, and no allocation for
/// <= kInlineStamps stamps and <= kInlineBodyBytes of body once the block
/// pool is warm. Returns nullopt for any malformed input (bad magic,
/// truncation, non-canonical varints, a stamp count or body length the
/// buffer cannot hold, trailing garbage). `is_fin` sets the block's FIN
/// flag, which travels outside the codec (in the transport frame header).
/// The decoded message's sent_at is zero — wall-clock time does not travel
/// on the wire.
[[nodiscard]] std::optional<Message> decode_message(const std::uint8_t* in,
                                                    std::size_t size,
                                                    bool is_fin = false);
[[nodiscard]] std::optional<Message> decode_message(
    const std::vector<std::uint8_t>& in);

/// Exact encoded size without materializing the buffer.
[[nodiscard]] std::size_t encoded_size(const Message& m);

/// Actual wire bytes this codec spends on the ordering header — the varint
/// encodings of group id, sender, group sequence number, stamp count and
/// stamps. The *wire* counterpart of message.h's fixed-width *nominal*
/// ordering_header_bytes(); varints make it smaller for the dense small ids
/// and early sequence numbers real runs produce (codec test pins this).
[[nodiscard]] std::size_t wire_ordering_header_bytes(const Message& m);

}  // namespace decseq::protocol
