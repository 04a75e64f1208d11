// Wire format and in-memory representation of sequenced messages (§3.1).
//
// A message addressed to group G carries:
//  * the group-local sequence number assigned by G's ingress sequencer, and
//  * one (atom, sequence number) stamp per double-overlap atom of G that it
//    traversed.
//
// The stamp list is what replaces vector timestamps: its length is bounded
// by the number of groups G overlaps (worst case #groups - 1), independent
// of the number of subscribers (§2, last paragraph).
//
// In memory the message is split along its mutability boundary:
//
//  * PayloadBlock — everything fixed at publish time (id, group, sender,
//    publish timestamp, payload tag, body bytes, FIN flag). Created once at
//    ingress, immutable and refcounted (pooled, see common/ref_pool.h), and
//    shared by reference through every sequencing hop, channel buffer,
//    delivery fan-out, and application callback. Body bytes are copied
//    exactly once, from the publish call into the block; a 64-member group
//    fan-out moves 64 references, not 64 bodies.
//  * Message — the small mutable header that actually travels: the shared
//    block reference, the group-local sequence number assigned at ingress,
//    and the stamp list collected along the path. The stamp list is an
//    inline small-vector of kInlineStamps stamps, so a Message is a flat
//    object that moves hop to hop without touching the allocator. Longer
//    lists occur — the paper deployment's paths cross up to 37 atoms and
//    stamp more than 16 of them — and spill to the heap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/ref_pool.h"
#include "common/small_vector.h"
#include "sim/simulator.h"

namespace decseq::protocol {

/// One sequence number collected at a sequencing atom.
struct Stamp {
  AtomId atom;
  SeqNo seq = 0;

  friend constexpr bool operator==(Stamp, Stamp) = default;
};

/// Stamps a message carries inside its header, without heap allocation.
/// Stamp counts are bounded by the group's overlap degree. Most messages of
/// the paper's Zipf workloads stay within this, but not all: the paper
/// deployment's longest paths stamp more than 16 atoms. A longer list
/// spills to the heap, allocating when it spills and again each time it
/// doubles.
inline constexpr std::size_t kInlineStamps = 8;
using StampVec = common::SmallVector<Stamp, kInlineStamps>;

/// Body bytes stored inline in a payload block; larger bodies spill to heap
/// capacity that the block pool recycles, so steady-state traffic of any
/// one size class stops allocating once the pool is warm.
inline constexpr std::size_t kInlineBodyBytes = 64;
using BodyBytes = common::SmallVector<std::uint8_t, kInlineBodyBytes>;

/// The immutable, refcounted half of a message: everything known at
/// publish. Create via Message::make() (or PayloadBlock::create() directly);
/// instances are pooled per thread and recycled when the last reference —
/// channel buffer, in-flight event, trace, application — drops.
class PayloadBlock : public common::RefPooled<PayloadBlock> {
 public:
  [[nodiscard]] MsgId id() const { return id_; }
  [[nodiscard]] GroupId group() const { return group_; }
  [[nodiscard]] NodeId sender() const { return sender_; }
  /// Simulated publish time (for latency metrics).
  [[nodiscard]] sim::Time sent_at() const { return sent_at_; }
  /// Opaque application payload tag.
  [[nodiscard]] std::uint64_t payload() const { return payload_; }
  /// Optional application body bytes; opaque to the ordering layer, carried
  /// verbatim by the codec. The ordering *header* overhead (the paper's
  /// concern) is accounted separately from this.
  [[nodiscard]] const BodyBytes& body() const { return body_; }
  /// Group-termination marker (§3.2's "TCP FIN"): ends the group's
  /// sequence space. Sequencers that see it retire lazily; receivers close
  /// the group after delivering it.
  [[nodiscard]] bool is_fin() const { return is_fin_; }
  /// Reconfiguration cutover fence: the *last* message of its group's old
  /// routing epoch. It consumes a group sequence number and the old atoms'
  /// stamps like a data message, so delivering it proves every old-epoch
  /// message of the group has been delivered; receivers gate new-epoch
  /// traffic on it (see protocol/network.h "Zero-downtime
  /// reconfiguration"). A fence with is_fin() set additionally closes the
  /// group (the group was removed by the reconfiguration).
  [[nodiscard]] bool is_fence() const { return is_fence_; }

 private:
  friend class common::RefPooled<PayloadBlock>;

  PayloadBlock() = default;

  void init(MsgId id, GroupId group, NodeId sender, sim::Time sent_at,
            std::uint64_t payload, const std::uint8_t* body,
            std::size_t body_size, bool is_fin, bool is_fence = false) {
    id_ = id;
    group_ = group;
    sender_ = sender;
    sent_at_ = sent_at;
    payload_ = payload;
    body_.assign(body, body + body_size);  // the one ingress copy
    is_fin_ = is_fin;
    is_fence_ = is_fence;
  }

  void recycle() {
    body_.clear();  // keeps spilled capacity for the next tenant
  }

  MsgId id_;
  GroupId group_;
  NodeId sender_;
  sim::Time sent_at_ = 0.0;
  std::uint64_t payload_ = 0;
  BodyBytes body_;
  bool is_fin_ = false;
  bool is_fence_ = false;
};

using PayloadRef = common::RefPtr<PayloadBlock>;

/// Everything known at publish, in one bag — the argument of
/// Message::make(). Designated initializers keep construction sites
/// readable (tests, codec, tools).
struct MessageSpec {
  MsgId id;
  GroupId group;
  NodeId sender;
  SeqNo group_seq = 0;
  std::uint64_t payload = 0;
  std::vector<std::uint8_t> body{};
  bool is_fin = false;
  sim::Time sent_at = 0.0;
};

/// A published message as it travels through the sequencing network: a
/// shared reference to the immutable payload block plus the mutable
/// ordering header. Copying a Message shares the block and copies the
/// inline header; moving it is a flat relocation. Neither allocates for
/// <= kInlineStamps stamps.
struct Message {
  /// Shared immutable payload block; never null for a routed message.
  PayloadRef data;
  /// Group-local sequence number, assigned at ingress; 1-based, 0 = unset.
  SeqNo group_seq = 0;
  /// Position on the group's sequencing path (0 = ingress). Transient
  /// routing state, not wire format: the runtime compiles each group's path
  /// into a flat hop table at graph-build time, and this index makes the
  /// per-hop forwarding decision two array loads (see
  /// SequencingNetwork::handle_at_atom). Reset to 0 by the codec on decode.
  std::uint32_t path_pos = 0;
  /// Routing epoch whose compiled tables sequenced this message, assigned
  /// with group_seq at ingress. During a zero-downtime reconfiguration a
  /// group's old and new epochs drain concurrently: epoch selects the hop
  /// span and fan-out plan (old messages finish on old routes), and
  /// receivers gate new-epoch delivery on the old epoch's cutover fence.
  /// Transient routing state, like path_pos.
  std::uint32_t epoch = 0;
  /// Stamps collected along the group's sequencing path, in path order.
  StampVec stamps;

  [[nodiscard]] MsgId id() const { return data->id(); }
  [[nodiscard]] GroupId group() const { return data->group(); }
  [[nodiscard]] NodeId sender() const { return data->sender(); }
  [[nodiscard]] sim::Time sent_at() const { return data->sent_at(); }
  [[nodiscard]] std::uint64_t payload() const { return data->payload(); }
  [[nodiscard]] const BodyBytes& body() const { return data->body(); }
  [[nodiscard]] bool is_fin() const { return data->is_fin(); }

  /// Build a message (fresh payload block + header) in one call.
  [[nodiscard]] static Message make(MessageSpec spec, StampVec stamps = {}) {
    Message m;
    m.data = PayloadBlock::create(spec.id, spec.group, spec.sender,
                                  spec.sent_at, spec.payload,
                                  spec.body.data(), spec.body.size(),
                                  spec.is_fin);
    m.group_seq = spec.group_seq;
    m.stamps = std::move(stamps);
    return m;
  }
};

/// *Nominal* serialized ordering-header size in bytes, assuming fixed-width
/// integers: group id + sender + group seq + stamp list. This is the
/// apples-to-apples figure for the §2/§4.4 comparison against an O(N)
/// vector timestamp (which vector_timestamp_bytes() also prices at fixed
/// width). The codec's actual wire bytes are smaller — varints compress
/// small ids and sequence numbers — and are reported separately by
/// wire_ordering_header_bytes() in protocol/codec.h; a codec test pins the
/// relationship between the two.
/// The size depends on the stamp count alone: the first overload prices a
/// header of `stamps` stamps, the second a message's own.
[[nodiscard]] constexpr std::size_t ordering_header_bytes(
    std::size_t stamps) {
  constexpr std::size_t kGroupId = 4, kSender = 4, kGroupSeq = 8;
  constexpr std::size_t kPerStamp = 4 + 8;  // atom id + sequence number
  return kGroupId + kSender + kGroupSeq + stamps * kPerStamp;
}
[[nodiscard]] inline std::size_t ordering_header_bytes(const Message& m) {
  return ordering_header_bytes(m.stamps.size());
}

/// What an O(N) vector timestamp would cost for `num_nodes` participants
/// (one 8-byte counter per node), the overhead the paper's §2 contrasts.
[[nodiscard]] inline std::size_t vector_timestamp_bytes(
    std::size_t num_nodes) {
  return num_nodes * 8;
}

}  // namespace decseq::protocol
