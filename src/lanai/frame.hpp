#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "myrinet/packet.hpp"

namespace vnet::lanai {

using myrinet::NodeId;

/// Endpoint id, unique within one node.
using EpId = std::uint32_t;
inline constexpr EpId kInvalidEp = 0xffffffffu;

/// Maximum short-message word arguments (AM-II short messages carry up to
/// 4 64-bit arguments in our model; 16 "payload" bytes on the wire, which
/// is the message size used by the LogP microbenchmarks).
inline constexpr std::size_t kMaxArgs = 4;

/// Identifies the requester so a handler can issue its reply (split-phase
/// RPC, §3). Carried with every request and every delivered message.
struct ReplyToken {
  NodeId node = myrinet::kInvalidNode;
  EpId ep = kInvalidEp;
  std::uint64_t msg_id = 0;
  /// Return authorization: the requester's endpoint tag, granted to the
  /// handler by the act of sending the request. Replies are stamped with
  /// it so the requester's NIC accepts them (§3.1).
  std::uint64_t key = 0;
  bool valid() const { return node != myrinet::kInvalidNode; }
};

/// The user-visible message content, carried end-to-end.
struct MsgBody {
  std::uint8_t handler = 0;
  bool is_request = true;
  std::array<std::uint64_t, kMaxArgs> args{};
  /// Bulk-transfer byte count (0 for short messages). The bytes themselves
  /// are optional: benches count them, correctness tests carry them.
  std::uint32_t bulk_bytes = 0;
  std::uint32_t bulk_offset = 0;
  std::shared_ptr<const std::vector<std::uint8_t>> bulk_data;
};

/// Why a message could not be delivered. Transient reasons are retried by
/// the transport; fatal ones trigger return-to-sender (§3.2).
enum class NackReason : std::uint8_t {
  kNone = 0,
  kNotResident,     // transient: destination endpoint not in a NIC frame
  kQueueFull,       // transient: receive queue overrun
  kNoSuchEndpoint,  // fatal
  kBadKey,          // fatal: protection tag mismatch
  kStaleEpoch,      // transient: channel re-synchronizing
};

constexpr bool is_fatal(NackReason r) {
  return r == NackReason::kNoSuchEndpoint || r == NackReason::kBadKey;
}

const char* to_string(NackReason r);

enum class FrameKind : std::uint8_t { kData = 0, kAck, kNack };

/// Transport header bytes added to every packet (addresses, key, channel,
/// sequence, 32-bit timestamp — §5.1).
inline constexpr std::uint32_t kTransportHeaderBytes = 32;
/// Wire size of an acknowledgment packet.
inline constexpr std::uint32_t kAckWireBytes =
    myrinet::kLinkHeaderBytes + 24;
/// Wire bytes of a short message's argument block.
inline constexpr std::uint32_t kShortPayloadBytes = 16;

/// One transport frame on the wire — the payload the Myrinet fabric
/// carries for us.
struct Frame : myrinet::Payload {
  FrameKind kind = FrameKind::kData;

  NodeId src_node = myrinet::kInvalidNode;
  EpId src_ep = kInvalidEp;
  NodeId dst_node = myrinet::kInvalidNode;
  EpId dst_ep = kInvalidEp;
  std::uint64_t key = 0;
  /// The sending endpoint's own tag (return authorization for replies).
  std::uint64_t src_tag = 0;

  // Stop-and-wait channel state (§5.1).
  std::uint16_t channel = 0;
  std::uint8_t seq = 0;
  /// Channel incarnation, for self-synchronizing re-initialization after a
  /// reboot or unbind (§5.1).
  std::uint32_t epoch = 0;
  /// 32-bit NIC clock stamped at (re)transmission and echoed by acks.
  std::uint32_t timestamp = 0;

  // Data frames.
  MsgBody body;
  ReplyToken reply_to;
  std::uint64_t msg_id = 0;
  std::uint32_t frag_index = 0;
  std::uint32_t frag_count = 1;
  std::uint32_t frag_bytes = 0;  ///< bulk bytes carried by this fragment

  // Ack/Nack frames.
  NackReason nack = NackReason::kNone;
  std::uint8_t acked_seq = 0;

  /// Not a wire field: when the carrying packet reached the destination
  /// station (copied from Packet::delivered_at by handle_rx), the wire
  /// boundary for latency attribution (obs/span.hpp). -1 for local frames.
  sim::Time delivered_at = -1;
  /// Not a wire field: link hops the carrying packet traversed (copied
  /// from Packet::hops by handle_rx); annotates captured spans.
  std::uint8_t wire_hops = 0;

  /// §8 extension: acknowledgments piggybacked on a data frame (empty
  /// unless NicConfig::piggyback_acks is enabled).
  struct PiggyAck {
    std::uint16_t channel = 0;
    std::uint8_t seq = 0;
    std::uint32_t epoch = 0;
    std::uint32_t timestamp = 0;
    std::uint64_t msg_id = 0;
    std::uint32_t frag_index = 0;
  };
  std::vector<PiggyAck> piggy_acks;

  /// Total size of this frame on the wire (piggybacked acks cost 8 B each).
  std::uint32_t wire_bytes() const {
    if (kind != FrameKind::kData) return kAckWireBytes;
    return myrinet::kLinkHeaderBytes + kTransportHeaderBytes +
           kShortPayloadBytes + frag_bytes +
           static_cast<std::uint32_t>(piggy_acks.size()) * 8;
  }

  /// Frames are heap-allocated once per injected packet (Packet::payload);
  /// freed storage parks on a process-wide free list (the simulator is
  /// single-threaded) so steady-state sends allocate nothing.
  static void* operator new(std::size_t size);
  static void operator delete(void* p, std::size_t size) noexcept;
};

}  // namespace vnet::lanai
