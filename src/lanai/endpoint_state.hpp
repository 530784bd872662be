#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "lanai/frame.hpp"
#include "sim/frame_pool.hpp"
#include "sim/time.hpp"

namespace vnet::lanai {

class Nic;

/// One row of an endpoint's translation table (§3.1): maps a small integer
/// index to a (node, endpoint, key) triple. The protected part of the
/// system — the NIC — stamps outgoing messages with the key; the receiving
/// NIC verifies it against the destination endpoint's tag.
struct Translation {
  bool valid = false;
  NodeId node = myrinet::kInvalidNode;
  EpId ep = kInvalidEp;
  std::uint64_t key = 0;
};

/// A message the application has written into an endpoint's send queue.
/// The transport fields at the bottom are owned by the NIC while the
/// message is in flight.
struct SendDescriptor {
  /// For requests: index into the source endpoint's translation table.
  std::uint32_t dest_index = 0;
  /// For replies: the requester's address, taken from the ReplyToken.
  ReplyToken reply_to;
  MsgBody body;
  std::uint64_t msg_id = 0;

  // --- transport progress (NIC-owned) ---
  enum class FragState : std::uint8_t { kUnsent = 0, kInFlight, kAcked };

  /// Per-fragment state array with inline storage for short transfers.
  /// Fragments can be unbound from channels and rebound out of order
  /// (§5.1), so a counter is not enough; messages up to kInline fragments
  /// (16 KB at the default 4 KB payload) track state without touching the
  /// heap, so steady-state sends allocate nothing.
  class FragStates {
   public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    void assign(std::uint32_t n, FragState v) {
      size_ = n;
      if (n > kInline) {
        spill_.assign(n, v);
      } else {
        spill_.clear();
        inline_.fill(v);
      }
    }
    FragState& operator[](std::size_t i) {
      return size_ <= kInline ? inline_[i] : spill_[i];
    }
    FragState operator[](std::size_t i) const {
      return size_ <= kInline ? inline_[i] : spill_[i];
    }

   private:
    static constexpr std::size_t kInline = 4;
    std::array<FragState, kInline> inline_{};
    std::uint32_t size_ = 0;
    std::vector<FragState> spill_;
  };

  std::uint32_t frag_count = 1;
  sim::Time first_sent_at = -1;  ///< for the unreachable timeout

  bool complete() const { return frags_acked_ == frag_count; }
  bool finished() const { return returned_ || complete(); }
  /// Some fragment still waits for a channel. O(1): the count of unsent
  /// fragments is kept in step by EndpointState's transition methods.
  bool has_unsent() const { return !finished() && frags_unsent_ > 0; }
  std::uint32_t frags_unsent() const { return frags_unsent_; }

  /// First fragment not yet handed to a channel, or -1 if none. Scans from
  /// a cursor below which no fragment is unsent, so a message's fragments
  /// are found in amortized O(1) each. Lazily initializes the state array.
  int next_unsent() {
    if (frag_state_.empty()) frag_state_.assign(frag_count, FragState::kUnsent);
    if (frags_unsent_ == 0) return -1;
    while (frag_state_[first_unsent_] != FragState::kUnsent) ++first_unsent_;
    return static_cast<int>(first_unsent_);
  }

  /// Full-scan recount of unsent fragments, for the index cross-checks.
  std::uint32_t count_unsent() const {
    if (frag_state_.empty()) return frag_count;
    std::uint32_t n = 0;
    for (std::size_t i = 0; i < frag_state_.size(); ++i) {
      if (frag_state_[i] == FragState::kUnsent) ++n;
    }
    return n;
  }

 private:
  // Every transition goes through EndpointState, which keeps the
  // endpoint's sendable-descriptor count in step with these.
  friend struct EndpointState;
  bool frag_in_flight(std::uint32_t i) const {
    return i < frag_state_.size() && frag_state_[i] == FragState::kInFlight;
  }
  FragStates frag_state_;         ///< empty until the first fragment binds
  std::uint32_t frags_acked_ = 0;
  std::uint32_t frags_unsent_ = 0;  ///< kUnsent fragments (all, if unbound)
  std::uint32_t first_unsent_ = 0;  ///< no kUnsent fragment below this
  bool returned_ = false;         ///< undeliverable; awaiting queue sweep
};

/// A delivered message awaiting the application (one receive-queue entry).
struct RecvEntry {
  MsgBody body;
  ReplyToken reply_to;
  NodeId src_node = myrinet::kInvalidNode;
  EpId src_ep = kInvalidEp;
  /// Sender-side message id (unique per source endpoint); together with
  /// (src_node, src_ep) this names the message end to end, which is what
  /// the chaos delivery ledger keys on.
  std::uint64_t msg_id = 0;
  sim::Time arrived_at = 0;
};

/// An endpoint's send and receive queues. Deques, because the firmware
/// holds descriptor pointers across suspensions and a deque never moves its
/// elements; their chunks recycle through the frame pool.
using SendQueue = std::deque<SendDescriptor, sim::PoolAllocator<SendDescriptor>>;
using RecvQueue = std::deque<RecvEntry, sim::PoolAllocator<RecvEntry>>;

/// Key identifying a remote source endpoint (node, ep) in dedup windows.
inline std::uint64_t source_key(NodeId node, EpId ep) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) << 32) |
         static_cast<std::uint32_t>(ep);
}

/// Recently delivered message ids from one source endpoint, for
/// exactly-once delivery across channel rebinds and NIC reboots: the last
/// kCapacity distinct ids remembered, oldest evicted first. The ids sit in
/// one insertion-ordered ring that grows to kCapacity and then overwrites
/// its oldest entry, so a window costs no per-message allocation; contains
/// scans it (kCapacity words, branch-free).
struct DeliveredWindow {
  static constexpr std::size_t kCapacity = 128;
  void remember(std::uint64_t id) {
    if (contains(id)) return;
    if (ids_.size() < kCapacity) {
      ids_.push_back(id);
      return;
    }
    ids_[oldest_] = id;
    oldest_ = (oldest_ + 1) % kCapacity;
  }
  bool contains(std::uint64_t id) const {
    bool hit = false;
    for (const std::uint64_t x : ids_) hit |= x == id;
    return hit;
  }

 private:
  std::vector<std::uint64_t> ids_;
  std::size_t oldest_ = 0;  ///< next slot to overwrite once full
};

/// Set of received fragment indexes of one message, one bit each. Up to
/// 64 fragments (256 KB at the default payload) fit the inline word.
class FragBitmap {
 public:
  explicit FragBitmap(std::uint32_t frag_count) {
    if (frag_count > 64) spill_.assign((frag_count + 63) / 64, 0);
  }
  /// Marks fragment `i` received; false if it already was.
  bool insert(std::uint32_t i) {
    std::uint64_t& w = spill_.empty() ? inline_ : spill_[i / 64];
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    if ((w & bit) != 0) return false;
    w |= bit;
    ++count_;
    return true;
  }
  std::uint32_t size() const { return count_; }

 private:
  std::uint64_t inline_ = 0;
  std::vector<std::uint64_t> spill_;
  std::uint32_t count_ = 0;
};

/// In-progress multi-fragment message at the receiver.
struct Reassembly {
  RecvEntry entry;
  FragBitmap frags;
  bool is_request = true;
};

/// (src_node, src_ep, msg_id) key for the reassembly table.
using ReassemblyKey = std::tuple<NodeId, EpId, std::uint64_t>;

/// The hardware-visible endpoint: message queues and associated state that
/// reside beneath the programming interface (§3). This exact object is what
/// migrates between host memory and a NIC endpoint frame; in the simulation
/// the *object* stays put and `frame` records where it currently "lives",
/// with the residency-dependent costs charged by the accessing layer.
struct EndpointState {
  NodeId node = myrinet::kInvalidNode;
  EpId id = kInvalidEp;

  /// Protection tag that senders' keys must match for delivery (§3.1).
  std::uint64_t tag = 0;

  /// NIC frame index, or -1 while non-resident.
  int frame = -1;
  bool resident() const { return frame >= 0; }

  std::vector<Translation> translations;

  // Queues; depths are enforced by the writers (see NicConfig). The send
  // queue is written only through enqueue() so its index stays exact.
  const SendQueue& send_queue() const { return send_queue_; }
  RecvQueue recv_requests;
  RecvQueue recv_replies;

  // Receive-queue slots reserved by in-progress multi-fragment messages
  // (NIC-owned; counted against the queue depths).
  std::uint32_t nic_reserved_requests = 0;
  std::uint32_t nic_reserved_replies = 0;

  // Message-level receive state. This lives with the endpoint — it pages to
  // host memory with it and survives a NIC reboot — unlike the channel
  // sequencing state, which is NIC-SRAM-volatile and rebuilt by the
  // self-synchronizing re-initialization of §5.1. Keeping the dedup window
  // here is what preserves exactly-once delivery across a receiver reboot:
  // a retransmission whose ack was lost pre-reboot is still recognized.
  std::unordered_map<std::uint64_t, DeliveredWindow> delivered_from;
  /// In-progress multi-fragment messages; one node per message, recycled
  /// through the frame pool like the queue chunks.
  std::map<ReassemblyKey, Reassembly, std::less<>,
           sim::PoolAllocator<std::pair<const ReassemblyKey, Reassembly>>>
      reassembly;

  // --- statistics ---
  std::uint64_t msgs_sent = 0;        ///< fully acknowledged
  std::uint64_t msgs_delivered = 0;   ///< written into our receive queues
  std::uint64_t msgs_returned = 0;    ///< returned to sender
  std::uint64_t recv_overruns = 0;    ///< arrivals nacked for a full queue
  std::uint64_t next_msg_id = 1;

  // --- upcalls into the layers above (wired by am::Endpoint / driver) ---
  /// A message was written into a receive queue.
  std::function<void()> on_arrival;
  /// A send completed (acked) or space appeared in the send queue.
  std::function<void()> on_send_progress;
  /// A message came back undeliverable; the application's handler decides
  /// whether to abort or re-issue (§3.2).
  std::function<void(SendDescriptor, NackReason)> on_return_to_sender;

  std::uint64_t alloc_msg_id() { return next_msg_id++; }

  /// Appends a freshly written descriptor to the send queue (the host's
  /// half of the doorbell protocol; the caller rings the doorbell).
  void enqueue(SendDescriptor d) {
    d.frags_unsent_ = d.frag_count;
    if (d.has_unsent()) ++sendable_;
    send_queue_.push_back(std::move(d));
  }

  // --- NIC-owned firmware indexes (DESIGN.md §14) ---

  /// Descriptors in the send queue with a fragment waiting for a channel.
  std::uint32_t sendable() const { return sendable_; }
  /// Channels currently bound to a fragment of this endpoint; zero means
  /// the endpoint is quiescent (§5.3).
  std::uint32_t channels_in_flight = 0;
  /// An unload/destroy is parked until quiescence: no new fragments start.
  bool draining = false;
  /// A make-resident request is outstanding with the driver.
  bool remap_requested = false;

  // Fragment transitions. Each keeps SendDescriptor::frags_unsent_ and
  // sendable_ exact; nothing else writes a descriptor's transport state.

  /// kUnsent -> kInFlight (the fragment bound to a channel).
  void mark_in_flight(SendDescriptor& d, std::uint32_t frag) {
    d.frag_state_[frag] = SendDescriptor::FragState::kInFlight;
    if (--d.frags_unsent_ == 0 && !d.finished()) --sendable_;
  }
  /// kInFlight -> kUnsent (its channel was lost or unbound); false if the
  /// fragment was not in flight.
  bool mark_unsent(SendDescriptor& d, std::uint32_t frag) {
    if (!d.frag_in_flight(frag)) return false;
    if (d.frags_unsent_++ == 0 && !d.finished()) ++sendable_;
    d.frag_state_[frag] = SendDescriptor::FragState::kUnsent;
    if (frag < d.first_unsent_) d.first_unsent_ = frag;
    return true;
  }
  /// kInFlight -> kAcked; false if the fragment was not in flight.
  bool mark_acked(SendDescriptor& d, std::uint32_t frag) {
    if (!d.frag_in_flight(frag)) return false;
    d.frag_state_[frag] = SendDescriptor::FragState::kAcked;
    ++d.frags_acked_;
    return true;
  }
  /// Every fragment delivered at once (loopback, GAM overrun).
  void mark_all_acked(SendDescriptor& d) {
    if (d.has_unsent()) --sendable_;
    d.frag_state_.assign(d.frag_count, SendDescriptor::FragState::kAcked);
    d.frags_acked_ = d.frag_count;
    d.frags_unsent_ = 0;
  }
  /// The message is undeliverable and leaves the send scheduler.
  void mark_returned(SendDescriptor& d) {
    if (d.has_unsent()) --sendable_;
    d.returned_ = true;
  }
  /// Pops finished descriptors off the head of the send queue.
  void sweep_send_queue() {
    while (!send_queue_.empty() && send_queue_.front().finished()) {
      send_queue_.pop_front();
    }
  }

 private:
  // The NIC reads and completes descriptors in place, transitioning them
  // only through the methods above.
  friend class Nic;
  SendQueue send_queue_;
  std::uint32_t sendable_ = 0;
};

}  // namespace vnet::lanai
