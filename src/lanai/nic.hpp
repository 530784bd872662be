#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "lanai/config.hpp"
#include "lanai/endpoint_state.hpp"
#include "lanai/frame.hpp"
#include "lanai/sbus.hpp"
#include "myrinet/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/ring.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace vnet::lanai {

/// Bytes occupied by one endpoint image: the LANai 4.3 reserves 64 KB of
/// SRAM for 8 endpoint frames (§4.1), so 8 KB each. Loading/unloading an
/// endpoint moves this much across the SBUS.
inline constexpr std::uint32_t kEndpointImageBytes = 8192;

/// An operation the segment driver asks the NIC to perform, sent over the
/// permanently-resident system endpoint (§4.3). The driver awaits `done`.
struct DriverOp {
  enum class Kind {
    kCreate,   ///< register an endpoint in the NIC directory (non-resident)
    kDestroy,  ///< quiesce, unbind and forget an endpoint
    kLoad,     ///< make resident: DMA the image in, bind to `frame`
    kUnload,   ///< quiesce, DMA the image out, unbind
  };
  Kind kind;
  EndpointState* ep = nullptr;
  int frame = -1;
  std::uint64_t lamport = 0;
  sim::Gate* done = nullptr;
};

/// A request the NIC makes of the driver (§4.3), e.g. activating a
/// non-resident endpoint in response to message arrival.
struct NicRequest {
  enum class Kind { kMakeResident };
  Kind kind = Kind::kMakeResident;
  EpId ep = kInvalidEp;
  std::uint64_t lamport = 0;
};

/// Registry-backed counter handles the firmware bumps on the hot path.
/// Field names double as the metric leaf names under "host.<node>.nic.".
struct NicCounters {
  obs::Counter data_sent, data_received, acks_sent, acks_received, nacks_sent,
      nacks_received, retransmissions, timeouts, channel_unbinds,
      returned_to_sender, crc_drops, gam_drops, duplicates_suppressed,
      local_deliveries, remap_requests, driver_ops, msgs_completed,
      frames_loaded, frames_unloaded, acks_piggybacked, piggy_flushes,
      firmware_wakeups;
  obs::Counter nacks_sent_by_reason[8];
  /// Transport round-trip samples (ack echo), in nanoseconds.
  obs::Histogram rtt_ns;

  void register_with(obs::MetricsRegistry& reg, const std::string& prefix);
};

/// The simulated LANai network interface.
///
/// One firmware coroutine implements the dispatch loop of §5: it drains
/// arriving packets, interleaves driver/NI protocol operations, retransmits
/// timed-out channels, and services resident endpoints with a weighted
/// round-robin discipline that loiters on busy endpoints for at most
/// `loiter_descriptors` messages / `loiter_time` (§5.2). Every action
/// charges instructions at 37.5 MHz, which is what makes the NIC — not the
/// host — the rate-limiting stage for small-message streams (Fig 3's g).
///
/// With `config.reliable_transport == false` the same device runs the
/// first-generation GAM firmware used as the baseline in Figs 3 and 4:
/// single endpoint, no keys, no acknowledgments or retransmission.
class Nic {
 public:
  Nic(sim::Engine& engine, myrinet::Fabric& fabric, NodeId node,
      NicConfig config);

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  /// Unregisters this NIC's pull-style gauges; they capture `this` and
  /// must not outlive it (the registry samples them at snapshot time).
  ~Nic();

  /// Spawns the firmware loop. Call once after construction.
  void start();

  NodeId node() const { return node_; }
  const NicConfig& config() const { return config_; }
  SbusDma& sbus() { return sbus_; }

  /// 32-bit NIC clock (~1 us granularity), stamped into link headers and
  /// echoed by acknowledgments (§5.1).
  std::uint32_t nic_timestamp() const {
    return static_cast<std::uint32_t>(engine_->now() >> 10);
  }

  // ---- host-side interface ----

  /// Doorbell: the host wrote a send descriptor into a resident endpoint.
  /// Returns the time the ring reaches the firmware — `now` when it passes
  /// straight through, the end of the coalesce window when it is folded
  /// into a deferred ring. Span capture stamps this as the kGateOpen
  /// boundary, splitting doorbell-moderation wait from tx queue wait.
  sim::Time doorbell(EndpointState& ep);

  // ---- driver/NI protocol (§4.3) ----

  /// Enqueues a driver operation; the NIC interleaves it with message
  /// processing and opens `op.done` when complete.
  void submit(DriverOp op);

  /// Upcall to the segment driver (make-resident requests).
  std::function<void(NicRequest)> on_nic_request;

  /// Lamport clock value of the NIC, for event-order resolution between
  /// the driver and NIC (§4.3).
  std::uint64_t lamport() const { return lamport_; }

  // ---- introspection ----

  int endpoint_frames() const { return static_cast<int>(frames_.size()); }
  EndpointState* frame_occupant(int i) const { return frames_[i].ep; }
  int free_frames() const;
  bool directory_contains(EpId ep) const {
    return directory_.count(ep) != 0;
  }

  int busy_channel_count() const { return busy_channels_; }

  /// Unfinished send descriptors across every endpoint this NIC knows;
  /// exported as the `send_backlog` gauge the frame-loiter watchdog reads.
  std::size_t send_backlog() const {
    std::size_t n = 0;
    for (const auto& [id, ep] : directory_) {
      for (const auto& d : ep->send_queue()) {
        if (!d.finished()) ++n;
      }
    }
    return n;
  }

  /// Current smoothed RTT estimate to `peer` (0 if none yet); §8 extension.
  sim::Duration rtt_estimate(NodeId peer) const {
    const Peer* p = find_peer(peer);
    return p != nullptr && p->rtt.valid
               ? static_cast<sim::Duration>(p->rtt.srtt_ns)
               : 0;
  }

  /// Simulates a NIC reboot: all channel sequencing state (NIC SRAM) is
  /// lost and epochs advance, exercising the self-synchronizing
  /// re-initialization of §5.1. Endpoint bindings and message-level receive
  /// state (dedup windows, reassembly) survive — they belong to the
  /// endpoints, which live in host memory. In-flight fragments on the lost
  /// channels are marked unsent so the rebuilt channels retransmit them.
  void reboot();

 private:
  /// One stop-and-wait send channel (§5.1). While busy it is bound to one
  /// fragment; it keeps only what that fragment's descriptor cannot say —
  /// the destination resolved at first send, the sequence and timestamp of
  /// the copy on the wire — and handle_retransmit() rebuilds the frame from
  /// the descriptor with data_frame(). Fields are ordered by size: one
  /// table entry per (peer, channel) adds up to O(N^2) across a cluster.
  struct ChannelState {
    std::uint64_t msg_id = 0;       ///< bound fragment's message
    std::uint64_t key = 0;          ///< its destination key
    std::uint64_t timer_gen = 0;
    sim::Time sent_at = 0;          ///< of the most recent (re)transmission
    EndpointState* src_ep = nullptr;
    sim::EventHandle timer_ev;      ///< pending retransmit timer, if armed
    NodeId peer = myrinet::kInvalidNode;
    EpId dst_ep = kInvalidEp;
    std::uint32_t frag_index = 0;
    std::uint32_t epoch = 1;
    std::uint32_t timestamp = 0;    ///< NIC clock stamped on the copy sent
    int consecutive_retries = 0;
    std::uint16_t index = 0;
    std::uint8_t next_seq = 0;
    std::uint8_t seq = 0;           ///< sequence number of the bound fragment
    /// Acks piggybacked on the bound fragment (Peer::carried holds them).
    std::uint16_t carried_acks = 0;
    bool busy = false;
    bool was_retransmitted = false;  // Karn: skip RTT samples
  };
  static_assert(sizeof(ChannelState) <= 128,
                "one ChannelState per (peer, channel): keep it compact");

  /// §8 extension: per-peer Jacobson RTT estimator fed by ack timestamps.
  struct RttEstimator {
    bool valid = false;
    double srtt_ns = 0;
    double rttvar_ns = 0;
    void sample(sim::Duration rtt) {
      const auto r = static_cast<double>(rtt);
      if (!valid) {
        valid = true;
        srtt_ns = r;
        rttvar_ns = r / 2;
      } else {
        const double err = r - srtt_ns;
        srtt_ns += 0.125 * err;
        rttvar_ns += 0.25 * ((err < 0 ? -err : err) - rttvar_ns);
      }
    }
    sim::Duration timeout(sim::Duration floor_value) const {
      const auto t = static_cast<sim::Duration>(srtt_ns + 4 * rttvar_ns);
      return t < floor_value ? floor_value : t;
    }
  };

  /// Receive-side sequencing state per (peer, channel).
  struct RecvChannelState {
    bool have_seq = false;
    std::uint8_t last_seq = 0;
    std::uint32_t epoch = 0;
  };

  struct FrameSlot {
    EndpointState* ep = nullptr;
  };

  /// Everything the firmware keeps per remote node, in one lazily created
  /// block indexed by NodeId. The channel tables are NIC SRAM: reboot()
  /// frees them (a rebuilt table starts in the new epoch). The RTT
  /// estimate and queued acknowledgments survive a reboot.
  struct Peer {
    std::vector<ChannelState> send;      ///< created by the first send
    std::vector<RecvChannelState> recv;  ///< grown by the first receive
    // Rotation cursor for channel allocation, so a message unbound from a
    // dead route fails over to a different channel (and, on a fat-tree, a
    // different spine) when it rebinds.
    std::size_t cursor = 0;
    int free_channels = 0;  ///< entries of `send` with !busy
    RttEstimator rtt;
    std::vector<Frame::PiggyAck> pending_acks;
    /// With piggyback_acks: the acks each busy channel's fragment carries,
    /// piggyback_max slots per channel (ChannelState::carried_acks used).
    std::vector<Frame::PiggyAck> carried;
    bool piggy_flush_scheduled = false;
  };

  // --- firmware ---
  sim::Process firmware_loop();
  bool work_pending() const;
  bool frames_sendable() const;
  bool has_sendable(const EndpointState& ep) const;
  static Translation destination(const EndpointState& ep,
                                 const SendDescriptor& desc);
  bool blocked_on_channels(const EndpointState& ep,
                           const SendDescriptor& desc) const;
  void stamp_pickup(const EndpointState& ep, const SendDescriptor& desc);
  sim::Task<bool> service_step();
  sim::Task<bool> service_endpoint(EndpointState& ep);
  sim::Task<bool> start_fragment(EndpointState& ep, SendDescriptor& desc);
  std::uint32_t fragment_bytes(const SendDescriptor& desc,
                               std::uint32_t frag) const;
  Frame data_frame(const EndpointState& ep, const SendDescriptor& desc,
                   NodeId dst_node, EpId dst_ep, std::uint64_t key,
                   std::uint32_t frag) const;
  sim::Task<bool> deliver_local(EndpointState& src, SendDescriptor& desc,
                                EpId dst_ep, std::uint64_t key);
  sim::Task<bool> handle_rx(myrinet::Packet pkt);
  sim::Task<> handle_data(const Frame& f);
  sim::Task<> handle_ack_or_nack(const Frame& f);
  sim::Task<> handle_driver(DriverOp op);
  sim::Task<bool> handle_retransmit(ChannelState* ch);
  sim::Task<> accept_fragment(EndpointState& ep, const Frame& f,
                              RecvQueue& queue,
                              std::uint32_t& reserved);
  sim::Task<> send_ack(const Frame& data);
  sim::Task<> send_nack(const Frame& data, NackReason r) {
    return send_nack(data, r, data.epoch);
  }
  sim::Task<> send_nack(const Frame& data, NackReason r, std::uint32_t epoch);
  sim::Task<> apply_positive_ack(NodeId peer, const Frame::PiggyAck& pa,
                                 bool standalone);
  void schedule_piggy_flush(NodeId peer);
  sim::Task<> flush_pending_acks(NodeId peer);
  sim::Duration data_timeout(NodeId peer) const;
  sim::Task<> inject(Frame f);
  sim::Task<bool> process_unloads();
  void request_make_resident(EndpointState& ep);

  // --- helpers ---
  sim::Duration instr(int count) const { return config_.instr(count); }
  /// Awaitable instruction charge: the engine's delay awaiter itself, so a
  /// charge builds no coroutine frame of its own.
  auto charge(int instructions) { return engine_->delay(instr(instructions)); }
  Peer& peer(NodeId node);
  const Peer* find_peer(NodeId node) const {
    const auto i = static_cast<std::size_t>(node);
    return i < peers_.size() ? peers_[i].get() : nullptr;
  }
  /// The channel table to `node`, or nullptr if none exists (yet, or
  /// since a reboot).
  ChannelState* find_channel(NodeId node, std::uint16_t index);
  RecvChannelState& recv_channel(NodeId node, std::uint16_t index);
  ChannelState* find_free_channel(NodeId node);
  // The only writers of ChannelState::busy: keep the per-peer free count,
  // the per-endpoint in-flight count and busy_channels_ in step.
  void acquire_channel(ChannelState& ch, EndpointState& ep);
  void release_channel(ChannelState& ch);
  void check_indexes(const EndpointState& ep) const;
  void arm_timer(ChannelState& ch, sim::Duration timeout);
  void disarm_timer(ChannelState& ch);
  sim::Duration backoff_for(const ChannelState& ch, int consecutive) const;
  sim::Duration nack_backoff(int consecutive) const;
  SendDescriptor* find_descriptor(EndpointState& ep, std::uint64_t msg_id);
  void complete_fragment_ack(ChannelState& ch, std::uint64_t msg_id);
  void abort_descriptor(EndpointState& ep, std::uint64_t msg_id);
  void return_to_sender(EndpointState& ep, std::uint64_t msg_id,
                        NackReason reason);
  bool endpoint_quiescent(const EndpointState& ep) const;
  void bump_lamport(std::uint64_t seen) {
    lamport_ = (seen > lamport_ ? seen : lamport_) + 1;
  }

  sim::Engine* engine_;
  myrinet::Fabric* fabric_;
  myrinet::Station* station_;
  NodeId node_;
  NicConfig config_;
  SbusDma sbus_;

  sim::CondVar work_;
  /// Doorbell moderation state (see doorbell()): earliest time the next
  /// immediate ring may pass, and whether a deferred ring is in flight.
  sim::Time doorbell_gate_ = 0;
  bool doorbell_deferred_ = false;
  sim::Mailbox<myrinet::Packet> rx_;
  sim::Mailbox<DriverOp> driver_ops_;
  sim::Ring<ChannelState*> due_retransmits_;
  std::vector<DriverOp> pending_unloads_;

  std::vector<FrameSlot> frames_;
  std::size_t rr_cursor_ = 0;
  // Loiter state (§5.2): the endpoint currently being served, with its
  // remaining descriptor/time budget. Persists across dispatch-loop
  // iterations so receive processing interleaves with transmission.
  EndpointState* loiter_ep_ = nullptr;
  int loiter_budget_ = 0;
  sim::Time loiter_deadline_ = 0;
  std::unordered_map<EpId, EndpointState*> directory_;

  std::vector<std::unique_ptr<Peer>> peers_;  ///< by NodeId, lazily filled
  int busy_channels_ = 0;
  // Bumped by reboot(); retransmit timers from before a reboot carry the
  // old value and disarm themselves instead of touching rebuilt channels.
  std::uint64_t channel_table_gen_ = 0;

  std::uint64_t lamport_ = 0;
  std::uint32_t epoch_base_ = 1;
  sim::Rng rng_;
  std::string metric_prefix_;
  NicCounters counters_;
  bool started_ = false;
};

}  // namespace vnet::lanai
