#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>

#include "myrinet/packet.hpp"
#include "sim/engine.hpp"
#include "sim/ring.hpp"
#include "sim/shard.hpp"

namespace vnet::myrinet {

/// Parameters of one link direction.
struct LinkParams {
  /// Serialization rate. Default 6.25 ns/B = 160 MB/s per direction,
  /// matching Myrinet's 1.28 Gb/s links.
  double ns_per_byte = 6.25;
  /// Propagation delay of the cable itself (switch cut-through latency is
  /// charged separately by the Switch).
  sim::Duration propagation = 25 * sim::ns;
  /// Receiver-side buffer slots. Myrinet has ~7 bytes of buffering per hop —
  /// essentially wormhole — so keep this small: when the receiver cannot
  /// drain, the sender stalls almost immediately and congestion spreads
  /// upstream, as described in §2 of the paper.
  int credits = 2;
};

/// One direction of a link: a transmitter owned by the upstream device and
/// a receiver owned by the downstream device, with credit-based flow
/// control approximating Myrinet's link-level back-pressure.
///
/// Protocol (batched datapath):
///   * the owner checks can_send() and calls send(); the serialization
///     start is computed analytically from the transmitter-free time, so
///     back-to-back packets join an in-flight *train* without per-packet
///     transmit-completion events. One pending engine event per train
///     delivers the head at its exact arrival instant and is then
///     rescheduled for the next head — per-packet delivery times are
///     identical to an unbatched link, but the ser-end and propagation
///     events it would schedule per packet are gone;
///   * each send consumes a credit; the downstream device returns it with
///     release_credit(). Returns are *lazy*: the maturity time (one
///     propagation back over the wire) is recorded and banked by the next
///     can_send(), costing no event. An owner that finds can_send() false
///     with work still queued arms notify_when_ready(); on_tx_ready fires
///     only on demand, at the earliest credit maturity;
///   * `head_delay` on send() lets the switch fold its cut-through latency
///     into the downstream serialization start instead of scheduling its
///     own per-packet event.
///
/// Cross-shard operation: when the two ends of a link direction live on
/// different engine shards (sim/shard.hpp), the direction is *split* into a
/// tx half on the sender's engine and an rx half on the receiver's engine,
/// coupled through the ShardRouter instead of direct engine events:
///   * the tx half evaluates link-down / fault drops at send time (the
///     serial channel evaluates them at wire-arrival; the outcomes differ
///     only when the state changes during the ~flight time, which the
///     multi-shard determinism contract permits) and posts the delivery —
///     timestamped delivered_at >= now + serialization + propagation, which
///     clears the lookahead bound L = propagation with slack;
///   * the rx half turns release_credit() into a routed credit-arrival
///     record at now + propagation back on the tx shard — the tightest
///     cross-shard record, exactly L after its posting instant;
///   * dropped packets refund their credit via a local tx-shard event at
///     the would-be delivery instant.
/// Both halves stay single-threaded: each runs only on its own shard's
/// worker, and all coupling flows through the router's outboxes.
class Channel {
 public:
  Channel(sim::Engine& engine, LinkParams params)
      : engine_(&engine), params_(params), credits_(params.credits) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Turns this channel into the transmit half of a cross-shard direction.
  /// `rx` is the receive half on shard `peer_shard`'s engine.
  void make_remote_tx(sim::ShardRouter* router, int self_shard,
                      int peer_shard, Channel* rx) {
    router_ = router;
    self_shard_ = self_shard;
    peer_shard_ = peer_shard;
    remote_peer_ = rx;
    mode_ = Mode::kRemoteTx;
  }

  /// Turns this channel into the receive half of a cross-shard direction.
  /// `tx` is the transmit half on shard `peer_shard`'s engine.
  void make_remote_rx(sim::ShardRouter* router, int self_shard,
                      int peer_shard, Channel* tx) {
    router_ = router;
    self_shard_ = self_shard;
    peer_shard_ = peer_shard;
    remote_peer_ = tx;
    mode_ = Mode::kRemoteRx;
  }

  bool is_remote() const { return mode_ != Mode::kLocal; }

  /// Downstream delivery hook (set by the owning device at wiring time).
  std::function<void(Packet)> on_deliver;
  /// Fired when the transmitter can accept another packet — but only after
  /// the owner armed notify_when_ready(); there is no unsolicited callback.
  std::function<void()> on_tx_ready;
  /// Optional fault hook, called once per packet as it crosses the wire.
  /// May mutate the packet (e.g. set `corrupt`); returning true drops it.
  std::function<bool(Packet&)> fault_filter;

  // A down link still "accepts" packets — they are dropped in flight, like
  // bits pushed into an unplugged cable — so senders never stall on it.
  bool can_send() {
    mature_credits();
    return credits_ > 0;
  }
  bool is_up() const { return up_; }

  /// Starts transmitting `p`. Precondition: can_send(). `head_delay` is
  /// dead time before serialization may begin (switch cut-through).
  void send(Packet p, sim::Duration head_delay = 0) {
    --credits_;
    const sim::Time start =
        std::max(engine_->now() + head_delay, tx_free_at_);
    const auto ser = static_cast<sim::Duration>(
        static_cast<double>(p.wire_bytes) * params_.ns_per_byte);
    tx_free_at_ = start + ser;
    bytes_sent_ += p.wire_bytes;
    ++packets_sent_;
    // The arrival instant rides in the packet; after the last hop it is the
    // wire-stage boundary for latency attribution (packet.hpp).
    p.delivered_at = tx_free_at_ + params_.propagation;
    if (p.hops < 0xff) ++p.hops;
    if (mode_ == Mode::kRemoteTx) {
      send_remote(std::move(p));
      return;
    }
    train_.push_back(std::move(p));
    if (!delivery_pending_) {
      delivery_pending_ = true;
      engine_->at(train_.front().delivered_at, [this] { deliver_train(); });
    }
  }

  /// Returns one buffer credit to the sender (called by the downstream
  /// device when the packet leaves its input stage). The credit still
  /// travels back over the wire: it matures one propagation delay from now.
  void release_credit() {
    if (mode_ == Mode::kRemoteRx) {
      // The credit crosses back to the tx shard as a routed record maturing
      // one propagation from now — the binding case of the lookahead bound.
      router_->post(self_shard_, peer_shard_,
                    engine_->now() + params_.propagation,
                    [tx = remote_peer_] { tx->remote_credit_arrived(); });
      return;
    }
    credit_returns_.push_back(engine_->now() + params_.propagation);
    if (waiting_) arm_wakeup();
  }

  /// Hands an arrived packet to this rx half's device (runs on the rx
  /// shard's engine at the packet's delivered_at instant).
  void deliver_remote(Packet p) {
    if (on_deliver) on_deliver(std::move(p));
  }

  /// A routed credit matured on this tx half (runs on the tx shard).
  void remote_credit_arrived() {
    ++credits_;
    wake_owner();
  }

  /// Arms a one-shot on_tx_ready callback for when can_send() next turns
  /// true. Call after finding can_send() false with work still queued; the
  /// wakeup fires at the earliest credit maturity (or when a drop refunds
  /// a credit, or the link comes back up).
  void notify_when_ready() {
    if (can_send()) {
      // Raced with a refund between the owner's check and this call; keep
      // the owner's callback out of its own stack frame.
      engine_->after(0, [this] {
        if (on_tx_ready) on_tx_ready();
      });
      return;
    }
    waiting_ = true;
    arm_wakeup();
  }

  /// Takes the link down: in-flight and future packets are dropped until
  /// set_up(true). Models the hot-swap scenarios of §3.2.
  void set_up(bool up) {
    up_ = up;
    if (up_) wake_owner();
  }

  int credits() {
    mature_credits();
    return credits_;
  }
  std::uint64_t packets_sent() const { return packets_sent_; }
  /// Total losses on this link, from both causes.
  std::uint64_t packets_dropped() const {
    return dropped_down_ + dropped_fault_;
  }
  /// Losses because the link was administratively/physically down.
  std::uint64_t dropped_down() const { return dropped_down_; }
  /// Losses injected by the fault filter (Bernoulli or burst model).
  std::uint64_t dropped_fault() const { return dropped_fault_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  const LinkParams& params() const { return params_; }

 private:
  enum class Mode { kLocal, kRemoteTx, kRemoteRx };

  /// Cross-shard transmit tail of send(): drop decisions happen here, at
  /// send time on the tx shard; survivors become router records.
  void send_remote(Packet p) {
    const bool drop = !up_ || (fault_filter && fault_filter(p));
    if (drop) {
      if (!up_) {
        ++dropped_down_;
      } else {
        ++dropped_fault_;
      }
      // The receiver never sees the packet, so no credit will be routed
      // back; refund locally when the wire crossing would have completed.
      engine_->at(p.delivered_at, [this] {
        ++credits_;
        wake_owner();
      });
      return;
    }
    router_->post(self_shard_, peer_shard_, p.delivered_at,
                  [rx = remote_peer_, p = std::move(p)]() mutable {
                    rx->deliver_remote(std::move(p));
                  });
  }

  /// Delivers every train entry that has reached its arrival instant (ties
  /// share one event), then re-arms for the new head. Faults and link-down
  /// drops are evaluated here, at wire-crossing completion.
  void deliver_train() {
    const sim::Time now = engine_->now();
    bool refunded = false;
    while (!train_.empty() && train_.front().delivered_at <= now) {
      Packet p = train_.take_front();
      const bool drop = !up_ || (fault_filter && fault_filter(p));
      if (drop) {
        if (!up_) {
          ++dropped_down_;
        } else {
          ++dropped_fault_;
        }
        // A dropped packet never reaches the receiver, so its credit can
        // never be returned from downstream; refund it here.
        ++credits_;
        refunded = true;
      } else if (on_deliver) {
        on_deliver(std::move(p));
      }
    }
    if (!train_.empty()) {
      engine_->at(train_.front().delivered_at, [this] { deliver_train(); });
    } else {
      delivery_pending_ = false;
    }
    if (refunded) wake_owner();
  }

  void mature_credits() {
    const sim::Time now = engine_->now();
    while (!credit_returns_.empty() && credit_returns_.front() <= now) {
      credit_returns_.pop_front();
      ++credits_;
    }
  }

  void arm_wakeup() {
    if (wake_armed_ || credit_returns_.empty()) return;
    wake_armed_ = true;
    engine_->at(credit_returns_.front(), [this] {
      wake_armed_ = false;
      wake_owner();
    });
  }

  void wake_owner() {
    if (!waiting_) return;
    waiting_ = false;
    if (on_tx_ready) on_tx_ready();
  }

  sim::Engine* engine_;
  LinkParams params_;
  int credits_;
  bool up_ = true;
  // Cross-shard coupling (null/kLocal for an ordinary single-engine link).
  sim::ShardRouter* router_ = nullptr;
  Channel* remote_peer_ = nullptr;
  int self_shard_ = 0;
  int peer_shard_ = 0;
  Mode mode_ = Mode::kLocal;
  /// When the transmitter finishes serializing everything accepted so far.
  sim::Time tx_free_at_ = 0;
  /// Packets on the wire, arrival order; head owns the one pending event.
  sim::Ring<Packet> train_;
  bool delivery_pending_ = false;
  /// Maturity instants of credits still travelling back (FIFO).
  sim::Ring<sim::Time> credit_returns_;
  bool waiting_ = false;
  bool wake_armed_ = false;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t dropped_down_ = 0;
  std::uint64_t dropped_fault_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace vnet::myrinet
