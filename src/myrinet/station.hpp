#pragma once

#include <cstdint>
#include <functional>

#include "myrinet/link.hpp"
#include "myrinet/packet.hpp"
#include "sim/engine.hpp"
#include "sim/ring.hpp"
#include "sim/sync.hpp"

namespace vnet::myrinet {

/// A host's attachment point to the fabric: the pair of link channels
/// between the NIC and its first switch, plus a small injection queue.
///
/// The NIC firmware injects packets (inject()), throttling itself on
/// `drained()` when the injection queue backs up, and receives fully
/// arrived packets through `on_receive`. Input credits are released
/// immediately on delivery: the LANai drains its incoming link at wire
/// speed, and the interesting receive-side queueing (endpoint receive-queue
/// overrun) is handled by the transport protocol's NACKs, per §5.1.
class Station {
 public:
  Station(sim::Engine& engine, NodeId id) : id_(id), drained_(engine) {}

  Station(const Station&) = delete;
  Station& operator=(const Station&) = delete;

  NodeId id() const { return id_; }

  /// Upcall invoked when a packet addressed to this station arrives.
  std::function<void(Packet)> on_receive;

  /// Maximum packets queued for injection before the firmware should
  /// throttle (the LANai's send staging area is small).
  static constexpr std::size_t kInjectLimit = 4;

  bool can_inject() const { return backlog_.size() < kInjectLimit; }

  /// Queues a packet for transmission; starts it immediately if the link
  /// transmitter is idle and has credit.
  void inject(Packet p) {
    ++packets_injected_;
    backlog_.push_back(std::move(p));
    pump();
  }

  /// Awaitable used by firmware to wait until can_inject() again.
  sim::CondVar& drained() { return drained_; }

  std::size_t backlog() const { return backlog_.size(); }
  std::uint64_t packets_injected() const { return packets_injected_; }
  std::uint64_t packets_received() const { return packets_received_; }

  // --- wiring (called by Fabric) ---

  void attach_tx(Channel* tx) {
    tx_ = tx;
    tx_->on_tx_ready = [this] { pump(); };
  }

  void attach_rx(Channel* rx) {
    rx_ = rx;
    rx_->on_deliver = [this](Packet p) {
      ++packets_received_;
      rx_->release_credit();
      if (on_receive) on_receive(std::move(p));
    };
  }

  Channel* tx_channel() { return tx_; }
  Channel* rx_channel() { return rx_; }

 private:
  void pump() {
    while (tx_ != nullptr && !backlog_.empty() && tx_->can_send()) {
      tx_->send(backlog_.take_front());
    }
    // Out of credits with packets still queued: arm the demand wakeup
    // (on_tx_ready fires only when armed — there is no unsolicited call).
    if (tx_ != nullptr && !backlog_.empty()) tx_->notify_when_ready();
    if (can_inject()) drained_.notify_all();
  }

  NodeId id_;
  sim::CondVar drained_;
  Channel* tx_ = nullptr;
  Channel* rx_ = nullptr;
  sim::Ring<Packet> backlog_;
  std::uint64_t packets_injected_ = 0;
  std::uint64_t packets_received_ = 0;
};

}  // namespace vnet::myrinet
