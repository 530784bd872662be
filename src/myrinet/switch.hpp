#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "myrinet/link.hpp"
#include "myrinet/packet.hpp"
#include "sim/engine.hpp"
#include "sim/ring.hpp"

namespace vnet::myrinet {

struct SwitchParams {
  /// Average cut-through latency per switch hop (§2: ~300 ns).
  sim::Duration cut_through = 300 * sim::ns;
  /// Per-output queue capacity, in packets. Small, to approximate wormhole
  /// buffering: once an output backs up, inputs hold their packets and
  /// upstream credits stop flowing.
  int out_queue_capacity = 2;
};

/// A source-routed cut-through switch.
///
/// Each arriving packet consumes its next route byte to pick an output
/// port. If the output queue has room the packet moves there (releasing the
/// input-link credit); otherwise it blocks in the input stage, withholding
/// the credit and stalling the upstream transmitter — this is how network
/// congestion "rapidly spreads through the network" (§2).
///
/// Batched datapath: the cut-through latency is not a scheduled event.
/// Routing happens at arrival, the packet carries its head-of-packet ready
/// time, and the residual delay is folded into the output Channel's
/// serialization start (Channel::send head_delay) — an uncongested switch
/// traversal costs zero engine events.
class Switch {
 public:
  Switch(sim::Engine& engine, int num_ports, SwitchParams params)
      : engine_(&engine), params_(params), ports_(num_ports) {}

  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

  int num_ports() const { return static_cast<int>(ports_.size()); }

  /// Wires the transmit side of `port` (switch -> neighbour).
  void attach_tx(int port, Channel* tx) {
    ports_[port].tx = tx;
    tx->on_tx_ready = [this, port] { pump(port); };
  }

  /// Wires the receive side of `port` (neighbour -> switch). The channel's
  /// delivery hook is bound here so arriving packets enter this switch.
  void attach_rx(int port, Channel* rx) {
    ports_[port].rx = rx;
    rx->on_deliver = [this, port](Packet p) { route(port, std::move(p)); };
  }

  std::uint64_t packets_routed() const { return packets_routed_; }
  std::uint64_t route_errors() const { return route_errors_; }

  /// Maximum output-queue depth observed; a congestion indicator for tests.
  int high_watermark() const { return high_watermark_; }

 private:
  struct Queued {
    sim::Time ready_at = 0;  ///< arrival + cut-through latency
    Packet p;
  };

  struct Port {
    Channel* tx = nullptr;
    Channel* rx = nullptr;
    sim::Ring<Queued> queue;
    // Packets routed to this output that could not be queued; they still
    // occupy their input buffer (in_port = input port holding the credit).
    struct Blocked {
      int in_port = 0;
      Queued q;
    };
    sim::Ring<Blocked> blocked;
  };

  void route(int in_port, Packet p) {
    if (p.route_pos >= p.route.size() ||
        p.route[p.route_pos] >= ports_.size()) {
      // Malformed route: Myrinet switches drop such packets on the floor.
      ++route_errors_;
      ports_[in_port].rx->release_credit();
      return;
    }
    const int out = p.route[p.route_pos];
    ++p.route_pos;
    Queued q{engine_->now() + params_.cut_through, std::move(p)};
    Port& op = ports_[out];
    if (static_cast<int>(op.queue.size()) < params_.out_queue_capacity) {
      op.queue.push_back(std::move(q));
      high_watermark_ =
          std::max(high_watermark_, static_cast<int>(op.queue.size()));
      ports_[in_port].rx->release_credit();
      pump(out);
    } else {
      // Output full: hold in the input stage, keep the upstream credit.
      op.blocked.push_back({in_port, std::move(q)});
    }
  }

  void pump(int out) {
    Port& op = ports_[out];
    while (op.tx != nullptr && !op.queue.empty() && op.tx->can_send()) {
      Queued q = op.queue.take_front();
      ++packets_routed_;
      // Any cut-through time not yet elapsed becomes dead time ahead of
      // the output serialization.
      const sim::Duration head_delay =
          std::max<sim::Duration>(0, q.ready_at - engine_->now());
      op.tx->send(std::move(q.p), head_delay);
      // A queue slot freed: admit one blocked packet and release its
      // input-side credit.
      if (!op.blocked.empty()) {
        Port::Blocked b = op.blocked.take_front();
        op.queue.push_back(std::move(b.q));
        ports_[b.in_port].rx->release_credit();
      }
    }
    if (op.tx != nullptr && !op.queue.empty()) op.tx->notify_when_ready();
  }

  sim::Engine* engine_;
  SwitchParams params_;
  std::vector<Port> ports_;
  std::uint64_t packets_routed_ = 0;
  std::uint64_t route_errors_ = 0;
  int high_watermark_ = 0;
};

}  // namespace vnet::myrinet
