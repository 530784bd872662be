#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "sim/time.hpp"

namespace vnet::myrinet {

/// Index of a host (station) attached to the fabric.
using NodeId = std::int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// Base class for the opaque payload the fabric carries. The NIC layer
/// (lanai) derives its transport frame from this; the fabric itself only
/// looks at the link header fields in Packet.
struct Payload {
  virtual ~Payload() = default;
};

/// Bytes of link-level framing added to every packet on the wire (Myrinet
/// route bytes, type, CRC).
inline constexpr std::uint32_t kLinkHeaderBytes = 8;

/// Source-route bytes carried by a packet, stored inline: a Myrinet route
/// is at most a handful of hops (the fat-tree needs 3), so spending a
/// heap-backed vector on it would make every packet build allocate.
class RouteBytes {
 public:
  RouteBytes() = default;
  RouteBytes(std::initializer_list<std::uint8_t> hops) {
    assign(hops.begin(), hops.size());
  }
  RouteBytes& operator=(const std::vector<std::uint8_t>& hops) {
    assign(hops.data(), hops.size());
    return *this;
  }
  std::size_t size() const { return len_; }
  std::uint8_t operator[](std::size_t i) const { return hops_[i]; }

 private:
  void assign(const std::uint8_t* p, std::size_t n) {
    assert(n <= hops_.size());
    len_ = static_cast<std::uint8_t>(n);
    std::copy_n(p, n, hops_.begin());
  }

  std::array<std::uint8_t, 8> hops_{};
  std::uint8_t len_ = 0;
};

/// A packet in flight. Myrinet is source-routed: `route` holds the output
/// port to take at each successive switch; `route_pos` advances per hop.
struct Packet {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  RouteBytes route;
  std::uint32_t route_pos = 0;
  /// Total size on the wire, including link and transport headers.
  std::uint32_t wire_bytes = 0;
  /// Set by fault injection; receiving NICs drop corrupt packets after the
  /// CRC check (contributing to transport retransmissions).
  bool corrupt = false;
  /// Stamped by each Channel at send time with the packet's computed
  /// arrival instant on that hop; after the last hop it is the delivery
  /// time at the destination station — the wire-stage boundary for latency
  /// attribution (obs/span.hpp). -1 until the packet first enters a link.
  sim::Time delivered_at = -1;
  /// Link hops traversed so far (bumped alongside delivered_at); at the
  /// destination it annotates the wire stage of a captured span
  /// (obs/span.hpp) — tail messages often rode the longer route.
  std::uint8_t hops = 0;
  std::unique_ptr<Payload> payload;
};

}  // namespace vnet::myrinet
