// Heap-allocation regression tests for the message path. This binary
// replaces the global operator new with a counting one, so it is kept apart
// from vnet_unit_tests: each test counts the allocations made inside a
// measured window after a warm-up that lets every pool, ring and table
// reach its working size.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "lanai/config.hpp"
#include "lanai/endpoint_state.hpp"
#include "lanai/nic.hpp"
#include "myrinet/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/sync.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

// Out of line so GCC's -Wmismatched-new-delete does not pair the inlined
// free() with the replaced operator new below.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

namespace vnet::lanai {
namespace {

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

/// NICs on a crossbar with one resident endpoint per host; endpoint i
/// lives on node i with id i + 1 and maps translation j to endpoint j.
struct Rig {
  Rig(int nodes, myrinet::FabricParams fp, NicConfig cfg) : cfg(cfg) {
    fabric = myrinet::Fabric::crossbar(eng, nodes, fp);
    for (myrinet::NodeId n = 0; n < nodes; ++n) {
      nics.push_back(std::make_unique<Nic>(eng, *fabric, n, cfg));
      nics.back()->start();
      auto ep = std::make_unique<EndpointState>();
      ep->node = n;
      ep->id = static_cast<EpId>(n + 1);
      ep->translations.resize(static_cast<std::size_t>(nodes));
      nics.back()->submit({DriverOp::Kind::kCreate, ep.get(), -1, 0, nullptr});
      nics.back()->submit({DriverOp::Kind::kLoad, ep.get(), 0, 0, nullptr});
      eps.push_back(std::move(ep));
    }
    for (auto& ep : eps) {
      for (int j = 0; j < nodes; ++j) {
        ep->translations[static_cast<std::size_t>(j)] =
            Translation{true, j, static_cast<EpId>(j + 1), 0};
      }
      // Consume arrivals at once, as a polling host would.
      EndpointState* raw = ep.get();
      raw->on_arrival = [raw] {
        raw->recv_requests.clear();
        raw->recv_replies.clear();
      };
    }
    eng.run();
  }

  /// Writes a request of `bulk` bytes from node `src` to node `dst`.
  void post(int src, int dst, std::uint32_t bulk) {
    EndpointState& ep = *eps[static_cast<std::size_t>(src)];
    SendDescriptor d;
    d.dest_index = static_cast<std::uint32_t>(dst);
    d.body.handler = 1;
    d.body.bulk_bytes = bulk;
    d.msg_id = ep.alloc_msg_id();
    d.frag_count =
        bulk == 0 ? 1 : (bulk + cfg.max_packet_payload - 1) / cfg.max_packet_payload;
    ep.enqueue(std::move(d));
    nics[static_cast<std::size_t>(src)]->doorbell(ep);
  }

  std::uint64_t delivered() const {
    std::uint64_t n = 0;
    for (const auto& ep : eps) n += ep->msgs_delivered;
    return n;
  }

  sim::Engine eng{11};
  NicConfig cfg;
  std::unique_ptr<myrinet::Fabric> fabric;
  std::vector<std::unique_ptr<Nic>> nics;
  std::vector<std::unique_ptr<EndpointState>> eps;
};

/// The event queue's calendar buckets (and its overflow heap with the
/// scratch vector a rebase swaps it with) keep the capacity they grow to,
/// but a periodic stream brings each bucket to its own peak only over many
/// passes of the 4.2 ms calendar. Filling every bucket (16 no-op events per
/// 4 us bucket) for three horizons is the part of the warm-up that is the
/// engine's, not the message path's.
void warm_calendar(sim::Engine& eng) {
  const sim::Time from = eng.now();
  for (sim::Duration t = 0; t < 3 * 4200 * sim::us; t += 256) {
    eng.at(from + t, [] {});
  }
  eng.run();
}

/// Posts `count` requests from `src` to `dst`, one at a time, keeping at
/// most `window` unfinished in the send queue; returns once all arrived.
void stream(Rig& rig, int src, int dst, int count, std::size_t window,
            std::uint32_t bulk) {
  const std::uint64_t target = rig.delivered() + static_cast<std::uint64_t>(count);
  int posted = 0;
  EndpointState& ep = *rig.eps[static_cast<std::size_t>(src)];
  while (rig.delivered() < target) {
    while (posted < count && ep.send_queue().size() < window) {
      rig.post(src, dst, bulk);
      ++posted;
    }
    ASSERT_TRUE(rig.eng.step());
  }
}

TEST(AllocationFree, ShortRequestStreamAllocatesNothingAfterWarmUp) {
  Rig rig(2, {}, {});
  warm_calendar(rig.eng);
  stream(rig, 0, 1, 5'000, 8, 0);  // warm-up
  const std::uint64_t before = allocs();
  stream(rig, 0, 1, 10'000, 8, 0);
  EXPECT_EQ(allocs() - before, 0u);
}

TEST(AllocationFree, LossyBulkExchangeStaysUnderBound) {
  myrinet::FabricParams fp;
  fp.faults.drop_probability = 0.05;
  NicConfig cfg;
  cfg.retransmit_timeout = 100 * sim::us;
  Rig rig(4, fp, cfg);
  auto round = [&](int rounds) {
    // Every host sends a two-fragment request to every other host.
    for (int r = 0; r < rounds; ++r) {
      const std::uint64_t target = rig.delivered() + 12;
      for (int s = 0; s < 4; ++s) {
        for (int d = 0; d < 4; ++d) {
          if (s != d) rig.post(s, d, 2 * cfg.max_packet_payload);
        }
      }
      while (rig.delivered() < target) ASSERT_TRUE(rig.eng.step());
    }
  };
  warm_calendar(rig.eng);
  round(150);  // warm-up: fills every 128-id dedup window
  const std::uint64_t retx_before =
      rig.eng.snapshot().counter("host.0.nic.retransmissions");
  const std::uint64_t before = allocs();
  round(200);
  const double per_msg =
      static_cast<double>(allocs() - before) / (200.0 * 12.0);
  EXPECT_GT(rig.eng.snapshot().counter("host.0.nic.retransmissions"),
            retx_before);
  EXPECT_LT(per_msg, 0.01);
}

TEST(AllocationFree, TimedOutWaitsLeaveNothingBehind) {
  sim::Engine eng;
  sim::CondVar cv(eng);
  std::uint64_t timeouts = 0, loop_allocs = 0;
  warm_calendar(eng);
  eng.spawn([](sim::CondVar& c, std::uint64_t& n,
               std::uint64_t& counted) -> sim::Process {
    std::uint64_t mark = 0;
    for (int i = 0; i < 10'100; ++i) {
      if (i == 100) mark = allocs();
      if (!co_await c.wait_for(1 * sim::us)) ++n;
    }
    counted = allocs() - mark;
  }(cv, timeouts, loop_allocs));
  eng.run();
  EXPECT_EQ(loop_allocs, 0u);
  EXPECT_EQ(timeouts, 10'100u);
  EXPECT_EQ(cv.waiter_count(), 0u);
  EXPECT_EQ(eng.pending_events(), 0u);
}

}  // namespace
}  // namespace vnet::lanai
