// Unit tests for the host layer: CPU time-sharing, kernel-priority
// scheduling, and the endpoint segment driver's four-state protocol with
// eviction policies.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "host/config.hpp"
#include "host/cpu.hpp"
#include "host/host.hpp"
#include "host/segment_driver.hpp"
#include "myrinet/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"

namespace vnet::host {
namespace {

// ------------------------------------------------------------------- Cpu

TEST(Cpu, SingleThreadRunsAtFullSpeed) {
  sim::Engine eng;
  HostConfig hc;
  Cpu cpu(eng, hc);
  ThreadCtx t{"a", false, 0, 0};
  sim::Time done = -1;
  eng.spawn([](sim::Engine& e, Cpu& c, ThreadCtx& t, sim::Time& d)
                -> sim::Process {
    co_await c.run(t, 50 * sim::ms);
    d = e.now();
  }(eng, cpu, t, done));
  eng.run();
  // One context switch in, then uninterrupted.
  EXPECT_EQ(done, 50 * sim::ms + hc.context_switch);
  EXPECT_EQ(t.cpu_used, 50 * sim::ms);
}

TEST(Cpu, TwoThreadsTimeShareFairly) {
  sim::Engine eng;
  HostConfig hc;
  Cpu cpu(eng, hc);
  ThreadCtx ta{"a", false, 0, 0}, tb{"b", false, 0, 0};
  sim::Time done_a = -1, done_b = -1;
  auto worker = [](sim::Engine& e, Cpu& c, ThreadCtx& t,
                   sim::Time& d) -> sim::Process {
    co_await c.run(t, 100 * sim::ms);
    d = e.now();
  };
  eng.spawn(worker(eng, cpu, ta, done_a));
  eng.spawn(worker(eng, cpu, tb, done_b));
  eng.run();
  // Both need ~200 ms of wall time; they interleave at quantum boundaries.
  EXPECT_GT(done_a, 190 * sim::ms);
  EXPECT_GT(done_b, 190 * sim::ms);
  EXPECT_EQ(ta.cpu_used, 100 * sim::ms);
  EXPECT_EQ(tb.cpu_used, 100 * sim::ms);
  EXPECT_GT(ta.dispatches, 5u);  // really interleaved, not run-to-completion
}

TEST(Cpu, KernelThreadJumpsTheQueue) {
  sim::Engine eng;
  HostConfig hc;
  Cpu cpu(eng, hc);
  ThreadCtx user1{"u1", false, 0, 0}, user2{"u2", false, 0, 0};
  ThreadCtx kern{"k", true, 0, 0};
  std::vector<char> order;
  auto worker = [](Cpu& c, ThreadCtx& t, std::vector<char>& ord,
                   char id) -> sim::Process {
    co_await c.run(t, 5 * sim::ms);
    ord.push_back(id);
  };
  eng.spawn(worker(cpu, user1, order, 'a'));
  eng.spawn(worker(cpu, user2, order, 'b'));
  eng.spawn(worker(cpu, kern, order, 'K'));
  eng.run();
  // The kernel thread was spawned last but finishes first: after user1's
  // first quantum expires, the kernel queue is always served ahead of
  // user2, so K completes its 5ms before either user thread.
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 'K');
  EXPECT_EQ(order[1], 'a');
  EXPECT_EQ(order[2], 'b');
}

TEST(Cpu, QuantumOnlySlicesUnderContention) {
  sim::Engine eng;
  HostConfig hc;
  Cpu cpu(eng, hc);
  ThreadCtx t{"solo", false, 0, 0};
  eng.spawn([](Cpu& c, ThreadCtx& t) -> sim::Process {
    co_await c.run(t, 100 * sim::ms);
  }(cpu, t));
  eng.run();
  EXPECT_EQ(t.dispatches, 1u);  // no contention: no re-dispatching
}

// --------------------------------------------------------- SegmentDriver

class DriverTest : public ::testing::Test {
 public:
  void build(int frames = 8, HostConfig hc = {}) {
    fabric_ = myrinet::Fabric::crossbar(eng_, 2);
    lanai::NicConfig nc;
    nc.endpoint_frames = frames;
    for (int n = 0; n < 2; ++n) {
      hosts_.push_back(
          std::make_unique<Host>(eng_, *fabric_, n, hc, nc));
      hosts_.back()->start();
    }
  }

  /// Runs `body` as a host thread on node `n` and drives the sim to done.
  void on_host(int n, std::function<sim::Task<>(HostThread&)> body) {
    bool done = false;
    eng_.spawn([](Host& h, std::function<sim::Task<>(HostThread&)> body,
                  bool& done) -> sim::Process {
      HostThread t(h, "test");
      co_await body(t);
      done = true;
    }(*hosts_[n], std::move(body), done));
    eng_.run();
    ASSERT_TRUE(done);
  }

  /// Reads one driver counter for `node` from the engine's registry (the
  /// driver publishes under `host.<node>.driver.*`).
  std::uint64_t driver_counter(int node, const std::string& leaf) {
    return eng_.snapshot().counter("host." + std::to_string(node) +
                                   ".driver." + leaf);
  }

  sim::Engine eng_{3};
  std::unique_ptr<myrinet::Fabric> fabric_;
  std::vector<std::unique_ptr<Host>> hosts_;
};

TEST_F(DriverTest, CreateStartsOnHostReadOnly) {
  build();
  on_host(0, [&](HostThread& t) -> sim::Task<> {
    auto* ep = co_await t.host().driver().create_endpoint(t.ctx(), 0x1);
    EXPECT_EQ(t.host().driver().residency(ep), Residency::kOnHostRO);
    EXPECT_FALSE(ep->resident());
    EXPECT_TRUE(t.host().nic().directory_contains(ep->id));
  });
}

TEST_F(DriverTest, WriteFaultSchedulesAsyncRemap) {
  build();
  on_host(0, [&](HostThread& t) -> sim::Task<> {
    SegmentDriver& drv = t.host().driver();
    auto* ep = co_await drv.create_endpoint(t.ctx(), 0x1);
    co_await drv.ensure_writable(t.ctx(), ep);
    // The faulting thread continues immediately in the on-host r/w state;
    // the background kernel thread does the binding.
    EXPECT_EQ(drv.residency(ep), Residency::kOnHostRW);
    EXPECT_EQ(driver_counter(0, "write_faults"), 1u);
    while (drv.residency(ep) != Residency::kOnNic) {
      co_await drv.residency_cv(ep).wait();
    }
    EXPECT_TRUE(ep->resident());
    EXPECT_EQ(driver_counter(0, "remaps"), 1u);
    // A second write is free: no new fault.
    co_await drv.ensure_writable(t.ctx(), ep);
    EXPECT_EQ(driver_counter(0, "write_faults"), 1u);
  });
}

TEST_F(DriverTest, SyncFaultModeBlocksUntilResident) {
  // Ablation A: no on-host r/w state.
  HostConfig hc;
  hc.async_write_faults = false;
  build(8, hc);
  on_host(0, [&](HostThread& t) -> sim::Task<> {
    SegmentDriver& drv = t.host().driver();
    auto* ep = co_await drv.create_endpoint(t.ctx(), 0x1);
    co_await drv.ensure_writable(t.ctx(), ep);
    // Synchronous fault: by the time we return, the endpoint is resident.
    EXPECT_EQ(drv.residency(ep), Residency::kOnNic);
  });
}

TEST_F(DriverTest, EvictionOnFrameExhaustion) {
  build(/*frames=*/2);
  on_host(0, [&](HostThread& t) -> sim::Task<> {
    SegmentDriver& drv = t.host().driver();
    std::vector<lanai::EndpointState*> eps;
    for (int i = 0; i < 4; ++i) {
      eps.push_back(co_await drv.create_endpoint(t.ctx(), i));
    }
    for (auto* ep : eps) {
      co_await drv.ensure_writable(t.ctx(), ep);
      while (drv.residency(ep) != Residency::kOnNic) {
        co_await drv.residency_cv(ep).wait();
      }
    }
    // Only 2 frames: later bindings must have evicted earlier ones.
    EXPECT_EQ(drv.resident_count(), 2);
    EXPECT_GE(driver_counter(0, "evictions"), 2u);
    // Evicted endpoints return to the on-host r/o state (Fig 2).
    int ro = 0;
    for (auto* ep : eps) {
      if (drv.residency(ep) == Residency::kOnHostRO) ++ro;
    }
    EXPECT_EQ(ro, 2);
  });
}

TEST_F(DriverTest, LruPolicyEvictsLeastRecentlyTouched) {
  build(/*frames=*/2);
  on_host(0, [&](HostThread& t) -> sim::Task<> {
    SegmentDriver& drv = t.host().driver();
    drv.set_policy(SegmentDriver::Policy::kLru);
    auto* e1 = co_await drv.create_endpoint(t.ctx(), 1);
    auto* e2 = co_await drv.create_endpoint(t.ctx(), 2);
    auto* e3 = co_await drv.create_endpoint(t.ctx(), 3);
    for (auto* ep : {e1, e2}) {
      co_await drv.ensure_writable(t.ctx(), ep);
      while (drv.residency(ep) != Residency::kOnNic) {
        co_await drv.residency_cv(ep).wait();
      }
    }
    co_await t.sleep(1 * sim::ms);
    drv.touch(e1);  // e2 becomes the least recently used
    co_await drv.ensure_writable(t.ctx(), e3);
    while (drv.residency(e3) != Residency::kOnNic) {
      co_await drv.residency_cv(e3).wait();
    }
    EXPECT_EQ(drv.residency(e1), Residency::kOnNic);
    EXPECT_EQ(drv.residency(e2), Residency::kOnHostRO);
  });
}

TEST_F(DriverTest, FifoPolicyEvictsOldestLoad) {
  build(/*frames=*/2);
  on_host(0, [&](HostThread& t) -> sim::Task<> {
    SegmentDriver& drv = t.host().driver();
    drv.set_policy(SegmentDriver::Policy::kFifo);
    auto* e1 = co_await drv.create_endpoint(t.ctx(), 1);
    auto* e2 = co_await drv.create_endpoint(t.ctx(), 2);
    auto* e3 = co_await drv.create_endpoint(t.ctx(), 3);
    for (auto* ep : {e1, e2, e3}) {
      co_await drv.ensure_writable(t.ctx(), ep);
      while (drv.residency(ep) != Residency::kOnNic) {
        co_await drv.residency_cv(ep).wait();
      }
    }
    // e1 was loaded first, so it went first.
    EXPECT_EQ(drv.residency(e1), Residency::kOnHostRO);
    EXPECT_EQ(drv.residency(e2), Residency::kOnNic);
    EXPECT_EQ(drv.residency(e3), Residency::kOnNic);
  });
}

TEST_F(DriverTest, PageoutAndDiskFault) {
  build();
  on_host(0, [&](HostThread& t) -> sim::Task<> {
    SegmentDriver& drv = t.host().driver();
    auto* ep = co_await drv.create_endpoint(t.ctx(), 1);
    drv.page_out(ep);
    EXPECT_EQ(drv.residency(ep), Residency::kOnDisk);
    EXPECT_EQ(driver_counter(0, "pageouts"), 1u);
    const sim::Time t0 = t.engine().now();
    co_await drv.ensure_writable(t.ctx(), ep);
    // The major fault costs at least the disk latency.
    EXPECT_GE(t.engine().now() - t0, t.host().config().disk_fault_latency);
    EXPECT_EQ(driver_counter(0, "disk_faults"), 1u);
    EXPECT_EQ(drv.residency(ep), Residency::kOnHostRW);
  });
}

TEST_F(DriverTest, PageoutRefusesResidentEndpoints) {
  build();
  on_host(0, [&](HostThread& t) -> sim::Task<> {
    SegmentDriver& drv = t.host().driver();
    auto* ep = co_await drv.create_endpoint(t.ctx(), 1);
    co_await drv.ensure_writable(t.ctx(), ep);
    while (drv.residency(ep) != Residency::kOnNic) {
      co_await drv.residency_cv(ep).wait();
    }
    drv.page_out(ep);  // must be a no-op
    EXPECT_EQ(drv.residency(ep), Residency::kOnNic);
    EXPECT_EQ(driver_counter(0, "pageouts"), 0u);
  });
}

TEST_F(DriverTest, DestroySynchronizesWithNic) {
  build();
  on_host(0, [&](HostThread& t) -> sim::Task<> {
    SegmentDriver& drv = t.host().driver();
    auto* ep = co_await drv.create_endpoint(t.ctx(), 1);
    const lanai::EpId id = ep->id;
    co_await drv.destroy_endpoint(t.ctx(), ep);
    EXPECT_FALSE(t.host().nic().directory_contains(id));
    EXPECT_EQ(driver_counter(0, "endpoints_destroyed"), 1u);
  });
}

TEST_F(DriverTest, ArrivalActivatesNonResidentEndpoint) {
  build();
  // Endpoint on host 1, never written locally; host 0 sends to it. The
  // message arrival must drive the proxy-fault -> load path (§4.2).
  lanai::EndpointState* dst = nullptr;
  on_host(1, [&](HostThread& t) -> sim::Task<> {
    dst = co_await t.host().driver().create_endpoint(t.ctx(), 0x7);
  });
  ASSERT_NE(dst, nullptr);
  on_host(0, [&](HostThread& t) -> sim::Task<> {
    auto* src = co_await t.host().driver().create_endpoint(t.ctx(), 0x1);
    src->translations[0] = lanai::Translation{true, 1, dst->id, 0x7};
    lanai::SendDescriptor d;
    d.dest_index = 0;
    d.body.handler = 1;
    d.msg_id = src->alloc_msg_id();
    co_await t.host().driver().ensure_writable(t.ctx(), src);
    src->enqueue(std::move(d));
    t.host().nic().doorbell(*src);
    co_return;
  });
  eng_.run();
  EXPECT_EQ(dst->msgs_delivered, 1u);
  EXPECT_TRUE(dst->resident());
  EXPECT_GE(driver_counter(1, "proxy_faults"), 1u);
}

}  // namespace
}  // namespace vnet::host
