// Parameterized property tests sweeping the main invariants across
// configuration space: fabric topologies, transport fragment sizes and
// fault rates, frame counts, scheduler loads, and API event masks.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <tuple>
#include <vector>

#include "am/endpoint.hpp"
#include "cluster/cluster.hpp"
#include "cluster/config.hpp"
#include "lanai/nic.hpp"
#include "myrinet/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"

namespace vnet {
namespace {

// -------------------------------------------------- fat-tree construction

class FatTreeShape
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(FatTreeShape, BuildsAndRoutesAllPairs) {
  const auto [hosts, per_leaf, spines] = GetParam();
  sim::Engine eng;
  auto f = myrinet::Fabric::fat_tree(eng, hosts, per_leaf, spines);
  ASSERT_EQ(f->num_hosts(), hosts);
  const int leaves = (hosts + per_leaf - 1) / per_leaf;
  EXPECT_EQ(f->num_switches(), leaves + spines);
  EXPECT_EQ(f->num_links(), hosts + leaves * spines);

  for (myrinet::NodeId s = 0; s < hosts; ++s) {
    for (myrinet::NodeId d = 0; d < hosts; ++d) {
      const auto& routes = f->routes(s, d);
      if (s == d) {
        EXPECT_TRUE(routes.empty());
        continue;
      }
      ASSERT_FALSE(routes.empty());
      const bool same_leaf = s / per_leaf == d / per_leaf;
      for (const auto& r : routes) {
        EXPECT_EQ(r.size(), same_leaf ? 1u : 3u);
      }
      // Cross-leaf pairs get one distinct route per spine.
      if (!same_leaf) {
        EXPECT_EQ(routes.size(), static_cast<std::size_t>(spines));
        std::set<std::uint8_t> first_hops;
        for (const auto& r : routes) first_hops.insert(r[0]);
        EXPECT_EQ(first_hops.size(), routes.size());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FatTreeShape,
    ::testing::Values(std::make_tuple(4, 2, 1), std::make_tuple(10, 5, 1),
                      std::make_tuple(16, 4, 2), std::make_tuple(25, 5, 5),
                      std::make_tuple(40, 5, 3), std::make_tuple(100, 5, 3),
                      std::make_tuple(7, 3, 2)));

// --------------------------------------------- transport fragment sweeps

class FragmentSizes : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FragmentSizes, BulkDeliveredExactlyOnce) {
  const std::uint32_t bytes = GetParam();
  sim::Engine eng(11);
  auto fabric = myrinet::Fabric::crossbar(eng, 2);
  lanai::NicConfig cfg;
  lanai::Nic n0(eng, *fabric, 0, cfg), n1(eng, *fabric, 1, cfg);
  n0.start();
  n1.start();
  lanai::EndpointState src, dst;
  src.node = 0;
  src.id = 1;
  src.translations.resize(2);
  src.translations[0] = lanai::Translation{true, 1, 2, 0};
  dst.node = 1;
  dst.id = 2;
  n0.submit({lanai::DriverOp::Kind::kCreate, &src, -1, 0, nullptr});
  n0.submit({lanai::DriverOp::Kind::kLoad, &src, 0, 0, nullptr});
  n1.submit({lanai::DriverOp::Kind::kCreate, &dst, -1, 0, nullptr});
  n1.submit({lanai::DriverOp::Kind::kLoad, &dst, 0, 0, nullptr});
  eng.run();

  lanai::SendDescriptor d;
  d.dest_index = 0;
  d.body.handler = 1;
  d.body.bulk_bytes = bytes;
  d.msg_id = src.alloc_msg_id();
  d.frag_count = bytes == 0 ? 1 : (bytes + cfg.max_packet_payload - 1) /
                                      cfg.max_packet_payload;
  src.enqueue(std::move(d));
  n0.doorbell(src);
  eng.run();

  ASSERT_EQ(dst.recv_requests.size(), 1u);
  EXPECT_EQ(dst.recv_requests.front().body.bulk_bytes, bytes);
  EXPECT_EQ(dst.msgs_delivered, 1u);
  EXPECT_EQ(src.msgs_sent, 1u);
  // Reserved slots must be fully released after reassembly.
  EXPECT_EQ(dst.nic_reserved_requests, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FragmentSizes,
                         ::testing::Values(0u, 1u, 4095u, 4096u, 4097u,
                                           8192u, 12'288u, 65'536u,
                                           262'144u));

// ------------------------------------------ reliability parameter sweeps

class RetransmitTuning
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RetransmitTuning, LossyDeliveryRobustToKnobs) {
  const auto [channels, unbind_limit] = GetParam();
  sim::Engine eng(23);
  myrinet::FabricParams fp;
  fp.faults.drop_probability = 0.15;
  auto fabric = myrinet::Fabric::crossbar(eng, 2, fp);
  lanai::NicConfig cfg;
  cfg.channels_per_peer = channels;
  cfg.retransmit_unbind_limit = unbind_limit;
  cfg.retransmit_timeout = 150 * sim::us;
  lanai::Nic n0(eng, *fabric, 0, cfg), n1(eng, *fabric, 1, cfg);
  n0.start();
  n1.start();
  lanai::EndpointState src, dst;
  src.node = 0;
  src.id = 1;
  src.translations.resize(2);
  src.translations[0] = lanai::Translation{true, 1, 2, 0};
  dst.node = 1;
  dst.id = 2;
  n0.submit({lanai::DriverOp::Kind::kCreate, &src, -1, 0, nullptr});
  n0.submit({lanai::DriverOp::Kind::kLoad, &src, 0, 0, nullptr});
  n1.submit({lanai::DriverOp::Kind::kCreate, &dst, -1, 0, nullptr});
  n1.submit({lanai::DriverOp::Kind::kLoad, &dst, 0, 0, nullptr});
  eng.run();

  const int total = 60;
  std::multiset<std::uint64_t> seen;
  eng.spawn([](sim::Engine& e, lanai::EndpointState& ep,
               std::multiset<std::uint64_t>& s, int n) -> sim::Process {
    while (static_cast<int>(s.size()) < n) {
      while (!ep.recv_requests.empty()) {
        s.insert(ep.recv_requests.front().body.args[0]);
        ep.recv_requests.pop_front();
      }
      co_await e.delay(100 * sim::us);
    }
  }(eng, dst, seen, total));
  for (int i = 0; i < total; ++i) {
    lanai::SendDescriptor d;
    d.dest_index = 0;
    d.body.handler = 1;
    d.body.args[0] = static_cast<std::uint64_t>(i);
    d.msg_id = src.alloc_msg_id();
    src.enqueue(std::move(d));
  }
  n0.doorbell(src);
  eng.run();
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    EXPECT_EQ(seen.count(static_cast<std::uint64_t>(i)), 1u) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, RetransmitTuning,
    ::testing::Values(std::make_tuple(1, 2), std::make_tuple(2, 8),
                      std::make_tuple(8, 3), std::make_tuple(24, 8),
                      std::make_tuple(32, 1)));

// ----------------------------------------------------- frame-count sweep

class FrameCounts : public ::testing::TestWithParam<int> {};

TEST_P(FrameCounts, OvercommitAlwaysDelivers) {
  const int frames = GetParam();
  auto cfg = cluster::NowConfig(2);
  cfg.nic.endpoint_frames = frames;
  cluster::Cluster cl(cfg);
  const int eps = frames + 3;  // always overcommitted
  std::uint64_t served = 0;
  std::vector<am::Name> names(static_cast<std::size_t>(eps));
  bool ready = false;

  // All target endpoints on node 1, owned by one thread that polls them.
  auto server_eps =
      std::make_shared<std::vector<std::unique_ptr<am::Endpoint>>>();
  cl.spawn_thread(1, "server", [&](host::HostThread& t) -> sim::Task<> {
    for (int i = 0; i < eps; ++i) {
      auto ep = co_await am::Endpoint::create(t, 50 + i);
      ep->set_handler(1, [&](am::Endpoint&, const am::Message&) { ++served; });
      names[static_cast<std::size_t>(i)] = ep->name();
      server_eps->push_back(std::move(ep));
    }
    ready = true;
    while (served < static_cast<std::uint64_t>(eps * 3)) {
      for (auto& ep : *server_eps) co_await ep->poll(t, 8);
      co_await t.compute(500);
    }
    co_await t.sleep(2 * sim::ms);
  });
  cl.spawn_thread(0, "client", [&](host::HostThread& t) -> sim::Task<> {
    auto ep = co_await am::Endpoint::create(t, 7);
    while (!ready) co_await t.sleep(50 * sim::us);
    for (int i = 0; i < eps; ++i) {
      ep->map(static_cast<std::uint32_t>(i),
              names[static_cast<std::size_t>(i)]);
    }
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < eps; ++i) {
        co_await ep->request(t, static_cast<std::uint32_t>(i), 1, 1);
      }
    }
    while (ep->credits_in_use() > 0) co_await ep->poll(t, 16);
  });
  cl.run_to_completion();
  EXPECT_EQ(served, static_cast<std::uint64_t>(eps * 3));
  EXPECT_GT(cl.engine().snapshot().counter("host.1.driver.evictions"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Frames, FrameCounts, ::testing::Values(1, 2, 4, 8));

// ------------------------------------------------------ scheduler sweeps

class CpuLoads : public ::testing::TestWithParam<int> {};

TEST_P(CpuLoads, FairShareAcrossThreads) {
  const int threads = GetParam();
  sim::Engine eng;
  host::HostConfig hc;
  host::Cpu cpu(eng, hc);
  std::vector<host::ThreadCtx> ctx(static_cast<std::size_t>(threads));
  int done = 0;
  for (int i = 0; i < threads; ++i) {
    ctx[static_cast<std::size_t>(i)].name = "w" + std::to_string(i);
    eng.spawn([](host::Cpu& c, host::ThreadCtx& t, int& d) -> sim::Process {
      co_await c.run(t, 20 * sim::ms);
      ++d;
    }(cpu, ctx[static_cast<std::size_t>(i)], done));
  }
  eng.run();
  EXPECT_EQ(done, threads);
  // Wall time ~ threads * 20ms (+switch costs), i.e. full utilization.
  EXPECT_GE(eng.now(), threads * 20 * sim::ms);
  EXPECT_LE(eng.now(), threads * 22 * sim::ms);
  for (const auto& c : ctx) EXPECT_EQ(c.cpu_used, 20 * sim::ms);
}

INSTANTIATE_TEST_SUITE_P(Loads, CpuLoads, ::testing::Values(1, 2, 3, 7, 16));

// ---------------------------------------------------------- event masks

TEST(EventMasks, ReturnedMaskWakesOnlyOnReturn) {
  auto cfg = cluster::NowConfig(2);
  cfg.nic.retransmit_timeout = 100 * sim::us;
  cfg.nic.unreachable_timeout = 5 * sim::ms;
  cluster::Cluster cl(cfg);
  bool woke = false;
  sim::Time woke_at = -1;
  cl.spawn_thread(0, "t", [&](host::HostThread& t) -> sim::Task<> {
    auto ep = co_await am::Endpoint::create(t, 1);
    ep->map_raw(0, 1, /*nonexistent ep=*/99, 0);
    co_await ep->request(t, 0, 1, 1);
    // Only a returned message may wake us.
    co_await ep->wait_events(t, am::kEventReturned);
    woke = true;
    woke_at = t.engine().now();
    co_await ep->poll(t);
    EXPECT_EQ(t.engine().snapshot().counter(
                  "host.0.ep." + std::to_string(ep->name().ep) +
                  ".returns_handled"),
              1u);
  });
  cl.run_to_completion();
  EXPECT_TRUE(woke);
  EXPECT_GT(woke_at, 0);
}

TEST(EventMasks, SendSpaceMaskSignalsWhenWindowFrees) {
  // Exhaust the 32-credit window against a server that only starts
  // serving at t=5ms; a send-space wait must block until replies return
  // credits.
  cluster::Cluster cl(cluster::NowConfig(2));
  am::Name server;
  sim::Time space_at = -1;
  bool served_any = false;
  cl.spawn_thread(1, "s", [&](host::HostThread& t) -> sim::Task<> {
    auto ep = co_await am::Endpoint::create(t, 1);
    ep->set_handler(1, [&](am::Endpoint&, const am::Message& m) {
      served_any = true;
      m.reply(2, {m.arg(0)});
    });
    server = ep->name();
    co_await t.sleep(5 * sim::ms);  // ignore the flood for a while
    for (int i = 0; i < 400; ++i) {
      co_await ep->poll(t, 16);
      co_await t.compute(2000);
    }
  });
  cl.spawn_thread(0, "c", [&](host::HostThread& t) -> sim::Task<> {
    auto ep = co_await am::Endpoint::create(t, 2);
    while (!server.valid()) co_await t.sleep(10 * sim::us);
    ep->map(0, server);
    // Requests are delivered into the server's queue (32 deep) but never
    // replied to until t=5ms, so the credit window pins at 32.
    for (int i = 0; i < 32; ++i) co_await ep->request(t, 0, 1, 1);
    EXPECT_EQ(ep->credits_in_use(), 32);
    co_await ep->wait_events(t, am::kEventSendSpace);
    space_at = t.engine().now();
    co_await ep->poll(t, 8);
    EXPECT_LT(ep->credits_in_use(), 32);
  });
  cl.run_to_completion();
  EXPECT_TRUE(served_any);
  EXPECT_GE(space_at, 5 * sim::ms);  // no space until the server served
}

// ------------------------------------------------------- args round-trip

class ArgFidelity : public ::testing::TestWithParam<int> {};

TEST_P(ArgFidelity, AllFourArgsArriveIntact) {
  const int seed = GetParam();
  cluster::Cluster cl(cluster::NowConfig(2));
  am::Name server;
  std::array<std::uint64_t, 4> got{};
  bool done = false;
  const std::uint64_t base = 0x0123456789abcdefULL * (seed + 1);
  cl.spawn_thread(1, "s", [&](host::HostThread& t) -> sim::Task<> {
    auto ep = co_await am::Endpoint::create(t, 3);
    ep->set_handler(1, [&](am::Endpoint&, const am::Message& m) {
      got = m.args();
      done = true;
    });
    server = ep->name();
    while (!done) {
      (void)co_await ep->wait_events_for(t, am::kEventArrivals,
                                         500 * sim::us);
      co_await ep->poll(t);
    }
    co_await t.sleep(1 * sim::ms);
  });
  cl.spawn_thread(0, "c", [&](host::HostThread& t) -> sim::Task<> {
    auto ep = co_await am::Endpoint::create(t, 4);
    while (!server.valid()) co_await t.sleep(10 * sim::us);
    ep->map(0, server);
    co_await ep->request(t, 0, 1, base, base + 1, base + 2, base + 3);
    co_await t.sleep(2 * sim::ms);
    co_await ep->poll(t, 8);
  });
  cl.run_to_completion();
  EXPECT_EQ(got[0], base);
  EXPECT_EQ(got[1], base + 1);
  EXPECT_EQ(got[2], base + 2);
  EXPECT_EQ(got[3], base + 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArgFidelity, ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace vnet
