// Unit tests for the Myrinet fabric model: topology construction, source
// routing, latency arithmetic, credit back-pressure, congestion spreading,
// fault injection, and host hot-unplug.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "myrinet/fabric.hpp"
#include "myrinet/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"

namespace vnet::myrinet {
namespace {

Packet make_packet(Fabric& fabric, NodeId src, NodeId dst,
                   std::uint32_t wire_bytes, std::size_t route_choice = 0) {
  Packet p;
  p.src = src;
  p.dst = dst;
  const auto& rts = fabric.routes(src, dst);
  p.route = rts[route_choice % rts.size()];
  p.wire_bytes = wire_bytes;
  return p;
}

struct Collector {
  std::vector<Packet> packets;
  std::vector<sim::Time> times;
  void attach(Station& st, sim::Engine& eng) {
    st.on_receive = [this, &eng](Packet p) {
      packets.push_back(std::move(p));
      times.push_back(eng.now());
    };
  }
};

// ---------------------------------------------------------- construction

TEST(Crossbar, Dimensions) {
  sim::Engine eng;
  auto f = Fabric::crossbar(eng, 4);
  EXPECT_EQ(f->num_hosts(), 4);
  EXPECT_EQ(f->num_switches(), 1);
  EXPECT_EQ(f->num_links(), 4);  // one full-duplex link per host
}

TEST(FatTree, PaperScaleDimensions) {
  sim::Engine eng;
  auto f = Fabric::fat_tree(eng, 100, /*hosts_per_leaf=*/5, /*spines=*/3);
  EXPECT_EQ(f->num_hosts(), 100);
  // 20 leaves + 3 spines = 23 switches; 100 host links + 60 leaf-spine
  // links = 160 full-duplex links (paper: 25 switches, 185 links).
  EXPECT_EQ(f->num_switches(), 23);
  EXPECT_EQ(f->num_links(), 160);
}

TEST(FatTree, RejectsBadArguments) {
  sim::Engine eng;
  EXPECT_THROW(Fabric::fat_tree(eng, 0, 5, 3), std::invalid_argument);
  EXPECT_THROW(Fabric::fat_tree(eng, 10, 0, 3), std::invalid_argument);
  EXPECT_THROW(Fabric::crossbar(eng, 0), std::invalid_argument);
}

// ---------------------------------------------------------------- routing

TEST(Routing, CrossbarSingleHop) {
  sim::Engine eng;
  auto f = Fabric::crossbar(eng, 4);
  const auto& rts = f->routes(1, 3);
  ASSERT_EQ(rts.size(), 1u);
  EXPECT_EQ(rts[0], (Route{3}));
  EXPECT_TRUE(f->routes(2, 2).empty());  // loopback never enters the fabric
}

TEST(Routing, FatTreeSameLeafIsOneHop) {
  sim::Engine eng;
  auto f = Fabric::fat_tree(eng, 100, 5, 3);
  // Hosts 0 and 4 share leaf 0.
  const auto& rts = f->routes(0, 4);
  ASSERT_EQ(rts.size(), 1u);
  EXPECT_EQ(rts[0], (Route{4}));
}

TEST(Routing, FatTreeCrossLeafHasOneRoutePerSpine) {
  sim::Engine eng;
  auto f = Fabric::fat_tree(eng, 100, 5, 3);
  const auto& rts = f->routes(0, 99);  // leaf 0 -> leaf 19
  ASSERT_EQ(rts.size(), 3u);
  std::set<std::uint8_t> first_hops;
  for (const auto& r : rts) {
    ASSERT_EQ(r.size(), 3u);
    EXPECT_GE(r[0], 5);  // uplink ports start after the 5 host ports
    EXPECT_LT(r[0], 8);
    EXPECT_EQ(r[1], 19);    // spine port toward leaf 19
    EXPECT_EQ(r[2], 99 % 5);  // host port on destination leaf
    first_hops.insert(r[0]);
  }
  EXPECT_EQ(first_hops.size(), 3u);  // the routes really use distinct spines
}

TEST(Routing, AllPairsDeliverable) {
  sim::Engine eng;
  auto f = Fabric::fat_tree(eng, 20, 4, 2);
  std::vector<Collector> sinks(20);
  for (NodeId h = 0; h < 20; ++h) sinks[h].attach(f->station(h), eng);
  for (NodeId s = 0; s < 20; ++s) {
    for (NodeId d = 0; d < 20; ++d) {
      if (s == d) continue;
      f->station(s).inject(make_packet(*f, s, d, 64));
    }
  }
  eng.run();
  for (NodeId d = 0; d < 20; ++d) {
    EXPECT_EQ(sinks[d].packets.size(), 19u) << "dst " << d;
    for (const auto& p : sinks[d].packets) EXPECT_EQ(p.dst, d);
  }
}

// ---------------------------------------------------------------- latency

TEST(Latency, CrossbarMatchesAnalyticModel) {
  sim::Engine eng;
  FabricParams params;  // defaults: 6.25 ns/B, 25 ns prop, 300 ns cut-through
  auto f = Fabric::crossbar(eng, 2, params);
  Collector sink;
  sink.attach(f->station(1), eng);
  f->station(0).inject(make_packet(*f, 0, 1, 100));
  eng.run();
  ASSERT_EQ(sink.times.size(), 1u);
  // host->switch: 625 ser + 25 prop; switch: 300 cut-through;
  // switch->host: 625 ser + 25 prop.
  EXPECT_EQ(sink.times[0], 625 + 25 + 300 + 625 + 25);
}

TEST(Latency, FatTreeCrossLeafAddsTwoSwitchHops) {
  sim::Engine eng;
  auto f = Fabric::fat_tree(eng, 10, 5, 1);
  Collector sink;
  sink.attach(f->station(9), eng);
  f->station(0).inject(make_packet(*f, 0, 9, 100));
  eng.run();
  ASSERT_EQ(sink.times.size(), 1u);
  // 4 wire crossings (host->leaf, leaf->spine, spine->leaf, leaf->host) and
  // 3 switch traversals.
  EXPECT_EQ(sink.times[0], 4 * (625 + 25) + 3 * 300);
}

// ----------------------------------------------------------- backpressure

TEST(Throughput, LinkRateBoundsDelivery) {
  sim::Engine eng;
  auto f = Fabric::crossbar(eng, 2);
  Collector sink;
  sink.attach(f->station(1), eng);
  // Saturate: inject whenever the station accepts more.
  eng.spawn([](sim::Engine& e, Fabric& fab) -> sim::Process {
    for (int i = 0; i < 200; ++i) {
      while (!fab.station(0).can_inject()) {
        co_await fab.station(0).drained().wait();
      }
      fab.station(0).inject(make_packet(fab, 0, 1, 1000));
    }
    (void)e;
  }(eng, *f));
  eng.run();
  ASSERT_EQ(sink.packets.size(), 200u);
  // Steady-state spacing must equal the serialization time of one packet
  // (6250 ns at 6.25 ns/B): the link, not the switch, is the bottleneck.
  const sim::Time spacing = sink.times.back() - sink.times[100];
  EXPECT_NEAR(static_cast<double>(spacing) / (200 - 101), 6250.0, 1.0);
}

TEST(Congestion, FanInSharesEgressLinkFairly) {
  sim::Engine eng;
  auto f = Fabric::crossbar(eng, 5);
  Collector sink;
  sink.attach(f->station(4), eng);
  // Four senders blast the same destination.
  for (NodeId s = 0; s < 4; ++s) {
    eng.spawn([](sim::Engine&, Fabric& fab, NodeId src) -> sim::Process {
      for (int i = 0; i < 100; ++i) {
        while (!fab.station(src).can_inject()) {
          co_await fab.station(src).drained().wait();
        }
        fab.station(src).inject(make_packet(fab, src, 4, 1000));
      }
    }(eng, *f, s));
  }
  eng.run();
  ASSERT_EQ(sink.packets.size(), 400u);
  // Egress serialization is the bottleneck: total time >= 400 * 6250 ns.
  EXPECT_GE(sink.times.back(), 400 * 6250 - 6250);
  // And back-pressure must deliver approximate per-sender fairness.
  int per_src[4] = {0, 0, 0, 0};
  for (std::size_t i = 0; i < 200; ++i) ++per_src[sink.packets[i].src];
  for (int s = 0; s < 4; ++s) {
    EXPECT_GT(per_src[s], 20) << "sender " << s << " starved";
  }
}

TEST(Congestion, BackpressureStallsSender) {
  sim::Engine eng;
  auto f = Fabric::crossbar(eng, 3);
  Collector sink;
  sink.attach(f->station(2), eng);
  // Station 0 fills the egress; its injection queue must back up.
  for (int i = 0; i < 8; ++i) {
    f->station(0).inject(make_packet(*f, 0, 2, 4000));
  }
  EXPECT_FALSE(f->station(0).can_inject());
  eng.run();
  EXPECT_EQ(sink.packets.size(), 8u);
  EXPECT_TRUE(f->station(0).can_inject());
}

// -------------------------------------------------------- fault injection

TEST(Faults, DropAllLosesEverything) {
  sim::Engine eng;
  FabricParams params;
  params.faults.drop_probability = 1.0;
  auto f = Fabric::crossbar(eng, 2, params);
  Collector sink;
  sink.attach(f->station(1), eng);
  for (int i = 0; i < 10; ++i) f->station(0).inject(make_packet(*f, 0, 1, 64));
  eng.run();
  EXPECT_TRUE(sink.packets.empty());
  EXPECT_GE(f->injected_drops(), 10u);
}

TEST(Faults, CorruptionFlagsArrivingPackets) {
  sim::Engine eng;
  FabricParams params;
  params.faults.corrupt_probability = 1.0;
  auto f = Fabric::crossbar(eng, 2, params);
  Collector sink;
  sink.attach(f->station(1), eng);
  f->station(0).inject(make_packet(*f, 0, 1, 64));
  eng.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_TRUE(sink.packets[0].corrupt);
  EXPECT_GE(f->injected_corruptions(), 1u);
}

TEST(Faults, PartialDropRateIsApproximatelyHonored) {
  sim::Engine eng;
  FabricParams params;
  params.faults.drop_probability = 0.25;
  auto f = Fabric::crossbar(eng, 2, params);
  Collector sink;
  sink.attach(f->station(1), eng);
  eng.spawn([](sim::Engine&, Fabric& fab) -> sim::Process {
    for (int i = 0; i < 1000; ++i) {
      while (!fab.station(0).can_inject()) {
        co_await fab.station(0).drained().wait();
      }
      fab.station(0).inject(make_packet(fab, 0, 1, 64));
    }
  }(eng, *f));
  eng.run();
  // Two wire crossings per packet; survival ~ 0.75^2 = 56%.
  EXPECT_NEAR(static_cast<double>(sink.packets.size()), 562.0, 80.0);
}

namespace {

// The fabric carries payloads opaquely; a sequence number rides in one.
struct Tag : Payload {
  explicit Tag(std::uint64_t s) : seq(s) {}
  std::uint64_t seq;
};

// Sends `count` sequence-tagged packets 0 -> 1 and returns the tags that
// made it through.
std::set<std::uint64_t> send_tagged(sim::Engine& eng, Fabric& fab,
                                    Collector& sink, int count) {
  eng.spawn([](sim::Engine&, Fabric& f, int n) -> sim::Process {
    for (int i = 0; i < n; ++i) {
      while (!f.station(0).can_inject()) {
        co_await f.station(0).drained().wait();
      }
      Packet p = make_packet(f, 0, 1, 64);
      p.payload = std::make_unique<Tag>(static_cast<std::uint64_t>(i));
      f.station(0).inject(std::move(p));
    }
  }(eng, fab, count));
  eng.run();
  std::set<std::uint64_t> delivered;
  for (const Packet& p : sink.packets) {
    delivered.insert(static_cast<const Tag&>(*p.payload).seq);
  }
  return delivered;
}

}  // namespace

TEST(Faults, BurstLossDisabledDropsNothing) {
  sim::Engine eng;
  FabricParams params;  // burst.enabled defaults to false
  params.faults.burst.loss_bad = 1.0;
  auto f = Fabric::crossbar(eng, 2, params);
  Collector sink;
  sink.attach(f->station(1), eng);
  const auto delivered = send_tagged(eng, *f, sink, 200);
  EXPECT_EQ(delivered.size(), 200u);
  EXPECT_EQ(f->injected_drops(), 0u);
}

TEST(Faults, BurstLossIsCorrelated) {
  sim::Engine eng;
  FabricParams params;
  params.faults.burst.enabled = true;
  params.faults.burst.p_good_to_bad = 0.02;
  params.faults.burst.p_bad_to_good = 0.1;  // mean bad dwell ~ 10 crossings
  params.faults.burst.loss_good = 0.0;
  params.faults.burst.loss_bad = 1.0;  // drops exactly trace the bad state
  auto f = Fabric::crossbar(eng, 2, params);
  Collector sink;
  sink.attach(f->station(1), eng);
  const int kCount = 3000;
  const auto delivered = send_tagged(eng, *f, sink, kCount);

  const std::size_t dropped = kCount - delivered.size();
  ASSERT_GT(dropped, 50u) << "burst process never entered the bad state";
  ASSERT_LT(delivered.size(), static_cast<std::size_t>(kCount));
  ASSERT_GT(delivered.size(), 0u) << "burst process never recovered";

  // Burstiness: drops must arrive in runs. Mean run length of consecutive
  // dropped ids is ~1/p_bad_to_good per link chain; uniform Bernoulli loss
  // at the same rate would give runs barely above 1.
  std::size_t runs = 0;
  bool in_run = false;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    const bool lost = delivered.find(i) == delivered.end();
    if (lost && !in_run) ++runs;
    in_run = lost;
  }
  ASSERT_GT(runs, 0u);
  const double mean_run =
      static_cast<double>(dropped) / static_cast<double>(runs);
  EXPECT_GT(mean_run, 3.0) << "losses are not bursty (mean run "
                           << mean_run << ")";
}

TEST(Faults, BurstLossCanBeTurnedOffAtRuntime) {
  sim::Engine eng;
  FabricParams params;
  params.faults.burst.enabled = true;
  params.faults.burst.p_good_to_bad = 1.0;  // pinned bad
  params.faults.burst.p_bad_to_good = 0.0;
  params.faults.burst.loss_bad = 1.0;
  auto f = Fabric::crossbar(eng, 2, params);
  Collector sink;
  sink.attach(f->station(1), eng);
  for (int i = 0; i < 5; ++i) f->station(0).inject(make_packet(*f, 0, 1, 64));
  eng.run();
  EXPECT_TRUE(sink.packets.empty());
  GilbertElliottParams off;  // enabled = false
  f->set_burst_loss(off);
  f->station(0).inject(make_packet(*f, 0, 1, 64));
  eng.run();
  EXPECT_EQ(sink.packets.size(), 1u);
}

TEST(Faults, PerLinkDropAccountingSplitsDownFromFault) {
  sim::Engine eng;
  FabricParams params;
  params.faults.drop_probability = 1.0;
  auto f = Fabric::crossbar(eng, 2, params);
  Collector sink;
  sink.attach(f->station(1), eng);
  f->station(0).inject(make_packet(*f, 0, 1, 64));
  eng.run();
  EXPECT_EQ(f->total_dropped_fault(), 1u);
  EXPECT_EQ(f->total_dropped_down(), 0u);

  f->set_fault_rates(0.0, 0.0);
  f->set_host_link(1, false);
  f->station(0).inject(make_packet(*f, 0, 1, 64));
  eng.run();
  EXPECT_EQ(f->total_dropped_down(), 1u);
  EXPECT_EQ(f->total_dropped_fault(), 1u);

  const obs::Snapshot snap = eng.snapshot();
  EXPECT_EQ(snap.sum_counters("fabric.link.", ".drops_down"), 1u);
  EXPECT_EQ(snap.sum_counters("fabric.link.", ".drops_fault"), 1u);
}

TEST(Faults, HostUnplugAndReplug) {
  sim::Engine eng;
  auto f = Fabric::crossbar(eng, 2);
  Collector sink;
  sink.attach(f->station(1), eng);
  f->set_host_link(1, false);
  f->station(0).inject(make_packet(*f, 0, 1, 64));
  eng.run();
  EXPECT_TRUE(sink.packets.empty());  // dropped at the dead link
  f->set_host_link(1, true);
  f->station(0).inject(make_packet(*f, 0, 1, 64));
  eng.run();
  EXPECT_EQ(sink.packets.size(), 1u);
}

TEST(Faults, MalformedRouteCountsAsRouteError) {
  sim::Engine eng;
  auto f = Fabric::crossbar(eng, 2);
  Packet p;
  p.src = 0;
  p.dst = 1;
  p.route = RouteBytes{};  // no route bytes at all
  p.wire_bytes = 64;
  f->station(0).inject(std::move(p));
  eng.run();
  EXPECT_EQ(f->switches()[0]->route_errors(), 1u);
}

// ------------------------------------------------------------ accounting

TEST(Accounting, CountersTrackTraffic) {
  sim::Engine eng;
  auto f = Fabric::crossbar(eng, 2);
  Collector sink;
  sink.attach(f->station(1), eng);
  for (int i = 0; i < 5; ++i) f->station(0).inject(make_packet(*f, 0, 1, 64));
  eng.run();
  EXPECT_EQ(f->station(0).packets_injected(), 5u);
  EXPECT_EQ(f->station(1).packets_received(), 5u);
  EXPECT_EQ(f->switches()[0]->packets_routed(), 5u);
  EXPECT_GE(f->max_queue_watermark(), 1);
}

}  // namespace
}  // namespace vnet::myrinet
