// Tests for the observability plane around the span recorder (DESIGN.md
// §8): the periodic time-series Sampler, the stall Watchdog rules, and the
// registry's survival of component teardown.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "chaos/scenario.hpp"
#include "cluster/config.hpp"
#include "lanai/config.hpp"
#include "lanai/nic.hpp"
#include "myrinet/fabric.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/watchdog.hpp"
#include "sim/engine.hpp"

namespace vnet::obs {
namespace {

// ---------------------------------------------------------------- Sampler

TEST(Sampler, CsvGoldenWithPrefixFilterAndWindowDeltas) {
  MetricsRegistry reg;
  Counter c = reg.counter("x.c");
  Gauge g = reg.gauge("x.g");
  Histogram h = reg.histogram("x.h");
  Counter skip = reg.counter("y.skip");

  SamplerConfig cfg;
  cfg.prefixes = {"x."};
  Sampler s(reg, cfg);

  s.sample(1000);  // baseline only
  EXPECT_EQ(s.rows(), 0u);

  c.inc(5);
  g.set(2.5);
  h.record(10);
  h.record(20);
  skip.inc(9);
  s.sample(2000);

  c.inc(1);
  g.set(-1);
  h.record(40);
  s.sample(3500);

  // Histograms additionally export sketch quantiles of each window's delta:
  // window 1 holds {10, 20} (p50 interpolates inside 10's sub-bucket), and
  // window 2 holds the single sample {40} (all quantiles clamp to it).
  EXPECT_EQ(s.csv(),
            "window_end_ns,window_ns,x.c,x.g,x.h.count,x.h.mean"
            ",x.h.p50,x.h.p99,x.h.p999\n"
            "2000,1000,5,2.5,2,15,10.25,10.3725,10.37475\n"
            "3500,1500,1,-1,1,40,40,40,40\n");
}

TEST(Sampler, EmptyPrefixListExportsEverything) {
  MetricsRegistry reg;
  Counter c = reg.counter("a.c");
  Sampler s(reg, SamplerConfig{});
  s.sample(0);
  c.inc(3);
  s.sample(10);
  EXPECT_EQ(s.csv(), "window_end_ns,window_ns,a.c\n10,10,3\n");
}

// ---------------------------------------------------------------- Watchdog

TEST(Watchdog, ChannelStallFiresOnlyWhileProgressIsZero) {
  MetricsRegistry reg;
  Gauge busy = reg.gauge("host.0.nic.busy_channels");
  Counter acks = reg.counter("host.0.nic.acks_received");

  WatchdogConfig cfg;
  cfg.window_ns = 500'000;
  Watchdog wd(reg, cfg);

  busy.set(2);
  wd.check(0);  // baseline
  EXPECT_TRUE(wd.events().empty());

  wd.check(500'000);  // busy, no acks in window -> stall
  ASSERT_EQ(wd.events().size(), 1u);
  EXPECT_EQ(wd.events()[0].rule, "channel-stall");
  EXPECT_EQ(wd.events()[0].subject, "host.0.nic");

  acks.inc();
  wd.check(1'000'000);  // progress resumed -> quiet
  busy.set(0);
  wd.check(1'500'000);  // idle -> quiet
  EXPECT_EQ(wd.events().size(), 1u);

  const std::string summary = wd.render_summary();
  EXPECT_NE(summary.find("channel-stall"), std::string::npos);
  EXPECT_NE(summary.find("host.0.nic"), std::string::npos);
}

TEST(Watchdog, FrameLoiterAndLinkPeggedRules) {
  MetricsRegistry reg;
  Gauge backlog = reg.gauge("host.2.nic.send_backlog");
  Counter sent = reg.counter("host.2.nic.data_sent");
  Counter bytes = reg.counter("fabric.link.h0->sw.bytes_tx");

  WatchdogConfig cfg;
  cfg.window_ns = 500'000;
  cfg.link_ns_per_byte = 1.0;
  Watchdog wd(reg, cfg);

  backlog.set(3);
  wd.check(0);
  bytes.inc(500'000);  // 500k bytes x 1 ns/B over a 500us window: pegged
  wd.check(500'000);

  ASSERT_EQ(wd.events().size(), 2u);
  EXPECT_EQ(wd.events()[0].rule, "frame-loiter");
  EXPECT_EQ(wd.events()[0].subject, "host.2.nic");
  EXPECT_EQ(wd.events()[1].rule, "link-pegged");
  EXPECT_EQ(wd.events()[1].subject, "fabric.link.h0->sw");

  // A transmission (even a retransmission) clears the loiter rule.
  sent.inc();
  wd.check(1'000'000);
  EXPECT_EQ(wd.events().size(), 2u);
}

// A scripted outage through the real stack: the server's only routes die
// for 6ms mid-run, so client channels hold messages with no acks coming
// back and the scenario's watchdog must name the stall.
TEST(Watchdog, FiresDuringInjectedTrunkOutage) {
  chaos::ScenarioSpec s;
  s.name = "watchdog_trunk_outage";
  s.seed = 1;
  s.fat_tree = true;  // leaf 0 holds controller+server, leaf 1+ the clients
  s.clients = 2;
  s.requests_per_client = 20;
  s.plan = [](cluster::Cluster&, sim::Rng&) {
    return chaos::FaultPlan{}
        .trunk_flap(1 * sim::ms, 0, 0, 6 * sim::ms)
        .trunk_flap(1 * sim::ms, 0, 1, 6 * sim::ms);
  };
  const chaos::ScenarioResult res = chaos::run_scenario(s);

  ASSERT_FALSE(res.watchdog_events.empty())
      << "no stall detected across a 6ms total outage";
  bool stall = false;
  for (const WatchdogEvent& e : res.watchdog_events) {
    if (e.rule == "channel-stall") stall = true;
  }
  EXPECT_TRUE(stall);
  EXPECT_NE(res.watchdog_summary.find("channel-stall"), std::string::npos);
}

// ------------------------------------------------- registry vs teardown

// Regression for the pull-callback hazard: a NIC registers gauge_fns whose
// lambdas capture `this`; destroying the NIC (the reboot/teardown path)
// must unregister them, or the next snapshot() calls through a dangling
// pointer (ASan catches the use-after-free without the fix).
TEST(Metrics, SnapshotSafeAfterNicTeardown) {
  sim::Engine eng{11};
  auto fabric = myrinet::Fabric::crossbar(eng, 2, {});
  std::vector<std::unique_ptr<lanai::Nic>> nics;
  for (myrinet::NodeId n = 0; n < 2; ++n) {
    nics.push_back(
        std::make_unique<lanai::Nic>(eng, *fabric, n, lanai::NicConfig{}));
    nics.back()->start();
  }
  eng.run();

  const Snapshot before = eng.snapshot();
  ASSERT_EQ(before.gauges.count("host.1.nic.busy_channels"), 1u);

  nics[1].reset();  // NIC dies mid-engine-lifetime

  const Snapshot after = eng.snapshot();
  EXPECT_EQ(after.gauges.count("host.1.nic.busy_channels"), 0u);
  EXPECT_EQ(after.gauges.count("host.1.nic.send_backlog"), 0u);
  EXPECT_EQ(after.gauges.count("host.0.nic.busy_channels"), 1u);
}

}  // namespace
}  // namespace vnet::obs
