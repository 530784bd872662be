// Tests for the §8 "future work" extensions implemented beyond the
// published system: adaptive RTT-based retransmission timeouts and
// piggybacked acknowledgments.

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "lanai/config.hpp"
#include "lanai/endpoint_state.hpp"
#include "lanai/nic.hpp"
#include "myrinet/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"

namespace vnet::lanai {
namespace {

/// Two-NIC fixture with one endpoint per node, fully wired.
class ExtensionTest : public ::testing::Test {
 public:
  void build(NicConfig cfg, myrinet::FabricParams fp = {}) {
    cfg_ = cfg;
    fabric_ = myrinet::Fabric::crossbar(eng_, 2, fp);
    for (myrinet::NodeId n = 0; n < 2; ++n) {
      nics_.push_back(std::make_unique<Nic>(eng_, *fabric_, n, cfg));
      nics_.back()->start();
    }
    for (int i = 0; i < 2; ++i) {
      eps_[i].node = i;
      eps_[i].id = static_cast<EpId>(i + 1);
      eps_[i].translations.resize(4);
      nics_[i]->submit({DriverOp::Kind::kCreate, &eps_[i], -1, 0, nullptr});
      nics_[i]->submit({DriverOp::Kind::kLoad, &eps_[i], 0, 0, nullptr});
    }
    eng_.run();
    eps_[0].translations[0] = Translation{true, 1, 2, 0};
    eps_[1].translations[0] = Translation{true, 0, 1, 0};
  }

  void post(int side, std::uint64_t arg, std::uint32_t bulk = 0) {
    SendDescriptor d;
    d.dest_index = 0;
    d.body.handler = 1;
    d.body.args[0] = arg;
    d.body.bulk_bytes = bulk;
    d.msg_id = eps_[side].alloc_msg_id();
    d.frag_count = bulk == 0 ? 1
                             : (bulk + cfg_.max_packet_payload - 1) /
                                   cfg_.max_packet_payload;
    eps_[side].enqueue(std::move(d));
    nics_[side]->doorbell(eps_[side]);
  }

  /// Reads one NIC counter for `node` from the engine's metric registry.
  std::uint64_t nic_counter(int node, const std::string& leaf) {
    return eng_.snapshot().counter("host." + std::to_string(node) + ".nic." +
                                   leaf);
  }

  sim::Engine eng_{17};
  NicConfig cfg_;
  std::unique_ptr<myrinet::Fabric> fabric_;
  std::vector<std::unique_ptr<Nic>> nics_;
  EndpointState eps_[2];
};

// ------------------------------------------------------------- piggyback

TEST_F(ExtensionTest, PiggybackReducesStandaloneAcks) {
  NicConfig cfg;
  cfg.piggyback_acks = true;
  build(cfg);
  // Bidirectional stream: plenty of reverse data frames to carry acks.
  for (int i = 0; i < 100; ++i) {
    post(0, i);
    post(1, i);
    eps_[0].recv_requests.clear();
    eps_[1].recv_requests.clear();
  }
  eps_[0].on_arrival = [&] { eps_[0].recv_requests.clear(); };
  eps_[1].on_arrival = [&] { eps_[1].recv_requests.clear(); };
  eng_.run();
  EXPECT_EQ(eps_[0].msgs_sent, 100u);
  EXPECT_EQ(eps_[1].msgs_sent, 100u);
  EXPECT_GT(nic_counter(0, "acks_piggybacked"), 40u);  // rode data frames
  // Far fewer standalone ack packets than messages received.
  EXPECT_LT(nic_counter(0, "acks_sent"), 60u);
}

TEST_F(ExtensionTest, PiggybackFlushCoversOneWayTraffic) {
  NicConfig cfg;
  cfg.piggyback_acks = true;
  build(cfg);
  eps_[1].on_arrival = [&] { eps_[1].recv_requests.clear(); };
  for (int i = 0; i < 50; ++i) post(0, i);
  eng_.run();
  // No reverse data: every ack needed a deadline flush, and the sender
  // still completed every message.
  EXPECT_EQ(eps_[0].msgs_sent, 50u);
  EXPECT_GT(nic_counter(1, "piggy_flushes"), 0u);
  EXPECT_EQ(nic_counter(1, "acks_piggybacked"), 0u);
}

TEST_F(ExtensionTest, PiggybackExactlyOnceUnderLoss) {
  NicConfig cfg;
  cfg.piggyback_acks = true;
  cfg.retransmit_timeout = 200 * sim::us;
  myrinet::FabricParams fp;
  fp.faults.drop_probability = 0.15;
  build(cfg, fp);
  std::multiset<std::uint64_t> seen0, seen1;
  eps_[0].on_arrival = [&] {
    while (!eps_[0].recv_requests.empty()) {
      seen0.insert(eps_[0].recv_requests.front().body.args[0]);
      eps_[0].recv_requests.pop_front();
    }
  };
  eps_[1].on_arrival = [&] {
    while (!eps_[1].recv_requests.empty()) {
      seen1.insert(eps_[1].recv_requests.front().body.args[0]);
      eps_[1].recv_requests.pop_front();
    }
  };
  for (int i = 0; i < 80; ++i) {
    post(0, i);
    post(1, i);
  }
  eng_.run();
  ASSERT_EQ(seen0.size(), 80u);
  ASSERT_EQ(seen1.size(), 80u);
  for (int i = 0; i < 80; ++i) {
    EXPECT_EQ(seen0.count(i), 1u) << i;
    EXPECT_EQ(seen1.count(i), 1u) << i;
  }
}

// ------------------------------------------------------- adaptive timeout

TEST_F(ExtensionTest, AdaptiveEstimatorLearnsRtt) {
  NicConfig cfg;
  cfg.adaptive_timeout = true;
  build(cfg);
  eps_[1].on_arrival = [&] { eps_[1].recv_requests.clear(); };
  for (int i = 0; i < 50; ++i) post(0, i);
  eng_.run();
  const sim::Duration est = nics_[0]->rtt_estimate(1);
  // One-hop data + ack round trip is on the order of ~10us here.
  EXPECT_GT(est, 2 * sim::us);
  EXPECT_LT(est, 200 * sim::us);
}

TEST_F(ExtensionTest, AdaptiveAvoidsSpuriousBulkRetransmissions) {
  // Receive-side DMA queueing of 16 in-flight 4KB fragments exceeds an
  // aggressive fixed timeout; the adaptive estimator rides it out.
  auto run_case = [](bool adaptive) {
    sim::Engine eng(5);
    auto fabric = myrinet::Fabric::crossbar(eng, 2);
    NicConfig cfg;
    cfg.adaptive_timeout = adaptive;
    cfg.retransmit_timeout = 400 * sim::us;  // aggressive fixed value
    cfg.adaptive_timeout_min = 400 * sim::us;
    Nic n0(eng, *fabric, 0, cfg), n1(eng, *fabric, 1, cfg);
    n0.start();
    n1.start();
    EndpointState a, b;
    a.node = 0;
    a.id = 1;
    a.translations.resize(2);
    a.translations[0] = Translation{true, 1, 2, 0};
    b.node = 1;
    b.id = 2;
    b.on_arrival = [&b] { b.recv_requests.clear(); };
    n0.submit({DriverOp::Kind::kCreate, &a, -1, 0, nullptr});
    n0.submit({DriverOp::Kind::kLoad, &a, 0, 0, nullptr});
    n1.submit({DriverOp::Kind::kCreate, &b, -1, 0, nullptr});
    n1.submit({DriverOp::Kind::kLoad, &b, 0, 0, nullptr});
    eng.run();
    for (int i = 0; i < 40; ++i) {
      SendDescriptor d;
      d.dest_index = 0;
      d.body.handler = 1;
      d.body.bulk_bytes = 8192;
      d.msg_id = a.alloc_msg_id();
      d.frag_count = 2;
      a.enqueue(std::move(d));
    }
    n0.doorbell(a);
    eng.run();
    EXPECT_EQ(a.msgs_sent, 40u);
    return eng.snapshot().counter("host.0.nic.retransmissions");
  };
  const auto fixed = run_case(false);
  const auto adaptive = run_case(true);
  EXPECT_GT(fixed, 20u);           // the aggressive timeout misfires a lot
  EXPECT_LT(adaptive, fixed / 4);  // the estimator adapts past the queueing
}

TEST_F(ExtensionTest, AdaptiveStillRecoversFromRealLoss) {
  NicConfig cfg;
  cfg.adaptive_timeout = true;
  cfg.retransmit_timeout = 500 * sim::us;
  myrinet::FabricParams fp;
  fp.faults.drop_probability = 0.2;
  build(cfg, fp);
  std::multiset<std::uint64_t> seen;
  eps_[1].on_arrival = [&] {
    while (!eps_[1].recv_requests.empty()) {
      seen.insert(eps_[1].recv_requests.front().body.args[0]);
      eps_[1].recv_requests.pop_front();
    }
  };
  for (int i = 0; i < 60; ++i) post(0, i);
  eng_.run();
  ASSERT_EQ(seen.size(), 60u);
  for (int i = 0; i < 60; ++i) EXPECT_EQ(seen.count(i), 1u) << i;
  EXPECT_GT(nic_counter(0, "retransmissions"), 0u);
}

TEST_F(ExtensionTest, BothExtensionsComposeUnderLoss) {
  NicConfig cfg;
  cfg.adaptive_timeout = true;
  cfg.piggyback_acks = true;
  cfg.retransmit_timeout = 300 * sim::us;
  myrinet::FabricParams fp;
  fp.faults.drop_probability = 0.1;
  build(cfg, fp);
  std::multiset<std::uint64_t> seen0, seen1;
  eps_[0].on_arrival = [&] {
    while (!eps_[0].recv_requests.empty()) {
      seen0.insert(eps_[0].recv_requests.front().body.args[0]);
      eps_[0].recv_requests.pop_front();
    }
  };
  eps_[1].on_arrival = [&] {
    while (!eps_[1].recv_requests.empty()) {
      seen1.insert(eps_[1].recv_requests.front().body.args[0]);
      eps_[1].recv_requests.pop_front();
    }
  };
  for (int i = 0; i < 60; ++i) {
    post(0, i);
    post(1, i, /*bulk=*/(i % 4 == 0) ? 6000u : 0u);
  }
  eng_.run();
  ASSERT_EQ(seen0.size(), 60u);
  ASSERT_EQ(seen1.size(), 60u);
}

}  // namespace
}  // namespace vnet::lanai
