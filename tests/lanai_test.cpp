// Unit tests for the LANai NIC model: end-to-end delivery, the reliable
// transport (acks, nacks, retransmission, backoff, epochs, exactly-once),
// fragmentation/reassembly, the driver/NI protocol (load/unload/destroy with
// quiescence), the service discipline, and the GAM baseline firmware.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "am/endpoint.hpp"
#include "cluster/cluster.hpp"
#include "cluster/config.hpp"
#include "lanai/config.hpp"
#include "lanai/endpoint_state.hpp"
#include "lanai/frame.hpp"
#include "lanai/nic.hpp"
#include "myrinet/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"

namespace vnet::lanai {
namespace {

std::uint32_t frag_count_for(std::uint32_t bulk_bytes, const NicConfig& cfg) {
  if (bulk_bytes == 0) return 1;
  return (bulk_bytes + cfg.max_packet_payload - 1) / cfg.max_packet_payload;
}

class NicTest : public ::testing::Test {
 public:
  void build(int nodes, NicConfig cfg = {}, myrinet::FabricParams fp = {}) {
    build_on(myrinet::Fabric::crossbar(eng_, nodes, fp), cfg);
  }

  /// Starts one NIC per host of `fabric`.
  void build_on(std::unique_ptr<myrinet::Fabric> fabric, NicConfig cfg = {}) {
    cfg_ = cfg;
    fabric_ = std::move(fabric);
    for (myrinet::NodeId n = 0; n < fabric_->num_hosts(); ++n) {
      nics_.push_back(std::make_unique<Nic>(eng_, *fabric_, n, cfg));
      nics_.back()->start();
    }
  }

  /// Creates an endpoint and registers it with its node's NIC; binds it to
  /// `frame` unless frame < 0 (then it stays non-resident).
  EndpointState* make_ep(myrinet::NodeId node, EpId id, std::uint64_t tag,
                         int frame) {
    auto ep = std::make_unique<EndpointState>();
    ep->node = node;
    ep->id = id;
    ep->tag = tag;
    ep->translations.resize(16);
    EndpointState* raw = ep.get();
    eps_.push_back(std::move(ep));
    nics_[node]->submit({DriverOp::Kind::kCreate, raw, -1, 0, nullptr});
    if (frame >= 0) {
      nics_[node]->submit({DriverOp::Kind::kLoad, raw, frame, 0, nullptr});
    }
    eng_.run();
    return raw;
  }

  static void map(EndpointState* ep, std::uint32_t idx, myrinet::NodeId node,
                  EpId dst, std::uint64_t key) {
    ep->translations[idx] = Translation{true, node, dst, key};
  }

  /// Writes a request descriptor and rings the doorbell.
  std::uint64_t post_request(EndpointState* ep, std::uint32_t dest_idx,
                             std::uint8_t handler, std::uint64_t arg0 = 0,
                             std::uint32_t bulk_bytes = 0) {
    SendDescriptor d;
    d.dest_index = dest_idx;
    d.body.is_request = true;
    d.body.handler = handler;
    d.body.args[0] = arg0;
    d.body.bulk_bytes = bulk_bytes;
    d.msg_id = ep->alloc_msg_id();
    d.frag_count = frag_count_for(bulk_bytes, cfg_);
    const std::uint64_t id = d.msg_id;
    ep->enqueue(std::move(d));
    nics_[ep->node]->doorbell(*ep);
    return id;
  }

  std::uint64_t post_reply(EndpointState* ep, const RecvEntry& to,
                           std::uint8_t handler, std::uint64_t arg0 = 0) {
    SendDescriptor d;
    d.reply_to = to.reply_to;
    d.body.is_request = false;
    d.body.handler = handler;
    d.body.args[0] = arg0;
    d.msg_id = ep->alloc_msg_id();
    const std::uint64_t id = d.msg_id;
    ep->enqueue(std::move(d));
    nics_[ep->node]->doorbell(*ep);
    return id;
  }

  /// Reads one NIC counter for `node` from the engine's metric registry
  /// (the NIC publishes under `host.<node>.nic.*`).
  std::uint64_t nic_counter(int node, const std::string& leaf) {
    return eng_.snapshot().counter("host." + std::to_string(node) + ".nic." +
                                   leaf);
  }

  sim::Engine eng_{7};
  NicConfig cfg_;
  std::unique_ptr<myrinet::Fabric> fabric_;
  std::vector<std::unique_ptr<Nic>> nics_;
  std::vector<std::unique_ptr<EndpointState>> eps_;
};

// -------------------------------------------------------------- delivery

TEST_F(NicTest, ShortMessageDeliversEndToEnd) {
  build(2);
  auto* src = make_ep(0, 1, 0x11, 0);
  auto* dst = make_ep(1, 2, 0x22, 0);
  map(src, 3, 1, 2, 0x22);

  post_request(src, 3, /*handler=*/7, /*arg0=*/42);
  eng_.run();

  ASSERT_EQ(dst->recv_requests.size(), 1u);
  const RecvEntry& e = dst->recv_requests.front();
  EXPECT_EQ(e.body.handler, 7);
  EXPECT_EQ(e.body.args[0], 42u);
  EXPECT_EQ(e.src_node, 0);
  EXPECT_EQ(e.src_ep, 1u);
  EXPECT_TRUE(e.reply_to.valid());
  EXPECT_EQ(e.reply_to.node, 0);
  EXPECT_EQ(e.reply_to.ep, 1u);

  EXPECT_EQ(src->msgs_sent, 1u);
  EXPECT_TRUE(src->send_queue().empty());  // swept after the ack
  EXPECT_EQ(dst->msgs_delivered, 1u);
  EXPECT_EQ(nic_counter(0, "acks_received"), 1u);
  EXPECT_EQ(nic_counter(1, "acks_sent"), 1u);
  EXPECT_EQ(nic_counter(0, "retransmissions"), 0u);
}

TEST_F(NicTest, ReplyDeliversToReplyQueue) {
  build(2);
  auto* src = make_ep(0, 1, 0x11, 0);
  auto* dst = make_ep(1, 2, 0x22, 0);
  map(src, 0, 1, 2, 0x22);

  post_request(src, 0, 1, 5);
  eng_.run();
  ASSERT_EQ(dst->recv_requests.size(), 1u);

  post_reply(dst, dst->recv_requests.front(), /*handler=*/9, /*arg0=*/99);
  eng_.run();

  ASSERT_EQ(src->recv_replies.size(), 1u);
  EXPECT_EQ(src->recv_replies.front().body.handler, 9);
  EXPECT_EQ(src->recv_replies.front().body.args[0], 99u);
  EXPECT_FALSE(src->recv_replies.front().reply_to.valid());
  EXPECT_TRUE(src->recv_requests.empty());
}

TEST_F(NicTest, DeliveryLatencyIsMicroseconds) {
  build(2);
  auto* src = make_ep(0, 1, 0, 0);
  auto* dst = make_ep(1, 2, 0, 0);
  map(src, 0, 1, 2, 0);
  const sim::Time t0 = eng_.now();
  post_request(src, 0, 1);
  while (dst->recv_requests.empty() && eng_.step()) {
  }
  const double usec = sim::to_usec(eng_.now() - t0);
  EXPECT_GT(usec, 3.0);
  EXPECT_LT(usec, 40.0);
}

TEST_F(NicTest, LocalLoopbackBypassesFabric) {
  build(2);
  auto* a = make_ep(0, 1, 0xa, 0);
  auto* b = make_ep(0, 2, 0xb, 1);
  map(a, 0, 0, 2, 0xb);
  post_request(a, 0, 4, 11);
  eng_.run();
  ASSERT_EQ(b->recv_requests.size(), 1u);
  EXPECT_EQ(b->recv_requests.front().body.args[0], 11u);
  EXPECT_EQ(nic_counter(0, "local_deliveries"), 1u);
  EXPECT_EQ(fabric_->station(0).packets_injected(), 0u);
  EXPECT_EQ(a->msgs_sent, 1u);
}

// --------------------------------------------------------- fragmentation

TEST_F(NicTest, BulkMessageFragmentsAndReassembles) {
  build(2);
  auto* src = make_ep(0, 1, 0, 0);
  auto* dst = make_ep(1, 2, 0, 0);
  map(src, 0, 1, 2, 0);

  post_request(src, 0, 2, 0, /*bulk_bytes=*/10'000);  // 3 fragments @4096
  eng_.run();

  ASSERT_EQ(dst->recv_requests.size(), 1u);  // delivered exactly once
  EXPECT_EQ(dst->recv_requests.front().body.bulk_bytes, 10'000u);
  EXPECT_EQ(nic_counter(0, "data_sent"), 3u);
  EXPECT_EQ(nic_counter(1, "acks_sent"), 3u);
  EXPECT_EQ(dst->msgs_delivered, 1u);
  EXPECT_EQ(src->msgs_sent, 1u);
  // Receive-side SBUS DMA moved the payload to host memory.
  EXPECT_EQ(nics_[1]->sbus().bytes_written(), 10'000u);
  // (the endpoint-image load also crossed the send-side SBUS)
  EXPECT_EQ(nics_[0]->sbus().bytes_read(), 10'000u + kEndpointImageBytes);
}

TEST_F(NicTest, BulkCarriesRealBytes) {
  build(2);
  auto* src = make_ep(0, 1, 0, 0);
  auto* dst = make_ep(1, 2, 0, 0);
  map(src, 0, 1, 2, 0);

  auto data = std::make_shared<std::vector<std::uint8_t>>(5000);
  for (std::size_t i = 0; i < data->size(); ++i) {
    (*data)[i] = static_cast<std::uint8_t>(i * 31);
  }
  SendDescriptor d;
  d.dest_index = 0;
  d.body.handler = 1;
  d.body.bulk_bytes = 5000;
  d.body.bulk_data = data;
  d.msg_id = src->alloc_msg_id();
  d.frag_count = frag_count_for(5000, cfg_);
  src->enqueue(std::move(d));
  nics_[0]->doorbell(*src);
  eng_.run();

  ASSERT_EQ(dst->recv_requests.size(), 1u);
  ASSERT_TRUE(dst->recv_requests.front().body.bulk_data);
  EXPECT_EQ(*dst->recv_requests.front().body.bulk_data, *data);
}

// --------------------------------------------- protection & error model

TEST_F(NicTest, BadKeyReturnsToSender) {
  build(2);
  auto* src = make_ep(0, 1, 0x11, 0);
  auto* dst = make_ep(1, 2, 0x22, 0);
  map(src, 0, 1, 2, /*wrong key=*/0xdead);

  NackReason reason = NackReason::kNone;
  int returns = 0;
  src->on_return_to_sender = [&](SendDescriptor, NackReason r) {
    reason = r;
    ++returns;
  };
  post_request(src, 0, 1);
  eng_.run();

  EXPECT_EQ(returns, 1);
  EXPECT_EQ(reason, NackReason::kBadKey);
  EXPECT_TRUE(dst->recv_requests.empty());
  EXPECT_EQ(src->msgs_returned, 1u);
  EXPECT_EQ(src->msgs_sent, 0u);
  EXPECT_TRUE(src->send_queue().empty());
}

TEST_F(NicTest, NoSuchEndpointReturnsToSender) {
  build(2);
  auto* src = make_ep(0, 1, 0, 0);
  map(src, 0, 1, /*nonexistent=*/77, 0);
  NackReason reason = NackReason::kNone;
  src->on_return_to_sender = [&](SendDescriptor, NackReason r) { reason = r; };
  post_request(src, 0, 1);
  eng_.run();
  EXPECT_EQ(reason, NackReason::kNoSuchEndpoint);
}

TEST_F(NicTest, InvalidTranslationReturnsToSender) {
  build(2);
  auto* src = make_ep(0, 1, 0, 0);
  NackReason reason = NackReason::kNone;
  src->on_return_to_sender = [&](SendDescriptor, NackReason r) { reason = r; };
  post_request(src, /*unmapped index=*/5, 1);
  eng_.run();
  EXPECT_EQ(reason, NackReason::kNoSuchEndpoint);
  EXPECT_EQ(src->msgs_returned, 1u);
}

// ------------------------------------------------- residency interaction

TEST_F(NicTest, NonResidentDestinationNacksAndRequestsRemap) {
  build(2);
  auto* src = make_ep(0, 1, 0, 0);
  auto* dst = make_ep(1, 2, 0, /*frame=*/-1);  // created but not loaded
  map(src, 0, 1, 2, 0);

  std::vector<EpId> remap_requests;
  nics_[1]->on_nic_request = [&](NicRequest r) {
    remap_requests.push_back(r.ep);
  };

  post_request(src, 0, 1, 5);
  eng_.run_for(5 * sim::ms);

  EXPECT_TRUE(dst->recv_requests.empty());
  ASSERT_EQ(remap_requests.size(), 1u);  // deduplicated
  EXPECT_EQ(remap_requests[0], 2u);
  EXPECT_GT(nic_counter(1, "nacks_sent_by_reason." +
                               std::to_string(static_cast<int>(
                                   NackReason::kNotResident))),
            0u);

  // Driver responds: load the endpoint; the retransmission delivers it.
  nics_[1]->submit({DriverOp::Kind::kLoad, dst, 0, 1, nullptr});
  eng_.run();
  ASSERT_EQ(dst->recv_requests.size(), 1u);
  EXPECT_EQ(dst->recv_requests.front().body.args[0], 5u);
  EXPECT_EQ(dst->msgs_delivered, 1u);
  EXPECT_EQ(src->msgs_sent, 1u);
}

// ------------------------------------------------------- queue overruns

TEST_F(NicTest, ReceiveQueueOverrunNacksThenRecovers) {
  build(2);
  auto* src = make_ep(0, 1, 0, 0);
  auto* dst = make_ep(1, 2, 0, 0);
  map(src, 0, 1, 2, 0);

  const int total = 40;  // recv_request_depth is 32
  for (int i = 0; i < total; ++i) {
    post_request(src, 0, 1, static_cast<std::uint64_t>(i));
  }

  // Host-side consumer drains the queue slowly.
  std::multiset<std::uint64_t> seen;
  eng_.spawn([](sim::Engine& e, EndpointState& ep,
                std::multiset<std::uint64_t>& s, int n) -> sim::Process {
    co_await e.delay(2 * sim::ms);  // let the queue overrun first
    while (static_cast<int>(s.size()) < n) {
      while (!ep.recv_requests.empty()) {
        s.insert(ep.recv_requests.front().body.args[0]);
        ep.recv_requests.pop_front();
      }
      co_await e.delay(200 * sim::us);
    }
  }(eng_, *dst, seen, total));
  eng_.run();

  EXPECT_EQ(seen.size(), static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    EXPECT_EQ(seen.count(static_cast<std::uint64_t>(i)), 1u) << i;
  }
  EXPECT_GT(dst->recv_overruns, 0u);
  EXPECT_GT(nic_counter(1, "nacks_sent_by_reason." +
                               std::to_string(static_cast<int>(
                                   NackReason::kQueueFull))),
            0u);
}

// -------------------------------------------------- loss and corruption

struct LossCase {
  double drop;
  double corrupt;
};

class NicLossTest : public NicTest,
                    public ::testing::WithParamInterface<LossCase> {};

TEST_P(NicLossTest, ExactlyOnceUnderFaults) {
  myrinet::FabricParams fp;
  fp.faults.drop_probability = GetParam().drop;
  fp.faults.corrupt_probability = GetParam().corrupt;
  NicConfig cfg;
  cfg.retransmit_timeout = 100 * sim::us;  // speed the test up
  build(2, cfg, fp);
  auto* src = make_ep(0, 1, 0, 0);
  auto* dst = make_ep(1, 2, 0, 0);
  map(src, 0, 1, 2, 0);

  const int total = 150;
  std::multiset<std::uint64_t> seen;
  // Producer paces itself so the send queue never exceeds its depth.
  eng_.spawn([](sim::Engine& e, NicTest* t, EndpointState& ep,
                int n) -> sim::Process {
    for (int i = 0; i < n; ++i) {
      while (ep.send_queue().size() >=
             static_cast<std::size_t>(t->cfg_.send_queue_depth)) {
        co_await e.delay(100 * sim::us);
      }
      t->post_request(&ep, 0, 1, static_cast<std::uint64_t>(i));
    }
  }(eng_, this, *src, total));
  eng_.spawn([](sim::Engine& e, EndpointState& ep,
                std::multiset<std::uint64_t>& s, int n) -> sim::Process {
    while (static_cast<int>(s.size()) < n) {
      while (!ep.recv_requests.empty()) {
        s.insert(ep.recv_requests.front().body.args[0]);
        ep.recv_requests.pop_front();
      }
      co_await e.delay(100 * sim::us);
    }
  }(eng_, *dst, seen, total));
  eng_.run();

  ASSERT_EQ(seen.size(), static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    EXPECT_EQ(seen.count(static_cast<std::uint64_t>(i)), 1u)
        << "message " << i << " not delivered exactly once";
  }
  if (GetParam().drop + GetParam().corrupt > 0) {
    EXPECT_GT(nic_counter(0, "retransmissions"), 0u);
  }
  if (GetParam().corrupt > 0) {
    EXPECT_GT(nic_counter(1, "crc_drops"), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FaultRates, NicLossTest,
    ::testing::Values(LossCase{0.0, 0.0}, LossCase{0.05, 0.0},
                      LossCase{0.2, 0.0}, LossCase{0.0, 0.1},
                      LossCase{0.1, 0.1}, LossCase{0.3, 0.0}),
    [](const ::testing::TestParamInfo<LossCase>& info) {
      return "drop" + std::to_string(static_cast<int>(info.param.drop * 100)) +
             "corrupt" +
             std::to_string(static_cast<int>(info.param.corrupt * 100));
    });

TEST_F(NicTest, HeavyAckLossSuppressesDuplicates) {
  myrinet::FabricParams fp;
  fp.faults.drop_probability = 0.35;
  NicConfig cfg;
  cfg.retransmit_timeout = 100 * sim::us;
  build(2, cfg, fp);
  auto* src = make_ep(0, 1, 0, 0);
  auto* dst = make_ep(1, 2, 0, 0);
  map(src, 0, 1, 2, 0);
  for (int i = 0; i < 20; ++i) post_request(src, 0, 1, i);
  eng_.spawn([](sim::Engine& e, EndpointState& ep) -> sim::Process {
    for (;;) {
      while (!ep.recv_requests.empty()) ep.recv_requests.pop_front();
      if (ep.msgs_delivered >= 20) co_return;
      co_await e.delay(100 * sim::us);
    }
  }(eng_, *dst));
  eng_.run();
  EXPECT_EQ(dst->msgs_delivered, 20u);
  // With 35% loss, some data frames were accepted but their acks were
  // lost; the retransmitted copies must be recognized as duplicates.
  EXPECT_GT(nic_counter(1, "duplicates_suppressed"), 0u);
}

// ---------------------------------------------------- unreachable peers

TEST_F(NicTest, UnreachableDestinationReturnsToSender) {
  NicConfig cfg;
  cfg.retransmit_timeout = 100 * sim::us;
  cfg.unreachable_timeout = 20 * sim::ms;
  build(2, cfg);
  auto* src = make_ep(0, 1, 0, 0);
  auto* dst = make_ep(1, 2, 0, 0);
  map(src, 0, 1, 2, 0);

  fabric_->set_host_link(1, false);  // crash the destination
  NackReason reason = NackReason::kBadKey;  // sentinel
  sim::Time returned_at = -1;
  src->on_return_to_sender = [&](SendDescriptor, NackReason r) {
    reason = r;
    returned_at = eng_.now();
  };
  post_request(src, 0, 1);
  eng_.run();

  EXPECT_EQ(reason, NackReason::kNone);  // "unreachable", not a peer nack
  EXPECT_GE(returned_at, 20 * sim::ms);
  EXPECT_LT(returned_at, 200 * sim::ms);
  EXPECT_TRUE(dst->recv_requests.empty());
  EXPECT_GT(nic_counter(0, "retransmissions"), 0u);
}

TEST_F(NicTest, StuckChannelUnbindsAndOtherTrafficFlows) {
  NicConfig cfg;
  cfg.retransmit_timeout = 100 * sim::us;
  cfg.retransmit_unbind_limit = 3;
  cfg.max_backoff_exponent = 2;
  cfg.unreachable_timeout = 1 * sim::sec;
  build(3, cfg);
  auto* src = make_ep(0, 1, 0, 0);
  auto* dead = make_ep(1, 2, 0, 0);
  auto* alive = make_ep(2, 3, 0, 0);
  map(src, 0, 1, 2, 0);
  map(src, 1, 2, 3, 0);

  fabric_->set_host_link(1, false);
  alive->on_arrival = [&] { alive->recv_requests.clear(); };  // instant drain
  post_request(src, 0, 1);  // will never be delivered promptly
  for (int i = 0; i < 50; ++i) post_request(src, 1, 1, i);
  eng_.run_for(100 * sim::ms);

  EXPECT_EQ(alive->msgs_delivered, 50u);  // unaffected by the dead peer
  EXPECT_GT(nic_counter(0, "channel_unbinds"), 0u);
  EXPECT_TRUE(dead->recv_requests.empty());
}

// --------------------------------------------------------- epoch resync

TEST_F(NicTest, ReceiverRebootResynchronizes) {
  build(2);
  auto* src = make_ep(0, 1, 0, 0);
  auto* dst = make_ep(1, 2, 0, 0);
  map(src, 0, 1, 2, 0);
  for (int i = 0; i < 5; ++i) post_request(src, 0, 1, i);
  eng_.run();
  EXPECT_EQ(dst->msgs_delivered, 5u);

  nics_[1]->reboot();
  for (int i = 5; i < 10; ++i) post_request(src, 0, 1, i);
  eng_.run();
  EXPECT_EQ(dst->msgs_delivered, 10u);
}

TEST_F(NicTest, SenderRebootResynchronizes) {
  build(2);
  auto* src = make_ep(0, 1, 0, 0);
  auto* dst = make_ep(1, 2, 0, 0);
  map(src, 0, 1, 2, 0);
  for (int i = 0; i < 5; ++i) post_request(src, 0, 1, i);
  eng_.run();

  nics_[0]->reboot();  // sender loses all channel state; epoch advances
  for (int i = 5; i < 10; ++i) post_request(src, 0, 1, i);
  eng_.run();
  EXPECT_EQ(dst->msgs_delivered, 10u);
}

// ------------------------------------------------------ driver protocol

TEST_F(NicTest, LoadOpensGateAndBindsFrame) {
  build(1);
  auto* ep = make_ep(0, 1, 0, -1);
  EXPECT_FALSE(ep->resident());
  sim::Gate done(eng_);
  nics_[0]->submit({DriverOp::Kind::kLoad, ep, 3, 1, &done});
  eng_.run();
  EXPECT_TRUE(done.is_open());
  EXPECT_TRUE(ep->resident());
  EXPECT_EQ(ep->frame, 3);
  EXPECT_EQ(nics_[0]->frame_occupant(3), ep);
  EXPECT_EQ(nics_[0]->free_frames(), 7);
}

TEST_F(NicTest, UnloadQuiescesInFlightMessagesFirst) {
  NicConfig cfg;
  build(2, cfg);
  auto* src = make_ep(0, 1, 0, 0);
  auto* dst = make_ep(1, 2, 0, 0);
  map(src, 0, 1, 2, 0);

  // Start a multi-fragment bulk send and let some fragments get in flight,
  // then request unload. Draining must stop *new* fragments while the
  // in-flight ones are retransmitted/acknowledged to quiescence (§5.3).
  post_request(src, 0, 1, 0, /*bulk_bytes=*/32'768);  // 8 fragments
  eng_.run_for(100 * sim::us);
  sim::Gate done(eng_);
  nics_[0]->submit({DriverOp::Kind::kUnload, src, -1, 2, &done});
  eng_.run();

  EXPECT_TRUE(done.is_open());
  EXPECT_FALSE(src->resident());
  EXPECT_EQ(nic_counter(0, "frames_unloaded"), 1u);
  // The message is incomplete: its unsent fragments were stranded when the
  // endpoint was unloaded, exactly like a de-scheduled process's endpoint.
  EXPECT_EQ(src->msgs_sent, 0u);
  EXPECT_EQ(dst->msgs_delivered, 0u);

  // Re-loading the endpoint resumes the transfer where it stopped.
  nics_[0]->submit({DriverOp::Kind::kLoad, src, 0, 3, nullptr});
  eng_.run();
  EXPECT_EQ(src->msgs_sent, 1u);
  EXPECT_EQ(dst->msgs_delivered, 1u);
  EXPECT_EQ(dst->recv_requests.front().body.bulk_bytes, 32'768u);
}

TEST_F(NicTest, DestroyedEndpointNacksNoSuchEndpoint) {
  build(2);
  auto* src = make_ep(0, 1, 0, 0);
  auto* dst = make_ep(1, 2, 0, 0);
  map(src, 0, 1, 2, 0);

  sim::Gate done(eng_);
  nics_[1]->submit({DriverOp::Kind::kDestroy, dst, -1, 1, &done});
  eng_.run();
  EXPECT_TRUE(done.is_open());
  EXPECT_FALSE(nics_[1]->directory_contains(2));

  NackReason reason = NackReason::kNone;
  src->on_return_to_sender = [&](SendDescriptor, NackReason r) { reason = r; };
  post_request(src, 0, 1);
  eng_.run();
  EXPECT_EQ(reason, NackReason::kNoSuchEndpoint);
}

// ------------------------------------------------------ service discipline

TEST_F(NicTest, TwoEndpointsShareTheWireFairly) {
  build(3);
  auto* a = make_ep(0, 1, 0, 0);
  auto* b = make_ep(0, 2, 0, 1);
  auto* da = make_ep(1, 3, 0, 0);
  auto* db = make_ep(2, 4, 0, 0);
  map(a, 0, 1, 3, 0);
  map(b, 0, 2, 4, 0);

  // Both endpoints keep 32 descriptors queued; run for a fixed window.
  for (int i = 0; i < 32; ++i) {
    post_request(a, 0, 1, i);
    post_request(b, 0, 1, i);
  }
  eng_.run_for(2 * sim::ms);
  const auto got_a = da->msgs_delivered;
  const auto got_b = db->msgs_delivered;
  EXPECT_GT(got_a, 0u);
  EXPECT_GT(got_b, 0u);
  const double ratio = static_cast<double>(got_a) /
                       static_cast<double>(got_b ? got_b : 1);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST_F(NicTest, LoiterBoundPreventsBulkMonopoly) {
  NicConfig cfg;
  cfg.loiter_descriptors = 4;  // tighten so the effect is visible quickly
  build(3, cfg);
  auto* bulk = make_ep(0, 1, 0, 0);
  auto* latency = make_ep(0, 2, 0, 1);
  auto* dbulk = make_ep(1, 3, 0, 0);
  auto* dlat = make_ep(2, 4, 0, 0);
  map(bulk, 0, 1, 3, 0);
  map(latency, 0, 2, 4, 0);

  dbulk->on_arrival = [&] { dbulk->recv_requests.clear(); };  // instant drain
  for (int i = 0; i < 60; ++i) post_request(bulk, 0, 1, i);
  post_request(latency, 0, 1, 7);
  sim::Time delivered_at = -1;
  dlat->on_arrival = [&] { delivered_at = eng_.now(); };
  eng_.run();
  EXPECT_EQ(dbulk->msgs_delivered, 60u);
  ASSERT_GE(delivered_at, 0);
  // The small message must not wait behind all 60 bulk descriptors.
  EXPECT_LT(delivered_at, 1 * sim::ms);
}

// ----------------------------------------------------------- GAM baseline

TEST_F(NicTest, GamModeDeliversWithoutAcks) {
  NicConfig cfg;
  cfg.reliable_transport = false;
  build(2, cfg);
  auto* src = make_ep(0, 1, 0, 0);
  auto* dst = make_ep(1, 2, 0, 0);
  map(src, 0, 1, 2, 0);
  for (int i = 0; i < 10; ++i) post_request(src, 0, 1, i);
  eng_.run();
  EXPECT_EQ(dst->msgs_delivered, 10u);
  EXPECT_EQ(nic_counter(1, "acks_sent"), 0u);
  EXPECT_EQ(nic_counter(0, "acks_received"), 0u);
  EXPECT_EQ(src->msgs_sent, 10u);
}

TEST_F(NicTest, GamModeDropsOnOverrun) {
  NicConfig cfg;
  cfg.reliable_transport = false;
  build(2, cfg);
  auto* src = make_ep(0, 1, 0, 0);
  auto* dst = make_ep(1, 2, 0, 0);
  map(src, 0, 1, 2, 0);
  for (int i = 0; i < 40; ++i) post_request(src, 0, 1, i);  // depth is 32
  eng_.run();
  EXPECT_EQ(dst->recv_requests.size(), 32u);
  EXPECT_EQ(nic_counter(1, "gam_drops"), 8u);
  EXPECT_EQ(dst->recv_overruns, 8u);
}

TEST_F(NicTest, GamModeLosesMessagesOnLossyNetwork) {
  myrinet::FabricParams fp;
  fp.faults.drop_probability = 0.2;
  NicConfig cfg;
  cfg.reliable_transport = false;
  build(2, cfg, fp);
  auto* src = make_ep(0, 1, 0, 0);
  auto* dst = make_ep(1, 2, 0, 0);
  map(src, 0, 1, 2, 0);
  eng_.spawn([](sim::Engine& e, EndpointState& ep) -> sim::Process {
    for (int i = 0; i < 200; ++i) {
      while (!ep.recv_requests.empty()) ep.recv_requests.pop_front();
      co_await e.delay(50 * sim::us);
    }
  }(eng_, *dst));
  for (int i = 0; i < 100; ++i) post_request(src, 0, 1, i);
  eng_.run();
  // No retransmission: a lossy network visibly loses GAM messages.
  EXPECT_LT(dst->msgs_delivered, 100u);
  EXPECT_GT(dst->msgs_delivered, 30u);
}

// ------------------------------------------------------------ determinism

TEST_F(NicTest, RunsAreDeterministic) {
  auto run_once = [](std::uint64_t seed) {
    sim::Engine eng(seed);
    myrinet::FabricParams fp;
    fp.faults.drop_probability = 0.1;
    auto fabric = myrinet::Fabric::crossbar(eng, 2, fp);
    NicConfig cfg;
    cfg.retransmit_timeout = 100 * sim::us;
    Nic n0(eng, *fabric, 0, cfg), n1(eng, *fabric, 1, cfg);
    n0.start();
    n1.start();
    EndpointState a, b;
    a.node = 0;
    a.id = 1;
    a.translations.resize(4);
    b.node = 1;
    b.id = 2;
    n0.submit({DriverOp::Kind::kCreate, &a, -1, 0, nullptr});
    n0.submit({DriverOp::Kind::kLoad, &a, 0, 0, nullptr});
    n1.submit({DriverOp::Kind::kCreate, &b, -1, 0, nullptr});
    n1.submit({DriverOp::Kind::kLoad, &b, 0, 0, nullptr});
    eng.run();
    a.translations[0] = Translation{true, 1, 2, 0};
    for (int i = 0; i < 30; ++i) {
      SendDescriptor d;
      d.dest_index = 0;
      d.body.handler = 1;
      d.body.args[0] = static_cast<std::uint64_t>(i);
      d.msg_id = a.alloc_msg_id();
      a.enqueue(std::move(d));
    }
    n0.doorbell(a);
    eng.run();
    return std::make_tuple(eng.now(), eng.events_processed(),
                           eng.snapshot().counter("host.0.nic.retransmissions"),
                           b.msgs_delivered);
  };
  EXPECT_EQ(run_once(5), run_once(5));
  // A different seed changes the loss pattern, so the run as a whole (end
  // time, event count, retransmissions) must differ somewhere.
  EXPECT_NE(run_once(5), run_once(6));
}

// ----------------- batched datapath (doorbell coalescing, burst service)

// Regression: the blocked-doze (`blocked_poll_interval`) and the coalesced
// doorbell must compose. A doorbell landing while the firmware dozes on
// blocked channels has to wake it exactly once — a lost wakeup would park
// the new descriptor until the doze times out; a doubled one would charge
// a phantom service pass.
TEST_F(NicTest, DoorbellMidDozeWakesFirmwareExactlyOnce) {
  NicConfig cfg;
  cfg.channels_per_peer = 2;            // small: a bulk send parks them all
  cfg.max_packet_payload = 512;
  cfg.blocked_poll_interval = 500 * sim::us;
  myrinet::FabricParams fp;
  fp.link.propagation = 100 * sim::us;  // acks ~200 us away: doze is long
  build(3, cfg, fp);
  auto* src = make_ep(0, 1, 0x1, 0);
  auto* src2 = make_ep(0, 4, 0x4, 1);   // second endpoint: its own doorbell
  auto* d1 = make_ep(1, 2, 0x2, 0);
  auto* d2 = make_ep(2, 3, 0x3, 0);
  map(src, 0, 1, 2, 0x2);
  map(src2, 0, 2, 3, 0x3);

  // 4-fragment bulk: frags 0-1 depart and park both channels to node 1
  // until their acks return; frags 2-3 stay unsent, so the firmware is in
  // the blocked doze well before the 50 us mark.
  post_request(src, 0, 1, 0, /*bulk_bytes=*/2048);
  eng_.run_for(50 * sim::us);
  ASSERT_EQ(nics_[0]->busy_channel_count(), 2);
  const std::uint64_t w0 = nic_counter(0, "firmware_wakeups");
  const std::uint64_t sent0 = nic_counter(0, "data_sent");

  // Doorbell mid-doze from the other endpoint, whose channel (node 2) is
  // free.
  post_request(src2, 0, 5, 77);
  eng_.run_for(20 * sim::us);  // << ack RTT, << blocked_poll_interval

  EXPECT_EQ(nic_counter(0, "firmware_wakeups"), w0 + 1);
  EXPECT_EQ(nic_counter(0, "data_sent"), sent0 + 1);

  eng_.run();
  ASSERT_EQ(d2->recv_requests.size(), 1u);
  EXPECT_EQ(d2->recv_requests.front().body.args[0], 77u);
  ASSERT_EQ(d1->recv_requests.size(), 1u);
  EXPECT_EQ(nic_counter(0, "retransmissions"), 0u);
}

// Two rings inside one coalescing window fold into an immediate ring plus
// one deferred ring at the window's end. Both descriptors are drained on
// the first wakeup; the deferred ring may wake the dozing firmware once
// more but must not re-service anything.
TEST_F(NicTest, CoalescedDoorbellFoldsRingsWithoutDoubleService) {
  NicConfig cfg;
  cfg.channels_per_peer = 2;
  cfg.max_packet_payload = 512;
  cfg.blocked_poll_interval = 500 * sim::us;
  cfg.doorbell_coalesce = 10 * sim::us;
  myrinet::FabricParams fp;
  fp.link.propagation = 100 * sim::us;
  build(3, cfg, fp);
  auto* src = make_ep(0, 1, 0x1, 0);
  auto* src2 = make_ep(0, 4, 0x4, 1);
  auto* src3 = make_ep(0, 5, 0x5, 2);
  make_ep(1, 2, 0x2, 0);
  auto* d2 = make_ep(2, 3, 0x3, 0);
  map(src, 0, 1, 2, 0x2);
  map(src2, 0, 2, 3, 0x3);
  map(src3, 0, 2, 3, 0x3);

  post_request(src, 0, 1, 0, /*bulk_bytes=*/2048);  // parks channels to 1
  eng_.run_for(50 * sim::us);
  const std::uint64_t w0 = nic_counter(0, "firmware_wakeups");
  const std::uint64_t sent0 = nic_counter(0, "data_sent");

  // Back-to-back rings from two endpoints aimed at the free peer: the
  // first passes through, the second is folded into the deferred ring —
  // but the first wakeup's service pass drains both descriptors.
  post_request(src2, 0, 5, 1);
  post_request(src3, 0, 5, 2);
  eng_.run_for(20 * sim::us);  // past the 10 us window

  // One wakeup serviced both descriptors; the deferred ring's wakeup (if
  // the firmware was back in its doze) found nothing to send.
  EXPECT_EQ(nic_counter(0, "data_sent"), sent0 + 2);
  EXPECT_LE(nic_counter(0, "firmware_wakeups"), w0 + 2);

  eng_.run();
  ASSERT_EQ(d2->recv_requests.size(), 2u);
  EXPECT_EQ(d2->recv_requests[0].body.args[0], 1u);
  EXPECT_EQ(d2->recv_requests[1].body.args[0], 2u);
  EXPECT_EQ(nic_counter(0, "retransmissions"), 0u);
}

// Doorbell-then-reboot race: descriptors posted (one ring immediate, one
// deferred and still in flight when the NIC reboots) live in host memory
// and must survive the reboot; the rebuilt channels deliver them exactly
// once in the new epoch, and the stale deferred ring must not disturb the
// rebooted NIC.
TEST_F(NicTest, DoorbellThenRebootDeliversExactlyOnce) {
  NicConfig cfg;
  cfg.doorbell_coalesce = 5 * sim::us;
  build(2, cfg);
  auto* src = make_ep(0, 1, 0x11, 0);
  auto* dst = make_ep(1, 2, 0x22, 0);
  map(src, 0, 1, 2, 0x22);

  post_request(src, 0, 1, 1);
  post_request(src, 0, 1, 2);  // same instant: folded into a deferred ring
  nics_[0]->reboot();          // races the deferred ring
  eng_.run();

  ASSERT_EQ(dst->recv_requests.size(), 2u);
  EXPECT_EQ(dst->recv_requests[0].body.args[0], 1u);
  EXPECT_EQ(dst->recv_requests[1].body.args[0], 2u);
  EXPECT_EQ(dst->msgs_delivered, 2u);
  EXPECT_EQ(src->msgs_sent, 2u);
  EXPECT_TRUE(src->send_queue().empty());
}

// FIFO per channel across burst boundaries: with a single logical channel
// and a burst_service smaller than the backlog, the firmware needs several
// bursts (and doze/wake cycles between acks) to drain the queue — arrival
// order must still match post order exactly.
TEST_F(NicTest, BurstBoundaryPreservesPerChannelFifo) {
  NicConfig cfg;
  cfg.channels_per_peer = 1;
  cfg.burst_service = 2;
  build(2, cfg);
  auto* src = make_ep(0, 1, 0x11, 0);
  auto* dst = make_ep(1, 2, 0x22, 0);
  map(src, 0, 1, 2, 0x22);

  constexpr int kMsgs = 7;  // 4 burst boundaries at burst_service=2
  for (int i = 0; i < kMsgs; ++i) {
    post_request(src, 0, 1, static_cast<std::uint64_t>(i));
  }
  eng_.run();

  ASSERT_EQ(dst->recv_requests.size(), static_cast<std::size_t>(kMsgs));
  for (int i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(dst->recv_requests[static_cast<std::size_t>(i)].body.args[0],
              static_cast<std::uint64_t>(i))
        << "message " << i << " out of order";
  }
  EXPECT_EQ(nic_counter(1, "duplicates_suppressed"), 0u);
}

// ------------------------------------------------------- §5.1 rebind order

// Dead spine (§5.1): channels are statically bound to routes, so a message
// unbound from a channel whose route is dead must rebind on the channel
// after the rotating cursor, not on the same (or the lowest free) one.
// Host 0 and host 1 sit on different leaves of a 3-spine fat-tree; channel
// c rides spine (1 + c) % 3, and spines 1 and 2 are cut, so only channels
// 2 and 5 (of 6) deliver. Each message must walk the rotation exactly.
TEST_F(NicTest, DeadSpineRebindsOnNextChannelAfterCursor) {
  NicConfig cfg;
  cfg.channels_per_peer = 6;
  cfg.retransmit_timeout = 100 * sim::us;
  cfg.retransmit_unbind_limit = 2;
  cfg.max_backoff_exponent = 1;
  build_on(myrinet::Fabric::fat_tree(eng_, 2, /*hosts_per_leaf=*/1,
                                     /*spines=*/3),
           cfg);
  ASSERT_EQ(fabric_->routes(0, 1).size(), 3u);
  fabric_->set_trunk_link(0, 1, false);
  fabric_->set_trunk_link(0, 2, false);
  auto* src = make_ep(0, 1, 0, 0);
  auto* dst = make_ep(1, 2, 0, 0);
  map(src, 0, 1, 2, 0);

  // Record the channel of every data frame the receiver accepts.
  std::vector<std::uint16_t> delivered_on;
  auto& st = fabric_->station(1);
  auto inner = std::move(st.on_receive);
  st.on_receive = [&, inner = std::move(inner)](myrinet::Packet p) mutable {
    if (auto* f = dynamic_cast<Frame*>(p.payload.get());
        f != nullptr && f->kind == FrameKind::kData) {
      delivered_on.push_back(f->channel);
    }
    inner(std::move(p));
  };

  // Message 1: ch0 (dead) -> ch1 (dead) -> ch2. Message 2 starts after the
  // cursor: ch3 -> ch4 -> ch5. Message 3 wraps: ch0 -> ch1 -> ch2.
  const std::uint16_t want[] = {2, 5, 2};
  for (int m = 0; m < 3; ++m) {
    post_request(src, 0, 1, static_cast<std::uint64_t>(m));
    eng_.run();
    ASSERT_EQ(dst->msgs_delivered, static_cast<std::uint64_t>(m + 1));
    ASSERT_EQ(delivered_on.size(), static_cast<std::size_t>(m + 1));
    EXPECT_EQ(delivered_on.back(), want[m]) << "message " << m;
    EXPECT_EQ(nic_counter(0, "channel_unbinds"),
              static_cast<std::uint64_t>(2 * (m + 1)));
  }
}

// ------------------------------------------------- schedule-identity guard
//
// The firmware's bookkeeping (which endpoint to serve, which channel to
// bind, which fragment to send next) is host-side data structure work: it
// must never change the simulated schedule. These cases pin the replay
// digest, the event count and the transport counters of three scenarios
// that walk the blocked-channel, drain/unload/reload and reboot/unbind
// transitions. Any change to them is a change of simulated behavior.

struct ScheduleFingerprint {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t data_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t channel_unbinds = 0;
};

ScheduleFingerprint fingerprint(cluster::Cluster& cl) {
  ScheduleFingerprint fp;
  fp.digest = cl.replay_digest();
  fp.events = cl.events_processed();
  const auto snap = cl.merged_snapshot();
  for (int n = 0; n < cl.size(); ++n) {
    const std::string p = "host." + std::to_string(n) + ".nic.";
    fp.data_sent += snap.counter(p + "data_sent");
    fp.retransmissions += snap.counter(p + "retransmissions");
    fp.channel_unbinds += snap.counter(p + "channel_unbinds");
  }
  return fp;
}

void expect_fingerprint(const ScheduleFingerprint& got,
                        const ScheduleFingerprint& want) {
  EXPECT_EQ(got.digest, want.digest) << std::hex << "0x" << got.digest;
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.data_sent, want.data_sent);
  EXPECT_EQ(got.retransmissions, want.retransmissions);
  EXPECT_EQ(got.channel_unbinds, want.channel_unbinds);
}

// (a) 8 hosts, every rank sends one 125,000-byte request to every other:
// 31 fragments per message against 24 channels per peer, so senders run
// into the all-channels-busy path on every message.
TEST(ScheduleIdentity, AllToAllBulkBlocksOnChannels) {
  cluster::Cluster cl(cluster::NowConfig(8));
  const int n = cl.size();
  std::vector<am::Name> names(static_cast<std::size_t>(n));
  std::vector<int> received(static_cast<std::size_t>(n), 0);
  auto ready = [&] {
    for (const auto& nm : names) {
      if (!nm.valid()) return false;
    }
    return true;
  };
  for (int r = 0; r < n; ++r) {
    cl.spawn_thread(r, "rank", [&, r](host::HostThread& t) -> sim::Task<> {
      auto ep = co_await am::Endpoint::create(t, 70 + r);
      ep->set_handler(1, [&, r](am::Endpoint&, const am::Message&) {
        ++received[static_cast<std::size_t>(r)];
      });
      names[static_cast<std::size_t>(r)] = ep->name();
      while (!ready()) co_await t.sleep(20 * sim::us);
      for (int p = 0; p < n; ++p) {
        ep->map(static_cast<std::uint32_t>(p), names[static_cast<std::size_t>(p)]);
      }
      for (int k = 1; k < n; ++k) {
        const int p = (r + k) % n;
        co_await ep->request_bulk(t, static_cast<std::uint32_t>(p), 1,
                                  125'000);
      }
      while (received[static_cast<std::size_t>(r)] < n - 1 ||
             ep->credits_in_use() > 0) {
        co_await ep->poll(t, 16);
        co_await t.compute(500);
      }
    });
  }
  cl.run_to_completion();
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(received[static_cast<std::size_t>(r)], n - 1) << "rank " << r;
  }
  const auto fp = fingerprint(cl);
  // 56 requests of 31 fragments, each answered by a one-frame credit reply.
  EXPECT_EQ(fp.data_sent, 56u * (31 + 1));
  EXPECT_EQ(fp.retransmissions, 0u);
  expect_fingerprint(fp, {0x265698ee85dc1b53, 425001, 1792, 0, 0});
}

// (b) One server NIC with 2 endpoint frames and 4 server endpoints, each
// answering its own client: the segment driver keeps unloading endpoints
// with replies in flight (drain), and arrivals reload them.
TEST(ScheduleIdentity, FrameThrashDrainsUnloadsAndReloads) {
  auto cfg = cluster::NowConfig(5);
  cfg.nic.endpoint_frames = 2;
  cluster::Cluster cl(cfg);
  constexpr int kClients = 4;
  constexpr int kPerClient = 120;
  std::vector<am::Name> names(kClients);
  std::vector<int> served(kClients, 0), answered(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    cl.spawn_thread(0, "server", [&, c](host::HostThread& t) -> sim::Task<> {
      auto ep = co_await am::Endpoint::create(t, 500 + c);
      ep->set_handler(1, [&, c](am::Endpoint&, const am::Message& m) {
        ++served[static_cast<std::size_t>(c)];
        m.reply(2, {m.arg(0)}, 2048);
      });
      names[static_cast<std::size_t>(c)] = ep->name();
      while (served[static_cast<std::size_t>(c)] < kPerClient) {
        co_await ep->wait_events(t, am::kEventArrivals);
        co_await ep->poll(t, 8);
      }
      co_await t.sleep(3 * sim::ms);  // let the last replies complete
    });
    cl.spawn_thread(1 + c, "client",
                    [&, c](host::HostThread& t) -> sim::Task<> {
                      auto ep = co_await am::Endpoint::create(t, 600 + c);
                      ep->set_handler(2, [&, c](am::Endpoint&,
                                                const am::Message&) {
                        ++answered[static_cast<std::size_t>(c)];
                      });
                      while (!names[static_cast<std::size_t>(c)].valid()) {
                        co_await t.sleep(20 * sim::us);
                      }
                      ep->map(0, names[static_cast<std::size_t>(c)]);
                      for (int i = 0; i < kPerClient; ++i) {
                        co_await ep->request(t, 0, 1,
                                             static_cast<std::uint64_t>(i));
                      }
                      while (ep->credits_in_use() > 0) {
                        co_await ep->wait_events(t, am::kEventArrivals);
                        co_await ep->poll(t, 16);
                      }
                    });
  }
  cl.run_to_completion();
  const auto snap = cl.merged_snapshot();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(served[static_cast<std::size_t>(c)], kPerClient);
    EXPECT_EQ(answered[static_cast<std::size_t>(c)], kPerClient);
  }
  EXPECT_GT(snap.counter("host.0.nic.frames_unloaded"), 0u);
  EXPECT_GT(snap.counter("host.0.nic.frames_loaded"), 4u);
  expect_fingerprint(fingerprint(cl), {0x352b069fc26a70f7, 26197, 964, 249, 4});
}

// (c) Bulk transfers across a fat-tree with one dead spine trunk (stuck
// channels unbind and rebind elsewhere, §5.1) while the sender's NIC and
// then the receiver's reboot mid-transfer (in-flight fragments go back to
// unsent, epochs resynchronize).
TEST(ScheduleIdentity, RebootMidBulkAndStuckChannelUnbind) {
  auto cfg = cluster::NowConfig(10);  // 2 leaves x 5 hosts, 3 spines
  cfg.nic.retransmit_timeout = 200 * sim::us;
  cfg.nic.retransmit_unbind_limit = 3;
  cfg.nic.max_backoff_exponent = 2;
  cluster::Cluster cl(cfg);
  cl.fabric().set_trunk_link(0, 1, false);
  am::Name server;
  int delivered = 0;
  constexpr int kMsgs = 6;
  cl.spawn_thread(5, "recv", [&](host::HostThread& t) -> sim::Task<> {
    auto ep = co_await am::Endpoint::create(t, 11);
    ep->set_handler(1, [&](am::Endpoint&, const am::Message&) { ++delivered; });
    server = ep->name();
    while (delivered < kMsgs) {
      co_await ep->wait_events(t, am::kEventArrivals);
      co_await ep->poll(t, 8);
    }
    co_await t.sleep(5 * sim::ms);
  });
  cl.spawn_thread(0, "send", [&](host::HostThread& t) -> sim::Task<> {
    auto ep = co_await am::Endpoint::create(t, 12);
    while (!server.valid()) co_await t.sleep(20 * sim::us);
    ep->map(0, server);
    for (int i = 0; i < kMsgs; ++i) {
      co_await ep->request_bulk(t, 0, 1, 48'000);
    }
    while (ep->credits_in_use() > 0) co_await ep->poll(t);
  });
  cl.engine().at(1500 * sim::us, [&] { cl.host(0).nic().reboot(); });
  cl.engine().at(2600 * sim::us, [&] { cl.host(5).nic().reboot(); });
  cl.run_to_completion();
  EXPECT_EQ(delivered, kMsgs);
  const auto fp = fingerprint(cl);
  EXPECT_GT(fp.channel_unbinds, 0u);
  EXPECT_GT(fp.retransmissions, 0u);
  expect_fingerprint(fp, {0xac5ea6d0de4730, 39044, 105, 107, 20});
}

}  // namespace
}  // namespace vnet::lanai
