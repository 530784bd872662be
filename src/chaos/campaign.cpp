#include "chaos/campaign.hpp"

#include <algorithm>
#include <cassert>

#include "am/endpoint.hpp"
#include "am/probe.hpp"
#include "lanai/nic.hpp"

namespace vnet::chaos {

Campaign::Campaign(cluster::Cluster& cluster, FaultPlan plan)
    : cluster_(&cluster), actions_(plan.actions()) {
  std::stable_sort(actions_.begin(), actions_.end(),
                   [](const FaultAction& a, const FaultAction& b) {
                     return a.at < b.at;
                   });
}

void Campaign::start() {
  assert(!started_);
  started_ = true;
  if (!actions_.empty()) cluster_->engine().spawn(runner());
}

sim::Process Campaign::runner() {
  sim::Engine& engine = cluster_->engine();
  for (const FaultAction& a : actions_) {
    if (a.at > engine.now()) co_await engine.delay(a.at - engine.now());
    apply(a);
    last_action_time_ = engine.now();
    log_.push_back(describe(a));
    ++applied_;
  }
}

void Campaign::apply(const FaultAction& a) {
  myrinet::Fabric& fabric = cluster_->fabric();
  switch (a.kind) {
    case FaultAction::Kind::kHostLink:
      if (a.node >= 0 && a.node < cluster_->size()) {
        fabric.set_host_link(a.node, a.up);
      }
      break;
    case FaultAction::Kind::kTrunkLink:
      fabric.set_trunk_link(a.node, a.port, a.up);
      break;
    case FaultAction::Kind::kNicReboot:
      if (a.node >= 0 && a.node < cluster_->size()) {
        cluster_->host(a.node).nic().reboot();
      }
      break;
    case FaultAction::Kind::kFaultRates:
      fabric.set_fault_rates(a.drop, a.corrupt);
      break;
    case FaultAction::Kind::kBurstLoss:
      fabric.set_burst_loss(a.burst);
      break;
    case FaultAction::Kind::kPoison:
      // Deliberate invariant break: a delivery for a message that was never
      // injected. The ledger records it as an orphan event, which fails the
      // scenario — exactly the planted violation the bisector test hunts.
      if (am::MessageProbe* p = am::Endpoint::probe()) {
        p->message_delivered(
            static_cast<myrinet::NodeId>(a.node < 0 ? 0 : a.node),
            /*src_ep=*/0xFFFF, /*msg_id=*/0xB0150DULL, /*is_request=*/true,
            /*at_node=*/0, /*at_ep=*/0, cluster_->engine().now());
      }
      break;
  }
}

}  // namespace vnet::chaos
