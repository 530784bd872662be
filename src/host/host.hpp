#pragma once

#include <memory>
#include <string>

#include "host/config.hpp"
#include "host/cpu.hpp"
#include "host/segment_driver.hpp"
#include "lanai/nic.hpp"
#include "myrinet/fabric.hpp"
#include "sim/engine.hpp"

namespace vnet::host {

/// One workstation: a time-shared CPU, the LANai NIC plugged into its SBUS,
/// and the endpoint segment driver extending its virtual memory system.
class Host {
 public:
  Host(sim::Engine& engine, myrinet::Fabric& fabric, myrinet::NodeId id,
       const HostConfig& config, const lanai::NicConfig& nic_config)
      : engine_(&engine),
        id_(id),
        config_(config),
        cpu_(engine, config_),
        nic_(std::make_unique<lanai::Nic>(engine, fabric, id, nic_config)),
        driver_(engine, cpu_, *nic_, config_) {}

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  /// Boots the NIC firmware and the segment driver's kernel thread.
  void start() {
    nic_->start();
    driver_.start();
  }

  sim::Engine& engine() { return *engine_; }
  myrinet::NodeId id() const { return id_; }
  const HostConfig& config() const { return config_; }
  Cpu& cpu() { return cpu_; }
  lanai::Nic& nic() { return *nic_; }
  SegmentDriver& driver() { return driver_; }

 private:
  sim::Engine* engine_;
  myrinet::NodeId id_;
  HostConfig config_;
  Cpu cpu_;
  std::unique_ptr<lanai::Nic> nic_;
  SegmentDriver driver_;
};

/// A user (or kernel) thread on a host: the execution context the public
/// vnet::am API charges costs to. Application code runs as a sim::Process
/// holding one of these and awaits its methods:
///
///     sim::Process worker(HostThread t) {
///       co_await t.compute(50 * sim::us);   // burn CPU (time-shared)
///       co_await t.sleep(1 * sim::ms);      // off-CPU wait
///       ...
///     }
class HostThread {
 public:
  HostThread(Host& host, std::string name, bool kernel = false)
      : host_(&host), ctx_{std::move(name), kernel, 0, 0} {}

  Host& host() { return *host_; }
  ThreadCtx& ctx() { return ctx_; }
  const std::string& name() const { return ctx_.name; }
  sim::Engine& engine() { return host_->engine(); }

  /// Consumes `d` of CPU, time-shared with other threads on this host.
  auto compute(sim::Duration d) { return host_->cpu().charge(ctx_, d); }

  /// Off-CPU wait (e.g. timed back-off); other threads run meanwhile.
  sim::Task<> sleep(sim::Duration d) {
    co_await host_->engine().delay(d);
  }

  /// Blocks on `cv` without holding the CPU; charges the kernel wake-up
  /// cost once notified (§3.3's thread-based events).
  sim::Task<> block(sim::CondVar& cv) {
    co_await cv.wait();
    co_await host_->cpu().wake(ctx_);
  }

  /// Like block(), but gives up after `d`. Returns true if notified.
  sim::Task<bool> block_for(sim::CondVar& cv, sim::Duration d) {
    const bool notified = co_await cv.wait_for(d);
    co_await host_->cpu().wake(ctx_);
    co_return notified;
  }

 private:
  Host* host_;
  ThreadCtx ctx_;
};

}  // namespace vnet::host
