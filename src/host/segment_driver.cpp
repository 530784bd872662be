#include "host/segment_driver.hpp"

#include <cassert>

namespace vnet::host {

const char* to_string(Residency r) {
  switch (r) {
    case Residency::kOnNic:
      return "on-nic r/w";
    case Residency::kOnHostRW:
      return "on-host r/w";
    case Residency::kOnHostRO:
      return "on-host r/o";
    case Residency::kOnDisk:
      return "on-disk";
  }
  return "?";
}

void SegmentDriver::DriverCounters::register_with(obs::MetricsRegistry& reg,
                                                  const std::string& prefix) {
  write_faults = reg.counter(prefix + ".write_faults");
  disk_faults = reg.counter(prefix + ".disk_faults");
  proxy_faults = reg.counter(prefix + ".proxy_faults");
  remaps = reg.counter(prefix + ".remaps");
  evictions = reg.counter(prefix + ".evictions");
  pageouts = reg.counter(prefix + ".pageouts");
  endpoints_created = reg.counter(prefix + ".endpoints_created");
  endpoints_destroyed = reg.counter(prefix + ".endpoints_destroyed");
}

SegmentDriver::SegmentDriver(sim::Engine& engine, Cpu& cpu, lanai::Nic& nic,
                             const HostConfig& config)
    : engine_(&engine),
      cpu_(&cpu),
      nic_(&nic),
      config_(&config),
      work_(engine),
      rng_(engine.rng().split()),
      metric_prefix_("host." + std::to_string(nic.node()) + ".driver") {
  counters_.register_with(engine.metrics(), metric_prefix_);
  fault_ns_ = engine.metrics().histogram(metric_prefix_ + ".attr.fault_ns");
  engine.metrics().gauge_fn(metric_prefix_ + ".resident_endpoints", [this] {
    return static_cast<double>(resident_count());
  });
  engine.metrics().gauge_fn(metric_prefix_ + ".remap_queue", [this] {
    return static_cast<double>(remap_queue_.size());
  });
}

SegmentDriver::~SegmentDriver() {
  engine_->metrics().remove_fn_prefix(metric_prefix_ + ".");
}

void SegmentDriver::start() {
  assert(!started_);
  started_ = true;
  // The NIC asks us to activate endpoints in response to message arrival;
  // this is the proxy-fault path of §4.2 (no user instruction faulted, so
  // the kernel thread simulates the fault's effect).
  nic_->on_nic_request = [this](lanai::NicRequest req) {
    if (req.kind != lanai::NicRequest::Kind::kMakeResident) return;
    lamport_ = std::max(lamport_, req.lamport) + 1;
    auto it = endpoints_.find(req.ep);
    if (it == endpoints_.end() || it->second->destroyed) return;
    counters_.proxy_faults.inc();
    schedule_remap(*it->second);
  };
  engine_->spawn(remap_thread());
}

sim::Task<lanai::EndpointState*> SegmentDriver::create_endpoint(
    ThreadCtx& t, std::uint64_t tag) {
  // Segment creation is equivalent to allocating the endpoint and
  // initializing its message queues (§4.2).
  co_await cpu_->run(t, config_->fault_overhead);
  auto m = std::make_unique<Managed>(*engine_);
  m->state = std::make_unique<lanai::EndpointState>();
  m->state->node = nic_->node();
  m->state->id = next_ep_id_++;
  m->state->tag = tag;
  m->state->translations.resize(64);
  lanai::EndpointState* raw = m->state.get();

  sim::Gate done(*engine_);
  nic_->submit({lanai::DriverOp::Kind::kCreate, raw, -1, ++lamport_, &done});
  co_await done.wait();
  Managed& managed = *m;
  endpoints_.emplace(raw->id, std::move(m));
  counters_.endpoints_created.inc();
  if (config_->eager_binding) {
    schedule_remap(managed);
    while (managed.res != Residency::kOnNic && !managed.destroyed) {
      co_await managed.resident_cv.wait();
    }
  }
  co_return raw;
}

sim::Task<> SegmentDriver::destroy_endpoint(ThreadCtx& t,
                                            lanai::EndpointState* ep) {
  Managed* m = find(ep);
  if (m == nullptr || m->destroyed) co_return;
  m->destroyed = true;  // logical-clock race resolution: later NIC
                        // make-resident requests for this id are ignored
  co_await cpu_->run(t, config_->fault_overhead);
  sim::Gate done(*engine_);
  nic_->submit({lanai::DriverOp::Kind::kDestroy, ep, -1, ++lamport_, &done});
  co_await done.wait();  // the NIC quiesces in-flight traffic first (§5.3)
  counters_.endpoints_destroyed.inc();
  m->resident_cv.notify_all();
  endpoints_.erase(ep->id);
}

Residency SegmentDriver::residency(const lanai::EndpointState* ep) const {
  const Managed* m = find(ep);
  return m != nullptr ? m->res : Residency::kOnHostRO;
}

bool SegmentDriver::writable(const lanai::EndpointState* ep) const {
  const Managed* m = find(ep);
  // Unmanaged/destroyed endpoints are "writable" in the sense that
  // ensure_writable() would return immediately without charging anything.
  return m == nullptr || m->destroyed || m->res == Residency::kOnNic ||
         m->res == Residency::kOnHostRW;
}

sim::Task<> SegmentDriver::ensure_writable(ThreadCtx& t,
                                           lanai::EndpointState* ep) {
  Managed* m = find(ep);
  if (m == nullptr || m->destroyed) co_return;
  m->last_touch = engine_->now();
  const sim::Time fault_start = engine_->now();
  switch (m->res) {
    case Residency::kOnNic:
    case Residency::kOnHostRW:
      co_return;  // already writable; common case costs nothing extra
    case Residency::kOnDisk:
      counters_.disk_faults.inc();
      co_await cpu_->run(t, config_->fault_overhead);
      co_await engine_->delay(config_->disk_fault_latency);
      m->res = Residency::kOnHostRO;
      [[fallthrough]];
    case Residency::kOnHostRO:
      // Write fault: make the page writable and schedule the re-mapping.
      counters_.write_faults.inc();
      VNET_TRACE_INSTANT(engine_->tracer(), "driver", "write_fault",
                         static_cast<int>(nic_->node()), 0,
                         {{"ep", static_cast<std::int64_t>(ep->id)}});
      co_await cpu_->run(t, config_->fault_overhead +
                                config_->remap_schedule_overhead);
      m->res = Residency::kOnHostRW;
      if (config_->async_write_faults) {
        // The faulting thread continues immediately (§4.2: this state
        // "allows the application thread to continue execution immediately
        // after a write fault"); the background thread does the upload.
        schedule_remap(*m);
      } else {
        // Ablation A: the original (pre-on-host-r/w) design blocked the
        // faulting thread for the full duration of the upload (including
        // any queueing behind other re-mappings in progress).
        schedule_remap(*m);
        while (m->res != Residency::kOnNic && !m->destroyed) {
          co_await m->resident_cv.wait();
        }
      }
      fault_ns_.record(
          static_cast<double>(engine_->now() - fault_start));
      co_return;
  }
}

sim::CondVar& SegmentDriver::residency_cv(lanai::EndpointState* ep) {
  Managed* m = find(ep);
  assert(m != nullptr);
  return m->resident_cv;
}

void SegmentDriver::touch(lanai::EndpointState* ep) {
  if (Managed* m = find(ep)) m->last_touch = engine_->now();
}

void SegmentDriver::page_out(lanai::EndpointState* ep) {
  Managed* m = find(ep);
  if (m == nullptr || m->destroyed || m->res == Residency::kOnNic ||
      m->remap_queued) {
    return;
  }
  m->res = Residency::kOnDisk;
  counters_.pageouts.inc();
}

int SegmentDriver::resident_count() const {
  int n = 0;
  for (const auto& [id, m] : endpoints_) {
    if (m->res == Residency::kOnNic) ++n;
  }
  return n;
}

// ------------------------------------------------------------- internals

void SegmentDriver::schedule_remap(Managed& m) {
  if (m.remap_queued || m.res == Residency::kOnNic || m.destroyed) return;
  m.remap_queued = true;
  remap_queue_.push_back(m.state->id);
  work_.notify_all();
}

sim::Process SegmentDriver::remap_thread() {
  // The background kernel thread of §4.2: periodically services
  // re-mapping requests asynchronously to the faults that queued them.
  for (;;) {
    while (remap_queue_.empty()) co_await work_.wait();
    const lanai::EpId id = remap_queue_.front();
    remap_queue_.pop_front();
    auto it = endpoints_.find(id);
    if (it == endpoints_.end()) continue;
    Managed& m = *it->second;
    m.remap_queued = false;
    if (m.destroyed || m.res == Residency::kOnNic) continue;
    co_await make_resident(m);
    // Pace the scan: remapping storms must not monopolize the CPU.
    co_await engine_->delay(config_->remap_scan_period);
  }
}

sim::Task<> SegmentDriver::make_resident(Managed& m) {
  if (m.res == Residency::kOnDisk) {
    counters_.disk_faults.inc();
    co_await engine_->delay(config_->disk_fault_latency);
    m.res = Residency::kOnHostRW;
  }
  // Kernel work: unmap, update translations, drive the driver/NI protocol.
  co_await cpu_->run(kthread_, config_->remap_kernel_work);

  int frame = find_free_frame();
  while (frame < 0) {
    co_await evict_one(&m);
    frame = find_free_frame();
  }
  if (m.destroyed) co_return;

  sim::Gate done(*engine_);
  nic_->submit({lanai::DriverOp::Kind::kLoad, m.state.get(), frame,
                ++lamport_, &done});
  co_await done.wait();
  m.res = Residency::kOnNic;
  m.load_seq = next_load_seq_++;
  counters_.remaps.inc();
  m.resident_cv.notify_all();
  nic_->doorbell(*m.state);
}

sim::Task<> SegmentDriver::evict_one(Managed* keep) {
  Managed* victim = pick_victim(keep);
  if (victim == nullptr) {
    // Nothing evictable right now (e.g. everything mid-transition); let
    // the NIC make progress and retry.
    co_await engine_->delay(config_->remap_scan_period);
    co_return;
  }
  sim::Gate done(*engine_);
  nic_->submit({lanai::DriverOp::Kind::kUnload, victim->state.get(), -1,
                ++lamport_, &done});
  co_await done.wait();  // includes quiescence of in-flight messages
  victim->res = Residency::kOnHostRO;
  counters_.evictions.inc();
  VNET_TRACE_INSTANT(engine_->tracer(), "driver", "evict",
                     static_cast<int>(nic_->node()), 0,
                     {{"ep", static_cast<std::int64_t>(victim->state->id)}});
  // §4.2: the background thread "activates non-empty endpoints". An evicted
  // endpoint that still has unfinished send work must come back on its own —
  // no future write fault or message arrival may ever reference it (e.g. a
  // server blocked on that very endpoint's full send queue).
  for (const auto& d : victim->state->send_queue()) {
    if (!d.finished()) {
      schedule_remap(*victim);
      break;
    }
  }
}

SegmentDriver::Managed* SegmentDriver::pick_victim(Managed* keep) {
  std::vector<Managed*> candidates;
  for (auto& [id, m] : endpoints_) {
    if (m.get() != keep && m->res == Residency::kOnNic && !m->destroyed) {
      candidates.push_back(m.get());
    }
  }
  if (candidates.empty()) return nullptr;
  switch (policy_) {
    case Policy::kRandom:
      // The paper's policy: replace a resident endpoint at random (§4.2).
      return candidates[rng_.below(candidates.size())];
    case Policy::kFifo: {
      Managed* best = candidates[0];
      for (Managed* c : candidates) {
        if (c->load_seq < best->load_seq) best = c;
      }
      return best;
    }
    case Policy::kLru: {
      Managed* best = candidates[0];
      for (Managed* c : candidates) {
        if (c->last_touch < best->last_touch) best = c;
      }
      return best;
    }
  }
  return nullptr;
}

SegmentDriver::Managed* SegmentDriver::find(
    const lanai::EndpointState* ep) const {
  if (ep == nullptr) return nullptr;
  auto it = endpoints_.find(ep->id);
  return it != endpoints_.end() ? it->second.get() : nullptr;
}

int SegmentDriver::find_free_frame() const {
  for (int i = 0; i < nic_->endpoint_frames(); ++i) {
    if (nic_->frame_occupant(i) == nullptr) return i;
  }
  return -1;
}

}  // namespace vnet::host
