#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>

#include "host/config.hpp"
#include "host/cpu.hpp"
#include "lanai/nic.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace vnet::host {

/// Where an endpoint currently lives — the four-state protocol of Fig 2.
enum class Residency {
  kOnNic,     ///< bound to a NIC endpoint frame, r/w translations
  kOnHostRW,  ///< in host memory, writable; re-mapping scheduled
  kOnHostRO,  ///< in host memory, read-only; a write will fault
  kOnDisk,    ///< paged out; any reference takes a major fault
};

const char* to_string(Residency r);

/// The endpoint segment driver (§4.2): manages every endpoint on one host
/// as a virtual-memory object, binding endpoints to NIC frames on demand in
/// response to local writes (page faults) or remote message arrival (proxy
/// faults requested by the NIC), evicting a resident endpoint when all
/// frames are occupied, and de-coupling the faulting thread from the
/// binding through the asynchronous on-host r/w state serviced by a
/// background kernel thread.
class SegmentDriver {
 public:
  /// Endpoint replacement policy. The paper's system replaces at random
  /// (§4.2); FIFO and LRU are provided for the ablation study.
  enum class Policy { kRandom, kFifo, kLru };

  /// Registry-backed counter handles for the driver, registered under
  /// `host.<node>.driver.*` at construction.
  struct DriverCounters {
    obs::Counter write_faults;
    obs::Counter disk_faults;
    obs::Counter proxy_faults;
    obs::Counter remaps;
    obs::Counter evictions;
    obs::Counter pageouts;
    obs::Counter endpoints_created;
    obs::Counter endpoints_destroyed;
    void register_with(obs::MetricsRegistry& reg, const std::string& prefix);
  };

  SegmentDriver(sim::Engine& engine, Cpu& cpu, lanai::Nic& nic,
                const HostConfig& config);

  SegmentDriver(const SegmentDriver&) = delete;
  SegmentDriver& operator=(const SegmentDriver&) = delete;

  /// Unregisters the pull-style gauges (resident_endpoints, remap_queue)
  /// from the engine's registry; the engine outlives every driver.
  ~SegmentDriver();

  /// Hooks the NIC's driver-request upcall and spawns the background
  /// re-mapping kernel thread. Call once.
  void start();

  // ---- endpoint lifecycle ----

  /// Allocates an endpoint (segment creation, §4.2): registers it with the
  /// NIC directory and returns it in the on-host r/o state.
  sim::Task<lanai::EndpointState*> create_endpoint(ThreadCtx& t,
                                                   std::uint64_t tag);

  /// Frees an endpoint, synchronizing de-allocation with the NIC (§4.2).
  sim::Task<> destroy_endpoint(ThreadCtx& t, lanai::EndpointState* ep);

  // ---- the access protocol ----

  Residency residency(const lanai::EndpointState* ep) const;

  /// True when a store to `ep` would not fault (resident on the NIC or
  /// mapped r/w on the host). Senders check this to skip the
  /// ensure_writable() task — and its coroutine frame — on the hot path.
  bool writable(const lanai::EndpointState* ep) const;

  /// Called before the application writes into `ep` (message send). If the
  /// endpoint is writable this is free; otherwise it takes the write-fault
  /// path: on-host r/o -> on-host r/w plus a scheduled re-mapping. With
  /// `async_write_faults` disabled (ablation A), the fault blocks until
  /// the endpoint is resident, as in the paper's original design.
  sim::Task<> ensure_writable(ThreadCtx& t, lanai::EndpointState* ep);

  /// Notifies interested threads when `ep` becomes resident.
  sim::CondVar& residency_cv(lanai::EndpointState* ep);

  /// LRU hint: the application touched this endpoint.
  void touch(lanai::EndpointState* ep);

  /// Simulates the VM pageout daemon reclaiming this (non-resident)
  /// endpoint's backing pages under memory pressure ("vm pageout" in
  /// Fig 2). No-op if the endpoint is resident.
  void page_out(lanai::EndpointState* ep);

  void set_policy(Policy p) { policy_ = p; }
  Policy policy() const { return policy_; }

  // Statistics live in the engine's metric registry under
  // `host.<node>.driver.*` (see obs/metrics.hpp); snapshot that.

  int resident_count() const;

 private:
  struct Managed {
    std::unique_ptr<lanai::EndpointState> state;
    Residency res = Residency::kOnHostRO;
    bool remap_queued = false;
    bool destroyed = false;
    sim::Time last_touch = 0;
    std::uint64_t load_seq = 0;  // for FIFO replacement
    sim::CondVar resident_cv;
    explicit Managed(sim::Engine& e) : resident_cv(e) {}
  };

  sim::Process remap_thread();
  sim::Task<> make_resident(Managed& m);
  sim::Task<> evict_one(Managed* keep);
  Managed* pick_victim(Managed* keep);
  Managed* find(const lanai::EndpointState* ep) const;
  void schedule_remap(Managed& m);
  int find_free_frame() const;

  sim::Engine* engine_;
  Cpu* cpu_;
  lanai::Nic* nic_;
  const HostConfig* config_;

  ThreadCtx kthread_{"endpoint-segd", /*kernel=*/true};
  sim::CondVar work_;
  std::deque<lanai::EpId> remap_queue_;
  std::unordered_map<lanai::EpId, std::unique_ptr<Managed>> endpoints_;

  lanai::EpId next_ep_id_ = 1;
  std::uint64_t next_load_seq_ = 1;
  std::uint64_t lamport_ = 0;
  Policy policy_ = Policy::kRandom;
  sim::Rng rng_;
  DriverCounters counters_;
  /// Service time of each write-fault (on-host r/o -> writable), the OS
  /// contribution to send latency (the span host_enqueue stage); registered
  /// under `host.<node>.driver.attr.fault_ns`.
  obs::Histogram fault_ns_;
  std::string metric_prefix_;
  bool started_ = false;
};

}  // namespace vnet::host
