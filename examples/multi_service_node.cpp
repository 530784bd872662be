// A general-purpose node (the paper's §1 motivation): several independent
// services share one NIC with only 8 endpoint frames — a parallel program
// rank, an NFS-like file service, and a performance monitor — while
// clients on other nodes use them all concurrently. The segment driver
// multiplexes the frames on demand; nothing needs to be prearranged.

#include <cstdio>
#include <string>
#include <vector>

#include "am/endpoint.hpp"
#include "cluster/cluster.hpp"
#include "cluster/config.hpp"
#include "obs/metrics.hpp"

using namespace vnet;

namespace {

struct Services {
  am::Name compute, files, monitor;
  bool up() const {
    return compute.valid() && files.valid() && monitor.valid();
  }
  bool stop = false;
  int clients_done = 0;  ///< clients holding all their replies
};

sim::Task<> service(host::HostThread& t, Services& sv, am::Name* slot,
                    std::uint64_t tag, const char* name,
                    std::uint64_t* served) {
  auto ep = co_await am::Endpoint::create(t, tag);
  ep->set_handler(1, [served, name](am::Endpoint&, const am::Message& m) {
    ++*served;
    m.reply(2, {m.arg(0) + 1});
    (void)name;
  });
  *slot = ep->name();
  while (!sv.stop) {
    if (co_await ep->wait_events_for(t, am::kEventReceive, 2 * sim::ms)) {
      while (co_await ep->poll(t, 16) > 0) {
      }
    }
  }
  co_await ep->destroy(t);
}

sim::Task<> client(host::HostThread& t, Services& sv, const am::Name* target,
                   int requests, const char* label) {
  auto ep = co_await am::Endpoint::create(t, 0x9999);
  std::uint64_t replies = 0;
  ep->set_handler(2,
                  [&replies](am::Endpoint&, const am::Message&) { ++replies; });
  while (!sv.up()) co_await t.sleep(20 * sim::us);
  ep->map(0, *target);
  const sim::Time t0 = t.engine().now();
  for (int i = 0; i < requests; ++i) {
    co_await ep->request(t, 0, 1, static_cast<std::uint64_t>(i));
  }
  while (replies < static_cast<std::uint64_t>(requests)) {
    co_await ep->poll(t, 16);
  }
  std::printf("  [%s] %d requests served in %s\n", label, requests,
              sim::format_time(t.engine().now() - t0).c_str());
  ++sv.clients_done;
  co_await ep->destroy(t);
}

}  // namespace

int main() {
  std::setbuf(stdout, nullptr);  // progress lines appear immediately
  auto cfg = cluster::NowConfig(4);
  std::printf("multi-service node: 3 services + local rank share %d endpoint "
              "frames on node 0\n",
              cfg.nic.endpoint_frames);
  cluster::Cluster cl(cfg);
  Services sv;
  std::uint64_t served_compute = 0, served_files = 0, served_mon = 0;

  // Three independent services, all on node 0 — different processes in
  // spirit, each with its own protected endpoint.
  cl.spawn_thread(0, "compute-svc", [&](host::HostThread& t) -> sim::Task<> {
    co_await service(t, sv, &sv.compute, 0x100, "compute", &served_compute);
  });
  cl.spawn_thread(0, "file-svc", [&](host::HostThread& t) -> sim::Task<> {
    co_await service(t, sv, &sv.files, 0x200, "files", &served_files);
  });
  cl.spawn_thread(0, "monitor-svc", [&](host::HostThread& t) -> sim::Task<> {
    co_await service(t, sv, &sv.monitor, 0x300, "monitor", &served_mon);
  });

  // Clients on the other nodes hammer different services concurrently.
  cl.spawn_thread(1, "mpi-client", [&](host::HostThread& t) -> sim::Task<> {
    co_await client(t, sv, &sv.compute, 400, "parallel client -> compute");
  });
  cl.spawn_thread(2, "nfs-client", [&](host::HostThread& t) -> sim::Task<> {
    co_await client(t, sv, &sv.files, 300, "legacy app -> file service");
  });
  cl.spawn_thread(3, "perf-client", [&](host::HostThread& t) -> sim::Task<> {
    co_await client(t, sv, &sv.monitor, 200, "analyzer -> monitor");
  });

  // Stop the services once every client holds all its replies (hard cap
  // at 2 sim-seconds). Stopping when the handlers have run is too early:
  // a service destroys its endpoint on stop, and replies still queued in
  // it would never reach their client.
  cl.engine().after(2 * sim::sec, [&] { sv.stop = true; });
  while (!cl.all_threads_done() && cl.engine().step()) {
    if (sv.clients_done == 3) sv.stop = true;
  }

  std::printf("served: compute=%llu files=%llu monitor=%llu\n",
              static_cast<unsigned long long>(served_compute),
              static_cast<unsigned long long>(served_files),
              static_cast<unsigned long long>(served_mon));
  std::printf("node-0 endpoint re-mappings: %llu (driver), frames: %d\n",
              static_cast<unsigned long long>(cl.engine().snapshot().counter(
                  "host.0.driver.remaps")),
              cl.host(0).nic().endpoint_frames());
  std::printf("\nper-endpoint activity on node 0:\n%s",
              obs::render_table(cl.engine().snapshot(), "host.0.ep").c_str());
  return 0;
}
