#include "apps/workloads.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "am/endpoint.hpp"
#include "cluster/cluster.hpp"
#include "obs/metrics.hpp"

namespace vnet::apps {

namespace {

constexpr std::uint8_t kRequestHandler = 1;
constexpr std::uint8_t kReplyHandler = 2;

struct SharedState {
  explicit SharedState(int clients)
      : server_names(static_cast<std::size_t>(clients)),
        replies(static_cast<std::size_t>(clients), 0),
        window_open(false) {}

  std::vector<am::Name> server_names;  // [client] -> its server endpoint
  std::vector<std::uint64_t> replies;  // replies received per client
  bool window_open;
  bool clients_stop = false;
  bool servers_stop = false;
  sim::Histogram rtt_us;

  bool names_ready() const {
    for (const auto& n : server_names) {
      if (!n.valid()) return false;
    }
    return true;
  }
};

/// Client: stream requests with a full credit window until told to stop.
sim::Task<> client_body(host::HostThread& t, SharedState& st, int id,
                        std::uint32_t bytes, bool collect_rtt,
                        bool flow_control, int burst_size,
                        sim::Duration burst_gap) {
  auto ep = co_await am::Endpoint::create(t, 0xc0 + id);
  ep->set_flow_control(flow_control);
  ep->set_handler(kReplyHandler, [&st, &t, id, collect_rtt](
                                     am::Endpoint&, const am::Message& m) {
    if (st.window_open) {
      ++st.replies[static_cast<std::size_t>(id)];
      if (collect_rtt) {
        st.rtt_us.add(sim::to_usec(t.engine().now() -
                                   static_cast<sim::Time>(m.arg(0))));
      }
    }
  });
  while (!st.names_ready()) co_await t.sleep(50 * sim::us);
  ep->map(0, st.server_names[static_cast<std::size_t>(id)]);

  int in_burst = 0;
  while (!st.clients_stop) {
    const auto now = static_cast<std::uint64_t>(t.engine().now());
    if (bytes == 0) {
      co_await ep->request(t, 0, kRequestHandler, now);
    } else {
      co_await ep->request_bulk(t, 0, kRequestHandler, bytes, nullptr, now);
    }
    co_await ep->poll(t, 8);
    if (burst_size > 0 && ++in_burst >= burst_size) {
      in_burst = 0;
      co_await t.sleep(burst_gap);  // computation phase between bursts
    }
  }
  // Drain what we can, but do not wait forever for stuck messages.
  const sim::Time deadline = t.engine().now() + 50 * sim::ms;
  while (ep->credits_in_use() > 0 && t.engine().now() < deadline) {
    co_await ep->poll(t, 16);
    co_await t.compute(500);
  }
}

/// Installs the serving handler: echo the client's timestamp back.
void install_server_handler(am::Endpoint& ep) {
  ep.set_handler(kRequestHandler, [](am::Endpoint&, const am::Message& m) {
    m.reply(kReplyHandler, {m.arg(0)});
  });
}

/// OneVN / ST server: one thread polling `eps` round-robin.
sim::Task<> polling_server_body(host::HostThread& t, SharedState& st,
                                std::vector<std::unique_ptr<am::Endpoint>>&
                                    eps, sim::Duration work) {
  while (!st.servers_stop) {
    std::size_t handled = 0;
    for (auto& ep : eps) {
      const std::size_t n = co_await ep->poll(t, 32);
      if (n > 0 && work > 0) co_await t.compute(n * work);
      handled += n;
    }
    if (handled == 0) co_await t.compute(200);
  }
}

/// MT server: one event-driven thread per endpoint (§3.3: threads sleep
/// until messages arrive).
sim::Task<> mt_server_body(host::HostThread& t, SharedState& st,
                           am::Endpoint& ep, sim::Duration work) {
  while (!st.servers_stop) {
    // Process requests until none remain (§6.4); spin briefly before
    // sleeping so back-to-back arrivals do not each pay a thread wake.
    std::size_t handled = co_await ep.poll(t, 32);
    if (handled > 0 && work > 0) co_await t.compute(handled * work);
    if (handled > 0) continue;
    bool found = false;
    for (int spin = 0; spin < 4 && !found; ++spin) {
      co_await t.compute(2 * sim::us);
      found = ep.poll_would_find_work();
    }
    if (!found) {
      (void)co_await ep.wait_events_for(t, am::kEventReceive, 1 * sim::ms);
    }
  }
}

}  // namespace

ContentionParams::ContentionParams() : base(cluster::NowConfig(2)) {}

const char* to_string(ContentionParams::Mode m) {
  switch (m) {
    case ContentionParams::Mode::kOneVN:
      return "OneVN";
    case ContentionParams::Mode::kSingleThread:
      return "ST";
    case ContentionParams::Mode::kMultiThread:
      return "MT";
  }
  return "?";
}

double ContentionResult::min_client_per_sec() const {
  double v = per_client_per_sec.empty() ? 0 : per_client_per_sec[0];
  for (double x : per_client_per_sec) v = std::min(v, x);
  return v;
}

double ContentionResult::max_client_per_sec() const {
  double v = 0;
  for (double x : per_client_per_sec) v = std::max(v, x);
  return v;
}

ContentionResult run_contention(const ContentionParams& params) {
  const int k = params.clients;
  cluster::ClusterConfig cfg = params.base;
  cfg.nodes = k + 1;  // node 0 = server; nodes 1..k = clients
  if (cfg.nodes > 8) {
    cfg.topology = cluster::ClusterConfig::Topology::kFatTree;
    cfg.hosts_per_leaf = 5;
    cfg.spines = 3;
  } else {
    cfg.topology = cluster::ClusterConfig::Topology::kCrossbar;
  }
  cfg.nic.endpoint_frames = params.server_frames;

  cluster::Cluster cl(cfg);
  cl.host(0).driver().set_policy(params.replacement);
  auto st = std::make_unique<SharedState>(k);

  // Keep server-side endpoints alive for the whole run.
  auto server_eps =
      std::make_unique<std::vector<std::unique_ptr<am::Endpoint>>>();

  switch (params.mode) {
    case ContentionParams::Mode::kOneVN:
      cl.spawn_thread(0, "server", [&st, &server_eps, k, &params](
                                       host::HostThread& t) -> sim::Task<> {
        auto ep = co_await am::Endpoint::create(t, 0x5eef);
        install_server_handler(*ep);
        for (int c = 0; c < k; ++c) {
          st->server_names[static_cast<std::size_t>(c)] = ep->name();
        }
        server_eps->push_back(std::move(ep));
        co_await polling_server_body(t, *st, *server_eps,
                                     params.server_work);
      });
      break;
    case ContentionParams::Mode::kSingleThread:
      cl.spawn_thread(0, "server", [&st, &server_eps, k, &params](
                                       host::HostThread& t) -> sim::Task<> {
        for (int c = 0; c < k; ++c) {
          auto ep = co_await am::Endpoint::create(t, 0x100 + c);
          install_server_handler(*ep);
          st->server_names[static_cast<std::size_t>(c)] = ep->name();
          server_eps->push_back(std::move(ep));
        }
        co_await polling_server_body(t, *st, *server_eps,
                                     params.server_work);
      });
      break;
    case ContentionParams::Mode::kMultiThread:
      for (int c = 0; c < k; ++c) {
        cl.spawn_thread(0, "server" + std::to_string(c),
                        [&st, &server_eps, c, &params](
                            host::HostThread& t) -> sim::Task<> {
                          auto ep =
                              co_await am::Endpoint::create(t, 0x100 + c);
                          install_server_handler(*ep);
                          st->server_names[static_cast<std::size_t>(c)] =
                              ep->name();
                          am::Endpoint& ref = *ep;
                          server_eps->push_back(std::move(ep));
                          co_await mt_server_body(t, *st, ref,
                                                  params.server_work);
                        });
      }
      break;
  }

  for (int c = 0; c < k; ++c) {
    cl.spawn_thread(c + 1, "client" + std::to_string(c),
                    [&st, c, &params](host::HostThread& t) -> sim::Task<> {
                      co_await client_body(t, *st, c, params.request_bytes,
                                           params.collect_rtt,
                                           params.flow_control,
                                           params.burst_size,
                                           params.burst_gap);
                    });
  }

  // Measurement schedule. The measurement window is a pair of registry
  // snapshots: everything counted inside the window is a snapshot diff,
  // no per-counter bookkeeping at open time.
  ContentionResult result;
  const std::string qfull_name =
      "host.0.nic.nacks_sent_by_reason." +
      std::to_string(static_cast<int>(lanai::NackReason::kQueueFull));
  const std::string notres_name =
      "host.0.nic.nacks_sent_by_reason." +
      std::to_string(static_cast<int>(lanai::NackReason::kNotResident));
  obs::Snapshot open_snap;

  cl.engine().after(params.warmup, [&] {
    st->window_open = true;
    open_snap = cl.engine().snapshot();
  });
  cl.engine().after(params.warmup + params.window, [&] {
    st->window_open = false;
    st->clients_stop = true;
    const double secs = sim::to_sec(params.window);
    double total = 0;
    for (int c = 0; c < k; ++c) {
      const double rate =
          static_cast<double>(st->replies[static_cast<std::size_t>(c)]) /
          secs;
      result.per_client_per_sec.push_back(rate);
      total += rate;
    }
    result.aggregate_per_sec = total;
    result.aggregate_mb_per_sec =
        total * params.request_bytes / (1024.0 * 1024.0);
    const obs::Snapshot close_snap = cl.engine().snapshot();
    const obs::Snapshot window = obs::diff(close_snap, open_snap);
    result.remaps_per_sec =
        static_cast<double>(window.counter("host.0.driver.remaps")) / secs;
    result.queue_full_nacks = window.counter(qfull_name);
    result.not_resident_nacks = window.counter(notres_name);
    result.retransmissions =
        window.sum_counters("host.", ".nic.retransmissions");
  });
  cl.engine().after(params.warmup + params.window + 60 * sim::ms,
                    [&] { st->servers_stop = true; });

  cl.run_to_completion();
  result.rtt_us = st->rtt_us;
  return result;
}

}  // namespace vnet::apps
