#include "apps/logp.hpp"

#include <memory>

#include "am/endpoint.hpp"
#include "cluster/cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/stats.hpp"

namespace vnet::apps {

namespace {

struct SharedState {
  am::Name client_name;
  am::Name server_name;
  bool ready() const { return client_name.valid() && server_name.valid(); }

  // ping-pong
  std::uint64_t pongs = 0;

  // streaming (gap) phase
  bool stream_done = false;
  std::uint64_t server_handled = 0;
  std::uint64_t stream_received = 0;
  sim::Time stream_first = 0;
  sim::Time stream_last = 0;

  sim::Summary os;
  sim::Summary orcv;
  sim::Summary rtt;
};

sim::Task<> server_body(host::HostThread& t, SharedState& st, int pingpongs,
                        int stream) {
  auto ep = co_await am::Endpoint::create(t, /*tag=*/0x5e11);
  ep->set_handler(1, [&st](am::Endpoint&, const am::Message& m) {
    ++st.server_handled;
    m.reply(2, {m.arg(0)});  // pong
  });
  ep->set_handler(3, [&st, &t](am::Endpoint&, const am::Message&) {
    // gap-phase stream arrival
    ++st.server_handled;
    const sim::Time now = t.engine().now();
    if (st.stream_received == 0) st.stream_first = now;
    st.stream_last = now;
    ++st.stream_received;
  });
  st.server_name = ep->name();

  const auto expected = 20u +  // warm-up round trips
                        static_cast<std::uint64_t>(pingpongs) +
                        static_cast<std::uint64_t>(stream);
  while (st.server_handled < expected) {
    const std::size_t n = co_await ep->poll(t, 8);
    if (n == 0) co_await t.compute(100);
  }
  // Drain trailing acks/credits before tearing down.
  co_await t.sleep(2 * sim::ms);
  co_await ep->destroy(t);
  (void)stream;
}

sim::Task<> client_body(host::HostThread& t, SharedState& st, int pingpongs,
                        int stream) {
  auto ep = co_await am::Endpoint::create(t, 0xc11e);
  ep->set_handler(2, [&st](am::Endpoint&, const am::Message&) { ++st.pongs; });
  st.client_name = ep->name();
  while (!st.ready()) co_await t.sleep(10 * sim::us);
  ep->map(0, st.server_name);

  // Warm-up: fault the endpoint in, prime channels and translations.
  for (int i = 0; i < 20; ++i) {
    co_await ep->request(t, 0, 1, 1);
    const std::uint64_t want = static_cast<std::uint64_t>(i) + 1;
    while (st.pongs < want) co_await ep->poll(t, 4);
  }

  // --- ping-pong: o_s and RTT, one message outstanding at a time ---
  for (int i = 0; i < pingpongs; ++i) {
    const sim::Time t0 = t.engine().now();
    co_await ep->request(t, 0, 1, 1);
    const sim::Time sent = t.engine().now();
    st.os.add(sim::to_usec(sent - t0));
    const std::uint64_t want = 20 + static_cast<std::uint64_t>(i) + 1;
    while (st.pongs < want) {
      // o_r: cost of the poll call that actually handles the reply.
      const sim::Time p0 = t.engine().now();
      const std::size_t n = co_await ep->poll(t, 1);
      if (n > 0 && st.pongs == want) {
        st.orcv.add(sim::to_usec(t.engine().now() - p0));
      }
    }
    st.rtt.add(sim::to_usec(t.engine().now() - t0));
  }

  // --- streaming: g, full credit window ---
  for (int i = 0; i < stream; ++i) {
    co_await ep->request(t, 0, 3, static_cast<std::uint64_t>(i));
  }
  while (ep->credits_in_use() > 0) co_await ep->poll(t, 16);
  st.stream_done = true;
  co_await ep->destroy(t);
}

}  // namespace

LogpResult measure_logp(const cluster::ClusterConfig& config, int pingpongs,
                        int stream, bool attribute) {
  cluster::ClusterConfig cfg = config;
  cfg.nodes = 2;
  cfg.topology = cluster::ClusterConfig::Topology::kCrossbar;
  cluster::Cluster cl(cfg);
  if (attribute) {
    cl.engine().spans().set_sample_interval(1);  // track all
    // Retain every ping-pong (requests + replies) for the tail profile.
    cl.engine().spans().set_ring_capacity(
        static_cast<std::size_t>(2 * (pingpongs + stream) + 64));
  }
  auto st = std::make_unique<SharedState>();

  cl.spawn_thread(1, "logp-server", [&st, pingpongs, stream](
                                        host::HostThread& t) -> sim::Task<> {
    co_await server_body(t, *st, pingpongs, stream);
  });
  cl.spawn_thread(0, "logp-client", [&st, pingpongs, stream](
                                        host::HostThread& t) -> sim::Task<> {
    co_await client_body(t, *st, pingpongs, stream);
  });
  cl.run_to_completion();

  LogpResult r;
  r.os_us = st->os.mean();
  r.or_us = st->orcv.mean();
  r.rtt_us = st->rtt.mean();
  if (st->stream_received > 1) {
    r.g_us = sim::to_usec(st->stream_last - st->stream_first) /
             static_cast<double>(st->stream_received - 1);
  }
  r.l_us = r.rtt_us / 2.0 - r.os_us - r.or_us;

  if (attribute) {
    const obs::Snapshot snap = cl.engine().snapshot();
    const obs::SpanStageSummary sum = obs::summarize_span_stages(snap);
    r.stage_e2e_us = sum.e2e.mean() / 1e3;
    r.stage_sum_us = sum.stage_sum_mean_ns() / 1e3;
    r.stage_report = obs::render_span_stages(snap);
    const obs::TailReport tail =
        obs::tail_report(cl.engine().spans().collect());
    r.tail_report = obs::render_tail_report(tail);
    r.tail_recon_p50 = tail.p50_recon_err();
    r.tail_recon_tail = tail.tail_recon_err();
  }
  return r;
}

}  // namespace vnet::apps
