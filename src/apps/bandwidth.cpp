#include "apps/bandwidth.hpp"

#include <algorithm>
#include <memory>

#include "am/endpoint.hpp"
#include "cluster/cluster.hpp"
#include "obs/sampler.hpp"
#include "obs/span.hpp"
#include "sim/stats.hpp"

namespace vnet::apps {

namespace {

struct SharedState {
  am::Name server_name;
  bool server_up = false;

  // streaming phase (per size, reset between sizes)
  std::uint64_t stream_received = 0;
  std::uint64_t stream_bytes = 0;
  sim::Time window_start = 0;
  std::uint64_t window_start_count = 0;
  sim::Time last_arrival = 0;

  // echo phase
  std::uint64_t echoes = 0;

  bool client_done = false;
};

sim::Task<> server_body(host::HostThread& t, SharedState& st) {
  auto ep = co_await am::Endpoint::create(t, 0xb4);
  // Handler 1: stream sink (no explicit reply; credits flow implicitly).
  ep->set_handler(1, [&st, &t](am::Endpoint&, const am::Message& m) {
    ++st.stream_received;
    st.stream_bytes += m.bulk_bytes();
    st.last_arrival = t.engine().now();
    // Skip the warm-up ramp: start the measurement window at message 32.
    if (st.stream_received == 32) {
      st.window_start = t.engine().now();
      st.window_start_count = st.stream_received;
    }
  });
  // Handler 2: echo the same number of bytes back.
  ep->set_handler(2, [](am::Endpoint&, const am::Message& m) {
    m.reply(3, {}, m.bulk_bytes());
  });
  st.server_name = ep->name();
  st.server_up = true;
  while (!st.client_done) {
    const std::size_t n = co_await ep->poll(t, 16);
    if (n == 0) co_await t.compute(150);
  }
  co_await t.sleep(2 * sim::ms);
  co_await ep->destroy(t);
}

}  // namespace

BandwidthResult measure_bandwidth(const cluster::ClusterConfig& config,
                                  const std::vector<std::uint32_t>& sizes,
                                  int stream_messages, int pingpongs,
                                  sim::Duration sample_period,
                                  std::uint32_t span_sample_interval) {
  cluster::ClusterConfig cfg = config;
  cfg.nodes = 2;
  cfg.topology = cluster::ClusterConfig::Topology::kCrossbar;
  cluster::Cluster cl(cfg);
  if (span_sample_interval > 0) {
    cl.engine().spans().set_sample_interval(span_sample_interval);
    // Enough for every sampled message across all sizes (streams + echoes,
    // requests + replies).
    const std::size_t msgs = sizes.size() *
                             static_cast<std::size_t>(stream_messages +
                                                      2 * pingpongs + 16) *
                             2 / span_sample_interval;
    cl.engine().spans().set_ring_capacity(msgs + 64);
  }
  auto st = std::make_unique<SharedState>();
  BandwidthResult result;
  sim::LinearFit fit;

  // Phase markers for the time-series sampler: which message size is being
  // streamed/echoed during each sampling window (Figures 4-7 style curves
  // are regenerated offline from the CSV by grouping windows on these).
  obs::Gauge phase_msg_bytes =
      cl.engine().metrics().gauge("apps.bandwidth.msg_bytes");
  obs::Gauge phase_gauge = cl.engine().metrics().gauge("apps.bandwidth.phase");
  phase_gauge.set(kBwPhaseIdle);

  std::unique_ptr<obs::Sampler> sampler;
  if (sample_period > 0) {
    obs::SamplerConfig scfg;
    scfg.period_ns = sample_period;
    scfg.prefixes = {"apps.bandwidth", "fabric.link."};
    // With span capture on, also export the per-endpoint span histograms
    // so the CSV carries p50/p99/p999 latency columns per window.
    if (span_sample_interval > 0) scfg.prefixes.push_back("host.");
    sampler = std::make_unique<obs::Sampler>(cl.engine().metrics(), scfg);
    sampler->sample(cl.engine().now());  // baseline window
    cl.engine().every(sample_period, [&sampler, &st, &cl] {
      sampler->sample(cl.engine().now());
      return !st->client_done;  // stop once the workload is over
    });
  }

  cl.spawn_thread(1, "bw-server", [&st](host::HostThread& t) -> sim::Task<> {
    co_await server_body(t, *st);
  });

  cl.spawn_thread(0, "bw-client", [&](host::HostThread& t) -> sim::Task<> {
    auto ep = co_await am::Endpoint::create(t, 0xc4);
    std::uint64_t echoes_seen = 0;
    ep->set_handler(3, [&st](am::Endpoint&, const am::Message&) {
      ++st->echoes;
    });
    while (!st->server_up) co_await t.sleep(10 * sim::us);
    ep->map(0, st->server_name);

    // Warm-up.
    for (int i = 0; i < 4; ++i) {
      co_await ep->request_bulk(t, 0, 2, 128);
      while (st->echoes <= echoes_seen) co_await ep->poll(t, 4);
      echoes_seen = st->echoes;
    }

    for (std::uint32_t n : sizes) {
      // --- bandwidth: windowed stream of `stream_messages` n-byte sends ---
      phase_msg_bytes.set(n);
      phase_gauge.set(kBwPhaseStream);
      st->stream_received = 0;
      st->stream_bytes = 0;
      st->window_start = 0;
      for (int i = 0; i < stream_messages; ++i) {
        co_await ep->request_bulk(t, 0, 1, n);
      }
      while (ep->credits_in_use() > 0) co_await ep->poll(t, 16);
      // Measure from message 32 to the last arrival.
      BandwidthPoint p;
      p.bytes = n;
      const auto msgs = st->stream_received - st->window_start_count;
      const sim::Duration span = st->last_arrival - st->window_start;
      if (span > 0) {
        p.mbps = static_cast<double>(msgs) * n / (sim::to_sec(span) * 1e6);
      }

      // --- latency: single outstanding n-byte echo ---
      phase_gauge.set(kBwPhaseEcho);
      sim::Summary rtt;
      for (int i = 0; i < pingpongs; ++i) {
        const sim::Time t0 = t.engine().now();
        co_await ep->request_bulk(t, 0, 2, n);
        while (st->echoes <= echoes_seen) co_await ep->poll(t, 4);
        echoes_seen = st->echoes;
        rtt.add(sim::to_usec(t.engine().now() - t0));
      }
      p.rtt_us = rtt.mean();
      if (n >= 128) fit.add(n, p.rtt_us);
      result.points.push_back(p);
    }
    phase_gauge.set(kBwPhaseIdle);
    st->client_done = true;
    co_await ep->destroy(t);
  });

  cl.run_to_completion();
  if (sampler) {
    sampler->sample(cl.engine().now());  // close the final partial window
    result.timeseries_csv = sampler->csv();
  }
  if (span_sample_interval > 0) {
    result.tail_report = obs::render_tail_report(cl.engine().spans());
  }

  result.slope_us_per_byte = fit.slope();
  result.intercept_us = fit.intercept();
  result.r_squared = fit.r_squared();

  // N_1/2: message size delivering half the peak bandwidth, interpolated.
  double peak = 0;
  for (const auto& p : result.points) peak = std::max(peak, p.mbps);
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    if (result.points[i].mbps >= peak / 2) {
      if (i == 0) {
        result.n_half_bytes = result.points[0].bytes;
      } else {
        const auto& a = result.points[i - 1];
        const auto& b = result.points[i];
        const double frac =
            (peak / 2 - a.mbps) / std::max(1e-9, b.mbps - a.mbps);
        result.n_half_bytes = a.bytes + frac * (b.bytes - a.bytes);
      }
      break;
    }
  }
  return result;
}

}  // namespace vnet::apps
