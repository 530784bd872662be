#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/config.hpp"

namespace vnet::apps {

/// One point of the Fig 4 transfer-bandwidth curve.
struct BandwidthPoint {
  std::uint32_t bytes = 0;
  double mbps = 0;    ///< delivered steady-state bandwidth
  double rtt_us = 0;  ///< round trip of one n-byte message echoed back
};

struct BandwidthResult {
  std::vector<BandwidthPoint> points;
  /// Least-squares fit RTT(n) = slope_us_per_byte * n + intercept_us
  /// (paper: 0.1112 n + 61.02 us, R^2 = 0.99).
  double slope_us_per_byte = 0;
  double intercept_us = 0;
  double r_squared = 0;
  /// Half-power message size N_1/2 (paper: ~540 bytes).
  double n_half_bytes = 0;
  /// Time-series CSV from the periodic registry sampler ("" unless a
  /// sample period was requested): one row per window with per-link byte
  /// deltas plus the `apps.bandwidth.msg_bytes` / `.phase` gauges, enough
  /// to regenerate the bandwidth-vs-size curve offline
  /// (scripts/plot_timeseries.py). With span capture on, the window rows
  /// additionally carry `host.<n>.ep.<id>.span.*` percentile columns
  /// (.p50/.p99/.p999) for percentile-band plots.
  std::string timeseries_csv;
  /// Differential tail profile of the captured spans ("" unless
  /// `span_sample_interval` > 0). See obs/span.hpp.
  std::string tail_report;
};

/// Phase gauge values published under `apps.bandwidth.phase`.
inline constexpr double kBwPhaseIdle = 0;
inline constexpr double kBwPhaseStream = 1;
inline constexpr double kBwPhaseEcho = 2;

/// Runs the Fig 4 microbenchmark on a fresh 2-node cluster: for each
/// message size, a windowed stream measures delivered bandwidth, and a
/// ping-pong with same-size echoes measures round-trip time. A non-zero
/// `sample_period` additionally runs an obs::Sampler over the
/// `apps.bandwidth`, `fabric.link.`, and `host.` metric prefixes every
/// period of simulated time and returns the CSV. A non-zero
/// `span_sample_interval` turns on 1-in-N causal span capture (plus
/// latency attribution, so the CSV carries per-endpoint percentile
/// columns) and returns the rendered tail profile; recording takes no
/// simulated time, so the measured curve is unchanged.
BandwidthResult measure_bandwidth(const cluster::ClusterConfig& config,
                                  const std::vector<std::uint32_t>& sizes,
                                  int stream_messages = 160, int pingpongs = 30,
                                  sim::Duration sample_period = 0,
                                  std::uint32_t span_sample_interval = 0);

}  // namespace vnet::apps
