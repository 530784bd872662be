#pragma once

#include <string>

#include "cluster/config.hpp"

namespace vnet::apps {

/// LogP characterization results, all in microseconds (Fig 3).
struct LogpResult {
  double os_us = 0;   ///< send overhead: host time in the request call
  double or_us = 0;   ///< receive overhead: host time handling one message
  double l_us = 0;    ///< latency: RTT/2 - o_s - o_r
  double g_us = 0;    ///< gap: steady-state time per small message
  double rtt_us = 0;  ///< measured round-trip time of a 16-byte message

  // Filled only when measure_logp runs with `attribute == true`: the span
  // recorder's per-stage decomposition of the same ping-pongs, read from
  // its `span.*` histograms (obs/span.hpp).
  double stage_e2e_us = 0;   ///< mean one-way end-to-end (enqueue->done)
  double stage_sum_us = 0;   ///< sum of the per-stage means
  std::string stage_report;  ///< rendered stage table ("" otherwise)

  // Also filled under `attribute`: the differential tail profile of the
  // same spans, plus its reconciliation errors (cohort critical-path stage
  // sum vs. cohort e2e mean — an identity by construction, recomputed as a
  // self-check).
  std::string tail_report;  ///< rendered culprit table ("" otherwise)
  double tail_recon_p50 = 0;
  double tail_recon_tail = 0;
};

/// Runs the LogP microbenchmark of [9] on a fresh 2-node cluster with the
/// given configuration:
///  * o_s — mean simulated time spent inside Endpoint::request;
///  * RTT — request/reply ping-pong with a single outstanding message;
///  * o_r — mean time spent in a poll that handles exactly one message;
///  * g   — a `stream`-message burst under the full credit window, taking
///          the steady-state inter-arrival time at the receiver;
///  * L   — RTT/2 - o_s - o_r.
///
/// With `attribute` set, every message is also tracked by the engine's span
/// recorder (obs/span.hpp) and the result carries the per-stage table;
/// pass `stream == 0` for a pure ping-pong decomposition whose stage sums
/// reconcile with the measured RTT (two one-way flights — request and
/// reply — per round trip).
LogpResult measure_logp(const cluster::ClusterConfig& config,
                        int pingpongs = 300, int stream = 3000,
                        bool attribute = false);

}  // namespace vnet::apps
