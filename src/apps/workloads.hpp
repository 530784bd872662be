#pragma once

#include <cstdint>
#include <vector>

#include "cluster/config.hpp"
#include "host/segment_driver.hpp"
#include "sim/stats.hpp"

namespace vnet::apps {

/// The §6.4 client/server macrobenchmark: one server node, k client nodes,
/// each client streaming requests as fast as its credit window allows.
struct ContentionParams {
  /// Server process organisation (§6.4):
  ///  * kOneVN:        every client talks to ONE shared server endpoint;
  ///  * kSingleThread: one server endpoint per client, one thread polling
  ///                   all of them round-robin (ST);
  ///  * kMultiThread:  one endpoint per client, one event-driven thread
  ///                   per endpoint (MT).
  enum class Mode { kOneVN, kSingleThread, kMultiThread };

  Mode mode = Mode::kOneVN;
  int clients = 4;
  /// 0 = small (16-byte) requests (Fig 6); e.g. 8192 for bulk (Fig 7).
  std::uint32_t request_bytes = 0;
  /// Server NIC endpoint frames: 8 (default) or 96 (§6.4).
  int server_frames = 8;

  /// Measurement window (the paper uses a 20 s steady-state interval; the
  /// default here is scaled down — throughput is stationary).
  sim::Duration warmup = 50 * sim::ms;
  sim::Duration window = 200 * sim::ms;

  /// Base cluster configuration; topology/nodes are overridden.
  cluster::ClusterConfig base;

  /// Collect client-observed round-trip times (slightly more work).
  bool collect_rtt = true;

  /// Endpoint replacement policy on the server (ablation B; the paper's
  /// system replaces at random).
  host::SegmentDriver::Policy replacement =
      host::SegmentDriver::Policy::kRandom;

  /// User-level credit window on client endpoints (ablation E).
  bool flow_control = true;

  /// When > 0, clients send in bursts of this many requests separated by
  /// `burst_gap` (client/server phases alternating between computation and
  /// burst communication, as §6.4 describes the general model). Bursts
  /// make receive queues back up, exercising the stranded-entry cases.
  int burst_size = 0;
  sim::Duration burst_gap = 0;

  /// CPU the server spends processing each request (a real service does
  /// work per message; 0 = pure echo).
  sim::Duration server_work = 0;

  ContentionParams();
};

struct ContentionResult {
  /// Server throughput over the window: requests served per second
  /// (aggregate and per client).
  double aggregate_per_sec = 0;
  std::vector<double> per_client_per_sec;
  /// For bulk runs: delivered payload bandwidth.
  double aggregate_mb_per_sec = 0;

  /// Virtualization activity on the server during the window.
  double remaps_per_sec = 0;
  std::uint64_t queue_full_nacks = 0;
  std::uint64_t not_resident_nacks = 0;
  std::uint64_t retransmissions = 0;

  /// Client-observed request round-trip times (strongly bimodal when
  /// endpoints are being re-mapped, §6.4.1).
  sim::Histogram rtt_us;

  double min_client_per_sec() const;
  double max_client_per_sec() const;
};

ContentionResult run_contention(const ContentionParams& params);

const char* to_string(ContentionParams::Mode m);

}  // namespace vnet::apps
