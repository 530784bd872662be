#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace vnet::obs {

/// Periodic time-series sampler (DESIGN.md §8).
///
/// Every Δt of simulated time the caller invokes sample(); the sampler
/// snapshots the registry, diffs against the previous window, and keeps one
/// row of values for every metric matching the configured prefixes.
/// csv() renders the collected windows — one row per window, one column per
/// metric — which is enough to plot any Figures 4–7-style curve (bandwidth
/// vs. size, throughput under timesharing, congestion spreading) from a
/// live run without touching the code again.
///
/// Column semantics: counters are in-window deltas, gauges are the level at
/// the window's end, and each histogram contributes `<name>.count` (window
/// delta), `<name>.mean` (mean of the in-window samples), and
/// `<name>.p50`/`.p99`/`.p999` quantile estimates of the in-window samples
/// (sub-bucketed sketch, ≤~1.6% relative error; clamped to the lifetime
/// observed range).
struct SamplerConfig {
  /// Nominal window length, purely informational here — the caller drives
  /// sample() on its own schedule and the emitted `window_ns` column
  /// records the actual spacing.
  std::int64_t period_ns = 1'000'000;
  /// Only metrics whose names start with one of these are exported; empty
  /// means everything.
  std::vector<std::string> prefixes;
};

class Sampler {
 public:
  Sampler(const MetricsRegistry& reg, SamplerConfig cfg)
      : reg_(&reg), cfg_(std::move(cfg)) {}

  /// Closes the current window at `now_ns` and opens the next. The first
  /// call only establishes the baseline and emits no row.
  void sample(std::int64_t now_ns);

  /// One closed window: its end, its actual length, and one cell per
  /// column present in it (column semantics as in csv()).
  struct Row {
    std::int64_t end_ns = 0;
    std::int64_t window_ns = 0;
    std::map<std::string, double> cells;
  };

  std::size_t rows() const { return rows_.size(); }
  const Row& row(std::size_t i) const { return rows_[i]; }
  const SamplerConfig& config() const { return cfg_; }

  /// Renders all windows as CSV: `window_end_ns,window_ns,<columns...>`.
  /// Columns are the union of metrics seen in any window, sorted by name;
  /// windows where a metric did not yet exist render as 0.
  std::string csv() const;

 private:
  bool admits(const std::string& name) const;

  const MetricsRegistry* reg_;
  SamplerConfig cfg_;
  bool have_base_ = false;
  Snapshot last_;
  std::vector<Row> rows_;
};

}  // namespace vnet::obs
