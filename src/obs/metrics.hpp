#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace vnet::obs {

/// vnet::obs — the uniform instrumentation plane (DESIGN.md §7).
///
/// One MetricsRegistry (owned by sim::Engine) holds every counter, gauge,
/// and histogram in a simulation under hierarchical dotted names:
///
///     host.3.nic.retransmissions
///     host.0.driver.remaps
///     fabric.link.h0->sw.bytes_tx
///
/// Components hold cheap handles (a single pointer into registry-owned
/// cells) and bump them on the hot path; consumers take Snapshots at any
/// simulated time, diff them, and render them — replacing the scattered
/// per-component Stats structs and printf dumps.
///
/// obs deliberately depends on nothing above it (not even sim): times are
/// plain nanosecond integers supplied by the caller.

class MetricsRegistry;

/// Monotonically increasing event count. Default-constructed handles are
/// unbound and ignore increments; handles from MetricsRegistry::counter()
/// write straight into the registry cell.
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1) const {
    if (cell_ != nullptr) *cell_ += n;
  }
  std::uint64_t value() const { return cell_ != nullptr ? *cell_ : 0; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::uint64_t* cell) : cell_(cell) {}
  std::uint64_t* cell_ = nullptr;
};

/// Point-in-time level (queue depth, residency count, ...).
class Gauge {
 public:
  Gauge() = default;
  void set(double v) const {
    if (cell_ != nullptr) *cell_ = v;
  }
  void add(double d) const {
    if (cell_ != nullptr) *cell_ += d;
  }
  double value() const { return cell_ != nullptr ? *cell_ : 0.0; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(double* cell) : cell_(cell) {}
  double* cell_ = nullptr;
};

/// HDR-style sub-bucketed distribution data: the registry cell for Histogram
/// handles and the per-histogram value carried by Snapshots. Bucket 0 is
/// [0,1) (and catches anything below 1, including negatives); above that,
/// every power-of-two decade [2^m, 2^(m+1)) is split into kSubBuckets
/// linear sub-buckets of width 2^m/kSubBuckets. Worst-case relative error
/// of a within-bucket estimate is 1/(2*kSubBuckets) ≈ 1.6%, uniformly at
/// every quantile — the bound that makes Sampler's p99/p99.9 columns
/// trustworthy (the old pure-log2 buckets were ±50% at the tail).
struct HistogramData {
  static constexpr std::uint32_t kSubBits = 5;
  static constexpr std::uint32_t kSubBuckets = 1u << kSubBits;

  std::uint64_t count = 0;
  double sum = 0.0;
  double min_seen = 0.0;  ///< valid iff count > 0
  double max_seen = 0.0;  ///< valid iff count > 0
  std::vector<std::uint64_t> buckets;

  /// Inline (with bucket_of): span capture records nine values per
  /// committed message.
  void record(double x) {
    if (count == 0) {
      min_seen = max_seen = x;
    } else {
      min_seen = x < min_seen ? x : min_seen;
      max_seen = x > max_seen ? x : max_seen;
    }
    ++count;
    sum += x;
    const std::size_t b = bucket_of(x);
    if (buckets.size() <= b) buckets.resize(b + 1, 0);
    ++buckets[b];
  }
  /// Bucket 0 is [0,1); bucket 1 + m*kSubBuckets + s is
  /// [2^m * (1 + s/kSubBuckets), 2^m * (1 + (s+1)/kSubBuckets)). For
  /// x >= 1, m is the IEEE double's unbiased exponent and s its top
  /// kSubBits mantissa bits, read from the bit pattern (an ilogb/ldexp pair
  /// costs as much as the rest of record()).
  static std::size_t bucket_of(double x) {
    if (x < 1.0) return 0;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    const std::uint64_t m = ((bits >> 52) & 0x7ff) - 1023;
    const std::uint64_t s = (bits >> (52 - kSubBits)) & (kSubBuckets - 1);
    return 1 + m * kSubBuckets + s;
  }
  /// Folds `other` in: the result describes the union of both samples.
  void merge(const HistogramData& other);
  double mean() const { return count ? sum / static_cast<double>(count) : 0; }
  /// Quantile estimate (q in [0,1]): rank-interpolated within the owning
  /// sub-bucket and clamped to [min_seen, max_seen]. An empty (or
  /// diffed-to-zero) histogram returns 0.
  double quantile(double q) const;
};

/// Handle to a registry-owned HistogramData cell.
class Histogram {
 public:
  Histogram() = default;
  void record(double x) const {
    if (cell_ != nullptr) cell_->record(x);
  }
  std::uint64_t count() const { return cell_ != nullptr ? cell_->count : 0; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(HistogramData* cell) : cell_(cell) {}
  HistogramData* cell_ = nullptr;
};

/// All metric values at one simulated instant. Maps are ordered by name, so
/// iteration (and everything rendered from it) is deterministic.
struct Snapshot {
  std::int64_t at_ns = 0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  std::uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  const HistogramData* histogram(const std::string& name) const;

  /// Sum of every counter whose name starts with `prefix` and ends with
  /// `suffix` (either may be empty). The idiom for cluster-wide totals:
  ///     snap.sum_counters("host.", ".nic.retransmissions")
  std::uint64_t sum_counters(std::string_view prefix,
                             std::string_view suffix = {}) const;
};

/// Per-metric difference `newer - older`: counters subtract (clamped at 0),
/// histograms subtract count/sum/buckets (min/max are taken from `newer`),
/// gauges are levels and keep the newer value. at_ns is the interval length.
Snapshot diff(const Snapshot& newer, const Snapshot& older);

/// Renders every counter/gauge under `prefix` as a fixed-width table, one
/// row per component: the name remainder is split at its last dot into
/// (row, column). With `skip_zero_rows`, rows whose cells are all zero are
/// omitted (idle links, unused endpoints).
std::string render_table(const Snapshot& snap, const std::string& prefix,
                         bool skip_zero_rows = true);

/// The process-wide metric namespace for one simulation. Registration is
/// idempotent: asking twice for the same name (and kind) returns a handle
/// to the same cell, so a recreated component continues its predecessor's
/// counts. Cells live as long as the registry (they are never reused).
///
/// Besides owned cells there are pull-style metrics — counter_fn()/
/// gauge_fn() register a callback sampled at snapshot time — for components
/// that already maintain their own counters (links, switches). Pull
/// callbacks must be removed (remove_fn_prefix) before the component they
/// read from is destroyed.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name);

  void counter_fn(std::string name, std::function<std::uint64_t()> fn);
  void gauge_fn(std::string name, std::function<double()> fn);
  /// Drops every pull callback whose name starts with `prefix`. Owned cells
  /// are unaffected.
  void remove_fn_prefix(const std::string& prefix);

  /// Samples everything (cells and pull callbacks) at simulated time
  /// `at_ns`.
  Snapshot snapshot(std::int64_t at_ns = 0) const;

  /// Counters and gauges only — no histogram payload. Sub-bucketed
  /// histograms carry hundreds of buckets, so copying them dominates a
  /// full snapshot; high-frequency pollers whose rules are scalar-based
  /// (the Watchdog checks every watch window) use this instead.
  Snapshot snapshot_scalars(std::int64_t at_ns = 0) const;

  std::size_t size() const {
    return counter_index_.size() + gauge_index_.size() + hist_index_.size() +
           counter_fns_.size() + gauge_fns_.size();
  }

 private:
  std::map<std::string, std::size_t> counter_index_;
  std::map<std::string, std::size_t> gauge_index_;
  std::map<std::string, std::size_t> hist_index_;
  // deques: cell addresses must survive registration of later metrics.
  std::deque<std::uint64_t> counter_cells_;
  std::deque<double> gauge_cells_;
  std::deque<HistogramData> hist_cells_;
  std::map<std::string, std::function<std::uint64_t()>> counter_fns_;
  std::map<std::string, std::function<double()>> gauge_fns_;
};

}  // namespace vnet::obs
