#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

namespace vnet::obs {

// ----------------------------------------------------------- HistogramData

namespace {

constexpr std::uint32_t kSub = HistogramData::kSubBuckets;

// Inverse of HistogramData::bucket_of: the [lo, hi) range of bucket b.
double bucket_lo(std::size_t b) {
  if (b == 0) return 0.0;
  const std::size_t m = (b - 1) / kSub;
  const std::size_t s = (b - 1) % kSub;
  return std::ldexp(1.0 + static_cast<double>(s) / kSub, static_cast<int>(m));
}

double bucket_hi(std::size_t b) {
  if (b == 0) return 1.0;
  const std::size_t m = (b - 1) / kSub;
  const std::size_t s = (b - 1) % kSub;
  return std::ldexp(1.0 + static_cast<double>(s + 1) / kSub,
                    static_cast<int>(m));
}

}  // namespace

void HistogramData::merge(const HistogramData& other) {
  if (other.count == 0) return;
  min_seen = count ? std::min(min_seen, other.min_seen) : other.min_seen;
  max_seen = count ? std::max(max_seen, other.max_seen) : other.max_seen;
  count += other.count;
  sum += other.sum;
  if (buckets.size() < other.buckets.size()) {
    buckets.resize(other.buckets.size(), 0);
  }
  for (std::size_t b = 0; b < other.buckets.size(); ++b) {
    buckets[b] += other.buckets[b];
  }
}

double HistogramData::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Fractional rank into the sorted sample; interpolate linearly inside the
  // owning sub-bucket (ranks spread evenly across its occupants), then clamp
  // to the observed range so bucket-0 and top-bucket estimates can never
  // leave [min_seen, max_seen].
  const double rank = q * static_cast<double>(count - 1);
  double seen = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const auto n = static_cast<double>(buckets[b]);
    if (n > 0 && rank < seen + n) {
      const double frac = (rank - seen + 0.5) / n;
      const double v = bucket_lo(b) + frac * (bucket_hi(b) - bucket_lo(b));
      return std::clamp(v, min_seen, max_seen);
    }
    seen += n;
  }
  // Rank beyond the bucket mass (possible after diff() clamping): report the
  // largest value this histogram has seen.
  return max_seen;
}

// ---------------------------------------------------------------- Snapshot

std::uint64_t Snapshot::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it != counters.end() ? it->second : 0;
}

double Snapshot::gauge(const std::string& name) const {
  auto it = gauges.find(name);
  return it != gauges.end() ? it->second : 0.0;
}

const HistogramData* Snapshot::histogram(const std::string& name) const {
  auto it = histograms.find(name);
  return it != histograms.end() ? &it->second : nullptr;
}

std::uint64_t Snapshot::sum_counters(std::string_view prefix,
                                     std::string_view suffix) const {
  std::uint64_t total = 0;
  for (const auto& [name, v] : counters) {
    const std::string_view n = name;
    if (n.size() < prefix.size() + suffix.size()) continue;
    if (n.substr(0, prefix.size()) != prefix) continue;
    if (n.substr(n.size() - suffix.size()) != suffix) continue;
    total += v;
  }
  return total;
}

Snapshot diff(const Snapshot& newer, const Snapshot& older) {
  Snapshot d;
  d.at_ns = newer.at_ns - older.at_ns;
  for (const auto& [name, v] : newer.counters) {
    const std::uint64_t prev = older.counter(name);
    d.counters[name] = v >= prev ? v - prev : 0;
  }
  d.gauges = newer.gauges;
  for (const auto& [name, h] : newer.histograms) {
    HistogramData hd = h;
    if (const HistogramData* prev = older.histogram(name)) {
      hd.count -= std::min(hd.count, prev->count);
      hd.sum -= prev->sum;
      for (std::size_t b = 0;
           b < std::min(hd.buckets.size(), prev->buckets.size()); ++b) {
        hd.buckets[b] -= std::min(hd.buckets[b], prev->buckets[b]);
      }
    }
    d.histograms[name] = std::move(hd);
  }
  return d;
}

std::string render_table(const Snapshot& snap, const std::string& prefix,
                         bool skip_zero_rows) {
  // Split every metric under `prefix` into (row, column) at the remainder's
  // last dot; collect cell text.
  std::map<std::string, std::map<std::string, std::string>> rows;
  std::map<std::string, std::map<std::string, bool>> nonzero;
  std::set<std::string> columns;

  auto admit = [&](const std::string& name) -> std::pair<bool, std::string> {
    if (name.size() <= prefix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name[prefix.size()] != '.') {
      return {false, {}};
    }
    return {true, name.substr(prefix.size() + 1)};
  };

  auto place = [&](const std::string& rest, std::string text, bool is_zero) {
    const std::size_t dot = rest.rfind('.');
    const std::string row = dot == std::string::npos ? "" : rest.substr(0, dot);
    const std::string col =
        dot == std::string::npos ? rest : rest.substr(dot + 1);
    columns.insert(col);
    rows[row][col] = std::move(text);
    nonzero[row][col] = !is_zero;
  };

  for (const auto& [name, v] : snap.counters) {
    auto [ok, rest] = admit(name);
    if (ok) place(rest, std::to_string(v), v == 0);
  }
  for (const auto& [name, v] : snap.gauges) {
    auto [ok, rest] = admit(name);
    if (!ok) continue;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    place(rest, buf, v == 0.0);
  }

  // Column widths.
  const std::size_t last_dot = prefix.rfind('.');
  std::string row_header =
      last_dot == std::string::npos ? prefix : prefix.substr(last_dot + 1);
  std::size_t row_w = row_header.size();
  std::map<std::string, std::size_t> col_w;
  for (const auto& c : columns) col_w[c] = c.size();
  std::string out;
  std::vector<const std::string*> kept;
  for (const auto& [row, cells] : rows) {
    if (skip_zero_rows) {
      bool any = false;
      for (const auto& [col, nz] : nonzero[row]) any |= nz;
      if (!any) continue;
    }
    kept.push_back(&row);
    row_w = std::max(row_w, row.size());
    for (const auto& [col, text] : cells) {
      col_w[col] = std::max(col_w[col], text.size());
    }
  }

  auto pad_left = [&](std::string& s, const std::string& text, std::size_t w) {
    s.append(w > text.size() ? w - text.size() : 0, ' ');
    s += text;
  };

  // Header.
  out += row_header;
  out.append(row_w - row_header.size(), ' ');
  for (const auto& c : columns) {
    out += "  ";
    pad_left(out, c, col_w[c]);
  }
  out += '\n';

  for (const std::string* row : kept) {
    out += *row;
    out.append(row_w - row->size(), ' ');
    const auto& cells = rows[*row];
    for (const auto& c : columns) {
      out += "  ";
      auto it = cells.find(c);
      pad_left(out, it != cells.end() ? it->second : "-", col_w[c]);
    }
    out += '\n';
  }
  return out;
}

// --------------------------------------------------------- MetricsRegistry

Counter MetricsRegistry::counter(const std::string& name) {
  auto [it, inserted] = counter_index_.try_emplace(name, counter_cells_.size());
  if (inserted) counter_cells_.push_back(0);
  return Counter(&counter_cells_[it->second]);
}

Gauge MetricsRegistry::gauge(const std::string& name) {
  auto [it, inserted] = gauge_index_.try_emplace(name, gauge_cells_.size());
  if (inserted) gauge_cells_.push_back(0.0);
  return Gauge(&gauge_cells_[it->second]);
}

Histogram MetricsRegistry::histogram(const std::string& name) {
  auto [it, inserted] = hist_index_.try_emplace(name, hist_cells_.size());
  if (inserted) hist_cells_.emplace_back();
  return Histogram(&hist_cells_[it->second]);
}

void MetricsRegistry::counter_fn(std::string name,
                                 std::function<std::uint64_t()> fn) {
  counter_fns_[std::move(name)] = std::move(fn);
}

void MetricsRegistry::gauge_fn(std::string name, std::function<double()> fn) {
  gauge_fns_[std::move(name)] = std::move(fn);
}

void MetricsRegistry::remove_fn_prefix(const std::string& prefix) {
  auto scrub = [&](auto& m) {
    auto it = m.lower_bound(prefix);
    while (it != m.end() && it->first.compare(0, prefix.size(), prefix) == 0) {
      it = m.erase(it);
    }
  };
  scrub(counter_fns_);
  scrub(gauge_fns_);
}

Snapshot MetricsRegistry::snapshot(std::int64_t at_ns) const {
  Snapshot s;
  s.at_ns = at_ns;
  for (const auto& [name, idx] : counter_index_) {
    s.counters.emplace(name, counter_cells_[idx]);
  }
  for (const auto& [name, fn] : counter_fns_) s.counters.emplace(name, fn());
  for (const auto& [name, idx] : gauge_index_) {
    s.gauges.emplace(name, gauge_cells_[idx]);
  }
  for (const auto& [name, fn] : gauge_fns_) s.gauges.emplace(name, fn());
  for (const auto& [name, idx] : hist_index_) {
    s.histograms.emplace(name, hist_cells_[idx]);
  }
  return s;
}

Snapshot MetricsRegistry::snapshot_scalars(std::int64_t at_ns) const {
  Snapshot s;
  s.at_ns = at_ns;
  for (const auto& [name, idx] : counter_index_) {
    s.counters.emplace(name, counter_cells_[idx]);
  }
  for (const auto& [name, fn] : counter_fns_) s.counters.emplace(name, fn());
  for (const auto& [name, idx] : gauge_index_) {
    s.gauges.emplace(name, gauge_cells_[idx]);
  }
  for (const auto& [name, fn] : gauge_fns_) s.gauges.emplace(name, fn());
  return s;
}

}  // namespace vnet::obs
