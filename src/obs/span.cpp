#include "obs/span.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace vnet::obs {

namespace {

constexpr const char* kStageNames[kSpanStageCount] = {
    "host_enqueue",   // kEnqueue  -> kDoorbell   (host writes descriptor)
    "doorbell_gate",  // kDoorbell -> kGateOpen   (coalesce window wait)
    "tx_queue",       // kGateOpen -> kNicPickup  (waiting for tx service)
    "tx_service",     // kNicPickup-> kWireInject (firmware builds/sends)
    "wire",           // kWireInject->kWireDeliver (fabric transit)
    "rx_service",     // kWireDeliver->kRxDeposit (rx firmware deposits)
    "wake",           // kRxDeposit-> kHandlerWake (waiting for the poller)
    "handler",        // kHandlerWake->kHandlerDone (application handler)
};

constexpr bool kStageIsWait[kSpanStageCount] = {
    false, true, true, false, false, false, true, false,
};

std::string format_us(double ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", ns / 1e3);
  return buf;
}

/// Exact order statistic over an ascending vector: linear interpolation at
/// fractional rank q*(n-1) — the reference the sketch golden test compares
/// against, reused here because the report holds every trace anyway.
double exact_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace

const char* span_stage_name(unsigned i) {
  return i < kSpanStageCount ? kStageNames[i] : "?";
}

bool span_stage_is_wait(unsigned i) {
  return i < kSpanStageCount && kStageIsWait[i];
}

// ---------------------------------------------------------------- SpanTrace

std::int64_t SpanTrace::e2e_ns() const {
  std::int64_t first = -1, last = -1;
  for (unsigned i = 0; i < kSpanPointCount; ++i) {
    if (at[i] < 0) continue;
    if (first < 0) first = at[i];
    last = at[i];
  }
  return (first >= 0 && last >= 0) ? last - first : 0;
}

std::array<std::int64_t, kSpanStageCount> SpanTrace::critical_path() const {
  std::array<std::int64_t, kSpanStageCount> cp{};
  int prev = -1;
  for (unsigned i = 0; i < kSpanPointCount; ++i) {
    if (at[i] < 0) continue;
    if (prev >= 0) cp[static_cast<unsigned>(prev)] = at[i] - at[prev];
    prev = static_cast<int>(i);
  }
  return cp;
}

// ------------------------------------------------------------- SpanRecorder

SpanRecorder::SpanRecorder(MetricsRegistry& reg)
    : reg_(&reg),
      tracked_c_(reg.counter("obs.span.tracked")),
      completed_c_(reg.counter("obs.span.completed")),
      overwritten_c_(reg.counter("obs.span.overwritten")),
      returned_c_(reg.counter("obs.span.returned")) {}

void SpanRecorder::set_ring_capacity(std::size_t n) {
  if (n == 0) n = 1;
  for (auto& [k, r] : rings_) {
    if (r.ring.size() > n || r.head != 0) {
      const std::size_t sz = r.ring.size();
      const std::size_t kept = sz < n ? sz : n;
      std::vector<SpanTrace> keep;
      keep.reserve(kept);
      for (std::size_t i = sz - kept; i < sz; ++i) {
        keep.push_back(std::move(r.ring[(r.head + i) % sz]));
      }
      overwritten_ += sz - kept;
      overwritten_c_.inc(sz - kept);
      r.ring = std::move(keep);
      r.head = 0;
    }
  }
  ring_capacity_ = n;
}

SpanRecorder::Flight* SpanRecorder::find_flight(std::uint64_t k) {
  const std::size_t mask = flights_.size() - 1;
  std::size_t i = hash_slot(k);
  while (true) {
    Flight& f = flights_[i];
    if (f.state == 0) return nullptr;
    if (f.state == 1 && f.key == k) return &f;
    i = (i + 1) & mask;
  }
}

SpanTrace* SpanRecorder::insert_flight(std::uint64_t k) {
  // Keep fill (live + tombstones) under 3/4 so probes terminate quickly;
  // a same-size rehash purges tombstones when the live load is still low.
  if (flight_fill_ * 4 >= flights_.size() * 3) {
    rehash_flights(flight_count_ * 2 >= flights_.size() ? flights_.size() * 2
                                                        : flights_.size());
  }
  const std::size_t mask = flights_.size() - 1;
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t free_slot = npos;
  std::size_t i = hash_slot(k);
  while (true) {
    Flight& f = flights_[i];
    if (f.state == 0) break;
    if (f.state == 2) {
      if (free_slot == npos) free_slot = i;
    } else if (f.key == k) {
      return &f.t;  // key reuse: replace the existing flight in place
    }
    i = (i + 1) & mask;
  }
  if (free_slot == npos) {
    free_slot = i;  // consumed an empty slot (reusing a tombstone is free)
    ++flight_fill_;
  }
  Flight& f = flights_[free_slot];
  f.key = k;
  f.state = 1;
  ++flight_count_;
  ++live_[filter_bucket(k)];
  return &f.t;
}

void SpanRecorder::erase_flight(Flight& f) {
  --flight_count_;
  --live_[filter_bucket(f.key)];
  const std::size_t mask = flights_.size() - 1;
  auto i = static_cast<std::size_t>(&f - flights_.data());
  if (flights_[(i + 1) & mask].state != 0) {
    f.state = 2;  // a probe chain may run on past this slot
    return;
  }
  // No probe continues past an empty successor, so this slot and the run
  // of tombstones just before it can be empty again; tombstones then
  // cannot pile up under insert/erase churn and force purge rehashes.
  do {
    flights_[i].state = 0;
    --flight_fill_;
    i = (i - 1) & mask;
  } while (flights_[i].state == 2);
}

void SpanRecorder::rehash_flights(std::size_t new_slots) {
  std::vector<Flight> old = std::move(flights_);
  flights_.assign(new_slots, Flight{});
  shift_ = 64;
  for (std::size_t s = new_slots; s > 1; s >>= 1) --shift_;
  flight_fill_ = flight_count_;
  const std::size_t mask = new_slots - 1;
  for (Flight& f : old) {
    if (f.state != 1) continue;
    std::size_t i = hash_slot(f.key);
    while (flights_[i].state == 1) i = (i + 1) & mask;
    flights_[i] = std::move(f);
  }
}

bool SpanRecorder::begin_slow(std::uint32_t src_node, std::uint32_t src_ep,
                              std::uint64_t msg_id, std::int64_t t_ns) {
  if (flight_count_ >= kMaxInflight) return false;
  const std::uint64_t k = key(src_node, src_ep, msg_id);
  SpanTrace* t = insert_flight(k);
  t->node = src_node;
  t->ep = src_ep;
  t->msg_id = msg_id;
  t->at.fill(-1);
  t->at[static_cast<unsigned>(SpanPoint::kEnqueue)] = t_ns;
  t->edge_count = 0;  // slots are recycled: reset the mutable fields
  t->retransmits = 0;
  t->wire_hops = 0;
  t->returned = false;
  t->complete = false;
  ++tracked_;
  tracked_c_.inc();
  return true;
}

void SpanRecorder::point_slow(std::uint64_t k, SpanPoint p,
                              std::int64_t t_ns) {
  Flight* f = find_flight(k);
  if (!f) return;
  std::int64_t& slot = f->t.at[static_cast<unsigned>(p)];
  if (slot < 0) slot = t_ns;
}

void SpanRecorder::edge_slow(std::uint64_t k, SpanEdge::Kind kind,
                             std::int64_t t_ns, std::int32_t arg) {
  Flight* f = find_flight(k);
  if (!f) return;
  SpanTrace& t = f->t;
  if (kind == SpanEdge::Kind::kRetransmit) ++t.retransmits;
  if (t.edge_count < SpanTrace::kMaxEdges) {
    t.edges[t.edge_count++] = SpanEdge{kind, t_ns, arg};
  }
}

void SpanRecorder::hops_slow(std::uint64_t k, std::uint8_t hops) {
  Flight* f = find_flight(k);
  if (!f) return;
  if (hops > f->t.wire_hops) f->t.wire_hops = hops;
}

void SpanRecorder::finish_slow(std::uint64_t k, std::int64_t t_ns) {
  Flight* f = find_flight(k);
  if (!f) return;
  std::int64_t& done = f->t.at[static_cast<unsigned>(SpanPoint::kHandlerDone)];
  if (done < 0) done = t_ns;
  f->t.complete = true;
  ++completed_;
  completed_c_.inc();
  commit(std::move(f->t));
  erase_flight(*f);
}

void SpanRecorder::drop_slow(std::uint64_t k, std::int64_t t_ns,
                             std::int32_t reason) {
  Flight* f = find_flight(k);
  if (!f) return;
  SpanTrace& t = f->t;
  if (t.edge_count < SpanTrace::kMaxEdges) {
    t.edges[t.edge_count++] =
        SpanEdge{SpanEdge::Kind::kReturnToSender, t_ns, reason};
  }
  t.returned = true;
  returned_c_.inc();
  commit(std::move(t));
  erase_flight(*f);
}

void SpanRecorder::commit(SpanTrace&& t) {
  const std::uint64_t rk = (static_cast<std::uint64_t>(t.node) << 32) | t.ep;
  EpRing& r = rings_[rk];
  if (t.complete && !t.returned) fold(r, t);
  if (r.ring.size() < ring_capacity_) {
    r.ring.push_back(std::move(t));
    return;
  }
  r.ring[r.head] = std::move(t);
  r.head = (r.head + 1) % ring_capacity_;
  ++overwritten_;
  overwritten_c_.inc();
}

void SpanRecorder::fold(EpRing& r, const SpanTrace& t) {
  // Handles are bound on the endpoint's first fold (an unbound or
  // never-recorded handle counts 0; registration is idempotent), so only
  // endpoints with completed traces get histograms.
  if (r.e2e.count() == 0) {
    const std::string prefix = "host." + std::to_string(t.node) + ".ep." +
                               std::to_string(t.ep) + ".span.";
    for (unsigned i = 0; i < kSpanStageCount; ++i) {
      r.stage[i] = reg_->histogram(prefix + kStageNames[i]);
    }
    r.e2e = reg_->histogram(prefix + "e2e");
  }
  // Every stage is recorded (0 where the message skipped it, e.g. the wire
  // for local delivery), so per-stage means sum exactly to the e2e mean.
  const auto cp = t.critical_path();
  for (unsigned i = 0; i < kSpanStageCount; ++i) {
    r.stage[i].record(static_cast<double>(cp[i]));
  }
  r.e2e.record(static_cast<double>(t.e2e_ns()));
}

std::vector<SpanTrace> SpanRecorder::collect() const {
  std::vector<SpanTrace> out;
  for (const auto& [k, r] : rings_) {
    const std::size_t n = r.ring.size();
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(r.ring[(r.head + i) % n]);
    }
  }
  return out;
}

void SpanRecorder::clear() {
  for (Flight& f : flights_) f.state = 0;
  flight_count_ = 0;
  flight_fill_ = 0;
  rings_.clear();
  live_.fill(0);
}

// -------------------------------------------------------- stage summary

double SpanStageSummary::stage_sum_mean_ns() const {
  double s = 0;
  for (const HistogramData& h : stages) s += h.mean();
  return s;
}

SpanStageSummary summarize_span_stages(const Snapshot& snap) {
  SpanStageSummary out;
  for (const auto& [name, data] : snap.histograms) {
    const std::size_t pos = name.find(".span.");
    if (pos == std::string::npos) continue;
    const std::string leaf = name.substr(pos + 6);
    if (leaf == "e2e") {
      out.e2e.merge(data);
      continue;
    }
    for (unsigned i = 0; i < kSpanStageCount; ++i) {
      if (leaf == kStageNames[i]) {
        out.stages[i].merge(data);
        break;
      }
    }
  }
  return out;
}

std::string render_span_stages(const Snapshot& snap) {
  const SpanStageSummary s = summarize_span_stages(snap);
  if (s.e2e.count == 0) return {};
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line), "%-14s %8s %9s %9s %9s %9s\n", "stage",
                "count", "mean_us", "p50_us", "p95_us", "max_us");
  out += line;
  auto row = [&](const char* name, const HistogramData& h) {
    std::snprintf(line, sizeof(line),
                  "%-14s %8llu %9.3f %9.3f %9.3f %9.3f\n", name,
                  static_cast<unsigned long long>(h.count), h.mean() / 1e3,
                  h.quantile(0.5) / 1e3, h.quantile(0.95) / 1e3,
                  h.max_seen / 1e3);
    out += line;
  };
  for (unsigned i = 0; i < kSpanStageCount; ++i) {
    row(kStageNames[i], s.stages[i]);
  }
  row("e2e", s.e2e);
  const double sum = s.stage_sum_mean_ns();
  const double e2e = s.e2e.mean();
  const double delta = e2e > 0 ? (sum - e2e) / e2e * 100.0 : 0.0;
  std::snprintf(line, sizeof(line),
                "stage sum of means %.3f us vs measured e2e mean %.3f us "
                "(delta %+.2f%%)\n",
                sum / 1e3, e2e / 1e3, delta);
  out += line;
  return out;
}

// -------------------------------------------------------------- TailReport

double TailReport::p50_recon_err() const {
  if (p50_e2e_mean_ns <= 0) return 0.0;
  return std::fabs(p50_stage_sum_ns - p50_e2e_mean_ns) / p50_e2e_mean_ns;
}

double TailReport::tail_recon_err() const {
  if (tail_e2e_mean_ns <= 0) return 0.0;
  return std::fabs(tail_stage_sum_ns - tail_e2e_mean_ns) / tail_e2e_mean_ns;
}

TailReport tail_report(const std::vector<SpanTrace>& traces) {
  TailReport r;

  // Keep complete, non-returned traces; order them by e2e ascending.
  std::vector<const SpanTrace*> done;
  done.reserve(traces.size());
  for (const SpanTrace& t : traces) {
    if (t.complete && !t.returned) {
      done.push_back(&t);
    } else {
      ++r.excluded;
    }
  }
  r.total = done.size();
  if (done.empty()) return r;
  std::stable_sort(done.begin(), done.end(),
                   [](const SpanTrace* a, const SpanTrace* b) {
                     return a->e2e_ns() < b->e2e_ns();
                   });

  std::vector<double> e2e;
  e2e.reserve(done.size());
  for (const SpanTrace* t : done) e2e.push_back(double(t->e2e_ns()));
  r.e2e_p50_ns = exact_quantile(e2e, 0.50);
  r.e2e_p99_ns = exact_quantile(e2e, 0.99);
  r.e2e_p999_ns = exact_quantile(e2e, 0.999);
  r.e2e_max_ns = e2e.back();

  // Cohorts: the slowest 1% (at least one trace) vs. the p25–p75 band.
  const std::size_t n = done.size();
  r.tail_count = std::max<std::size_t>(1, n / 100);
  const std::size_t p25 = n / 4;
  const std::size_t p75 = std::max(p25 + 1, (3 * n) / 4);

  auto accumulate = [&](std::size_t lo, std::size_t hi,
                        std::array<double, kSpanStageCount>& stage_mean,
                        double& e2e_mean, double& stage_sum,
                        std::uint64_t& retx, double& hops) {
    const double m = static_cast<double>(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) {
      const SpanTrace* t = done[i];
      const auto cp = t->critical_path();
      for (unsigned s = 0; s < kSpanStageCount; ++s) {
        stage_mean[s] += static_cast<double>(cp[s]) / m;
      }
      e2e_mean += static_cast<double>(t->e2e_ns()) / m;
      retx += t->retransmits;
      hops += static_cast<double>(t->wire_hops) / m;
    }
    for (unsigned s = 0; s < kSpanStageCount; ++s) stage_sum += stage_mean[s];
  };

  std::array<double, kSpanStageCount> p50_stage{}, tail_stage{};
  r.p50_count = p75 - p25;
  accumulate(p25, p75, p50_stage, r.p50_e2e_mean_ns, r.p50_stage_sum_ns,
             r.p50_retransmits, r.p50_wire_hops);
  accumulate(n - r.tail_count, n, tail_stage, r.tail_e2e_mean_ns,
             r.tail_stage_sum_ns, r.tail_retransmits, r.tail_wire_hops);

  const double widen = r.tail_e2e_mean_ns - r.p50_e2e_mean_ns;
  for (unsigned s = 0; s < kSpanStageCount; ++s) {
    r.stages[s].p50_ns = p50_stage[s];
    r.stages[s].tail_ns = tail_stage[s];
    r.stages[s].delta_ns = tail_stage[s] - p50_stage[s];
    r.stages[s].share = widen > 0 ? r.stages[s].delta_ns / widen : 0.0;
  }
  for (unsigned s = 0; s < kSpanStageCount; ++s) r.culprits[s] = s;
  std::stable_sort(r.culprits.begin(), r.culprits.end(),
                   [&](unsigned a, unsigned b) {
                     return r.stages[a].delta_ns > r.stages[b].delta_ns;
                   });
  return r;
}

std::string render_tail_report(const TailReport& r) {
  if (r.total == 0) return "";
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "span tail profile: %zu spans (%zu tail, %zu median cohort"
                ", %zu excluded)\n",
                r.total, r.tail_count, r.p50_count, r.excluded);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  e2e p50 %s us   p99 %s us   p99.9 %s us   max %s us\n",
                format_us(r.e2e_p50_ns).c_str(),
                format_us(r.e2e_p99_ns).c_str(),
                format_us(r.e2e_p999_ns).c_str(),
                format_us(r.e2e_max_ns).c_str());
  out += buf;
  std::snprintf(buf, sizeof(buf), "  %-18s %12s %12s %12s %7s\n", "stage",
                "p50-cohort", "tail-cohort", "delta(us)", "share");
  out += buf;
  for (unsigned s = 0; s < kSpanStageCount; ++s) {
    std::string label = span_stage_name(s);
    label += span_stage_is_wait(s) ? " (wait)" : " (svc)";
    std::snprintf(buf, sizeof(buf), "  %-18s %12s %12s %12s %6.1f%%\n",
                  label.c_str(), format_us(r.stages[s].p50_ns).c_str(),
                  format_us(r.stages[s].tail_ns).c_str(),
                  format_us(r.stages[s].delta_ns).c_str(),
                  100.0 * r.stages[s].share);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "  %-18s %12s %12s\n", "stage sum",
                format_us(r.p50_stage_sum_ns).c_str(),
                format_us(r.tail_stage_sum_ns).c_str());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  %-18s %12s %12s   (recon err %.2f%% / %.2f%%)\n",
                "e2e mean", format_us(r.p50_e2e_mean_ns).c_str(),
                format_us(r.tail_e2e_mean_ns).c_str(),
                100.0 * r.p50_recon_err(), 100.0 * r.tail_recon_err());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  retransmits: %llu in tail cohort vs %llu in p50 cohort;"
                " mean wire hops %.2f vs %.2f\n",
                static_cast<unsigned long long>(r.tail_retransmits),
                static_cast<unsigned long long>(r.p50_retransmits),
                r.tail_wire_hops, r.p50_wire_hops);
  out += buf;
  out += "  top p99 culprits:";
  for (unsigned i = 0; i < 3 && i < kSpanStageCount; ++i) {
    const unsigned s = r.culprits[i];
    std::snprintf(buf, sizeof(buf), "%s %s (+%s us, %.0f%%)", i ? "," : "",
                  span_stage_name(s), format_us(r.stages[s].delta_ns).c_str(),
                  100.0 * r.stages[s].share);
    out += buf;
  }
  out += '\n';
  return out;
}

std::string render_tail_report(const SpanRecorder& rec) {
  return render_tail_report(tail_report(rec.collect()));
}

}  // namespace vnet::obs
