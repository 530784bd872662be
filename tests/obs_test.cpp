// Unit tests for the vnet::obs observability layer: metric registration /
// snapshot / diff semantics, histogram quantiles, table rendering, Chrome
// trace export of spans and Sampler windows (round-tripped through a JSON
// parser), and whole-stack determinism (same seed => identical snapshots
// and traces).

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "am/endpoint.hpp"
#include "cluster/cluster.hpp"
#include "cluster/config.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/span.hpp"

namespace vnet::obs {
namespace {

// ------------------------------------------------------------ registry

TEST(Metrics, CounterRegistrationIsIdempotent) {
  MetricsRegistry reg;
  Counter a = reg.counter("host.0.nic.retransmissions");
  Counter b = reg.counter("host.0.nic.retransmissions");
  a.inc();
  b.inc(2);
  // Same name => same cell: both handles see the combined count.
  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(reg.snapshot().counter("host.0.nic.retransmissions"), 3u);
}

TEST(Metrics, UnboundHandlesAreNoOps) {
  Counter c;
  Gauge g;
  Histogram h;
  c.inc();
  g.set(5.0);
  h.record(1.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(Metrics, SnapshotAndDiff) {
  MetricsRegistry reg;
  Counter c = reg.counter("a.events");
  Gauge g = reg.gauge("a.level");
  c.inc(10);
  g.set(3.0);
  const Snapshot before = reg.snapshot(1000);
  c.inc(7);
  g.set(9.0);
  const Snapshot after = reg.snapshot(2500);

  const Snapshot d = diff(after, before);
  EXPECT_EQ(d.at_ns, 1500);
  EXPECT_EQ(d.counter("a.events"), 7u);   // counters subtract
  EXPECT_EQ(d.gauge("a.level"), 9.0);     // gauges keep the newer level
  EXPECT_EQ(d.counter("missing"), 0u);
}

TEST(Metrics, SumCountersByPrefixAndSuffix) {
  MetricsRegistry reg;
  reg.counter("host.0.nic.retransmissions").inc(2);
  reg.counter("host.1.nic.retransmissions").inc(3);
  reg.counter("host.1.nic.timeouts").inc(100);
  reg.counter("fabric.link.a.retransmissions").inc(50);
  const Snapshot s = reg.snapshot();
  EXPECT_EQ(s.sum_counters("host.", ".nic.retransmissions"), 5u);
  EXPECT_EQ(s.sum_counters("host."), 105u);
  EXPECT_EQ(s.sum_counters("", ".retransmissions"), 55u);
}

TEST(Metrics, PullCallbacksAndRemoval) {
  MetricsRegistry reg;
  std::uint64_t external = 42;
  reg.counter_fn("fabric.link.x.packets_tx", [&] { return external; });
  reg.gauge_fn("fabric.switch.0.queue_watermark", [] { return 7.0; });
  Snapshot s = reg.snapshot();
  EXPECT_EQ(s.counter("fabric.link.x.packets_tx"), 42u);
  EXPECT_EQ(s.gauge("fabric.switch.0.queue_watermark"), 7.0);

  external = 50;
  EXPECT_EQ(reg.snapshot().counter("fabric.link.x.packets_tx"), 50u);

  // After removal the callbacks are gone (and never again sampled — the
  // component they read from may be destroyed).
  reg.remove_fn_prefix("fabric.");
  s = reg.snapshot();
  EXPECT_EQ(s.counters.count("fabric.link.x.packets_tx"), 0u);
  EXPECT_EQ(s.gauges.count("fabric.switch.0.queue_watermark"), 0u);
}

// ----------------------------------------------------------- histogram

TEST(Metrics, HistogramStatsAndQuantiles) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("host.0.nic.rtt_ns");
  for (int i = 0; i < 100; ++i) h.record(8.0);
  const Snapshot s = reg.snapshot();
  const HistogramData* d = s.histogram("host.0.nic.rtt_ns");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->count, 100u);
  EXPECT_DOUBLE_EQ(d->mean(), 8.0);
  EXPECT_DOUBLE_EQ(d->min_seen, 8.0);
  EXPECT_DOUBLE_EQ(d->max_seen, 8.0);
  // Every sample is 8.0, so the interpolated estimate is clamped to the
  // observed [min_seen, max_seen] range and comes back exact.
  EXPECT_DOUBLE_EQ(d->quantile(0.5), 8.0);
  EXPECT_DOUBLE_EQ(d->quantile(0.99), 8.0);
}

TEST(Metrics, HistogramQuantileOrdersBuckets) {
  HistogramData d;
  for (int i = 0; i < 90; ++i) d.record(2.0);     // sub-bucket [2, 2.0625)
  for (int i = 0; i < 10; ++i) d.record(1000.0);  // sub-bucket [992, 1008)
  // Sub-bucketed sketch: estimates land within the 1/32-wide sub-bucket of
  // the true value (<= ~1.6% relative error), not at a power-of-two midpoint.
  EXPECT_NEAR(d.quantile(0.5), 2.0, 2.0 * 0.05);
  EXPECT_NEAR(d.quantile(0.95), 1000.0, 1000.0 * 0.05);
  EXPECT_NEAR(d.quantile(0.0), 2.0, 2.0 * 0.01);
  EXPECT_GE(d.quantile(0.0), 2.0);  // clamped to min_seen
}

TEST(Metrics, HistogramQuantileEdgeCases) {
  // Empty histogram: every quantile is 0, not NaN or a crash.
  HistogramData empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(1.0), 0.0);

  // Single sample: every quantile is that sample (clamped to min==max).
  HistogramData one;
  one.record(7.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(one.quantile(1.0), 7.0);

  // Bucket 0 holds [0, 1): sub-unit samples interpolate inside it and the
  // estimates stay clamped to the observed [0, 0.5] range.
  HistogramData tiny;
  tiny.record(0.0);
  tiny.record(0.5);
  EXPECT_GE(tiny.quantile(0.0), 0.0);
  EXPECT_LE(tiny.quantile(0.0), 0.5);
  EXPECT_GE(tiny.quantile(1.0), 0.0);
  EXPECT_LE(tiny.quantile(1.0), 0.5 + 1e-12);

  // Out-of-range q is clamped rather than reading past the mass.
  EXPECT_DOUBLE_EQ(one.quantile(-0.5), 7.0);
  EXPECT_DOUBLE_EQ(one.quantile(1.5), 7.0);
}

TEST(Metrics, HistogramQuantileOnDiffedWindow) {
  // A diffed window can be empty (count diffs to zero) while min/max carry
  // the cumulative values — quantile must return 0, not min_seen garbage.
  MetricsRegistry reg;
  Histogram h = reg.histogram("x");
  h.record(4.0);
  const Snapshot a = reg.snapshot();
  const Snapshot b = reg.snapshot();
  const Snapshot zero = diff(b, a);
  const HistogramData* zd = zero.histogram("x");
  ASSERT_NE(zd, nullptr);
  EXPECT_EQ(zd->count, 0u);
  EXPECT_DOUBLE_EQ(zd->quantile(0.5), 0.0);

  // A diffed window whose samples all fall in one sub-bucket stays within
  // the clamp range even though min/max are cumulative, not per-window.
  h.record(100.0);
  h.record(100.0);
  const Snapshot c = reg.snapshot();
  const Snapshot win = diff(c, b);
  const HistogramData* wd = win.histogram("x");
  ASSERT_NE(wd, nullptr);
  EXPECT_EQ(wd->count, 2u);
  EXPECT_NEAR(wd->quantile(0.99), 100.0, 100.0 * 0.05);
}

TEST(Metrics, HistogramQuantileWithinFivePercentOfExact) {
  // Golden accuracy check for the sub-bucketed sketch: against an exact
  // sorted-sample computation over a deterministic heavy-tailed set, every
  // tracked quantile through p99.9 must be within 5% relative error.
  std::vector<double> samples;
  std::uint64_t x = 0x2545F4914F6CDD1Dull;
  for (int i = 0; i < 20000; ++i) {
    // xorshift64* — deterministic pseudo-random draw in [0, 1).
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    const double u =
        static_cast<double>((x * 0x2545F4914F6CDD1Dull) >> 11) / 9007199254740992.0;
    // Heavy tail: mostly ~1e3, a long tail out to ~1e6.
    samples.push_back(1e3 + 1e6 * u * u * u * u);
  }
  HistogramData d;
  for (double s : samples) d.record(s);

  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  auto exact = [&](double q) {
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  };
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const double want = exact(q);
    EXPECT_NEAR(d.quantile(q), want, want * 0.05) << "q=" << q;
  }
}

TEST(Metrics, HistogramDiffSubtractsCounts) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("x");
  h.record(4.0);
  h.record(4.0);
  const Snapshot before = reg.snapshot();
  h.record(4.0);
  const Snapshot after = reg.snapshot();
  const Snapshot d = diff(after, before);
  const HistogramData* hd = d.histogram("x");
  ASSERT_NE(hd, nullptr);
  EXPECT_EQ(hd->count, 1u);
  EXPECT_DOUBLE_EQ(hd->sum, 4.0);
}

// ---------------------------------------------------------- render_table

TEST(Metrics, RenderTablePivotsRowsAndColumns) {
  MetricsRegistry reg;
  reg.counter("fabric.link.h0->sw.packets_tx").inc(12);
  reg.counter("fabric.link.h0->sw.drops_down").inc(0);
  reg.counter("fabric.link.sw->h0.packets_tx").inc(9);
  reg.counter("fabric.link.idle.packets_tx");  // all-zero row
  const std::string table = render_table(reg.snapshot(), "fabric.link");

  EXPECT_NE(table.find("packets_tx"), std::string::npos);  // column header
  EXPECT_NE(table.find("h0->sw"), std::string::npos);      // row label
  EXPECT_NE(table.find("12"), std::string::npos);
  EXPECT_EQ(table.find("idle"), std::string::npos);  // zero row skipped

  const std::string all = render_table(reg.snapshot(), "fabric.link",
                                       /*skip_zero_rows=*/false);
  EXPECT_NE(all.find("idle"), std::string::npos);
}

// --------------------------------------------------- minimal JSON parser
//
// Enough of RFC 8259 to round-trip the exporter's output: validates the
// whole document and records the size of the top-level "traceEvents" array.

class JsonParser {
 public:
  explicit JsonParser(std::string s) : s_(std::move(s)) {}

  bool parse() {
    skip_ws();
    if (!value(/*depth=*/0)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

  int trace_events() const { return trace_events_; }

 private:
  bool value(int depth) {
    if (depth > 64 || pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object(depth);
      case '[':
        return array(depth, nullptr);
      case '"':
        return string(nullptr);
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object(int depth) {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    for (;;) {
      skip_ws();
      std::string key;
      if (!string(&key)) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (depth == 0 && key == "traceEvents" && peek() == '[') {
        int n = 0;
        if (!array(depth + 1, &n)) return false;
        trace_events_ = n;
      } else {
        if (!value(depth + 1)) return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool array(int depth, int* count) {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!value(depth + 1)) return false;
      if (count != nullptr) ++*count;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool string(std::string* out) {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        pos_ += 2;
        continue;
      }
      if (out != nullptr) out->push_back(s_[pos_]);
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* lit) {
    const std::string_view want(lit);
    if (s_.compare(pos_, want.size(), want) != 0) return false;
    pos_ += want.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string s_;
  std::size_t pos_ = 0;
  int trace_events_ = 0;
};

// ------------------------------------------------- Chrome trace export

std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(Trace, ExportRoundTripsThroughJsonParse) {
  // A delivered message: every boundary present, the doorbell gate
  // skipped (zero-length), sub-microsecond boundary times.
  SpanTrace done;
  done.node = 0;
  done.ep = 1;
  done.msg_id = 7;
  const std::int64_t at[kSpanPointCount] = {1500, 2000, 2000, 2250, 3000,
                                            8000, 8500, 9000, 9400};
  for (unsigned i = 0; i < kSpanPointCount; ++i) done.at[i] = at[i];
  done.complete = true;
  // A returned message: retransmitted once, then returned to its sender
  // after its last boundary.
  SpanTrace returned;
  returned.node = 2;
  returned.ep = 0;
  returned.msg_id = 8;
  returned.at.fill(-1);
  returned.at[0] = 0;
  returned.at[1] = 100;
  returned.at[3] = 300;
  returned.at[4] = 400;
  returned.edges[0] = {SpanEdge::Kind::kRetransmit, 5000, 1};
  returned.edges[1] = {SpanEdge::Kind::kReturnToSender, 9000, 2};
  returned.edge_count = 2;
  returned.returned = true;

  MetricsRegistry reg;
  Counter c = reg.counter("wire \"rx\"\n");  // exercise escaping
  Sampler sampler(reg, {});
  sampler.sample(0);
  c.inc(3);
  sampler.sample(1000);
  c.inc();
  sampler.sample(2000);

  const std::string json = chrome_trace_json({done, returned}, &sampler);
  JsonParser p(json);
  ASSERT_TRUE(p.parse()) << json;
  // 2 node rows; done: msg b/e + 7 non-zero stages; returned: msg b/e +
  // 3 non-zero stages + 2 edges; sampler row + 1 column x 2 windows.
  EXPECT_EQ(p.trace_events(), 2 + (2 + 14) + (2 + 6 + 2) + (1 + 2)) << json;
  EXPECT_EQ(count_of(json, "\"ph\":\"b\",\"name\":\"msg "), 2u);
  EXPECT_EQ(count_of(json, "\"name\":\"process_name\""), 3u);
  // Only the returned trace's gate (100 -> 300) has a slice; the delivered
  // trace's is zero-length.
  EXPECT_EQ(count_of(json, "\"name\":\"doorbell_gate\""), 2u);
  EXPECT_EQ(count_of(json, "\"name\":\"retransmit\""), 1u);
  EXPECT_EQ(count_of(json, "\"name\":\"return_to_sender\""), 1u);
  EXPECT_EQ(count_of(json, "\"ph\":\"C\""), 2u);
  // Sub-microsecond times survive as fractional microseconds.
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  // The async id is SpanRecorder::key; the returned slice ends at its
  // return edge, past its last boundary.
  EXPECT_NE(json.find("\"ph\":\"e\",\"name\":\"msg 8\",\"pid\":2,\"tid\":0,"
                      "\"ts\":9.000,\"cat\":\"msg\",\"id\":\"0x2000000000008\""),
            std::string::npos)
      << json;
}

TEST(Trace, EmptyInputGivesValidEmptyTrace) {
  MetricsRegistry reg;
  SpanRecorder rec(reg);  // sampling off: records nothing
  rec.begin(0, 0, 1, 0);
  rec.finish(SpanRecorder::key(0, 0, 1), 10);
  Sampler sampler(reg, {});
  sampler.sample(0);  // baseline only: no window
  const std::string json = chrome_trace_json(rec.collect(), &sampler);
  JsonParser p(json);
  EXPECT_TRUE(p.parse()) << json;
  EXPECT_EQ(p.trace_events(), 0);
}

// ----------------------------------------------- whole-stack integration

struct RunArtifacts {
  std::map<std::string, std::uint64_t> counters;
  std::string trace_json;
  std::uint64_t handled = 0;
};

// A 2-node request/reply workload with every message's span captured and
// the registry sampled every 100 us; returns everything an identical run
// must reproduce exactly.
RunArtifacts traced_ping_pong() {
  RunArtifacts out;
  cluster::Cluster cl(cluster::NowConfig(2));
  cl.engine().spans().set_sample_interval(1);
  Sampler sampler(cl.engine().metrics(), {100 * sim::us, {"host."}});
  sampler.sample(cl.engine().now());
  cl.engine().every(100 * sim::us, [&] {
    sampler.sample(cl.engine().now());
    return !cl.all_threads_done();
  });

  struct Shared {
    am::Name server;
    std::uint64_t got_request = 0;
    std::uint64_t got_reply = 0;
  };
  auto sh = std::make_shared<Shared>();

  cl.spawn_thread(1, "server", [sh](host::HostThread& t) -> sim::Task<> {
    auto ep = co_await am::Endpoint::create(t, 0xbeef);
    ep->set_handler(1, [sh](am::Endpoint&, const am::Message& m) {
      sh->got_request = m.arg(0);
      m.reply(2, {m.arg(0) + 1});
    });
    sh->server = ep->name();
    while (sh->got_request == 0) {
      co_await ep->wait_events(t, am::kEventArrivals);
      co_await ep->poll(t);
    }
    co_await t.sleep(1 * sim::ms);
    co_await ep->destroy(t);
  });

  cl.spawn_thread(0, "client", [sh](host::HostThread& t) -> sim::Task<> {
    auto ep = co_await am::Endpoint::create(t, 0xcafe);
    ep->set_handler(2, [sh](am::Endpoint&, const am::Message& m) {
      sh->got_reply = m.arg(0);
    });
    while (!sh->server.valid()) co_await t.sleep(10 * sim::us);
    ep->map(0, sh->server);
    co_await ep->request(t, 0, 1, 41);
    while (sh->got_reply == 0) co_await ep->poll(t);
    co_await ep->destroy(t);
  });

  cl.run_to_completion();
  const Snapshot snap = cl.engine().snapshot();
  out.counters = snap.counters;
  out.trace_json = chrome_trace_json(cl.engine().spans().collect(), &sampler);
  out.handled = snap.sum_counters("host.", ".messages_handled");
  return out;
}

TEST(ObsIntegration, RegistrySeesWholeStack) {
  cluster::Cluster cl(cluster::NowConfig(2));

  struct Shared {
    am::Name server;
    std::uint64_t got_request = 0;
    std::uint64_t got_reply = 0;
  };
  auto sh = std::make_shared<Shared>();

  cl.spawn_thread(1, "server", [sh](host::HostThread& t) -> sim::Task<> {
    auto ep = co_await am::Endpoint::create(t, 1);
    ep->set_handler(1, [sh](am::Endpoint&, const am::Message& m) {
      sh->got_request = m.arg(0);
      m.reply(2, {m.arg(0) + 1});
    });
    sh->server = ep->name();
    while (sh->got_request == 0) {
      co_await ep->wait_events(t, am::kEventArrivals);
      co_await ep->poll(t);
    }
    co_await t.sleep(1 * sim::ms);
    co_await ep->destroy(t);
  });
  cl.spawn_thread(0, "client", [sh](host::HostThread& t) -> sim::Task<> {
    auto ep = co_await am::Endpoint::create(t, 2);
    ep->set_handler(2, [sh](am::Endpoint&, const am::Message& m) {
      sh->got_reply = m.arg(0);
    });
    while (!sh->server.valid()) co_await t.sleep(10 * sim::us);
    ep->map(0, sh->server);
    co_await ep->request(t, 0, 1, 41);
    while (sh->got_reply == 0) co_await ep->poll(t);

    // Every layer publishes into the one registry namespace.
    const Snapshot snap = t.engine().snapshot();
    const std::string prefix =
        "host.0.ep." + std::to_string(ep->name().ep) + ".";
    EXPECT_EQ(snap.counter(prefix + "requests_sent"), 1u);
    EXPECT_EQ(snap.counter(prefix + "messages_handled"), 1u);
    EXPECT_GE(snap.counter("host.0.nic.data_sent"), 1u);
    EXPECT_GE(snap.counter("host.0.driver.remaps"), 1u);
    co_await ep->destroy(t);
  });

  cl.run_to_completion();
  const Snapshot snap = cl.engine().snapshot();
  EXPECT_GE(snap.sum_counters("host.", ".requests_sent"), 1u);
  EXPECT_GE(snap.sum_counters("fabric.link.", ".packets_tx"), 1u);
  EXPECT_GE(snap.counter("sim.events_processed"), 1u);
  EXPECT_GE(snap.counter("host.0.driver.endpoints_created"), 1u);
}

TEST(ObsIntegration, SameSeedRunsProduceIdenticalSnapshotsAndTraces) {
  const RunArtifacts a = traced_ping_pong();
  const RunArtifacts b = traced_ping_pong();
  EXPECT_EQ(a.handled, b.handled);
  EXPECT_GT(a.handled, 0u);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.trace_json, b.trace_json);

  JsonParser p(a.trace_json);
  ASSERT_TRUE(p.parse());
  EXPECT_GT(p.trace_events(), 0);
  // The request and its reply, one async message slice each.
  EXPECT_EQ(count_of(a.trace_json, "\"ph\":\"b\",\"name\":\"msg "), 2u);
  EXPECT_GT(count_of(a.trace_json, "\"ph\":\"C\""), 0u);
}

}  // namespace
}  // namespace vnet::obs
