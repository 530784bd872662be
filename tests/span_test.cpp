// Tests for the causal span stack (DESIGN.md §8, §12): the SpanRecorder
// flight recorder, its per-endpoint rings and `span.*` histograms,
// critical-path extraction (stage sums telescope to e2e even with missing
// boundaries), the differential tail profiler's cohort math and rendering,
// and the end-to-end capture of real ping-pong and bandwidth runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "apps/bandwidth.hpp"
#include "apps/logp.hpp"
#include "cluster/config.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/time.hpp"

namespace vnet::obs {
namespace {

// Builds a complete synthetic trace with every boundary present and the
// given per-stage durations starting at `t0`.
SpanTrace make_trace(std::uint32_t node, std::uint32_t ep, std::uint64_t id,
                     std::int64_t t0,
                     const std::array<std::int64_t, kSpanStageCount>& stages) {
  SpanTrace t;
  t.node = node;
  t.ep = ep;
  t.msg_id = id;
  std::int64_t at = t0;
  for (unsigned i = 0; i < kSpanPointCount; ++i) {
    t.at[i] = at;
    if (i < kSpanStageCount) at += stages[i];
  }
  t.complete = true;
  return t;
}

// ------------------------------------------------------------ SpanRecorder

TEST(Span, SamplingIntervalAdmitsOneInN) {
  MetricsRegistry reg;
  SpanRecorder rec(reg);
  EXPECT_FALSE(rec.enabled());
  EXPECT_FALSE(rec.begin(0, 1, 99, 10));  // disabled: nothing tracked

  rec.set_sample_interval(3);
  int admitted = 0;
  for (std::uint64_t id = 0; id < 9; ++id) {
    if (rec.begin(0, 1, id, static_cast<std::int64_t>(id))) ++admitted;
  }
  EXPECT_EQ(admitted, 3);
  EXPECT_EQ(rec.tracked(), 3u);
  EXPECT_EQ(rec.inflight(), 3u);
  // The admission counter is published through the registry.
  EXPECT_EQ(reg.snapshot().counter("obs.span.tracked"), 3u);
}

TEST(Span, FirstWinsStampsSurviveRetransmission) {
  MetricsRegistry reg;
  SpanRecorder rec(reg);
  rec.set_sample_interval(1);
  const std::uint64_t k = SpanRecorder::key(2, 5, 7);
  ASSERT_TRUE(rec.begin(2, 5, 7, 100));
  rec.point(k, SpanPoint::kNicPickup, 200);
  rec.point(k, SpanPoint::kNicPickup, 900);  // retransmit re-crosses: ignored
  rec.edge(k, SpanEdge::Kind::kRetransmit, 900, 1);
  rec.finish(k, 1000);

  const auto traces = rec.collect();
  ASSERT_EQ(traces.size(), 1u);
  const SpanTrace& t = traces[0];
  EXPECT_EQ(t.node, 2u);
  EXPECT_EQ(t.ep, 5u);
  EXPECT_EQ(t.msg_id, 7u);
  EXPECT_EQ(t.at[static_cast<unsigned>(SpanPoint::kNicPickup)], 200);
  EXPECT_EQ(t.retransmits, 1u);
  ASSERT_EQ(t.edge_count, 1u);
  EXPECT_EQ(t.edges[0].at_ns, 900);
  EXPECT_TRUE(t.complete);
  EXPECT_EQ(rec.completed(), 1u);
  EXPECT_EQ(rec.inflight(), 0u);
}

// Erasing a flight whose successor slot is empty must not leave a
// tombstone, or steady insert/erase churn fills the table with them and
// every few hundred messages pays a purge rehash.
TEST(Span, InsertEraseChurnKeepsFillNearLiveCount) {
  MetricsRegistry reg;
  SpanRecorder rec(reg);
  rec.set_sample_interval(1);
  constexpr std::uint64_t kLive = 8;  // messages in flight at any time
  std::size_t max_fill = 0;
  for (std::uint64_t id = 0; id < 10'000 + kLive; ++id) {
    if (id < 10'000) ASSERT_TRUE(rec.begin(0, 1, id, 0));
    if (id >= kLive) rec.finish(SpanRecorder::key(0, 1, id - kLive), 1);
    max_fill = std::max(max_fill, rec.inflight_fill());
  }
  EXPECT_EQ(rec.inflight(), 0u);
  EXPECT_EQ(rec.completed(), 10'000u);
  // A tombstone survives only inside a probe chain that ends in a live
  // entry, so fill stays near the live count and drains to zero with it.
  EXPECT_LE(max_fill, 4 * kLive);
  EXPECT_EQ(rec.inflight_fill(), 0u);
}

TEST(Span, EdgeArrayOverflowKeepsCounting) {
  MetricsRegistry reg;
  SpanRecorder rec(reg);
  rec.set_sample_interval(1);
  const std::uint64_t k = SpanRecorder::key(0, 0, 1);
  ASSERT_TRUE(rec.begin(0, 0, 1, 0));
  for (int i = 0; i < 6; ++i) {
    rec.edge(k, SpanEdge::Kind::kRetransmit, 10 * (i + 1), i);
  }
  rec.finish(k, 100);
  const auto traces = rec.collect();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].edge_count, SpanTrace::kMaxEdges);
  EXPECT_EQ(traces[0].retransmits, 6u);  // counted past the inline array
}

TEST(Span, PerEndpointRingOverwritesOldest) {
  MetricsRegistry reg;
  SpanRecorder rec(reg);
  rec.set_sample_interval(1);
  rec.set_ring_capacity(2);
  for (std::uint64_t id = 0; id < 5; ++id) {
    const std::uint64_t k = SpanRecorder::key(1, 1, id);
    ASSERT_TRUE(rec.begin(1, 1, id, static_cast<std::int64_t>(10 * id)));
    rec.finish(k, static_cast<std::int64_t>(10 * id + 5));
  }
  EXPECT_EQ(rec.completed(), 5u);
  EXPECT_EQ(rec.overwritten(), 3u);
  EXPECT_EQ(reg.snapshot().counter("obs.span.overwritten"), 3u);
  const auto traces = rec.collect();
  ASSERT_EQ(traces.size(), 2u);  // newest two retained, oldest first
  EXPECT_EQ(traces[0].msg_id, 3u);
  EXPECT_EQ(traces[1].msg_id, 4u);
}

TEST(Span, CollectOrdersEndpointsDeterministically) {
  MetricsRegistry reg;
  SpanRecorder rec(reg);
  rec.set_sample_interval(1);
  // Commit in scrambled endpoint order; collect() must come back sorted by
  // (node, ep) so two identical runs produce identical vectors.
  for (auto [node, ep, id] : {std::array<std::uint32_t, 3>{3, 1, 30},
                              std::array<std::uint32_t, 3>{0, 2, 2},
                              std::array<std::uint32_t, 3>{0, 1, 1}}) {
    const std::uint64_t k = SpanRecorder::key(node, ep, id);
    ASSERT_TRUE(rec.begin(node, ep, id, 0));
    rec.finish(k, 10);
  }
  const auto traces = rec.collect();
  ASSERT_EQ(traces.size(), 3u);
  EXPECT_EQ(traces[0].msg_id, 1u);
  EXPECT_EQ(traces[1].msg_id, 2u);
  EXPECT_EQ(traces[2].msg_id, 30u);
}

TEST(Span, ReturnedTraceIsCommittedAndFlagged) {
  MetricsRegistry reg;
  SpanRecorder rec(reg);
  rec.set_sample_interval(1);
  const std::uint64_t k = SpanRecorder::key(0, 3, 9);
  ASSERT_TRUE(rec.begin(0, 3, 9, 50));
  rec.point(k, SpanPoint::kWireInject, 80);
  rec.drop_returned(k, 500, /*reason=*/2);

  const auto traces = rec.collect();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_TRUE(traces[0].returned);
  EXPECT_FALSE(traces[0].complete);
  ASSERT_EQ(traces[0].edge_count, 1u);
  EXPECT_EQ(traces[0].edges[0].kind, SpanEdge::Kind::kReturnToSender);
  EXPECT_EQ(traces[0].edges[0].arg, 2);
  EXPECT_EQ(reg.snapshot().counter("obs.span.returned"), 1u);
  // It never reached a handler, so it folds into no latency histogram.
  EXPECT_EQ(reg.snapshot().histogram("host.0.ep.3.span.e2e"), nullptr);
  EXPECT_EQ(render_span_stages(reg.snapshot()), "");
}

// ------------------------------------------------- endpoint histograms

// Stamps boundary i at at[i] (skipping negative entries) and finishes.
void fly(SpanRecorder& rec, std::uint32_t node, std::uint32_t ep,
         std::uint64_t id, const std::array<std::int64_t, kSpanPointCount>& at) {
  const std::uint64_t k = SpanRecorder::key(node, ep, id);
  ASSERT_TRUE(rec.begin(node, ep, id, at[0]));
  for (unsigned i = 1; i + 1 < kSpanPointCount; ++i) {
    if (at[i] >= 0) rec.point(k, static_cast<SpanPoint>(i), at[i]);
  }
  rec.finish(k, at[kSpanPointCount - 1]);
}

TEST(Span, FoldsCompleteTraceIntoEndpointHistograms) {
  MetricsRegistry reg;
  SpanRecorder rec(reg);
  rec.set_sample_interval(1);
  fly(rec, 3, 7, 42, {1000, 1100, 1120, 1150, 1400, 1900, 2200, 2300, 2550});
  // Local delivery on another endpoint: no wire boundaries, so
  // pickup->deposit charges to tx_service and the wire stage records 0.
  fly(rec, 3, 8, 1, {0, 30, 30, 60, -1, -1, 200, 230, 350});

  const Snapshot snap = reg.snapshot(3000);
  const std::pair<const char*, double> wants[] = {
      {"host_enqueue", 100}, {"doorbell_gate", 20}, {"tx_queue", 30},
      {"tx_service", 250},   {"wire", 500},         {"rx_service", 300},
      {"wake", 100},         {"handler", 250},      {"e2e", 1550}};
  for (const auto& [leaf, mean] : wants) {
    const HistogramData* h =
        snap.histogram(std::string("host.3.ep.7.span.") + leaf);
    ASSERT_NE(h, nullptr) << leaf;
    EXPECT_EQ(h->count, 1u) << leaf;
    EXPECT_DOUBLE_EQ(h->mean(), mean) << leaf;
  }

  // Merged across endpoints, every stage counts both messages and the
  // stage means sum exactly to the e2e mean.
  const SpanStageSummary sum = summarize_span_stages(snap);
  for (unsigned i = 0; i < kSpanStageCount; ++i) {
    EXPECT_EQ(sum.stages[i].count, 2u) << span_stage_name(i);
  }
  EXPECT_DOUBLE_EQ(sum.stages[4].mean(), 250.0);  // wire: (500 + 0) / 2
  EXPECT_DOUBLE_EQ(sum.e2e.mean(), 950.0);
  EXPECT_DOUBLE_EQ(sum.stage_sum_mean_ns(), sum.e2e.mean());
  EXPECT_NE(render_span_stages(snap).find("(delta +0.00%)"),
            std::string::npos);
}

// --------------------------------------------------------- critical path

TEST(Span, CriticalPathTelescopesToE2e) {
  const std::array<std::int64_t, kSpanStageCount> stages = {10, 20, 30, 40,
                                                            50, 60, 70, 80};
  const SpanTrace t = make_trace(0, 0, 1, 1000, stages);
  EXPECT_EQ(t.e2e_ns(), 360);
  const auto cp = t.critical_path();
  std::int64_t sum = 0;
  for (unsigned i = 0; i < kSpanStageCount; ++i) {
    EXPECT_EQ(cp[i], stages[i]) << span_stage_name(i);
    sum += cp[i];
  }
  EXPECT_EQ(sum, t.e2e_ns());
}

TEST(Span, CriticalPathChargesGapsToEarlierStage) {
  // Local delivery: the wire boundaries are never crossed. The pickup→
  // deposit gap must charge wholly to tx_service and still telescope.
  SpanTrace t;
  t.at.fill(-1);
  t.at[static_cast<unsigned>(SpanPoint::kEnqueue)] = 0;
  t.at[static_cast<unsigned>(SpanPoint::kDoorbell)] = 10;
  t.at[static_cast<unsigned>(SpanPoint::kNicPickup)] = 25;
  t.at[static_cast<unsigned>(SpanPoint::kRxDeposit)] = 125;
  t.at[static_cast<unsigned>(SpanPoint::kHandlerDone)] = 200;
  t.complete = true;

  const auto cp = t.critical_path();
  EXPECT_EQ(cp[0], 10);   // host_enqueue
  EXPECT_EQ(cp[1], 15);   // doorbell_gate: doorbell→pickup (gate missing)
  EXPECT_EQ(cp[2], 0);    // tx_queue: boundary missing, nothing charged
  EXPECT_EQ(cp[3], 100);  // tx_service absorbs the skipped wire stages
  EXPECT_EQ(cp[4], 0);    // wire
  EXPECT_EQ(cp[5], 0);    // rx_service: its starting boundary is missing
  EXPECT_EQ(cp[6], 75);   // wake absorbs deposit→done (handler-wake missing)
  std::int64_t sum = 0;
  for (auto v : cp) sum += v;
  EXPECT_EQ(sum, t.e2e_ns());
  EXPECT_EQ(t.e2e_ns(), 200);
}

TEST(Span, StageNamesAndWaitSplit) {
  EXPECT_STREQ(span_stage_name(0), "host_enqueue");
  EXPECT_STREQ(span_stage_name(4), "wire");
  EXPECT_STREQ(span_stage_name(7), "handler");
  EXPECT_FALSE(span_stage_is_wait(0));
  EXPECT_TRUE(span_stage_is_wait(1));  // doorbell_gate
  EXPECT_TRUE(span_stage_is_wait(2));  // tx_queue
  EXPECT_FALSE(span_stage_is_wait(4));
  EXPECT_TRUE(span_stage_is_wait(6));  // wake
}

// ----------------------------------------------------------- tail report

TEST(Tail, DifferentialReportIsolatesTheSlowStage) {
  // 99 fast traces (all stages 100ns) and one slow one whose wake stage
  // carries an extra 10us: the report must put `wake` first among culprits
  // and reconcile both cohorts exactly.
  std::vector<SpanTrace> traces;
  const std::array<std::int64_t, kSpanStageCount> fast = {100, 100, 100, 100,
                                                          100, 100, 100, 100};
  for (std::uint64_t i = 0; i < 99; ++i) {
    traces.push_back(make_trace(0, 1, i, 1000 * static_cast<std::int64_t>(i),
                                fast));
  }
  auto slow = fast;
  slow[6] += 10000;  // wake
  traces.push_back(make_trace(0, 1, 99, 990000, slow));

  const TailReport r = tail_report(traces);
  EXPECT_EQ(r.total, 100u);
  EXPECT_EQ(r.excluded, 0u);
  EXPECT_EQ(r.tail_count, 1u);
  EXPECT_GT(r.p50_count, 0u);
  EXPECT_DOUBLE_EQ(r.e2e_p50_ns, 800.0);
  EXPECT_DOUBLE_EQ(r.e2e_max_ns, 10800.0);
  EXPECT_DOUBLE_EQ(r.tail_e2e_mean_ns, 10800.0);
  EXPECT_DOUBLE_EQ(r.p50_e2e_mean_ns, 800.0);
  EXPECT_EQ(r.culprits[0], 6u);  // wake is the top culprit
  EXPECT_NEAR(r.stages[6].delta_ns, 10000.0, 1e-9);
  EXPECT_NEAR(r.stages[6].share, 1.0, 1e-9);
  // Reconciliation is an identity: stage sums equal cohort e2e means.
  EXPECT_LT(r.p50_recon_err(), 1e-12);
  EXPECT_LT(r.tail_recon_err(), 1e-12);

  const std::string rendered = render_tail_report(r);
  EXPECT_NE(rendered.find("wake"), std::string::npos);
  EXPECT_NE(rendered.find("top p99 culprits:"), std::string::npos);
  // The culprit line leads with the slow stage.
  const auto pos = rendered.find("top p99 culprits:");
  EXPECT_NE(rendered.find("wake", pos), std::string::npos);
}

TEST(Tail, ExcludesReturnedAndIncompleteTraces) {
  std::vector<SpanTrace> traces;
  const std::array<std::int64_t, kSpanStageCount> s = {1, 1, 1, 1, 1, 1, 1, 1};
  traces.push_back(make_trace(0, 0, 0, 0, s));
  SpanTrace returned = make_trace(0, 0, 1, 0, s);
  returned.returned = true;
  traces.push_back(returned);
  SpanTrace incomplete;
  incomplete.at.fill(-1);
  traces.push_back(incomplete);

  const TailReport r = tail_report(traces);
  EXPECT_EQ(r.total, 1u);
  EXPECT_EQ(r.excluded, 2u);
  EXPECT_EQ(r.tail_count, 1u);
}

TEST(Tail, EmptyInputRendersEmpty) {
  const TailReport r = tail_report({});
  EXPECT_EQ(r.total, 0u);
  EXPECT_EQ(render_tail_report(r), "");
}

TEST(Tail, RetransmitAndHopAnnotationsSegregateByCohort) {
  std::vector<SpanTrace> traces;
  const std::array<std::int64_t, kSpanStageCount> fast = {10, 10, 10, 10,
                                                          10, 10, 10, 10};
  for (std::uint64_t i = 0; i < 50; ++i) {
    SpanTrace t = make_trace(0, 0, i, 0, fast);
    t.wire_hops = 2;
    traces.push_back(t);
  }
  auto slow = fast;
  slow[3] += 5000;
  SpanTrace t = make_trace(0, 0, 50, 0, slow);
  t.retransmits = 3;
  t.wire_hops = 4;
  traces.push_back(t);

  const TailReport r = tail_report(traces);
  EXPECT_EQ(r.tail_retransmits, 3u);
  EXPECT_EQ(r.p50_retransmits, 0u);
  EXPECT_DOUBLE_EQ(r.tail_wire_hops, 4.0);
  EXPECT_DOUBLE_EQ(r.p50_wire_hops, 2.0);
}

// ------------------------------------------------------------ end-to-end

cluster::ClusterConfig small_config() {
  cluster::ClusterConfig cfg;
  cfg.nodes = 2;
  return cfg;
}

TEST(SpanIntegration, LogpRunCapturesAndReconcilesTailProfile) {
  const apps::LogpResult r =
      apps::measure_logp(small_config(), /*pingpongs=*/60, /*stream=*/0,
                         /*attribute=*/true);
  ASSERT_FALSE(r.tail_report.empty());
  EXPECT_NE(r.tail_report.find("top p99 culprits:"), std::string::npos);
  EXPECT_NE(r.tail_report.find("host_enqueue"), std::string::npos);
  // ISSUE acceptance: the profiler's cohort stage sums reconcile with the
  // cohort e2e means to within 5% at p50 and in the tail (an identity by
  // construction, so in practice ~0).
  EXPECT_LE(r.tail_recon_p50, 0.05);
  EXPECT_LE(r.tail_recon_tail, 0.05);
}

// The Fig 3 stage table: a pure ping-pong run, every flight tracked, must
// decompose the one-way latency into stages whose sum reconciles with the
// end-to-end mean, and two one-way flights must reconcile with the
// independently measured round trip within 5%.
TEST(SpanIntegration, LogpStageTableIsDeterministicAndReconciles) {
  const apps::LogpResult a = apps::measure_logp(
      cluster::NowConfig(2), /*pingpongs=*/300, /*stream=*/0, true);
  const apps::LogpResult b = apps::measure_logp(
      cluster::NowConfig(2), /*pingpongs=*/300, /*stream=*/0, true);

  // Same seed, same config: bit-identical stage table.
  EXPECT_EQ(a.stage_report, b.stage_report);
  EXPECT_DOUBLE_EQ(a.stage_e2e_us, b.stage_e2e_us);
  EXPECT_DOUBLE_EQ(a.stage_sum_us, b.stage_sum_us);

  ASSERT_GT(a.stage_e2e_us, 0.0);
  EXPECT_NEAR(a.stage_sum_us, a.stage_e2e_us, 0.01 * a.stage_e2e_us);
  EXPECT_NEAR(2.0 * a.stage_e2e_us, a.rtt_us, 0.05 * a.rtt_us);
  for (unsigned i = 0; i < kSpanStageCount; ++i) {
    EXPECT_NE(a.stage_report.find(span_stage_name(i)), std::string::npos)
        << span_stage_name(i);
  }
  EXPECT_NE(a.stage_report.find("e2e"), std::string::npos);
}

// With the sampler and span capture on, the bandwidth CSV carries the
// per-endpoint span percentile columns used for band plots.
TEST(SpanIntegration, BandwidthCsvCarriesSpanPercentileColumns) {
  const apps::BandwidthResult r =
      apps::measure_bandwidth(cluster::NowConfig(2), {512}, 40, 4,
                              /*sample_period=*/100 * sim::us,
                              /*span_sample_interval=*/1);
  const std::string header =
      r.timeseries_csv.substr(0, r.timeseries_csv.find('\n'));
  EXPECT_NE(header.find("host.0.ep.1.span.e2e.p99"), std::string::npos)
      << header;
  EXPECT_NE(header.find("host.0.ep.1.span.wire.p50"), std::string::npos);
}

TEST(SpanIntegration, SameSeedRunsProduceIdenticalTailReports) {
  const apps::LogpResult a =
      apps::measure_logp(small_config(), 40, 0, true);
  const apps::LogpResult b =
      apps::measure_logp(small_config(), 40, 0, true);
  EXPECT_EQ(a.tail_report, b.tail_report);
  ASSERT_FALSE(a.tail_report.empty());
}

}  // namespace
}  // namespace vnet::obs
