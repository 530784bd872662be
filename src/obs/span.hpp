#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace vnet::obs {

/// Causal span capture and per-message latency attribution (DESIGN.md §8,
/// §12).
///
/// Each sampled message carries its full ordered boundary vector (plus
/// retransmission / return-to-sender edges) as one SpanTrace, parked in a
/// fixed-size per-endpoint ring. Keeping the per-message joint is what
/// lets the differential tail profiler ask "which stage made *this* slow
/// message slow". The aggregate view is a by-product: every complete,
/// non-returned trace also folds its critical-path stages and end-to-end
/// time into per-source-endpoint registry histograms
/// `host.<node>.ep.<ep>.span.<stage>` / `.span.e2e`, which the Fig 3 LogP
/// stage table (render_span_stages) and the Sampler's percentile columns
/// read.
///
/// The span model is a degenerate DAG: one root span per message whose
/// children are the eight pipeline stages chained parent→child in boundary
/// order, with retransmit edges looping back into the tx stages and a
/// return-to-sender edge terminating the chain early. Because the chain is
/// linear per message (fragments of one message serialize through each
/// boundary and stamps are first-wins), the critical path through the DAG
/// is exactly the telescoping walk over *present* boundaries — see
/// SpanTrace::critical_path().
///
/// obs depends on nothing above it: timestamps are plain nanosecond
/// integers supplied by the stamping layers (am, lanai, myrinet), and the
/// recorder is reached through sim::Engine (which owns one next to the
/// MetricsRegistry).

/// The nine pipeline boundaries of one message, in causal order. kGateOpen
/// splits the doorbell→pickup gap into doorbell-coalesce wait vs. tx queue
/// wait — the two queues of the batched datapath.
enum class SpanPoint : unsigned {
  kEnqueue = 0,  ///< application began writing the send descriptor
  kDoorbell,     ///< host finished the descriptor write and rang the NIC
  kGateOpen,     ///< doorbell-coalesce gate forwarded the ring to firmware
  kNicPickup,    ///< NIC tx service picked the descriptor up
  kWireInject,   ///< first fragment handed to the fabric
  kWireDeliver,  ///< last fragment delivered by the final hop
  kRxDeposit,    ///< NIC deposited the message in the receive queue
  kHandlerWake,  ///< polling thread dequeued the message
  kHandlerDone,  ///< application handler returned
};

inline constexpr unsigned kSpanPointCount = 9;
/// Stage `i` is the interval from boundary `i` to boundary `i+1`.
inline constexpr unsigned kSpanStageCount = kSpanPointCount - 1;

/// Name of stage `i`: "host_enqueue", "doorbell_gate", "tx_queue",
/// "tx_service", "wire", "rx_service", "wake", "handler".
const char* span_stage_name(unsigned i);

/// Queue-wait vs. service-time split: true for the stages where the
/// message sits in a queue waiting for an actor (doorbell_gate, tx_queue,
/// wake), false where an actor is actively working on it.
bool span_stage_is_wait(unsigned i);

/// An auxiliary causal edge hanging off a span: a retransmission re-enters
/// the tx stages, a return-to-sender terminates the chain at the source.
struct SpanEdge {
  enum class Kind : std::uint8_t { kRetransmit, kReturnToSender };
  Kind kind = Kind::kRetransmit;
  std::int64_t at_ns = 0;
  std::int32_t arg = 0;  ///< retry ordinal / return reason
};

/// One sampled message's complete causal record.
struct SpanTrace {
  /// Edges kept inline so the per-endpoint ring stays fixed-size; beyond
  /// this the trace keeps counting (retransmits) but stops storing.
  static constexpr unsigned kMaxEdges = 4;

  std::uint32_t node = 0;  ///< source node
  std::uint32_t ep = 0;    ///< source endpoint
  std::uint64_t msg_id = 0;
  std::array<std::int64_t, kSpanPointCount> at;  ///< -1 = not crossed
  std::array<SpanEdge, kMaxEdges> edges{};
  std::uint8_t edge_count = 0;
  std::uint16_t retransmits = 0;
  std::uint8_t wire_hops = 0;  ///< link hops of the delivering packet
  bool returned = false;       ///< transport returned it to the sender
  bool complete = false;       ///< kHandlerDone was reached

  /// End-to-end latency: last present boundary minus first present
  /// boundary (0 if fewer than two boundaries were stamped).
  std::int64_t e2e_ns() const;

  /// Critical-path extraction: walks the present boundaries in order and
  /// attributes the time between each consecutive present pair to the
  /// stage that *starts* at the earlier boundary (a gap spanning missing
  /// boundaries — e.g. local delivery skips the wire — charges wholly to
  /// the stage where the message actually was). The returned per-stage
  /// nanoseconds therefore telescope: they sum to e2e_ns() exactly, which
  /// is what makes the tail report's reconciliation an identity rather
  /// than an estimate.
  std::array<std::int64_t, kSpanStageCount> critical_path() const;
};

/// Flight recorder for spans: admission via a 1-in-N sampling knob,
/// first-wins boundary stamps (retransmission-safe), completed traces
/// committed to a fixed-size overwrite-oldest ring per source endpoint and
/// folded into that endpoint's `span.*` histograms.
class SpanRecorder {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 256;

  explicit SpanRecorder(MetricsRegistry& reg);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Sampling-rate knob: track one in every `n` sent messages. 0 disables
  /// tracking entirely (the default) — stamp sites then cost one branch —
  /// and 1 tracks every message.
  void set_sample_interval(std::uint32_t n) {
    interval_ = n;
    skip_left_ = 0;  // first message after (re)enabling is tracked
    // Pre-size the in-flight table so the common case never rehashes.
    if (n != 0 && flights_.empty()) rehash_flights(kInitialFlightSlots);
  }
  std::uint32_t sample_interval() const { return interval_; }
  bool enabled() const { return interval_ != 0; }

  /// Per-endpoint ring capacity; applies to existing and future rings
  /// (shrinking discards oldest traces, counted as overwritten).
  void set_ring_capacity(std::size_t n);
  std::size_t ring_capacity() const { return ring_capacity_; }

  /// Flight key. Node ids and endpoint ids are small in any simulated
  /// cluster (< 2^16) and per-endpoint message ids stay well under 2^32,
  /// so the triple packs losslessly into 64 bits.
  static std::uint64_t key(std::uint32_t src_node, std::uint32_t src_ep,
                           std::uint64_t msg_id) {
    return (static_cast<std::uint64_t>(src_node & 0xffffu) << 48) |
           (static_cast<std::uint64_t>(src_ep & 0xffffu) << 32) |
           (msg_id & 0xffffffffu);
  }

  /// Admission at the kEnqueue boundary (`t_ns` may be earlier than "now":
  /// the caller learns the message id only after the descriptor write it
  /// is timing). Applies the sampling knob; returns true if tracked.
  /// Inline so the 63-in-64 skip path is a branch and a decrement — no
  /// call, no division.
  bool begin(std::uint32_t src_node, std::uint32_t src_ep,
             std::uint64_t msg_id, std::int64_t t_ns) {
    if (interval_ == 0) return false;
    if (skip_left_ != 0) {
      --skip_left_;
      return false;
    }
    skip_left_ = interval_ - 1;
    return begin_slow(src_node, src_ep, msg_id, t_ns);
  }

  /// Records boundary `p` of a tracked flight. Unknown keys are ignored;
  /// repeated stamps keep the first value (retransmissions re-cross
  /// kNicPickup/kWireInject; the span keeps first pickup / first inject
  /// and counts the retry as an edge instead). The occupancy-filter miss
  /// path is inline: untracked messages pay a multiply and one hot array
  /// load per stamp site, no call.
  void point(std::uint64_t k, SpanPoint p, std::int64_t t_ns) {
    if (live_[filter_bucket(k)] != 0) point_slow(k, p, t_ns);
  }

  /// Hangs a causal edge off a tracked flight (kRetransmit bumps the
  /// retransmit counter even when the inline edge array is full).
  void edge(std::uint64_t k, SpanEdge::Kind kind, std::int64_t t_ns,
            std::int32_t arg = 0) {
    if (live_[filter_bucket(k)] != 0) edge_slow(k, kind, t_ns, arg);
  }

  /// Annotates the wire stage with the delivering packet's hop count
  /// (keeps the maximum across fragments).
  void set_wire_hops(std::uint64_t k, std::uint8_t hops) {
    if (live_[filter_bucket(k)] != 0) hops_slow(k, hops);
  }

  /// Final boundary: stamps kHandlerDone, commits the trace to its source
  /// endpoint's ring and folds it into the endpoint's histograms.
  void finish(std::uint64_t k, std::int64_t t_ns) {
    if (live_[filter_bucket(k)] != 0) finish_slow(k, t_ns);
  }

  /// Transport returned the message to its sender: records the edge and
  /// commits the (incomplete, returned) trace to the ring — the tail
  /// profiler wants these, they explain tail mass — without folding it into
  /// the latency histograms (it never reached a handler).
  void drop_returned(std::uint64_t k, std::int64_t t_ns,
                     std::int32_t reason = 0) {
    if (live_[filter_bucket(k)] != 0) drop_slow(k, t_ns, reason);
  }

  std::size_t inflight() const { return flight_count_; }
  /// Occupied slots of the in-flight table: live entries plus tombstones.
  std::size_t inflight_fill() const { return flight_fill_; }
  std::uint64_t tracked() const { return tracked_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t overwritten() const { return overwritten_; }

  /// Every retained trace, endpoints in (node, ep) order and traces in
  /// commit order within an endpoint — deterministic given a
  /// deterministic simulation.
  std::vector<SpanTrace> collect() const;

  /// Drops retained traces and in-flight state (counters survive).
  void clear();

 private:
  struct EpRing {
    std::vector<SpanTrace> ring;
    std::size_t head = 0;  ///< oldest slot once the ring is full
    std::array<Histogram, kSpanStageCount> stage;  ///< `span.<stage>`
    Histogram e2e;                                 ///< `span.e2e`
  };

  /// In-flight storage: open-addressed, power-of-two flat table with
  /// linear probing and tombstone deletion. Chosen over unordered_map for
  /// the full-sampling hot path: a probe is multiply-shift-load-compare
  /// (no modulo by a prime bucket count, no node chase, no allocator
  /// traffic — slots are recycled in place).
  struct Flight {
    std::uint64_t key = 0;
    std::uint8_t state = 0;  ///< 0 empty, 1 live, 2 tombstone
    SpanTrace t;
  };

  static constexpr std::size_t kInitialFlightSlots = 256;
  /// Messages sent but never finished (returns, GAM drops, still-running
  /// workloads) would otherwise accumulate; cap the in-flight table.
  static constexpr std::size_t kMaxInflight = 1 << 16;

  bool begin_slow(std::uint32_t src_node, std::uint32_t src_ep,
                  std::uint64_t msg_id, std::int64_t t_ns);
  void point_slow(std::uint64_t k, SpanPoint p, std::int64_t t_ns);
  void edge_slow(std::uint64_t k, SpanEdge::Kind kind, std::int64_t t_ns,
                 std::int32_t arg);
  void hops_slow(std::uint64_t k, std::uint8_t hops);
  void finish_slow(std::uint64_t k, std::int64_t t_ns);
  void drop_slow(std::uint64_t k, std::int64_t t_ns, std::int32_t reason);

  Flight* find_flight(std::uint64_t k);
  SpanTrace* insert_flight(std::uint64_t k);
  void erase_flight(Flight& f);
  void rehash_flights(std::size_t new_slots);
  void commit(SpanTrace&& t);
  void fold(EpRing& r, const SpanTrace& t);

  std::size_t hash_slot(std::uint64_t k) const {
    return static_cast<std::size_t>((k * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Occupancy filter over the in-flight table: every stamp site fires on
  /// every message but only 1-in-N messages are tracked, so at wide
  /// sampling intervals almost every point()/finish() is a miss. A 64-way
  /// occupancy count (4 always-hot cache lines) lets the inline miss path
  /// bail without touching the much larger flat table.
  static unsigned filter_bucket(std::uint64_t k) {
    return static_cast<unsigned>((k * 0x9E3779B97F4A7C15ull) >> 58);
  }

  MetricsRegistry* reg_;
  std::uint32_t interval_ = 0;
  std::uint32_t skip_left_ = 0;  ///< messages until the next admission
  std::size_t ring_capacity_ = kDefaultRingCapacity;
  std::uint64_t tracked_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t overwritten_ = 0;
  Counter tracked_c_, completed_c_, overwritten_c_, returned_c_;
  std::array<std::uint32_t, 64> live_{};  ///< filter-bucket occupancy
  std::vector<Flight> flights_;    ///< power-of-two open-addressed table
  unsigned shift_ = 64;            ///< 64 − log2(flights_.size())
  std::size_t flight_count_ = 0;   ///< live entries
  std::size_t flight_fill_ = 0;    ///< live + tombstone entries
  std::map<std::uint64_t, EpRing> rings_;  ///< keyed (node<<32)|ep, ordered
};

/// Cluster-wide stage summary extracted from a Snapshot: each `span.<stage>`
/// histogram merged across every endpoint, in pipeline order.
struct SpanStageSummary {
  std::array<HistogramData, kSpanStageCount> stages;
  HistogramData e2e;

  /// Sum of per-stage means. Every folded trace records all stages, and
  /// critical-path stages telescope to e2e, so this equals e2e.mean().
  double stage_sum_mean_ns() const;
};

SpanStageSummary summarize_span_stages(const Snapshot& snap);

/// The Fig 3 LogP stage table: per-stage count/mean/p50/p95/max (in
/// microseconds) followed by the stage-sum vs measured end-to-end
/// reconciliation line. Returns "" if the snapshot holds no span
/// histograms.
std::string render_span_stages(const Snapshot& snap);

/// One row of the differential culprit table.
struct TailStageRow {
  double p50_ns = 0;   ///< mean critical-path ns over the median cohort
  double tail_ns = 0;  ///< mean critical-path ns over the slowest-1% cohort
  double delta_ns = 0;
  double share = 0;  ///< delta / (tail e2e mean − p50 e2e mean)
};

/// Differential tail profile over a set of complete traces: the slowest 1%
/// (by e2e, minimum one trace) against the median cohort (the p25–p75
/// band), stage by stage.
struct TailReport {
  std::size_t total = 0;       ///< complete traces analyzed
  std::size_t excluded = 0;    ///< incomplete / returned traces set aside
  std::size_t tail_count = 0;  ///< slowest-1% cohort size
  std::size_t p50_count = 0;   ///< median cohort size
  double e2e_p50_ns = 0;       ///< exact order statistics over `total`
  double e2e_p99_ns = 0;
  double e2e_p999_ns = 0;
  double e2e_max_ns = 0;
  double p50_e2e_mean_ns = 0;  ///< cohort e2e means…
  double tail_e2e_mean_ns = 0;
  double p50_stage_sum_ns = 0;  ///< …and cohort critical-path stage sums
  double tail_stage_sum_ns = 0;
  std::array<TailStageRow, kSpanStageCount> stages{};
  std::uint64_t p50_retransmits = 0;  ///< causal annotations per cohort
  std::uint64_t tail_retransmits = 0;
  double p50_wire_hops = 0;  ///< mean delivering-packet hop count
  double tail_wire_hops = 0;

  /// Stage indices ordered by descending tail-vs-p50 delta.
  std::array<unsigned, kSpanStageCount> culprits{};

  /// |cohort stage sum − cohort e2e mean| / e2e mean; an identity (0) by
  /// construction of critical_path(), recomputed as a self-check.
  double p50_recon_err() const;
  double tail_recon_err() const;
};

/// Builds the report; incomplete and returned traces are excluded from the
/// cohorts but counted in `excluded`.
TailReport tail_report(const std::vector<SpanTrace>& traces);

/// The human-readable culprit table, ending in a greppable
/// "top p99 culprits:" line (consumed by CI's step summary). Returns "" if
/// there are no complete traces.
std::string render_tail_report(const TailReport& r);
std::string render_tail_report(const SpanRecorder& rec);

}  // namespace vnet::obs
