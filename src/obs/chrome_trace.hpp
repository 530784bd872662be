#pragma once

#include <string>
#include <vector>

#include "obs/sampler.hpp"
#include "obs/span.hpp"

namespace vnet::obs {

/// Renders captured spans, plus an optional Sampler's time series, as
/// Chrome trace_event JSON ("traceEvents" array form, ts in µs) that opens
/// in Perfetto / chrome://tracing (DESIGN.md §7).
///
/// Rows: pid is the source node (each named by a `process_name` metadata
/// event) and tid the source endpoint. Each trace becomes one async slice
/// (`b`/`e`, cat "msg", id = SpanRecorder::key) spanning its first to last
/// boundary or edge; nested inside it, one slice per non-zero
/// critical-path stage named by span_stage_name(), and one async instant
/// (`n`) per retransmit / return-to-sender edge. Each Sampler window becomes
/// one `C` counter event per column at the window's end, on a separate
/// "sampler" process row.
///
/// A pure function of its inputs: same-seed runs export byte-identical JSON.
std::string chrome_trace_json(const std::vector<SpanTrace>& traces,
                              const Sampler* sampler = nullptr);

}  // namespace vnet::obs
