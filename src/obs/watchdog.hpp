#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace vnet::obs {

/// Stall watchdogs (DESIGN.md §8): registry-driven detectors that name the
/// component that stopped making progress. The caller invokes check() once
/// per watch window of simulated time; each check snapshots the registry,
/// diffs against the previous window, and fires an event per rule/subject
/// that stalled across the whole window:
///
///   channel-stall — a NIC holds busy channels but saw zero acks, nacks or
///                   message completions (e.g. every route to the peer is
///                   down and retransmissions vanish into the dead trunk);
///   frame-loiter  — a NIC has unfinished send descriptors but transmitted
///                   nothing at all, not even a retransmission;
///   link-pegged   — back-pressure pinned one link at (near) 100% occupancy
///                   for the entire window;
///   spin-poll     — an endpoint's wait loop kept waking (wait_wakeups grew
///                   past the threshold) while handling zero messages or
///                   returns: some thread waits on a level-triggered
///                   condition it never consumes (the PR 6 bug class).
///
/// Events accumulate for render_summary() (one row per rule/subject, wired
/// into the chaos scenario reports).
struct WatchdogConfig {
  /// Watch-window length the caller promises to check() at; occupancy is
  /// computed against the actual spacing of check() calls.
  std::int64_t window_ns = 500'000;
  /// Serialization cost of the watched links; 0 disables the link-pegged
  /// rule (occupancy cannot be computed without it).
  double link_ns_per_byte = 0.0;
  double link_occupancy_threshold = 0.99;
  /// spin-poll rule: fire when an endpoint's wait_wakeups grows by more
  /// than this in one window while its messages_handled + returns_handled
  /// did not move. A healthy server wakes at most once per message; 64
  /// progress-free wakeups in a window is a busy loop. 0 disables.
  std::uint64_t spin_wakeup_threshold = 64;
};

struct WatchdogEvent {
  std::int64_t at_ns = 0;
  std::string rule;
  std::string subject;
  std::string detail;
};

class Watchdog {
 public:
  Watchdog(const MetricsRegistry& reg, WatchdogConfig cfg)
      : reg_(&reg), cfg_(cfg) {}

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Evaluates every rule over the window since the previous check. The
  /// first call only establishes the baseline.
  void check(std::int64_t now_ns);

  const std::vector<WatchdogEvent>& events() const { return events_; }
  const WatchdogConfig& config() const { return cfg_; }

  /// One row per (rule, subject): windows fired, first and last firing
  /// time. Returns "" if nothing ever fired.
  std::string render_summary() const;

 private:
  void fire(std::int64_t now_ns, const char* rule, std::string subject,
            std::string detail);

  const MetricsRegistry* reg_;
  WatchdogConfig cfg_;
  bool have_base_ = false;
  Snapshot last_;
  std::vector<WatchdogEvent> events_;
};

}  // namespace vnet::obs
