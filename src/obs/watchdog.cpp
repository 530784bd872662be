#include "obs/watchdog.hpp"

#include <cstdio>
#include <map>
#include <string_view>

namespace vnet::obs {

namespace {

constexpr std::string_view kWakeupsSuffix = ".wait_wakeups";
constexpr std::string_view kBusySuffix = ".busy_channels";
constexpr std::string_view kBacklogSuffix = ".send_backlog";
constexpr std::string_view kLinkPrefix = "fabric.link.";
constexpr std::string_view kBytesTxSuffix = ".bytes_tx";

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

void Watchdog::fire(std::int64_t now_ns, const char* rule,
                    std::string subject, std::string detail) {
  events_.push_back(
      {now_ns, rule, std::move(subject), std::move(detail)});
}

void Watchdog::check(std::int64_t now_ns) {
  // Every watchdog rule is scalar-based; skipping the histogram payload
  // keeps the per-window check cheap now that histograms are sub-bucketed.
  Snapshot snap = reg_->snapshot_scalars(now_ns);
  if (!have_base_) {
    last_ = std::move(snap);
    have_base_ = true;
    return;
  }
  const Snapshot w = diff(snap, last_);
  const std::int64_t window_ns = now_ns - last_.at_ns;
  char detail[128];

  // channel-stall: busy channels, zero transport-level progress.
  for (const auto& [name, level] : snap.gauges) {
    if (!ends_with(name, kBusySuffix) || level <= 0) continue;
    const std::string nic = name.substr(0, name.size() - kBusySuffix.size());
    const std::uint64_t progress = w.counter(nic + ".acks_received") +
                                   w.counter(nic + ".nacks_received") +
                                   w.counter(nic + ".msgs_completed") +
                                   w.counter(nic + ".local_deliveries");
    if (progress == 0) {
      std::snprintf(detail, sizeof(detail),
                    "%.0f busy channel(s), no ack/completion in window",
                    level);
      fire(now_ns, "channel-stall", nic, detail);
    }
  }

  // frame-loiter: unfinished send descriptors, nothing transmitted at all.
  for (const auto& [name, level] : snap.gauges) {
    if (!ends_with(name, kBacklogSuffix) || level <= 0) continue;
    const std::string nic =
        name.substr(0, name.size() - kBacklogSuffix.size());
    const std::uint64_t sent = w.counter(nic + ".data_sent") +
                               w.counter(nic + ".retransmissions") +
                               w.counter(nic + ".local_deliveries") +
                               w.counter(nic + ".returned_to_sender");
    if (sent == 0) {
      std::snprintf(detail, sizeof(detail),
                    "%.0f pending descriptor(s), no transmission in window",
                    level);
      fire(now_ns, "frame-loiter", nic, detail);
    }
  }

  // spin-poll: an endpoint's waits kept completing with zero consumption.
  if (cfg_.spin_wakeup_threshold > 0) {
    for (const auto& [name, wakeups] : w.counters) {
      if (!ends_with(name, kWakeupsSuffix) ||
          wakeups <= cfg_.spin_wakeup_threshold) {
        continue;
      }
      const std::string ep =
          name.substr(0, name.size() - kWakeupsSuffix.size());
      const std::uint64_t consumed = w.counter(ep + ".messages_handled") +
                                     w.counter(ep + ".returns_handled");
      if (consumed == 0) {
        std::snprintf(detail, sizeof(detail),
                      "%llu wait wakeups, nothing consumed in window",
                      static_cast<unsigned long long>(wakeups));
        fire(now_ns, "spin-poll", ep, detail);
      }
    }
  }

  // link-pegged: one link busy for (near) the whole window.
  if (cfg_.link_ns_per_byte > 0 && window_ns > 0) {
    for (const auto& [name, bytes] : w.counters) {
      if (name.compare(0, kLinkPrefix.size(), kLinkPrefix) != 0 ||
          !ends_with(name, kBytesTxSuffix)) {
        continue;
      }
      const double occupancy = static_cast<double>(bytes) *
                               cfg_.link_ns_per_byte /
                               static_cast<double>(window_ns);
      if (occupancy >= cfg_.link_occupancy_threshold) {
        const std::string link = name.substr(
            kLinkPrefix.size(),
            name.size() - kLinkPrefix.size() - kBytesTxSuffix.size());
        std::snprintf(detail, sizeof(detail), "occupancy %.1f%%",
                      occupancy * 100.0);
        fire(now_ns, "link-pegged", "fabric.link." + link, detail);
      }
    }
  }

  last_ = std::move(snap);
}

std::string Watchdog::render_summary() const {
  if (events_.empty()) return {};
  struct Agg {
    std::uint64_t windows = 0;
    std::int64_t first_ns = 0;
    std::int64_t last_ns = 0;
    std::string detail;
  };
  std::map<std::string, Agg> by_key;  // "rule subject" -> agg
  for (const WatchdogEvent& e : events_) {
    Agg& a = by_key[e.rule + " " + e.subject];
    if (a.windows == 0) a.first_ns = e.at_ns;
    ++a.windows;
    a.last_ns = e.at_ns;
    a.detail = e.detail;  // keep the most recent
  }
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-14s %-28s %8s %10s %10s  %s\n",
                "rule", "subject", "windows", "first_ms", "last_ms",
                "detail");
  out += line;
  for (const auto& [key, a] : by_key) {
    const std::size_t space = key.find(' ');
    std::snprintf(line, sizeof(line), "%-14s %-28s %8llu %10.2f %10.2f  %s\n",
                  key.substr(0, space).c_str(),
                  key.substr(space + 1).c_str(),
                  static_cast<unsigned long long>(a.windows),
                  static_cast<double>(a.first_ns) / 1e6,
                  static_cast<double>(a.last_ns) / 1e6, a.detail.c_str());
    out += line;
  }
  return out;
}

}  // namespace vnet::obs
