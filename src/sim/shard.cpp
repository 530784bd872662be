#include "sim/shard.hpp"

#include <algorithm>

#include "sim/process.hpp"  // Engine's inline run/step definitions
#include <barrier>
#include <stdexcept>
#include <string>
#include <thread>

namespace vnet::sim {

std::atomic<int> ShardGroup::live_workers_{0};

// ---------------------------------------------------------- ShardRouter

ShardRouter::ShardRouter(int shards)
    : outboxes_(static_cast<std::size_t>(shards)) {}

void ShardRouter::post(int src, int dst, Time when, UniqueFunction fn) {
  if (horizon_ != 0 && when < horizon_) {
    // A record inside the executing window could land in a neighbour
    // shard's already-executed past; the lookahead bound is broken.
    throw std::logic_error(
        "ShardRouter: lookahead violation — record for t=" +
        std::to_string(when) + " posted inside window ending at t=" +
        std::to_string(horizon_));
  }
  Outbox& ob = outboxes_[static_cast<std::size_t>(src)];
  ob.records.push_back({when, dst, ob.next_seq++, std::move(fn)});
}

void ShardRouter::deliver(ShardGroup& group) {
  // Merge order is (when, src, seq): a pure function of the simulated
  // schedule, independent of worker interleaving — the multi-shard
  // determinism contract.
  struct Tagged {
    Time when;
    int src;
    std::uint64_t seq;
    Record* rec;
  };
  std::vector<Tagged> all;
  for (std::size_t s = 0; s < outboxes_.size(); ++s) {
    for (Record& r : outboxes_[s].records) {
      all.push_back({r.when, static_cast<int>(s), r.seq, &r});
    }
  }
  if (all.empty()) return;
  std::sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
    if (a.when != b.when) return a.when < b.when;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  });
  for (Tagged& t : all) {
    group.engine(t.rec->dst).at(
        t.when, [fn = std::move(t.rec->fn)]() mutable { fn(); });
    ++crossings_;
  }
  for (Outbox& ob : outboxes_) ob.records.clear();
}

// ----------------------------------------------------------- ShardGroup

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

ShardGroup::ShardGroup(int shards, std::uint64_t seed, Duration lookahead)
    : router_(shards), lookahead_(lookahead) {
  if (shards < 1) throw std::invalid_argument("ShardGroup: shards must be >= 1");
  if (shards > 1 && lookahead < 1) {
    throw std::invalid_argument(
        "ShardGroup: multi-shard sync needs lookahead >= 1 ns");
  }
  engines_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    engines_.push_back(std::make_unique<Engine>(
        s == 0 ? seed : mix64(seed ^ (0xd1b54a32d192ed03ULL *
                                      static_cast<std::uint64_t>(s)))));
  }
}

ShardGroup::~ShardGroup() = default;

Time ShardGroup::min_next_event() {
  Time m = kIdle;
  for (auto& e : engines_) {
    if (e->has_events()) m = std::min(m, e->next_event_time());
  }
  return m;
}

Time ShardGroup::max_now() const {
  Time t = 0;
  for (const auto& e : engines_) t = std::max(t, e->now());
  return t;
}

std::uint64_t ShardGroup::total_events() const {
  std::uint64_t n = 0;
  for (const auto& e : engines_) n += e->events_processed();
  return n;
}

std::uint64_t ShardGroup::combined_digest() const {
  std::uint64_t h = engines_[0]->replay_digest();
  for (std::size_t s = 1; s < engines_.size(); ++s) {
    h = mix64(h ^ engines_[s]->replay_digest());
  }
  return h;
}

obs::Snapshot ShardGroup::merged_snapshot() const {
  if (engines_.size() == 1) return engines_[0]->snapshot();
  obs::Snapshot out;
  out.at_ns = static_cast<std::int64_t>(max_now());
  for (const auto& e : engines_) {
    const obs::Snapshot snap = e->snapshot();
    for (const auto& [name, v] : snap.counters) out.counters[name] += v;
    for (const auto& [name, v] : snap.gauges) out.gauges[name] += v;
    for (const auto& [name, h] : snap.histograms) {
      auto [it, fresh] = out.histograms.try_emplace(name, h);
      if (!fresh) it->second.merge(h);
    }
  }
  return out;
}

void ShardGroup::shutdown_all() {
  for (auto& e : engines_) e->shutdown();
}

std::uint64_t ShardGroup::run_to_completion(
    const std::function<bool()>& done) {
  const std::uint64_t before = total_events();
  if (engines_.size() == 1 && !force_windows_) {
    // The serial engine, verbatim — the determinism oracle's code path.
    Engine& e = *engines_[0];
    if (done) {
      while (!done() && e.step()) {
      }
    } else {
      e.run();
    }
  } else if (engines_.size() > 1 && threaded_) {
    run_windows_threaded(done);
  } else {
    run_windows_sequential(done, kIdle);
  }
  return total_events() - before;
}

void ShardGroup::run_until(Time t) {
  if (engines_.size() == 1 && !force_windows_) {
    engines_[0]->run_until(t);
    return;
  }
  // Bounded windows, always sequential: this is the fork server's pre-fork
  // warmup path and must not spawn threads.
  run_windows_sequential({}, t);
  for (auto& e : engines_) e->run_until(t);
}

void ShardGroup::run_windows_sequential(const std::function<bool()>& done,
                                        Time limit) {
  for (;;) {
    router_.deliver(*this);
    if (done && done()) break;
    const Time m = min_next_event();
    if (m == kIdle || m >= limit) break;
    const Time end = std::min<Time>(m + lookahead_, limit);
    router_.begin_window(end);
    for (auto& e : engines_) e->run_window(end);
    router_.end_window();
  }
}

void ShardGroup::run_windows_threaded(const std::function<bool()>& done) {
  const int n = size();
  stop_ = false;
  window_end_ = 0;
  // The completion step runs on the last-arriving worker with every other
  // worker parked at the barrier: the only moment mutable cross-shard work
  // (record drain, window advance) is safe. The barrier's synchronization
  // orders it before any worker resumes.
  auto boundary = [this, &done]() noexcept {
    router_.end_window();
    router_.deliver(*this);
    const Time m = min_next_event();
    if ((done && done()) || m == kIdle) {
      stop_ = true;
      return;
    }
    window_end_ = m + lookahead_;
    router_.begin_window(window_end_);
  };
  std::barrier bar(n, boundary);
  auto work = [this, &bar](int s) {
    for (;;) {
      bar.arrive_and_wait();
      if (stop_) break;
      engines_[static_cast<std::size_t>(s)]->run_window(window_end_);
    }
  };
  live_workers_.fetch_add(n - 1, std::memory_order_acq_rel);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(n - 1));
  for (int s = 1; s < n; ++s) workers.emplace_back(work, s);
  work(0);  // the caller is shard 0's worker
  for (auto& w : workers) w.join();
  live_workers_.fetch_sub(n - 1, std::memory_order_acq_rel);
}

}  // namespace vnet::sim
