#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"
#include "sim/unique_function.hpp"

namespace vnet::sim {

class Process;

/// The discrete-event simulation engine: one shared clock, one event queue,
/// and ownership of every live coroutine process.
///
/// Components schedule plain callbacks with at()/after(), or run as
/// coroutine Processes (see process.hpp) that `co_await engine.delay(d)` and
/// the synchronization primitives in sync.hpp. All coroutine resumption goes
/// through the event queue — never inline — so execution order is a pure
/// function of (time, insertion order) and runs are reproducible.
///
/// Single-threaded by design: a cluster simulation is one logical timeline.
/// Parallel runs use one Engine per shard (sim/shard.hpp), each advanced by
/// exactly one worker thread per time window; nothing in this class is
/// shared across workers mid-window.
class Engine {
 public:
  explicit Engine(std::uint64_t seed = 1) : rng_(seed) {
    metrics_.counter_fn("sim.events_processed",
                        [this] { return events_processed_; });
    metrics_.gauge_fn("sim.pending_events", [this] {
      return static_cast<double>(queue_.size());
    });
    metrics_.gauge_fn("sim.live_processes", [this] {
      return static_cast<double>(processes_.size());
    });
    // Scheduling allocator health: oversized closures served from the slab
    // arena vs. spilled to the heap (see sim/arena.hpp). A workload whose
    // fallback counter grows has closures larger than the arena block.
    metrics_.counter_fn("sim.arena.closure_hits",
                        [this] { return queue_.arena_stats().hits; });
    metrics_.counter_fn("sim.arena.closure_fallbacks",
                        [this] { return queue_.arena_stats().fallbacks; });
    metrics_.gauge_fn("sim.arena.blocks_total", [this] {
      return static_cast<double>(queue_.arena_stats().blocks_total);
    });
    metrics_.gauge_fn("sim.queue.slots", [this] {
      return static_cast<double>(queue_.slot_capacity());
    });
  }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Destroys all still-suspended process frames (servers, firmware loops).
  ~Engine();

  /// Tears down all live processes and pending events *now*. Call before
  /// destroying objects that process locals reference (hosts, fabrics) —
  /// Cluster does this in its destructor to fix teardown order.
  void shutdown();

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (must be >= now()). The returned
  /// handle may be passed to cancel(); discarding it is fine.
  template <typename F>
  EventHandle at(Time t, F&& fn) {
    return queue_.push(clamp(t), std::forward<F>(fn));
  }

  /// Schedules `fn` after a relative delay `d` (must be >= 0).
  template <typename F>
  EventHandle after(Duration d, F&& fn) {
    return queue_.push(now_ + d, std::forward<F>(fn));
  }

  /// Cancels a previously scheduled event in O(1). Distinguishes a pending
  /// event (now cancelled) from one that already fired or was already
  /// cancelled; stale/invalid handles report kUnknown. See event_queue.hpp.
  CancelOutcome cancel(EventHandle h) { return queue_.cancel(h); }

  /// Runs `fn` every `d` nanoseconds until it returns false. The stop
  /// condition matters: run()/chaos drains execute until the queue is
  /// empty, so an unconditionally re-arming tick would never let them
  /// finish.
  void every(Duration d, std::function<bool()> fn) {
    after(d, [this, d, fn = std::move(fn)]() mutable {
      if (fn()) every(d, std::move(fn));
    });
  }

  /// Schedules coroutine `h` to be resumed at the current time, after all
  /// events already queued for this instant.
  void post(std::coroutine_handle<> h) {
    queue_.push(now_, [h] { h.resume(); });
  }

  /// Schedules coroutine `h` to be resumed at absolute time `t`.
  void resume_at(Time t, std::coroutine_handle<> h) {
    queue_.push(clamp(t), [h] { h.resume(); });
  }

  /// Takes ownership of a process coroutine and schedules its first step at
  /// the current time. The frame is destroyed when the coroutine finishes,
  /// or by ~Engine if it never does.
  void spawn(Process p);

  /// Awaitable: suspends the calling process for `d` nanoseconds.
  auto delay(Duration d) {
    struct Awaiter {
      Engine& engine;
      Duration d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        engine.resume_at(engine.now_ + d, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, d};
  }

  /// Runs the single earliest event. Returns false if the queue is empty.
  bool step();

  /// Runs until the queue is empty. Returns the number of events processed.
  std::size_t run();

  /// Runs all events with timestamp <= t, then sets now() = t.
  std::size_t run_until(Time t);

  /// Runs all events with timestamp strictly < end, leaving now() at the
  /// last executed event. The conservative window step of sim/shard.hpp:
  /// windows partition the (time, seq)-ordered pop stream, so a windowed
  /// run fires the identical event sequence (and replay digest) as run().
  std::size_t run_window(Time end);

  bool has_events() const { return !queue_.empty(); }
  /// Time of the earliest pending event. Precondition: has_events().
  Time next_event_time() { return queue_.next_time(); }

  /// Runs for `d` more nanoseconds of simulated time.
  std::size_t run_for(Duration d) { return run_until(now_ + d); }

  /// Engine-owned random stream. Components should fork their own stream
  /// once via rng().split() rather than drawing from this repeatedly.
  Rng& rng() { return rng_; }

  /// The simulation-wide metric namespace (see obs/metrics.hpp). Components
  /// register counters here under hierarchical names at construction.
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// All metric values at the current simulated time.
  obs::Snapshot snapshot() const {
    return metrics_.snapshot(static_cast<std::int64_t>(now_));
  }

  /// Per-message causal span recorder (see obs/span.hpp), the one source
  /// of per-message latency attribution. Disabled by default; stamp sites
  /// throughout the stack cost one branch each until
  /// spans().set_sample_interval(n) turns tracking on.
  obs::SpanRecorder& spans() { return spans_; }
  const obs::SpanRecorder& spans() const { return spans_; }

  std::size_t pending_events() const { return queue_.size(); }
  std::size_t live_processes() const { return processes_.size(); }
  std::uint64_t events_processed() const { return events_processed_; }

  /// Deterministic-replay digest: a rolling hash over the fired event
  /// stream (time, seq, slot) folded with the event count and engine RNG
  /// state. Address-independent, so it compares across processes — a
  /// fork()ed timeline that runs to completion must report the same digest
  /// as the straight-through run, and a fresh run with the same seed must
  /// match both. Any divergence means hidden nondeterminism.
  std::uint64_t replay_digest() const {
    std::uint64_t h = queue_.digest();
    h ^= 0x9e3779b97f4a7c15ULL * (events_processed_ + 1);
    h ^= rng_.state_hash();
    h ^= static_cast<std::uint64_t>(now_) * 0xff51afd7ed558ccdULL;
    return h;
  }

 private:
  friend class Process;

  // Called from a process's final suspend point: unregister and free it.
  void on_process_done(std::coroutine_handle<> h) {
    processes_.erase(h.address());
    h.destroy();
  }

  Time clamp(Time t) const { return t < now_ ? now_ : t; }

  Time now_ = 0;
  EventQueue queue_;
  Rng rng_;
  obs::MetricsRegistry metrics_;
  obs::SpanRecorder spans_{metrics_};
  std::unordered_set<void*> processes_;
  std::uint64_t events_processed_ = 0;
};

}  // namespace vnet::sim
