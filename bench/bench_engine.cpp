// Engine microbenchmark suite: raw throughput of the discrete-event queue,
// the coroutine machinery, and wall-clock passes over the two heaviest real
// workloads (the Fig 4 bandwidth sweep and the chaos matrix). These bound
// how large a cluster/workload the repository can simulate per second of
// real time — simulator self-time is the denominator of every figure.
//
// Emits both a human table (stdout) and a machine-readable JSON file that
// scripts/bench_gate.sh diffs against the checked-in BENCH_engine.json
// baseline. Rates are absolute; the JSON also carries a `calib_spin`
// benchmark (fixed ALU workload) so the gate can normalize away machine
// speed differences and compare shape, not silicon.
//
// Usage: bench_engine [--json PATH] [--repeats N] [--min-secs S] [--quick]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "am/endpoint.hpp"
#include "apps/bandwidth.hpp"
#include "common.hpp"
#include "chaos/scenario.hpp"
#include "cluster/cluster.hpp"
#include "cluster/config.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/process.hpp"

// Heap allocations, counted for the allocs_per_message entry. Every
// operator new of the process comes through here; the count is exact and
// machine-independent.
namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

// Out of line so GCC's -Wmismatched-new-delete does not pair the inlined
// free() with the replaced operator new below.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

namespace {

using namespace vnet;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct BenchResult {
  std::string name;
  std::string unit;
  double rate = 0;       // items per wall second, best repeat
  double wall_s = 0;     // wall seconds of the best repeat
  std::uint64_t items = 0;
  // Value metric rather than a throughput: `rate` holds the value itself,
  // lower is better, and the gate must not normalize it by calib_spin
  // (it measures simulated work, not wall time).
  bool lower_is_better = false;
  // Higher-is-better value metric exempt from calib_spin normalization
  // (e.g. a speedup ratio measured on one machine).
  bool raw = false;
  // Per-entry gate tolerance (fraction); < 0 means use the gate's default.
  double tolerance = -1;
  // Hard lower bound: the gate fails if the value drops below this,
  // regardless of the baseline. < 0 means no bound.
  double min_value = -1;
  // The hard bound only applies on machines with at least this many
  // hardware threads (a 4-shard speedup needs 4 cores to exist).
  int min_cores = 0;
};

struct Bench {
  std::string name;
  std::string unit;
  // Runs one batch and returns the number of items processed.
  std::function<std::uint64_t()> batch;
};

// Runs `b.batch` repeatedly until at least `min_secs` elapsed, `repeats`
// times; keeps the fastest repeat (least-noise estimator).
BenchResult run_bench(const Bench& b, int repeats, double min_secs) {
  BenchResult best;
  best.name = b.name;
  best.unit = b.unit;
  for (int r = 0; r < repeats; ++r) {
    std::uint64_t items = 0;
    const auto t0 = Clock::now();
    double elapsed = 0;
    do {
      items += b.batch();
      elapsed = seconds_since(t0);
    } while (elapsed < min_secs);
    const double rate = static_cast<double>(items) / elapsed;
    if (rate > best.rate) {
      best.rate = rate;
      best.wall_s = elapsed;
      best.items = items;
    }
  }
  return best;
}

// --------------------------------------------------------- microbenchmarks

// Fixed ALU workload for machine-speed normalization (no memory traffic).
// The volatile seed/sink stop the compiler from folding the whole loop.
volatile std::uint64_t g_spin_seed = 88172645463325252ull;
volatile std::uint64_t g_spin_sink;

std::uint64_t calib_spin() {
  std::uint64_t x = g_spin_seed;
  for (int i = 0; i < 1 << 22; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_spin_sink = x;
  return 1u << 22;
}

// Shallow schedule/fire churn: the queue stays ~64 deep, the common case
// for a small cluster.
std::uint64_t schedule_fire() {
  sim::EventQueue q;
  sim::Time t = 0;
  const int rounds = 4096;
  for (int round = 0; round < rounds; ++round) {
    for (int i = 0; i < 64; ++i) q.push(t + (i * 37) % 101, [] {});
    while (!q.empty()) q.pop();
    t += 101;
  }
  return static_cast<std::uint64_t>(rounds) * 64;
}

// Deep steady-state: 100k pending events, one push per pop. Exercises the
// calendar front-end where a global binary heap pays log2(100k) ~ 17 levels
// per operation.
std::uint64_t schedule_fire_deep() {
  static constexpr int kDepth = 100'000;
  sim::EventQueue q;
  sim::Time t = 0;
  for (int i = 0; i < kDepth; ++i) q.push(t + 1 + (i * 7919) % 100'000, [] {});
  const int rounds = 200'000;
  for (int i = 0; i < rounds; ++i) {
    auto [when, fn] = q.pop();
    t = when;
    q.push(t + 1 + (i * 7919) % 100'000, [] {});
  }
  while (!q.empty()) q.pop();
  return static_cast<std::uint64_t>(rounds) + kDepth;
}

// The O(n)-cancel killer: schedule+cancel against 100k pending events.
// The seed implementation scanned the whole heap per cancel (~400 us); the
// handle-based queue does it in O(1).
std::uint64_t schedule_cancel_100k() {
  static constexpr int kDepth = 100'000;
  sim::EventQueue q;
  for (int i = 0; i < kDepth; ++i) q.push(1000 + i, [] {});
  const int rounds = 500'000;
  for (int i = 0; i < rounds; ++i) {
    auto h = q.push(500'000 + i, [] {});
    q.cancel(h);
  }
  while (!q.empty()) q.pop();
  return static_cast<std::uint64_t>(rounds);
}

// Retransmit-timer lifecycle: a working set of armed timers where most are
// cancelled (acked) before firing, as in the NIC's data channels and
// CondVar::wait_for.
std::uint64_t timer_churn() {
  sim::Engine eng;
  static constexpr int kTimers = 1024;
  std::vector<sim::EventHandle> armed(kTimers);
  std::uint64_t fired = 0;
  for (int i = 0; i < kTimers; ++i) {
    armed[i] = eng.after(200 * sim::us + i, [&fired] { ++fired; });
  }
  const int rounds = 400'000;
  for (int i = 0; i < rounds; ++i) {
    const int k = i % kTimers;
    eng.cancel(armed[k]);  // ack: 7 of 8 timers never fire
    if (i % 8 == 0) eng.step();
    armed[k] = eng.after(200 * sim::us + (i % 977), [&fired] { ++fired; });
  }
  eng.run();
  return static_cast<std::uint64_t>(rounds);
}

// Chained after() callbacks, one event in flight: pure engine dispatch.
std::uint64_t timer_cascade() {
  sim::Engine eng;
  int remaining = 100'000;
  std::function<void()> tick = [&] {
    if (--remaining > 0) eng.after(10, [&] { tick(); });
  };
  eng.after(10, [&] { tick(); });
  eng.run();
  return 100'000;
}

std::uint64_t coroutine_delay_loop() {
  sim::Engine eng;
  for (int p = 0; p < 8; ++p) {
    eng.spawn([](sim::Engine& e) -> sim::Process {
      for (int i = 0; i < 4'000; ++i) co_await e.delay(100);
    }(eng));
  }
  eng.run();
  return 8 * 4'000;
}

// End-to-end: complete AM request/replies through the full simulated stack
// (each is dozens of events through host, NIC firmware, and fabric).
struct FullStackCounts {
  std::uint64_t msgs = 0;
  std::uint64_t events = 0;  // engine events processed for the whole pass
  // Heap allocations while the second half of the requests ran, i.e.
  // after the first 1000 had warmed every pool, ring and table.
  std::uint64_t steady_allocs = 0;
};

FullStackCounts full_stack_pass(std::uint32_t span_interval = 0) {
  cluster::Cluster cl(cluster::NowConfig(2));
  cl.engine().spans().set_sample_interval(span_interval);
  am::Name server;
  std::uint64_t got = 0, allocs_mark = 0, steady_allocs = 0;
  bool stop = false;
  cl.spawn_thread(1, "s", [&](host::HostThread& t) -> sim::Task<> {
    auto ep = co_await am::Endpoint::create(t, 1);
    ep->set_handler(1, [&](am::Endpoint&, const am::Message& m) {
      ++got;
      m.reply(2, {m.arg(0)});
    });
    server = ep->name();
    while (!stop) {
      if (co_await ep->wait_events_for(t, am::kEventArrivals, 1 * sim::ms)) {
        co_await ep->poll(t, 32);
      }
    }
  });
  cl.spawn_thread(0, "c", [&](host::HostThread& t) -> sim::Task<> {
    auto ep = co_await am::Endpoint::create(t, 2);
    while (!server.valid()) co_await t.sleep(10 * sim::us);
    ep->map(0, server);
    for (int i = 0; i < 2'000; ++i) {
      if (i == 1'000) allocs_mark = g_allocs.load(std::memory_order_relaxed);
      co_await ep->request(t, 0, 1, 1);
    }
    while (ep->credits_in_use() > 0) co_await ep->poll(t, 16);
    steady_allocs = g_allocs.load(std::memory_order_relaxed) - allocs_mark;
    stop = true;
  });
  cl.run_to_completion();
  return {got, cl.engine().events_processed(), steady_allocs};
}

std::uint64_t full_stack_message_rate() { return full_stack_pass().msgs; }

// 1000-host fat-tree request/reply pass for the parallel-simulation
// entries: 500 client/server pairs spread across the tree, each client
// firing pipelined requests at a server on a distant leaf, so every shard
// of a sharded run has live traffic and most links cross shards. The
// workload keeps all state thread-local to its host coroutines (peers are
// found via map_raw's static rendezvous — the first endpoint on every host
// is EpId 1) and is therefore safe on threaded shards. Returns wall
// seconds of run_to_completion only; cluster construction is excluded.
double sharded_1k_pass_secs(int shards, bool threads, bool force_windows,
                            std::uint64_t* msgs_out = nullptr) {
  cluster::ClusterConfig cfg = cluster::NowConfig(1000);
  cfg.topology = cluster::ClusterConfig::Topology::kFatTree;
  cfg.hosts_per_leaf = 8;
  cfg.spines = 4;
  cfg.shards = shards;
  cfg.shard_threads = threads;
  cfg.shard_force_windows = force_windows;
  cluster::Cluster cl(cfg);

  constexpr int kPairs = 500;
  constexpr int kRequests = 20;
  constexpr std::uint64_t kKey = 0x51000;
  for (int p = 0; p < kPairs; ++p) {
    const int server_node = p;        // leaves 0..62
    const int client_node = 999 - p;  // leaves 124..62 (distant leaf)
    cl.spawn_thread(server_node, "s", [=](host::HostThread& t) -> sim::Task<> {
      auto ep = co_await am::Endpoint::create(t, kKey + server_node);
      int got = 0;
      ep->set_handler(1, [&got](am::Endpoint&, const am::Message& m) {
        ++got;
        m.reply(2, {m.arg(0)});
      });
      while (got < kRequests) {
        if (co_await ep->wait_events_for(t, am::kEventArrivals, 1 * sim::ms)) {
          co_await ep->poll(t, 32);
        }
      }
      while (ep->credits_in_use() > 0) co_await ep->poll(t, 16);
    });
    cl.spawn_thread(client_node, "c", [=](host::HostThread& t) -> sim::Task<> {
      auto ep = co_await am::Endpoint::create(t, 2 * kKey + client_node);
      ep->map_raw(0, server_node, /*ep=*/1, kKey + server_node);
      for (int i = 0; i < kRequests; ++i) co_await ep->request(t, 0, 1, 1);
      while (ep->credits_in_use() > 0) co_await ep->poll(t, 16);
    });
  }
  const auto t0 = Clock::now();
  cl.run_to_completion();
  const double secs = seconds_since(t0);
  if (msgs_out != nullptr) {
    *msgs_out = static_cast<std::uint64_t>(kPairs) * kRequests;
  }
  return secs;
}

// Wall-clock pass over a reduced Fig 4 bandwidth sweep (same code path as
// bench_fig4_bandwidth). Items = simulated events, so the rate reads as
// engine events/sec on a real workload.
std::uint64_t fig4_bandwidth_pass() {
  (void)apps::measure_bandwidth(cluster::NowConfig(2), {16, 256, 4096, 16384},
                                /*stream_messages=*/120, /*pingpongs=*/20);
  return 1;
}

// Wall-clock pass over every standard chaos scenario at one seed (same code
// path as bench_chaos_matrix --seeds 1).
std::uint64_t chaos_matrix_pass() {
  std::uint64_t scenarios = 0;
  for (const std::string& name : chaos::standard_scenario_names()) {
    (void)chaos::run_scenario(chaos::standard_scenario(name, 1));
    ++scenarios;
  }
  return scenarios;
}

// ----------------------------------------------------------------- driver

void write_json(const std::string& path,
                const std::vector<BenchResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": 2,\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"unit\": \"%s\", \"rate\": %.6g, "
                 "\"wall_s\": %.4g, \"items\": %llu",
                 r.name.c_str(), r.unit.c_str(), r.rate, r.wall_s,
                 static_cast<unsigned long long>(r.items));
    if (r.lower_is_better) std::fprintf(f, ", \"direction\": \"lower\"");
    if (r.lower_is_better || r.raw) std::fprintf(f, ", \"raw\": true");
    if (r.tolerance >= 0) std::fprintf(f, ", \"tolerance\": %g", r.tolerance);
    if (r.min_value >= 0) {
      std::fprintf(f, ", \"min\": %g", r.min_value);
      if (r.min_cores > 0) std::fprintf(f, ", \"min_cores\": %d", r.min_cores);
    }
    std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::setbuf(stdout, nullptr);
  std::string out = "BENCH_engine.json";
  int repeats = 3;
  double min_secs = 0.4;
  bool quick = false;
  bench::Args args("Engine microbenchmark suite; diffed by scripts/bench_gate.sh.");
  args.option("--json", &out, "PATH", "machine-readable results file")
      .option("--repeats", &repeats, "N", "repeats per benchmark (keep best)")
      .option("--min-secs", &min_secs, "S", "minimum wall time per repeat")
      .flag("--quick", &quick, "smoke run: 1 repeat, 0.05s per benchmark");
  if (!args.parse(argc, argv)) return 2;
  if (quick) {
    repeats = 1;
    min_secs = 0.05;
  }

  const std::vector<Bench> benches = {
      {"calib_spin", "iters/s", calib_spin},
      {"schedule_fire", "events/s", schedule_fire},
      {"schedule_fire_deep", "events/s", schedule_fire_deep},
      {"schedule_cancel_100k", "cancels/s", schedule_cancel_100k},
      {"timer_churn", "timers/s", timer_churn},
      {"timer_cascade", "events/s", timer_cascade},
      {"coroutine_delay_loop", "resumes/s", coroutine_delay_loop},
      {"full_stack_message_rate", "msgs/s", full_stack_message_rate},
      {"fig4_bandwidth_pass", "passes/s", fig4_bandwidth_pass},
      {"chaos_matrix_pass", "scenarios/s", chaos_matrix_pass},
  };

  std::printf("%-26s %14s %-12s %10s\n", "benchmark", "rate", "unit",
              "wall_s");
  std::vector<BenchResult> results;
  for (const auto& b : benches) {
    BenchResult r = run_bench(b, repeats, min_secs);
    std::printf("%-26s %14.0f %-12s %10.3f\n", r.name.c_str(), r.rate,
                r.unit.c_str(), r.wall_s);
    results.push_back(std::move(r));
  }

  // Batching-efficiency metric: engine events per completed request/reply
  // cycle on the full stack. The value is a property of the simulated
  // schedule, not the machine — deterministic across runs, exempt from
  // calib_spin normalization, and lower is better. The gate fails if the
  // batched datapath regresses even on hardware fast enough to hide it.
  {
    const FullStackCounts fs = full_stack_pass();
    BenchResult r;
    r.name = "events_per_message";
    r.unit = "events/msg";
    r.rate = static_cast<double>(fs.events) / static_cast<double>(fs.msgs);
    r.items = fs.msgs;
    r.lower_is_better = true;
    std::printf("%-26s %14.2f %-12s %10s\n", r.name.c_str(), r.rate,
                r.unit.c_str(), "-");
    results.push_back(std::move(r));
  }
  // Steady-state heap allocations per request/reply on the same pass,
  // counted over its second 1000 requests by this binary's operator new.
  // Exact and machine-independent (raw, no tolerance): any new per-message
  // allocation on the message path fails the gate. The residue is the
  // event queue's calendar buckets still growing toward their peaks in a
  // fresh engine. The pass before the counted one leaves the thread-local
  // pools in the same state whatever ran earlier.
  {
    (void)full_stack_pass();
    const FullStackCounts fs = full_stack_pass();
    BenchResult r;
    r.name = "allocs_per_message";
    r.unit = "allocs/msg";
    r.rate = static_cast<double>(fs.steady_allocs) / 1000.0;
    r.items = 1000;
    r.lower_is_better = true;
    r.tolerance = 0;
    std::printf("%-26s %14.3f %-12s %10s\n", r.name.c_str(), r.rate,
                r.unit.c_str(), "-");
    results.push_back(std::move(r));
  }
  // Span-capture overhead: wall-clock cost of the causal span recorder
  // (obs/span.hpp) on the same full-stack pass, reported as the ratio of
  // the uninstrumented message rate to the instrumented one (1.0 = free).
  // A ratio of rates on the same machine needs no calib_spin normalization
  // (raw), lower is better, and each entry carries the tight per-entry
  // tolerance from the ISSUE acceptance: 1-in-64 sampling must stay within
  // ~2% of free, full sampling within ~10% (the checked-in baselines pin
  // the ideal 1.0, so the gate enforces those bounds absolutely).
  {
    // Measuring each config in its own block would fold machine-speed
    // drift between blocks into the ratio; instead every round times one
    // pass per config back to back, and the ratio is taken over per-config
    // minima. A pass is ~10ms, so scheduler preemption and frequency dips
    // add noise comparable to the ~2% signal; that noise is strictly
    // additive, which makes min-of-rounds (not the median) the estimator
    // that converges on the uncontaminated pass time for each config.
    const auto time_pass = [](std::uint32_t interval) {
      const auto t0 = Clock::now();
      (void)full_stack_pass(interval);
      return seconds_since(t0);
    };
    const int rounds =
        std::max(5, static_cast<int>(repeats * min_secs / 0.03));
    std::vector<double> off, in64, full;
    (void)time_pass(0);  // warm caches/allocator before the first round
    for (int i = 0; i < rounds; ++i) {
      off.push_back(time_pass(0));
      in64.push_back(time_pass(64));
      full.push_back(time_pass(1));
    }
    const auto best = [](const std::vector<double>& v) {
      return *std::min_element(v.begin(), v.end());
    };
    const double base = best(off);
    const struct {
      const char* name;
      double secs;
      double tolerance;
    } cfgs[] = {
        {"span_capture_overhead_1in64", best(in64), 0.02},
        {"span_capture_overhead_full", best(full), 0.09},
    };
    for (const auto& c : cfgs) {
      BenchResult r;
      r.name = c.name;
      r.unit = "x";
      r.rate = base > 0 ? c.secs / base : 0.0;
      r.lower_is_better = true;
      r.tolerance = c.tolerance;
      std::printf("%-26s %14.3f %-12s %10s\n", r.name.c_str(), r.rate,
                  r.unit.c_str(), "-");
      results.push_back(std::move(r));
    }
  }
  // Parallel simulation (sim/shard.hpp): the same 1000-host fat-tree
  // request/reply workload timed on the serial engine, on the windowed
  // scheduler at 1 shard (pure synchronization overhead, no parallelism),
  // and on 4 threaded shards (the speedup the sharding exists to buy).
  // Configs are interleaved per round and each takes its min (same
  // rationale as the span-overhead block above).
  {
    const int rounds = quick ? 1 : 2;
    std::uint64_t msgs = 0;
    std::vector<double> serial_s, windowed_s, threaded_s;
    for (int i = 0; i < rounds; ++i) {
      serial_s.push_back(sharded_1k_pass_secs(1, false, false, &msgs));
      windowed_s.push_back(sharded_1k_pass_secs(1, false, true));
      threaded_s.push_back(sharded_1k_pass_secs(4, true, false));
    }
    const auto best = [](const std::vector<double>& v) {
      return *std::min_element(v.begin(), v.end());
    };
    const double serial = best(serial_s);
    const double windowed = best(windowed_s);
    const double threaded = best(threaded_s);

    // Serial message rate at 1000 hosts: the scaling denominator, single-
    // threaded and therefore calib_spin-normalizable like any other rate.
    {
      BenchResult r;
      r.name = "sharded_1k_message_rate";
      r.unit = "msgs/s";
      r.rate = serial > 0 ? static_cast<double>(msgs) / serial : 0.0;
      r.wall_s = serial;
      r.items = msgs;
      std::printf("%-26s %14.0f %-12s %10.3f\n", r.name.c_str(), r.rate,
                  r.unit.c_str(), r.wall_s);
      results.push_back(std::move(r));
    }
    // 4-shard speedup over serial on the same workload. Raw (a ratio of
    // wall times on one machine needs no normalization) and gated by a
    // hard lower bound of 2.0x wherever >= 4 hardware threads exist; on
    // smaller machines the bound is waived (the threads would time-slice
    // one core) and only the baseline comparison applies. The wide
    // tolerance absorbs the cross-machine variance of a parallelism
    // measurement; the min is the real gate.
    {
      BenchResult r;
      r.name = "parallel_speedup_4shard";
      r.unit = "x";
      r.rate = threaded > 0 ? serial / threaded : 0.0;
      r.raw = true;
      r.tolerance = 0.9;
      r.min_value = 2.0;
      r.min_cores = 4;
      std::printf("%-26s %14.3f %-12s %10s\n", r.name.c_str(), r.rate,
                  r.unit.c_str(), "-");
      results.push_back(std::move(r));
    }
    // Windowed-scheduler tax at shards=1: window bookkeeping and router
    // drains with zero parallelism to pay for them. Lower is better,
    // 1.0 = free.
    {
      BenchResult r;
      r.name = "shard_sync_overhead";
      r.unit = "x";
      r.rate = serial > 0 ? windowed / serial : 0.0;
      r.lower_is_better = true;
      r.tolerance = 0.25;
      std::printf("%-26s %14.3f %-12s %10s\n", r.name.c_str(), r.rate,
                  r.unit.c_str(), "-");
      results.push_back(std::move(r));
    }
  }
  write_json(out, results);
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}
