// vnetbench: one process runs one benchmark workload once, end to end,
// through the simulator's public API on the serial engine, and prints one
// JSON object with everything it measured. perfbench/run.py launches it
// several times per benchmark run and aggregates; see perfbench/README.md
// for the workloads, the metrics and the noise they were tuned against.
//
//   vnetbench --workload alltoall32|remap16|small_stream2 --seed N
//             [--trace 0|1] [--scale F]
//
// --trace 1 additionally samples causal spans, times the benchmark's own
// Endpoint calls in simulated time and installs the delivery ledger; the
// simulation itself must not change (the replay digest is compared).
// --scale shrinks or grows the measured phase (smoke runs use 0.1).
// Right before the measured phase every process times a fixed reference
// kernel, which run.py scales host times by.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "am/endpoint.hpp"
#include "apps/parallel.hpp"
#include "chaos/ledger.hpp"
#include "cluster/cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

// ---- heap allocation counting ---------------------------------------------
//
// Every allocation in the process goes through these replacements, so the
// count over the measured phase is exact and machine-independent
// (sim.allocs_per_msg). Relaxed atomics: the serial engine allocates from one
// thread, but the library links the threaded shard code too.

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  return std::aligned_alloc(a, rounded == 0 ? a : rounded);
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
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace {

using namespace vnet;
using Clock = std::chrono::steady_clock;

constexpr std::uint8_t kReqHandler = 3;
constexpr std::uint8_t kRepHandler = 4;

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  double scale = 1.0;
};

// Exact order statistic (the lower one at q·(n−1)) of a sample, in µs.
double percentile_us(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]) / 1000.0;
}

// ---- request bookkeeping ----------------------------------------------------
//
// Every request carries (issue time, token) in args 0/1 and every reply
// echoes them, so the benchmark times each request in simulated time and
// sees each reply, return and duplicate without any library hook.

class Book {
 public:
  Book(int clients, std::size_t per_client_hint, std::size_t rtt_hint)
      : state_(static_cast<std::size_t>(clients)) {
    for (auto& s : state_) s.reserve(per_client_hint);
    rtt_ns_.reserve(rtt_hint);
  }

  std::uint64_t issue(int client, bool measured) {
    auto& s = state_[static_cast<std::size_t>(client)];
    s.push_back(measured ? kMeasured : 0);
    if (measured) ++attempted_;
    return (static_cast<std::uint64_t>(client) << 40) | (s.size() - 1);
  }

  void replied(std::uint64_t token, sim::Time issued_at, sim::Time now) {
    std::uint8_t& f = flag(token);
    if ((f & kAnswered) != 0) {
      ++duplicates_;
      return;
    }
    f |= kAnswered;
    if ((f & kMeasured) != 0) rtt_ns_.push_back(now - issued_at);
  }

  void returned(std::uint64_t token) {
    flag(token) |= kReturned;
    ++returned_;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t returned_count() const { return returned_; }
  const std::vector<std::int64_t>& rtt_ns() const { return rtt_ns_; }

  /// Requests that failed: returned to sender, never answered, or answered
  /// more than once. `measured_failed` counts only measured-phase requests.
  void tally(std::uint64_t* all_failed, std::uint64_t* measured_failed,
             std::uint64_t* unanswered) const {
    *all_failed = duplicates_;
    *measured_failed = duplicates_;
    *unanswered = 0;
    for (const auto& s : state_) {
      for (std::uint8_t f : s) {
        const bool bad = (f & kReturned) != 0 || (f & kAnswered) == 0;
        if ((f & kAnswered) == 0) ++*unanswered;
        if (bad) {
          ++*all_failed;
          if ((f & kMeasured) != 0) ++*measured_failed;
        }
      }
    }
  }

 private:
  static constexpr std::uint8_t kMeasured = 1, kAnswered = 2, kReturned = 4;

  std::uint8_t& flag(std::uint64_t token) {
    return state_[static_cast<std::size_t>(token >> 40)]
                 [static_cast<std::size_t>(token & ((1ull << 40) - 1))];
  }

  std::vector<std::vector<std::uint8_t>> state_;
  std::vector<std::int64_t> rtt_ns_;
  std::uint64_t attempted_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t returned_ = 0;
};

// ---- reference kernel ----------------------------------------------------------
//
// A fixed amount of simulator-shaped work that never changes with the
// simulator's code: a binary-heap event queue popping into a 16 MB object
// table, a hash map and small type-erased callbacks on the heap. Each process
// runs it right before its measured phase and run.py scales the process's
// host times by it, because this host's speed drifts by 10-30% over tens of
// seconds and the kernel slows down with it (README.md).

struct RefObj {
  std::uint64_t w[8];
};

/// Runs the kernel; returns its wall time and stores a checksum of its work.
double reference_kernel(std::uint64_t* checksum) {
  constexpr long kEvents = 400'000;
  const Clock::time_point t0 = Clock::now();
  std::vector<RefObj> objs(1u << 18);
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  table.reserve(1u << 16);
  using Ev = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Ev, std::vector<Ev>, std::greater<>> queue;
  std::uint64_t x = 0x9E3779B97F4A7C15ull, acc = 0;
  auto rnd = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const auto pick = [&] {
    return static_cast<std::uint32_t>(rnd() % objs.size());
  };
  for (int i = 0; i < 40'000; ++i) queue.push({rnd() % 100'000, pick()});
  std::vector<std::unique_ptr<std::function<void()>>> pending;
  pending.reserve(256);
  for (long i = 0; i < kEvents; ++i) {
    const Ev e = queue.top();
    queue.pop();
    RefObj& o = objs[e.second];
    o.w[0] += e.first;
    o.w[3] ^= o.w[0];
    acc += o.w[3];
    table[rnd() & 0xffff] += acc;
    if ((i & 7) == 0) {
      pending.push_back(
          std::make_unique<std::function<void()>>([&acc, i] { acc += i; }));
    }
    if (pending.size() >= 200) {
      for (auto& f : pending) (*f)();
      pending.clear();
    }
    queue.push({e.first + 1 + rnd() % 100'000, pick()});
  }
  *checksum = acc ^ table.size();
  return seconds(t0, Clock::now());
}

/// The process's peak resident set so far (VmHWM), in KiB; 0 if unknown.
long peak_rss_kib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atol(line + 6);
  }
  std::fclose(f);
  return kib;
}

/// Returns freed heap to the system and restarts the peak-RSS count from the
/// current resident set, so the reference kernel's memory is not counted.
bool reset_peak_rss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

// ---- one run -----------------------------------------------------------------

/// Everything one workload run records; the layer metrics are derived from
/// the registry snapshots taken at the measured phase's edges.
struct Run {
  Options opt;
  Clock::time_point t_begin;      ///< before cluster construction
  Clock::time_point t_built;      ///< constructor returned
  Clock::time_point t_open;       ///< first measured message
  Clock::time_point t_close;      ///< measured phase over
  double ref_pause_s = 0;         ///< reference kernel and its clean-up
  double ref_s = 0;               ///< reference kernel alone
  std::uint64_t ref_checksum = 0;
  long peak_kib_before_ref = 0;   ///< VmHWM just before the kernel
  sim::Time sim_open = 0, sim_close = 0;
  std::uint64_t allocs_open = 0, allocs_close = 0;
  obs::Snapshot snap_open, snap_close;
  std::uint64_t completed = 0;  ///< requests answered within the phase
  std::uint64_t bytes_sent = 0, bytes_received = 0;  ///< alltoall payload
  std::vector<std::string> errors;
  std::vector<std::int64_t> request_sim_ns, poll_sim_ns;
  bool phase_open = false;  ///< simulated time inside the measured phase
};

void open_phase(Run& r, cluster::Cluster& cl) {
  // The reference kernel runs on this CPU right before the measured phase;
  // its time is left out of setup_s and its memory out of peak_rss_mb.
  const Clock::time_point pause = Clock::now();
  r.peak_kib_before_ref = peak_rss_kib();
  r.ref_s = reference_kernel(&r.ref_checksum);
  if (!reset_peak_rss()) {
    r.errors.push_back("could not reset the peak RSS after the reference");
  }
  r.ref_pause_s = seconds(pause, Clock::now());
  r.snap_open = cl.merged_snapshot();
  r.sim_open = cl.now();
  r.allocs_open = g_allocs.load(std::memory_order_relaxed);
  r.phase_open = true;
  if (r.opt.trace) {
    // Rings sized so each endpoint keeps its sampled measured-phase traces.
    cl.engine().spans().set_ring_capacity(8192);
    cl.engine().spans().set_sample_interval(4);
  }
  r.t_open = Clock::now();
}

void close_phase(Run& r, cluster::Cluster& cl) {
  r.t_close = Clock::now();
  r.allocs_close = g_allocs.load(std::memory_order_relaxed);
  r.sim_close = cl.now();
  r.phase_open = false;
  if (r.opt.trace) cl.engine().spans().set_sample_interval(0);
  r.snap_close = cl.merged_snapshot();
}

/// Issues one request (16-byte or bulk), timing the call in simulated time
/// when tracing.
sim::Task<> timed_request(Run& r, host::HostThread& t, am::Endpoint& ep,
                          std::uint32_t dest, std::uint32_t bulk,
                          std::uint64_t token, std::uint64_t a2) {
  const sim::Time now = t.engine().now();
  const auto stamp = static_cast<std::uint64_t>(now);
  if (bulk == 0) {
    co_await ep.request(t, dest, kReqHandler, stamp, token, a2);
  } else {
    co_await ep.request_bulk(t, dest, kReqHandler, bulk, nullptr, stamp,
                             token, a2);
  }
  if (r.opt.trace && r.phase_open) {
    r.request_sim_ns.push_back(t.engine().now() - now);
  }
}

sim::Task<std::size_t> timed_poll(Run& r, host::HostThread& t,
                                  am::Endpoint& ep, std::size_t max) {
  const sim::Time now = t.engine().now();
  const std::size_t n = co_await ep.poll(t, max);
  if (r.opt.trace && r.phase_open) {
    r.poll_sim_ns.push_back(t.engine().now() - now);
  }
  co_return n;
}

void install_client_handlers(Run& r, Book& book, am::Endpoint& ep) {
  ep.set_handler(kRepHandler, [&r, &book](am::Endpoint& e,
                                          const am::Message& m) {
    const sim::Time now = e.host().engine().now();
    book.replied(m.arg(1), static_cast<sim::Time>(m.arg(0)), now);
    if (r.phase_open) ++r.completed;
  });
  ep.set_undeliverable_handler([&book](am::Endpoint&, am::ReturnedMessage rm) {
    if (rm.descriptor.body.handler == kReqHandler) {
      book.returned(rm.descriptor.body.args[1]);
    }
  });
}

/// Echo server handler: the reply carries the request's stamp and token.
void install_echo(am::Endpoint& ep) {
  ep.set_handler(kReqHandler, [](am::Endpoint&, const am::Message& m) {
    m.reply(kRepHandler, {m.arg(0), m.arg(1)});
  });
}

// ---- workloads ---------------------------------------------------------------

/// What a workload leaves behind once its cluster is gone.
struct Result {
  std::unique_ptr<Book> book;
  std::uint64_t digest = 0;
  std::uint64_t events_total = 0;
  std::uint64_t measured_msgs = 0;  ///< denominator of the per-msg ratios
  double link_ns_per_byte = 0;
  std::vector<obs::SpanTrace> traces;  ///< sampled spans (--trace 1)
};

/// Records the cluster's end state; every simulated thread must have ended.
void finish(Run& r, Result& res, cluster::Cluster& cl) {
  if (!cl.all_threads_done()) {
    r.errors.push_back("simulated threads still running at the end");
  }
  res.digest = cl.replay_digest();
  res.events_total = cl.events_processed();
  res.link_ns_per_byte = cl.config().fabric.link.ns_per_byte;
  if (r.opt.trace) res.traces = cl.engine().spans().collect();
}

/// alltoall32: FT Class-A transpose on the NOW fat-tree. One warm-up
/// transpose, then `transposes` measured ones; each rank sends its 31
/// bulk requests in a seeded order and proceeds once all of its sends are
/// answered and all 31 of the transpose's blocks have arrived.
Result run_alltoall32(Run& r) {
  constexpr int kRanks = 32;
  constexpr std::uint32_t kBytes = 125'000;  // 128e6 / 32^2, FT Class A
  const int transposes = std::max(1, static_cast<int>(2 * r.opt.scale + 0.5));
  const int rounds = transposes + 1;         // + warm-up

  // Seeded inputs: each rank's destination order for every round.
  std::vector<std::vector<std::vector<int>>> order(kRanks);
  std::mt19937_64 gen(r.opt.seed * 0x9E3779B97F4A7C15ull + 1);
  for (int rank = 0; rank < kRanks; ++rank) {
    for (int k = 0; k < rounds; ++k) {
      std::vector<int> peers;
      for (int p = 0; p < kRanks; ++p) {
        if (p != rank) peers.push_back(p);
      }
      std::shuffle(peers.begin(), peers.end(), gen);
      order[rank].push_back(std::move(peers));
    }
  }

  cluster::ClusterConfig cfg = cluster::NowConfig(kRanks);
  cfg.seed = r.opt.seed;
  r.t_begin = Clock::now();
  cluster::Cluster cl(cfg);
  r.t_built = Clock::now();

  Result res;
  res.book = std::make_unique<Book>(kRanks, rounds * (kRanks - 1),
                                    transposes * kRanks * (kRanks - 1));
  Book& book = *res.book;
  // arrived[rank][round]: blocks of that transpose delivered to the rank.
  auto arrived = std::make_shared<std::vector<std::vector<int>>>(
      kRanks, std::vector<int>(static_cast<std::size_t>(rounds), 0));
  int entered = 0, finished = 0;
  cluster::Cluster* c = &cl;

  apps::launch_spmd(cl, kRanks, [&, arrived, c](apps::Par& par)
                                     -> sim::Task<> {
    const int rank = par.rank();
    am::Endpoint& ep = par.endpoint();
    host::HostThread& t = par.thread();
    install_client_handlers(r, book, ep);
    ep.set_handler(kReqHandler, [&r, arrived, rank](am::Endpoint&,
                                                    const am::Message& m) {
      if (m.arg(2) >= 1) r.bytes_received += m.bulk_bytes();
      ++(*arrived)[static_cast<std::size_t>(rank)]
                  [static_cast<std::size_t>(m.arg(2))];
      m.reply(kRepHandler, {m.arg(0), m.arg(1)});
    });
    // Everyone has installed the transpose handlers before any block flies.
    co_await par.barrier();
    for (int k = 0; k < rounds; ++k) {
      if (k == 1) {
        co_await par.barrier();
        if (entered++ == 0) open_phase(r, *c);
      }
      const bool measured = k >= 1;
      for (int to : order[rank][k]) {
        const std::uint64_t token = book.issue(rank, measured);
        if (measured) r.bytes_sent += kBytes;
        co_await timed_request(r, t, ep, static_cast<std::uint32_t>(to),
                               kBytes, token, static_cast<std::uint64_t>(k));
      }
      const auto& mine = (*arrived)[static_cast<std::size_t>(rank)];
      while (mine[static_cast<std::size_t>(k)] < kRanks - 1 ||
             ep.credits_in_use() > 0) {
        if (co_await timed_poll(r, t, ep, 16) == 0) {
          (void)co_await ep.wait_events_for(t, am::kEventArrivals, sim::ms);
        }
      }
    }
    if (++finished == kRanks) close_phase(r, *c);
    // Stay responsive until every rank is done so late replies land.
    while (finished < kRanks) {
      if (co_await ep.wait_events_for(t, am::kEventArrivals, sim::ms)) {
        co_await ep.poll(t, 16);
      }
    }
  });
  cl.run_to_completion();
  finish(r, res, cl);
  if (entered != kRanks || finished != kRanks) {
    r.errors.push_back("alltoall32: not every rank finished");
  }
  if (r.bytes_received != r.bytes_sent) {
    r.errors.push_back("alltoall32: bytes received != bytes sent");
  }
  res.measured_msgs = book.attempted();
  return res;
}

/// Streaming workloads: `clients` client hosts each stream 16-byte requests
/// at a full credit window to their own server endpoint on node 0; the
/// measured phase is the simulated window [warmup, warmup + window).
struct StreamShape {
  int clients;
  int server_frames;
  sim::Duration warmup;
  sim::Duration window;
  sim::Duration max_offset;  ///< seeded client start offsets in [0, this)
  sim::Duration max_gap;     ///< seeded think time between requests
  double expected_rate;      ///< msgs/s, to pre-size the bookkeeping
};

Result run_stream(Run& r, const StreamShape& s) {
  const int k = s.clients;
  std::mt19937_64 gen(r.opt.seed * 0x9E3779B97F4A7C15ull + 2);
  std::vector<sim::Duration> offset(static_cast<std::size_t>(k));
  for (auto& o : offset) {
    o = static_cast<sim::Duration>(gen() % static_cast<std::uint64_t>(
                                               s.max_offset));
  }
  // Think times cycle through a seeded table (generated up front, so the
  // measured phase draws nothing).
  std::vector<sim::Duration> gaps(4096, 0);
  if (s.max_gap > 0) {
    for (auto& g : gaps) {
      g = static_cast<sim::Duration>(gen() %
                                     static_cast<std::uint64_t>(s.max_gap));
    }
  }

  cluster::ClusterConfig cfg = cluster::NowConfig(k + 1);
  cfg.seed = r.opt.seed;
  cfg.nic.endpoint_frames = s.server_frames;
  r.t_begin = Clock::now();
  cluster::Cluster cl(cfg);
  r.t_built = Clock::now();

  Result res;
  // Sized with headroom so the measured phase never grows a vector.
  const double expected =
      1.25 * s.expected_rate * sim::to_sec(s.warmup + s.window);
  res.book = std::make_unique<Book>(k, static_cast<std::size_t>(expected / k),
                                    static_cast<std::size_t>(expected));
  Book& book = *res.book;
  std::vector<am::Name> server_names(static_cast<std::size_t>(k));
  std::vector<std::unique_ptr<am::Endpoint>> server_eps;
  bool issuing = true, serving = true;
  const sim::Time open_at = s.warmup;
  const sim::Time close_at = s.warmup + s.window;

  // One server thread polls every endpoint round-robin (Fig 6 "ST").
  cl.spawn_thread(0, "server", [&](host::HostThread& t) -> sim::Task<> {
    for (int c = 0; c < k; ++c) {
      auto ep = co_await am::Endpoint::create(t, 0x100 + c);
      install_echo(*ep);
      server_names[static_cast<std::size_t>(c)] = ep->name();
      server_eps.push_back(std::move(ep));
    }
    while (serving) {
      std::size_t handled = 0;
      for (auto& ep : server_eps) handled += co_await ep->poll(t, 32);
      if (handled == 0) {
        if (k == 1) {
          (void)co_await server_eps[0]->wait_events_for(t, am::kEventArrivals,
                                                        sim::ms);
        } else {
          co_await t.compute(200);
        }
      }
    }
  });
  for (int c = 0; c < k; ++c) {
    cl.spawn_thread(c + 1, "client" + std::to_string(c),
                     [&, c](host::HostThread& t) -> sim::Task<> {
      auto ep = co_await am::Endpoint::create(t, 0xc0 + c);
      install_client_handlers(r, book, *ep);
      while (!server_names[static_cast<std::size_t>(c)].valid()) {
        co_await t.sleep(50 * sim::us);
      }
      ep->map(0, server_names[static_cast<std::size_t>(c)]);
      co_await t.sleep(offset[static_cast<std::size_t>(c)]);
      std::size_t i = static_cast<std::size_t>(c) * 613;
      while (issuing) {
        const std::uint64_t token = book.issue(c, r.phase_open);
        co_await timed_request(r, t, *ep, 0, 0, token, 0);
        co_await timed_poll(r, t, *ep, 8);
        const sim::Duration g = gaps[i++ % gaps.size()];
        if (g > 0) co_await t.compute(g);
      }
      const sim::Time deadline = t.engine().now() + 200 * sim::ms;
      while (ep->credits_in_use() > 0 && t.engine().now() < deadline) {
        co_await ep->poll(t, 16);
        co_await t.compute(500);
      }
    });
  }
  cl.run_until(open_at);
  open_phase(r, cl);
  cl.run_until(close_at);
  close_phase(r, cl);
  issuing = false;
  // Clients drain their windows, then the server stops.
  cl.engine().after(300 * sim::ms, [&serving] { serving = false; });
  cl.run_to_completion();
  finish(r, res, cl);
  res.measured_msgs = r.completed;
  return res;
}

// ---- metrics -------------------------------------------------------------------

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

void json_num(std::string& out, const char* key, double v, bool& first) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s\"%s\":%.17g", first ? "" : ",", key, v);
  out += buf;
  first = false;
}

int run_main(const Options& opt) {
  Run r;
  r.opt = opt;
  std::unique_ptr<chaos::DeliveryLedger> ledger;
  std::unique_ptr<chaos::ProbeGuard> guard;
  if (opt.trace) {
    ledger = std::make_unique<chaos::DeliveryLedger>();
    guard = std::make_unique<chaos::ProbeGuard>(ledger.get());
  }

  Result res;
  if (opt.workload == "alltoall32") {
    res = run_alltoall32(r);
  } else if (opt.workload == "remap16") {
    res = run_stream(r, {.clients = 16,
                         .server_frames = 8,
                         .warmup = 50 * sim::ms,
                         .window = static_cast<sim::Duration>(
                             400 * sim::ms * opt.scale),
                         .max_offset = sim::ms,
                         .max_gap = 0,
                         .expected_rate = 70'000});
  } else if (opt.workload == "small_stream2") {
    res = run_stream(r, {.clients = 1,
                         .server_frames = 8,
                         .warmup = 2 * sim::ms,
                         .window = static_cast<sim::Duration>(
                             1800 * sim::ms * opt.scale),
                         .max_offset = 100 * sim::us,
                         .max_gap = 400,
                         .expected_rate = 90'000});
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  const Book& book = *res.book;
  std::uint64_t all_failed = 0, failed = 0, unanswered = 0;
  book.tally(&all_failed, &failed, &unanswered);
  if (all_failed != 0) {
    r.errors.push_back("requests failed: " + std::to_string(all_failed) +
                       " (unanswered " + std::to_string(unanswered) +
                       ", returned " + std::to_string(book.returned_count()) +
                       ")");
  }
  if (ledger) {
    for (const std::string& v : ledger->violations()) {
      r.errors.push_back("ledger: " + v);
    }
  }
  if (book.attempted() == 0 || res.measured_msgs == 0) {
    r.errors.push_back("measured phase completed no requests");
  }

  const obs::Snapshot w = obs::diff(r.snap_close, r.snap_open);
  const double msgs = static_cast<double>(res.measured_msgs);
  const double sim_s = sim::to_sec(r.sim_close - r.sim_open);
  const double host_s = seconds(r.t_open, r.t_close);
  const auto events =
      static_cast<double>(w.counter("sim.events_processed"));
  const long peak_kib = std::max(r.peak_kib_before_ref, peak_rss_kib());
  if (peak_kib == 0) r.errors.push_back("could not read the peak RSS");

  std::string out = "{";
  bool first = true;
  auto num = [&](const char* k, double v) { json_num(out, k, v, first); };

  // End to end.
  num("host_s", host_s);
  num("setup_s", seconds(r.t_begin, r.t_open) - r.ref_pause_s);
  num("peak_rss_mb", static_cast<double>(peak_kib) / 1024.0);
  num("sim_msgs_per_s", ratio(static_cast<double>(r.completed), sim_s));
  num("sim_rtt_p50_us", percentile_us(book.rtt_ns(), 0.50));
  num("sim_rtt_p99_us", percentile_us(book.rtt_ns(), 0.99));
  num("am.rtt_samples", static_cast<double>(book.rtt_ns().size()));
  num("attempted", static_cast<double>(book.attempted()));
  num("failed", static_cast<double>(failed));
  num("sim_s", sim_s);

  // Layers.
  num("cluster.build_s", seconds(r.t_begin, r.t_built));
  num("cluster.bringup_s", seconds(r.t_built, r.t_open) - r.ref_pause_s);
  num("ref_s", r.ref_s);
  num("sim.events_per_msg", ratio(events, msgs));
  num("sim.host_ns_per_event", ratio(host_s * 1e9, events));
  num("sim.allocs_per_msg",
      ratio(static_cast<double>(r.allocs_close - r.allocs_open), msgs));
  num("sim.arena_fallbacks_per_msg",
      ratio(static_cast<double>(w.counter("sim.arena.closure_fallbacks")),
            msgs));

  std::uint64_t link_pkts = 0, drops = 0;
  double max_util = 0;
  for (const auto& [name, v] : w.counters) {
    if (name.rfind("fabric.link.", 0) != 0) continue;
    if (name.ends_with(".packets_tx")) link_pkts += v;
    if (name.ends_with(".drops_down") || name.ends_with(".drops_fault")) {
      drops += v;
    }
    if (name.ends_with(".bytes_tx")) {
      max_util = std::max(max_util,
                          ratio(static_cast<double>(v) *
                                    res.link_ns_per_byte,
                                sim_s * 1e9));
    }
  }
  drops += w.counter("fabric.injected_drops");
  double watermark = 0;
  for (const auto& [name, v] : r.snap_close.gauges) {
    if (name.rfind("fabric.switch.", 0) == 0) watermark = std::max(watermark, v);
  }
  num("fabric.link_pkts_per_msg", ratio(static_cast<double>(link_pkts), msgs));
  num("fabric.max_link_util", max_util);
  num("fabric.switch_queue_watermark_max", watermark);
  num("fabric.drops", static_cast<double>(drops));

  // Cluster-wide total over the phase of every host.<n>...<suffix> counter.
  const auto sum = [&](const std::string& suffix) {
    return static_cast<double>(w.sum_counters("host.", suffix));
  };
  const auto nack = [&](lanai::NackReason why) {
    return sum(".nic.nacks_sent_by_reason." +
               std::to_string(static_cast<int>(why)));
  };
  const double data_sent = sum(".nic.data_sent");
  num("nic.wakeups_per_msg", ratio(sum(".nic.firmware_wakeups"), msgs));
  num("nic.data_pkts_per_msg", ratio(data_sent, msgs));
  num("nic.retx_frac", ratio(sum(".nic.retransmissions"), data_sent));
  num("nic.dup_frac", ratio(sum(".nic.duplicates_suppressed"), data_sent));
  num("nic.nack_notres_per_msg",
      ratio(nack(lanai::NackReason::kNotResident), msgs));
  num("nic.nack_qfull_per_msg", ratio(nack(lanai::NackReason::kQueueFull), msgs));
  num("nic.frames_loaded", sum(".nic.frames_loaded"));

  num("driver.remaps_per_sim_s", ratio(sum(".driver.remaps"), sim_s));
  num("driver.write_faults", sum(".driver.write_faults"));
  num("driver.proxy_faults", sum(".driver.proxy_faults"));
  num("driver.evictions", sum(".driver.evictions"));

  num("am.send_stalls_per_msg", ratio(sum(".send_stalls"), msgs));
  num("am.wait_wakeups_per_msg", ratio(sum(".wait_wakeups"), msgs));
  num("am.returned", sum(".returns_handled"));
  num("am.request_sim_us.p50", percentile_us(r.request_sim_ns, 0.50));
  num("am.request_sim_us.p99", percentile_us(r.request_sim_ns, 0.99));
  num("am.poll_sim_us.p50", percentile_us(r.poll_sim_ns, 0.50));

  if (opt.trace) {
    std::vector<std::vector<std::int64_t>> stage(obs::kSpanStageCount);
    std::uint64_t complete = 0;
    for (const obs::SpanTrace& tr : res.traces) {
      if (!tr.complete || tr.returned) continue;
      ++complete;
      const auto cp = tr.critical_path();
      for (unsigned i = 0; i < obs::kSpanStageCount; ++i) {
        stage[i].push_back(cp[i]);
      }
    }
    for (unsigned i = 0; i < obs::kSpanStageCount; ++i) {
      const std::string base =
          std::string("span.") + obs::span_stage_name(i);
      num((base + ".p50_us").c_str(), percentile_us(stage[i], 0.50));
      num((base + ".p99_us").c_str(), percentile_us(stage[i], 0.99));
    }
    num("span.traces", static_cast<double>(complete));
    const auto counts = ledger->counts();
    num("ledger.injected", static_cast<double>(counts.injected));
  }

  // Exact determinism fingerprint: every simulated outcome and count.
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, res.digest);
  out += ",\"digest\":\"";
  out += hex;
  out += "\",\"events_total\":" + std::to_string(res.events_total);
  out += ",\"allocs\":" + std::to_string(r.allocs_close - r.allocs_open);
  std::snprintf(hex, sizeof hex, "%016" PRIx64, r.ref_checksum);
  out += ",\"ref_checksum\":\"";
  out += hex;
  out += "\"";
  out += ",\"bytes_sent\":" + std::to_string(r.bytes_sent);
  out += ",\"bytes_received\":" + std::to_string(r.bytes_received);
  out += ",\"errors\":[";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    if (i) out += ",";
    out += "\"";
    for (char ch : r.errors[i]) {
      if (ch == '"' || ch == '\\') out += '\\';
      out += ch;
    }
    out += "\"";
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return r.errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (v == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return 2;
    }
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (a == "--scale") {
      opt.scale = std::strtod(v, nullptr);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return 2;
    }
    ++i;
  }
  if (opt.workload.empty() || !(opt.scale > 0)) {
    std::fprintf(stderr,
                 "usage: vnetbench --workload NAME --seed N [--trace 0|1] "
                 "[--scale F]\n");
    return 2;
  }
  return run_main(opt);
}
