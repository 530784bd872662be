// Unit tests for the discrete-event engine: event ordering, coroutine
// processes, synchronization primitives, RNG determinism, and statistics.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/process.hpp"
#include "sim/random.hpp"
#include "sim/ring.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/unique_function.hpp"

namespace vnet::sim {
namespace {

// ---------------------------------------------------------------- time

TEST(Time, UnitConstants) {
  EXPECT_EQ(1 * us, 1000 * ns);
  EXPECT_EQ(1 * ms, 1000 * us);
  EXPECT_EQ(1 * sec, 1000 * ms);
}

TEST(Time, Conversions) {
  EXPECT_DOUBLE_EQ(to_usec(1500), 1.5);
  EXPECT_DOUBLE_EQ(to_msec(2'500'000), 2.5);
  EXPECT_DOUBLE_EQ(to_sec(3 * sec), 3.0);
  EXPECT_EQ(from_usec(2.5), 2500);
  EXPECT_EQ(from_usec(0.0004), 0);  // rounds to nearest
  EXPECT_EQ(from_usec(0.0006), 1);
}

TEST(Time, Format) {
  EXPECT_EQ(format_time(500), "500ns");
  EXPECT_EQ(format_time(1500), "1.500us");
  EXPECT_EQ(format_time(2'000'000), "2.000ms");
  EXPECT_EQ(format_time(3 * sec), "3.000000s");
  EXPECT_EQ(format_time(kTimeNever), "never");
}

// ------------------------------------------------------ UniqueFunction

TEST(UniqueFunction, EmptyIsFalsy) {
  UniqueFunction f;
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(UniqueFunction, InvokesSmallLambda) {
  int hits = 0;
  UniqueFunction f = [&hits] { ++hits; };
  EXPECT_TRUE(static_cast<bool>(f));
  f();
  f();
  EXPECT_EQ(hits, 2);
}

TEST(UniqueFunction, HoldsMoveOnlyCapture) {
  auto p = std::make_unique<int>(42);
  int got = 0;
  UniqueFunction f = [p = std::move(p), &got] { got = *p; };
  f();
  EXPECT_EQ(got, 42);
}

TEST(UniqueFunction, LargeCaptureGoesToHeapAndStillWorks) {
  struct Big {
    char data[512];
  };
  Big big{};
  big.data[0] = 'x';
  char got = 0;
  UniqueFunction f = [big, &got] { got = big.data[0]; };
  UniqueFunction g = std::move(f);
  g();
  EXPECT_EQ(got, 'x');
}

TEST(UniqueFunction, MoveAssignReleasesOldTarget) {
  auto counter = std::make_shared<int>(0);
  struct Bump {
    std::shared_ptr<int> c;
    ~Bump() {
      if (c) ++*c;
    }
    Bump(std::shared_ptr<int> c) : c(std::move(c)) {}
    Bump(Bump&&) = default;
    void operator()() {}
  };
  UniqueFunction f = Bump{counter};
  f = UniqueFunction([] {});
  EXPECT_EQ(*counter, 1);  // the old Bump target was destroyed
}

// ----------------------------------------------------------- EventQueue

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) {
    auto [t, fn] = q.pop();
    fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    q.push(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelSuppressesEvent) {
  EventQueue q;
  int hits = 0;
  auto h = q.push(10, [&] { ++hits; });
  q.push(20, [&] { ++hits; });
  EXPECT_EQ(q.cancel(h), CancelOutcome::kCancelled);
  EXPECT_EQ(q.cancel(h), CancelOutcome::kAlreadyCancelled);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(hits, 1);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  auto h = q.push(10, [] {});
  q.push(20, [] {});
  q.cancel(h);
  EXPECT_EQ(q.next_time(), 20);
}

// ---------------------------------------------------------------- Engine

TEST(Engine, RunsEventsAndAdvancesClock) {
  Engine eng;
  std::vector<Time> seen;
  eng.after(100, [&] { seen.push_back(eng.now()); });
  eng.after(50, [&] { seen.push_back(eng.now()); });
  eng.run();
  EXPECT_EQ(seen, (std::vector<Time>{50, 100}));
  EXPECT_EQ(eng.now(), 100);
  EXPECT_EQ(eng.events_processed(), 2u);
}

TEST(Engine, RunUntilStopsAtBoundaryAndSetsNow) {
  Engine eng;
  int hits = 0;
  eng.at(10, [&] { ++hits; });
  eng.at(100, [&] { ++hits; });
  eng.run_until(50);
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(eng.now(), 50);
  eng.run();
  EXPECT_EQ(hits, 2);
}

TEST(Engine, RunForIsRelative) {
  Engine eng;
  int hits = 0;
  eng.at(10, [&] { ++hits; });
  eng.run_for(5);
  EXPECT_EQ(hits, 0);
  eng.run_for(5);
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(eng.now(), 10);
}

TEST(Engine, PastTimesClampToNow) {
  Engine eng;
  eng.at(100, [] {});
  eng.run();
  Time seen = -1;
  eng.at(5, [&] { seen = eng.now(); });  // in the past: clamps
  eng.run();
  EXPECT_EQ(seen, 100);
}

TEST(Engine, NestedSchedulingFromEvents) {
  Engine eng;
  std::vector<int> order;
  eng.after(10, [&] {
    order.push_back(1);
    eng.after(5, [&] { order.push_back(2); });
  });
  eng.after(12, [&] { order.push_back(3); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

// --------------------------------------------------------------- Process

Process simple_proc(Engine& eng, std::vector<Time>& log) {
  log.push_back(eng.now());
  co_await eng.delay(7 * us);
  log.push_back(eng.now());
}

TEST(Process, DelayAdvancesTime) {
  Engine eng;
  std::vector<Time> log;
  eng.spawn(simple_proc(eng, log));
  eng.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], 0);
  EXPECT_EQ(log[1], 7 * us);
  EXPECT_EQ(eng.live_processes(), 0u);  // frame reclaimed at completion
}

Process forever_proc(Engine& eng) {
  for (;;) co_await eng.delay(1 * ms);
}

TEST(Process, EngineDestructionReclaimsLiveProcesses) {
  auto eng = std::make_unique<Engine>();
  eng->spawn(forever_proc(*eng));
  eng->run_for(10 * ms);
  EXPECT_EQ(eng->live_processes(), 1u);
  eng.reset();  // must not leak or crash (ASAN-clean)
}

TEST(Process, UnspawnedProcessIsDestroyedCleanly) {
  Engine eng;
  std::vector<Time> log;
  { Process p = simple_proc(eng, log); }  // never spawned
  eng.run();
  EXPECT_TRUE(log.empty());
}

TEST(Process, ManyProcessesInterleaveDeterministically) {
  auto run_once = [] {
    Engine eng(42);
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
      eng.spawn([](Engine& e, std::vector<int>& ord, int id) -> Process {
        co_await e.delay((id % 3) * us);
        ord.push_back(id);
        co_await e.delay((id % 2) * us);
        ord.push_back(100 + id);
      }(eng, order, i));
    }
    eng.run();
    return order;
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 16u);
}

// ------------------------------------------------------------------ Task

Task<int> add_later(Engine& eng, int a, int b) {
  co_await eng.delay(3 * us);
  co_return a + b;
}

Task<int> double_of(Engine& eng, int x) {
  int v = co_await add_later(eng, x, x);
  co_return v;
}

TEST(Task, ReturnsValueThroughAwait) {
  Engine eng;
  int got = 0;
  eng.spawn([](Engine& e, int& g) -> Process {
    g = co_await add_later(e, 2, 3);
  }(eng, got));
  eng.run();
  EXPECT_EQ(got, 5);
  EXPECT_EQ(eng.now(), 3 * us);
}

TEST(Task, NestedTasksCompose) {
  Engine eng;
  int got = 0;
  eng.spawn([](Engine& e, int& g) -> Process {
    g = co_await double_of(e, 21);
  }(eng, got));
  eng.run();
  EXPECT_EQ(got, 42);
}

Task<> set_flag(Engine& eng, bool& flag) {
  co_await eng.delay(1 * us);
  flag = true;
}

TEST(Task, VoidTaskRuns) {
  Engine eng;
  bool flag = false;
  eng.spawn([](Engine& e, bool& f) -> Process {
    co_await set_flag(e, f);
    EXPECT_TRUE(f);
  }(eng, flag));
  eng.run();
  EXPECT_TRUE(flag);
}

TEST(Task, UnawaitedTaskNeverRuns) {
  Engine eng;
  bool flag = false;
  { Task<> t = set_flag(eng, flag); }  // lazily started: dropped unrun
  eng.run();
  EXPECT_FALSE(flag);
}

TEST(Task, MoveOnlyReturnType) {
  Engine eng;
  std::unique_ptr<int> got;
  eng.spawn([](Engine& e, std::unique_ptr<int>& g) -> Process {
    g = co_await [](Engine& eng2) -> Task<std::unique_ptr<int>> {
      co_await eng2.delay(1);
      co_return std::make_unique<int>(9);
    }(e);
  }(eng, got));
  eng.run();
  ASSERT_TRUE(got);
  EXPECT_EQ(*got, 9);
}

// --------------------------------------------------------------- CondVar

Process waiter_proc(Engine& eng, CondVar& cv, int& wakes) {
  co_await cv.wait();
  ++wakes;
  (void)eng;
}

TEST(CondVar, NotifyOneWakesInFifoOrder) {
  Engine eng;
  CondVar cv(eng);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    eng.spawn([](Engine&, CondVar& c, std::vector<int>& ord,
                 int id) -> Process {
      co_await c.wait();
      ord.push_back(id);
    }(eng, cv, order, i));
  }
  eng.run();  // all suspended now
  EXPECT_EQ(cv.waiter_count(), 3u);
  cv.notify_one();
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0}));
  cv.notify_all();
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(CondVar, NotifyWithNoWaitersIsLost) {
  Engine eng;
  CondVar cv(eng);
  cv.notify_all();  // nothing waiting: signal is not latched
  int wakes = 0;
  eng.spawn(waiter_proc(eng, cv, wakes));
  eng.run();
  EXPECT_EQ(wakes, 0);
  cv.notify_one();
  eng.run();
  EXPECT_EQ(wakes, 1);
}

TEST(CondVar, WaitForTimesOut) {
  Engine eng;
  CondVar cv(eng);
  bool notified = true;
  Time woke_at = -1;
  eng.spawn([](Engine& e, CondVar& c, bool& n, Time& w) -> Process {
    n = co_await c.wait_for(10 * us);
    w = e.now();
  }(eng, cv, notified, woke_at));
  eng.run();
  EXPECT_FALSE(notified);
  EXPECT_EQ(woke_at, 10 * us);
  EXPECT_EQ(cv.waiter_count(), 0u);
  // A later notify must not touch the timed-out (stale) entry.
  cv.notify_all();
  eng.run();
}

TEST(CondVar, WaitForNotifiedBeforeTimeout) {
  Engine eng;
  CondVar cv(eng);
  bool notified = false;
  Time woke_at = -1;
  eng.spawn([](Engine& e, CondVar& c, bool& n, Time& w) -> Process {
    n = co_await c.wait_for(10 * us);
    w = e.now();
  }(eng, cv, notified, woke_at));
  eng.after(3 * us, [&] { cv.notify_one(); });
  eng.run();
  EXPECT_TRUE(notified);
  EXPECT_EQ(woke_at, 3 * us);
}

TEST(CondVar, TimedOutWaiterDoesNotConsumeNotify) {
  Engine eng;
  CondVar cv(eng);
  bool first = true, second = false;
  eng.spawn([](Engine&, CondVar& c, bool& r) -> Process {
    r = co_await c.wait_for(5 * us);
  }(eng, cv, first));
  eng.spawn([](Engine&, CondVar& c, bool& r) -> Process {
    r = co_await c.wait_for(100 * us);
  }(eng, cv, second));
  eng.after(10 * us, [&] { cv.notify_one(); });
  eng.run();
  EXPECT_FALSE(first);   // timed out at 5us
  EXPECT_TRUE(second);   // got the notify despite being second in line
}

// Waiters of both kinds share one FIFO: a timed-out waiter leaves it at
// once (waiter_count drops), and notify_all wakes the rest in wait order.
TEST(CondVar, NotifyAllWakesMixedWaitersInFifoOrder) {
  Engine eng;
  CondVar cv(eng);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    eng.spawn([](CondVar& c, std::vector<int>& ord, int id) -> Process {
      if (id % 2 == 0) {
        co_await c.wait();
      } else if (!co_await c.wait_for(id == 3 ? 5 * us : 100 * us)) {
        ord.push_back(-id);  // timed out
        co_return;
      }
      ord.push_back(id);
    }(cv, order, i));
  }
  eng.run_until(1 * us);
  EXPECT_EQ(cv.waiter_count(), 5u);
  eng.run_until(6 * us);
  EXPECT_EQ(order, (std::vector<int>{-3}));
  EXPECT_EQ(cv.waiter_count(), 4u);
  cv.notify_one();
  eng.run_until(7 * us);
  EXPECT_EQ(cv.waiter_count(), 3u);
  cv.notify_all();
  EXPECT_EQ(cv.waiter_count(), 0u);
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{-3, 0, 1, 2, 4}));
  EXPECT_EQ(eng.pending_events(), 0u);  // the notified waiter's timer too
}

// Teardown in either order: a CondVar destroyed under a suspended waiter
// detaches it, and a waiter frame destroyed while linked unlinks itself
// and cancels its timer.
TEST(CondVar, TeardownWithSuspendedWaiters) {
  {
    Engine eng;
    auto cv = std::make_unique<CondVar>(eng);
    eng.spawn([](CondVar& c) -> Process { co_await c.wait_for(1 * ms); }(*cv));
    eng.spawn([](CondVar& c) -> Process { co_await c.wait(); }(*cv));
    eng.run_until(1 * us);
    EXPECT_EQ(cv->waiter_count(), 2u);
    cv.reset();
  }  // ~Engine destroys both frames
  Engine eng;
  CondVar cv(eng);
  eng.spawn([](CondVar& c) -> Process { co_await c.wait_for(1 * ms); }(cv));
  eng.spawn([](CondVar& c) -> Process { co_await c.wait(); }(cv));
  eng.run_until(1 * us);
  eng.shutdown();
  EXPECT_EQ(cv.waiter_count(), 0u);
  cv.notify_all();
  EXPECT_FALSE(eng.has_events());
}

// ------------------------------------------------------------------ Gate

TEST(Gate, WaitersReleaseOnOpenAndLateWaitsPass) {
  Engine eng;
  Gate gate(eng);
  std::vector<int> order;
  eng.spawn([](Engine&, Gate& g, std::vector<int>& ord) -> Process {
    co_await g.wait();
    ord.push_back(1);
  }(eng, gate, order));
  eng.run();
  EXPECT_TRUE(order.empty());
  gate.open();
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  // After open, waits complete immediately (same timestamp).
  eng.spawn([](Engine&, Gate& g, std::vector<int>& ord) -> Process {
    co_await g.wait();
    ord.push_back(2);
  }(eng, gate, order));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  gate.open();  // idempotent
}

// ------------------------------------------------------------- Semaphore

TEST(Semaphore, LimitsConcurrency) {
  Engine eng;
  Semaphore sem(eng, 2);
  int active = 0, peak = 0, done = 0;
  for (int i = 0; i < 6; ++i) {
    eng.spawn([](Engine& e, Semaphore& s, int& a, int& p, int& d) -> Process {
      co_await s.acquire();
      ++a;
      p = std::max(p, a);
      co_await e.delay(10 * us);
      --a;
      ++d;
      s.release();
    }(eng, sem, active, peak, done));
  }
  eng.run();
  EXPECT_EQ(done, 6);
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(sem.available(), 2);
}

TEST(Semaphore, TryAcquire) {
  Engine eng;
  Semaphore sem(eng, 1);
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_FALSE(sem.try_acquire());
  sem.release();
  EXPECT_TRUE(sem.try_acquire());
}

TEST(Semaphore, HandoffIsFifo) {
  Engine eng;
  Semaphore sem(eng, 1);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    eng.spawn([](Engine& e, Semaphore& s, std::vector<int>& ord,
                 int id) -> Process {
      co_await s.acquire();
      ord.push_back(id);
      co_await e.delay(1 * us);
      s.release();
    }(eng, sem, order, i));
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// ------------------------------------------------------------------ Ring

// Growth while the contents wrap around the buffer end keeps FIFO order,
// and the elements still queued are destroyed with the ring.
TEST(Ring, KeepsFifoOrderAcrossWrapAndGrowth) {
  auto token = std::make_shared<int>(0);
  {
    Ring<std::pair<int, std::shared_ptr<int>>> ring;
    int next_in = 0, next_out = 0;
    for (int round = 0; round < 50; ++round) {
      // Net growth of one element per round, popping between pushes so
      // the head walks around the buffer before each growth.
      for (int i = 0; i < 3; ++i) ring.push_back({next_in++, token});
      for (int i = 0; i < 2; ++i) {
        auto [v, p] = ring.take_front();
        EXPECT_EQ(v, next_out++);
      }
    }
    EXPECT_EQ(ring.size(), 50u);
    EXPECT_EQ(ring.front().first, next_out);
    EXPECT_EQ(token.use_count(), 51);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// --------------------------------------------------------------- Mailbox

TEST(Mailbox, ReceiveQueuedValue) {
  Engine eng;
  Mailbox<int> box(eng);
  box.post(7);
  int got = 0;
  eng.spawn([](Engine&, Mailbox<int>& b, int& g) -> Process {
    g = co_await b.receive();
  }(eng, box, got));
  eng.run();
  EXPECT_EQ(got, 7);
}

TEST(Mailbox, ReceiverBlocksUntilPost) {
  Engine eng;
  Mailbox<std::string> box(eng);
  std::string got;
  Time when = -1;
  eng.spawn([](Engine& e, Mailbox<std::string>& b, std::string& g,
               Time& w) -> Process {
    g = co_await b.receive();
    w = e.now();
  }(eng, box, got, when));
  eng.after(5 * us, [&] { box.post("hello"); });
  eng.run();
  EXPECT_EQ(got, "hello");
  EXPECT_EQ(when, 5 * us);
}

TEST(Mailbox, MultipleReceiversServedFifo) {
  Engine eng;
  Mailbox<int> box(eng);
  std::vector<std::pair<int, int>> got;  // (receiver, value)
  for (int i = 0; i < 3; ++i) {
    eng.spawn([](Engine&, Mailbox<int>& b, std::vector<std::pair<int, int>>& g,
                 int id) -> Process {
      int v = co_await b.receive();
      g.emplace_back(id, v);
    }(eng, box, got, i));
  }
  eng.run();
  box.post(10);
  box.post(20);
  box.post(30);
  eng.run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], std::make_pair(0, 10));
  EXPECT_EQ(got[1], std::make_pair(1, 20));
  EXPECT_EQ(got[2], std::make_pair(2, 30));
}

TEST(Mailbox, TryReceive) {
  Engine eng;
  Mailbox<int> box(eng);
  EXPECT_FALSE(box.try_receive().has_value());
  box.post(1);
  box.post(2);
  EXPECT_EQ(box.size(), 2u);
  EXPECT_EQ(box.try_receive().value(), 1);
  EXPECT_EQ(box.try_receive().value(), 2);
  EXPECT_TRUE(box.empty());
}

// ------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(7);
  Rng child = parent.split();
  // Drawing from the child must not perturb the parent relative to a
  // parent that splits but never uses the child.
  Rng parent2(7);
  Rng child2 = parent2.split();
  for (int i = 0; i < 50; ++i) (void)child2.next();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(parent.next(), parent2.next());
  (void)child;
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(99);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, RangeIsInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    auto v = rng.range(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    saw_lo |= (v == 3);
    saw_hi |= (v == 6);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(13);
  double sum = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(25.0);
  EXPECT_NEAR(sum / n, 25.0, 1.0);
}

// ----------------------------------------------------------------- Stats

TEST(Summary, BasicMoments) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.13809, 1e-4);  // sample stddev
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Histogram, QuantilesRoughlyCorrect) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i));
  EXPECT_NEAR(h.quantile(0.5), 500, 300);  // log buckets: coarse but sane
  EXPECT_GE(h.quantile(0.99), 500);
  EXPECT_LE(h.quantile(0.0), 2.0);
}

TEST(Histogram, DetectsBimodality) {
  Histogram h;
  // Fast mode around 30, slow mode around 30000 — like the bimodal RTTs of
  // §6.4.1 (resident vs re-mapping endpoints).
  for (int i = 0; i < 1000; ++i) h.add(30.0 + (i % 7));
  for (int i = 0; i < 100; ++i) h.add(30'000.0 + (i % 500));
  EXPECT_GE(h.mode_count(), 2u);
}

TEST(LinearFit, RecoversLine) {
  LinearFit fit;
  for (int n = 128; n <= 8192; n *= 2) {
    fit.add(n, 0.1112 * n + 61.02);
  }
  EXPECT_NEAR(fit.slope(), 0.1112, 1e-9);
  EXPECT_NEAR(fit.intercept(), 61.02, 1e-6);
  EXPECT_NEAR(fit.r_squared(), 1.0, 1e-12);
}

}  // namespace
}  // namespace vnet::sim
