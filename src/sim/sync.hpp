#pragma once

#include <coroutine>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "sim/engine.hpp"
#include "sim/ring.hpp"
#include "sim/time.hpp"

namespace vnet::sim {

/// Condition variable for simulation processes.
///
/// As with POSIX condition variables, waits can wake spuriously relative to
/// the guarded predicate (another process may consume the state between
/// notify and resume), so callers loop:
///
///     while (!pred()) co_await cv.wait();
///
/// All wakeups are delivered through the engine's event queue in FIFO order.
///
/// Waiters form an intrusive FIFO of wait records that live in the
/// awaiters themselves, i.e. in the suspended coroutine frames, so waiting
/// allocates nothing. A record is linked exactly while its waiter is live:
/// notify unlinks it, a wait_for timeout unlinks it, and destroying a
/// suspended frame (engine teardown) unlinks it and cancels its timer. A
/// CondVar destroyed first detaches every record it still holds.
class CondVar {
  struct Waiter {
    std::coroutine_handle<> handle;
    EventHandle timer;         ///< wait_for() only: cancelled on notify
    CondVar* cv = nullptr;     ///< the list this record is linked into
    Waiter* prev = nullptr;
    Waiter* next = nullptr;
    bool notified = false;
  };

 public:
  explicit CondVar(Engine& engine) : engine_(&engine) {}

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  ~CondVar() {
    while (head_ != nullptr) unlink(*head_);
  }

  /// Awaitable: suspends until notify_one()/notify_all().
  auto wait() {
    struct Awaiter {
      explicit Awaiter(CondVar& c) : cv(c) {}
      Awaiter(const Awaiter&) = delete;
      Awaiter& operator=(const Awaiter&) = delete;
      ~Awaiter() {
        if (w.cv != nullptr) w.cv->unlink(w);
      }
      CondVar& cv;
      Waiter w;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        w.handle = h;
        cv.link(w);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /// Awaitable: suspends until notified or until `d` elapses.
  /// `co_await cv.wait_for(d)` yields true if notified, false on timeout.
  /// A notify cancels the timeout event outright (O(1) in the event queue),
  /// and a timeout unlinks the waiter, so neither leaves anything behind.
  auto wait_for(Duration d) {
    struct Awaiter {
      Awaiter(CondVar& c, Duration dur) : cv(c), eng(*c.engine_), d(dur) {}
      Awaiter(const Awaiter&) = delete;
      Awaiter& operator=(const Awaiter&) = delete;
      ~Awaiter() {
        if (w.cv != nullptr) w.cv->unlink(w);
        if (w.timer.valid()) eng.cancel(w.timer);
      }
      CondVar& cv;
      Engine& eng;
      Duration d;
      Waiter w;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        w.handle = h;
        cv.link(w);
        w.timer = eng.after(d, [s = &w, &e = eng] {
          s->timer = EventHandle{};
          if (s->cv != nullptr) s->cv->unlink(*s);
          e.post(s->handle);
        });
      }
      bool await_resume() const noexcept { return w.notified; }
    };
    return Awaiter{*this, d};
  }

  /// Wakes the earliest waiter, if any.
  void notify_one() {
    if (head_ != nullptr) wake(*head_);
  }

  /// Wakes all waiters in FIFO order.
  void notify_all() {
    while (head_ != nullptr) wake(*head_);
  }

  /// Number of waiters (neither notified nor timed out).
  std::size_t waiter_count() const { return count_; }
  Engine& engine() { return *engine_; }

 private:
  void link(Waiter& w) {
    w.cv = this;
    w.prev = tail_;
    w.next = nullptr;
    (tail_ != nullptr ? tail_->next : head_) = &w;
    tail_ = &w;
    ++count_;
  }

  void unlink(Waiter& w) {
    (w.prev != nullptr ? w.prev->next : head_) = w.next;
    (w.next != nullptr ? w.next->prev : tail_) = w.prev;
    w.cv = nullptr;
    w.prev = w.next = nullptr;
    --count_;
  }

  void wake(Waiter& w) {
    unlink(w);
    w.notified = true;
    if (w.timer.valid()) {
      engine_->cancel(w.timer);
      w.timer = EventHandle{};
    }
    engine_->post(w.handle);
  }

  Engine* engine_;
  Waiter* head_ = nullptr;
  Waiter* tail_ = nullptr;
  std::size_t count_ = 0;
};

/// One-shot latch: processes wait until open() is called once; waits after
/// that complete immediately. Used for residency transitions and joins.
class Gate {
 public:
  explicit Gate(Engine& engine) : engine_(&engine) {}

  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  bool is_open() const { return open_; }

  void open() {
    if (open_) return;
    open_ = true;
    for (auto h : waiters_) engine_->post(h);
    waiters_.clear();
  }

  auto wait() {
    struct Awaiter {
      Gate& gate;
      bool await_ready() const noexcept { return gate.open_; }
      void await_suspend(std::coroutine_handle<> h) {
        gate.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Engine* engine_;
  bool open_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Counting semaphore with FIFO hand-off, for modelling exclusive hardware
/// resources (DMA engines, bus grants).
class Semaphore {
 public:
  Semaphore(Engine& engine, int initial) : engine_(&engine), count_(initial) {}

  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  auto acquire() {
    struct Awaiter {
      Semaphore& sem;
      bool await_ready() noexcept {
        if (sem.count_ > 0) {
          --sem.count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        sem.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  bool try_acquire() {
    if (count_ > 0) {
      --count_;
      return true;
    }
    return false;
  }

  /// Releases one unit; hands it directly to the earliest waiter if any.
  void release() {
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      engine_->post(h);  // waiter proceeds without touching count_
    } else {
      ++count_;
    }
  }

  int available() const { return count_; }
  std::size_t waiter_count() const { return waiters_.size(); }

 private:
  Engine* engine_;
  int count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// RAII-style mutex built on Semaphore; use `co_await m.acquire(); ...
/// m.release();` around critical sections touching shared sim state across
/// suspension points.
class Mutex : public Semaphore {
 public:
  explicit Mutex(Engine& engine) : Semaphore(engine, 1) {}
};

/// Unbounded message queue between processes (firmware mailboxes, driver
/// request queues). post() never blocks; receive() suspends when empty and
/// hands values to receivers in FIFO order.
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Engine& engine) : engine_(&engine) {}

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  void post(T value) {
    if (!receivers_.empty()) {
      Receiver r = receivers_.take_front();
      *r.slot = std::move(value);
      engine_->post(r.handle);
    } else {
      queue_.push_back(std::move(value));
    }
  }

  /// Awaitable: yields the next value, suspending if none is queued.
  auto receive() {
    struct Awaiter {
      Mailbox& box;
      std::optional<T> slot;
      bool await_ready() noexcept {
        if (!box.queue_.empty()) {
          slot = box.queue_.take_front();
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        box.receivers_.push_back(Receiver{&slot, h});
      }
      T await_resume() { return std::move(*slot); }
    };
    return Awaiter{*this, std::nullopt};
  }

  std::optional<T> try_receive() {
    if (queue_.empty()) return std::nullopt;
    return queue_.take_front();
  }

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }

 private:
  struct Receiver {
    std::optional<T>* slot;
    std::coroutine_handle<> handle;
  };

  Engine* engine_;
  Ring<T> queue_;
  Ring<Receiver> receivers_;
};

}  // namespace vnet::sim
