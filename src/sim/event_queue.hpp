#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#ifdef VNET_EVENT_PROFILE
#include <unordered_map>
#endif
#include <utility>
#include <vector>

#include "sim/arena.hpp"
#include "sim/time.hpp"
#include "sim/unique_function.hpp"

namespace vnet::sim {

#ifdef VNET_EVENT_PROFILE
// Build-time probe only (not compiled into the tree's targets): call-site
// histogram of event pushes, keyed by return address; resolve with addr2line.
inline std::unordered_map<void*, std::uint64_t>& event_profile() {
  static std::unordered_map<void*, std::uint64_t> m;
  return m;
}
#endif

/// Identifies one scheduled event for cancellation: a slot in the queue's
/// entry slab plus a generation counter that detects slot reuse. Default
/// constructed handles are invalid (cancel() returns kUnknown).
struct EventHandle {
  static constexpr std::uint32_t kInvalidSlot = UINT32_MAX;
  std::uint32_t slot = kInvalidSlot;
  std::uint32_t gen = 0;
  bool valid() const { return slot != kInvalidSlot; }
};

/// What cancel() found. The outcome is exact until the event's slot is
/// recycled by a later push; after that a stale handle reports kUnknown
/// (the event certainly fired or was cancelled long before).
enum class CancelOutcome {
  kCancelled,         ///< event was pending; it will not run
  kFired,             ///< event already ran
  kAlreadyCancelled,  ///< a previous cancel() already suppressed it
  kUnknown,           ///< invalid or stale handle (slot since recycled)
};

/// A priority queue of timed callbacks with deterministic tie-breaking.
///
/// Events at equal timestamps run in insertion order (FIFO), which makes
/// whole-cluster simulations bit-reproducible for a given seed regardless
/// of queue internals: pop order is a pure function of (time, sequence),
/// where `sequence` increments once per push.
///
/// Layout, tuned for the simulator's traffic (overwhelmingly near-future
/// events: link serialization, NIC service slots, periodic ticks):
///
///  * Entries live in a slab (`slots_` + free list), addressed by index.
///    Payload closures go through a ClosureArena (see arena.hpp), so
///    steady-state push/pop performs no heap allocation.
///  * A calendar of kNumBuckets buckets, each kBucketNs wide, covers the
///    near-future horizon (~4 ms). Each bucket is a small binary heap
///    ordered by (time, sequence); the cursor consumes buckets in order.
///    Because bucket time ranges are disjoint, the earliest event overall
///    is always in the first non-empty bucket at/after the cursor, and the
///    per-operation heap cost is O(log bucket-occupancy), not O(log n).
///  * Events beyond the horizon (retransmit/unreachable timers, long
///    sleeps) sit in an overflow heap. When the calendar is drained, it is
///    re-based at the earliest overflow event and in-horizon events migrate
///    into buckets — O(overflow) per horizon, amortized O(1) per event.
///  * cancel() is O(1): handles carry (slot, generation); cancellation
///    tombstones the slot and the stale heap entry is dropped when it
///    surfaces. No linear scan anywhere.
///
/// Pushing a time earlier than the cursor's bucket (the engine clamps
/// schedule times to >= now, so this only happens for "run at the current
/// instant" events after the cursor advanced) files the event under the
/// cursor bucket; the in-bucket comparator still orders it exactly.
class EventQueue {
 public:
  /// Schedules `fn` at absolute time `t`, placing oversized closures in the
  /// queue's arena. Returns a handle for cancel().
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, UniqueFunction>>>
  EventHandle push(Time t, F&& fn) {
    return push(t, UniqueFunction(std::forward<F>(fn), &arena_));
  }

  /// Schedules an already-built callable (no arena routing).
#ifdef VNET_EVENT_PROFILE
  __attribute__((noinline))
#endif
  EventHandle push(Time t, UniqueFunction fn) {
#ifdef VNET_EVENT_PROFILE
    ++event_profile()[__builtin_return_address(0)];
#endif
    const std::uint32_t slot = alloc_slot();
    Slot& s = slots_[slot];
    s.time = t;
    s.seq = next_seq_++;
    s.state = State::kPending;
    s.fn = std::move(fn);
    insert_ref(Ref{t, s.seq, slot});
    ++live_;
    return EventHandle{slot, s.gen};
  }

  /// Cancels a pending event in O(1). See CancelOutcome for the cases; the
  /// closure is destroyed immediately, the queue entry lazily.
  CancelOutcome cancel(EventHandle h) {
    if (!h.valid() || h.slot >= slots_.size()) return CancelOutcome::kUnknown;
    Slot& s = slots_[h.slot];
    if (s.gen != h.gen) return CancelOutcome::kUnknown;
    switch (s.state) {
      case State::kPending:
        s.state = State::kCancelled;
        s.fn = UniqueFunction{};
        --live_;
        return CancelOutcome::kCancelled;
      case State::kFired:
        return CancelOutcome::kFired;
      case State::kCancelled:
        return CancelOutcome::kAlreadyCancelled;
      case State::kFree:
        break;
    }
    return CancelOutcome::kUnknown;
  }

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Time of the earliest live event. Precondition: !empty().
  Time next_time() { return position()->front().time; }

  /// Removes and returns the earliest live event. Precondition: !empty().
  std::pair<Time, UniqueFunction> pop() {
    std::vector<Ref>* b = position();
    const Ref top = b->front();
    std::pop_heap(b->begin(), b->end(), RefAfter{});
    b->pop_back();
    Slot& s = slots_[top.slot];
    Time t = s.time;
    UniqueFunction fn = std::move(s.fn);
    s.state = State::kFired;
    // Replay digest: fold (time, seq, slot) of every fired event into a
    // rolling hash. seq is the global push order and slot the slab index —
    // both pure functions of the schedule history, never of addresses — so
    // two runs (or a fork and its straight-through twin) that execute the
    // same event stream produce bit-identical digests. One avalanche per
    // pop suffices (the inputs enter via distinct odd multipliers); this
    // is on the hot path of every fired event, so keep it to one mix64.
    digest_ = mix64(digest_ ^ (static_cast<std::uint64_t>(t) +
                               0x9e3779b97f4a7c15ULL * s.seq +
                               0xbf58476d1ce4e5b9ULL * top.slot));
    free_slot(top.slot);
    --live_;
    return {t, std::move(fn)};
  }

  /// Rolling hash over every event popped so far — the fired-event stream
  /// (time, seq, slot). Equal digests mean equal execution histories.
  std::uint64_t digest() const { return digest_; }

  /// Slab occupancy, for the engine's `sim.queue.*` gauges.
  std::size_t slot_capacity() const { return slots_.size(); }
  std::size_t slots_free() const { return free_slots_.size(); }
  ClosureArena::Stats arena_stats() const { return arena_.stats(); }

 private:
  // Calendar geometry: 1024 buckets of 4.096 us cover a ~4.2 ms horizon,
  // which holds essentially all wire/NIC/tick events; coarser timers (e.g.
  // 200 us - 1 s retransmission timeouts scheduled from ~0) stay cheap in
  // the overflow heap.
  static constexpr int kBucketShift = 12;  // 4096 ns per bucket
  static constexpr std::size_t kNumBuckets = 1024;

  enum class State : std::uint8_t { kFree, kPending, kFired, kCancelled };

  struct Slot {
    Time time = 0;
    std::uint64_t seq = 0;
    std::uint32_t gen = 0;
    State state = State::kFree;
    UniqueFunction fn;
  };

  struct Ref {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  // Strict-weak "fires later than": std::*_heap with this comparator keeps
  // the (time, seq)-earliest Ref at front(). The (time, seq) pair is the
  // load-bearing total order — see the class comment.
  struct RefAfter {
    bool operator()(const Ref& a, const Ref& b) const {
      return b.time < a.time || (b.time == a.time && b.seq < a.seq);
    }
  };

  // SplitMix64 finalizer: full-avalanche 64-bit mixer.
  static std::uint64_t mix64(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint32_t alloc_slot() {
    if (free_slots_.empty()) {
      slots_.emplace_back();
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    ++slots_[slot].gen;  // invalidate handles to the previous occupant
    return slot;
  }

  void free_slot(std::uint32_t slot) { free_slots_.push_back(slot); }

  void insert_ref(const Ref& r) {
    std::int64_t idx = (r.time >> kBucketShift) - base_tick_;
    if (idx < static_cast<std::int64_t>(cursor_)) {
      idx = static_cast<std::int64_t>(cursor_);  // current-instant events
    }
    if (idx >= static_cast<std::int64_t>(kNumBuckets)) {
      overflow_.push_back(r);
      std::push_heap(overflow_.begin(), overflow_.end(), RefAfter{});
    } else {
      auto& b = buckets_[static_cast<std::size_t>(idx)];
      b.push_back(r);
      std::push_heap(b.begin(), b.end(), RefAfter{});
    }
  }

  // Advances the cursor to the bucket holding the earliest live event,
  // dropping cancelled tombstones, re-basing the calendar from the
  // overflow heap when the window is drained. Precondition: !empty().
  std::vector<Ref>* position() {
    for (;;) {
      while (cursor_ < kNumBuckets && buckets_[cursor_].empty()) ++cursor_;
      if (cursor_ == kNumBuckets) {
        rebase();
        continue;
      }
      auto& b = buckets_[cursor_];
      const Ref top = b.front();
      if (slots_[top.slot].state == State::kCancelled) {
        std::pop_heap(b.begin(), b.end(), RefAfter{});
        b.pop_back();
        free_slot(top.slot);
        continue;
      }
      return &b;
    }
  }

  // Re-anchors the calendar window at the earliest overflow event and
  // migrates every overflow entry that now falls inside it. Precondition:
  // all buckets empty and overflow_ non-empty (live_ > 0 guarantees the
  // latter when the former holds).
  void rebase() {
    base_tick_ = overflow_.front().time >> kBucketShift;
    cursor_ = 0;
    // The survivors collect in a member scratch vector that swaps places
    // with overflow_, so a rebase allocates nothing once both have grown.
    rebase_keep_.clear();
    for (const Ref& r : overflow_) {
      const std::int64_t idx = (r.time >> kBucketShift) - base_tick_;
      if (idx < static_cast<std::int64_t>(kNumBuckets)) {
        buckets_[static_cast<std::size_t>(idx)].push_back(r);
      } else {
        rebase_keep_.push_back(r);
      }
    }
    overflow_.swap(rebase_keep_);
    std::make_heap(overflow_.begin(), overflow_.end(), RefAfter{});
    for (auto& b : buckets_) {
      if (!b.empty()) std::make_heap(b.begin(), b.end(), RefAfter{});
    }
  }

  // Declared before slots_: slot closures may hold arena blocks, and
  // members are destroyed in reverse declaration order.
  ClosureArena arena_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::array<std::vector<Ref>, kNumBuckets> buckets_;
  std::vector<Ref> overflow_;
  std::vector<Ref> rebase_keep_;  ///< rebase()'s scratch; see there
  std::int64_t base_tick_ = 0;
  std::size_t cursor_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::uint64_t digest_ = 0x243f6a8885a308d3ULL;  // pi, arbitrary non-zero
};

}  // namespace vnet::sim
