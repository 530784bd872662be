#pragma once

#include <array>
#include <cstddef>
#include <new>
#include <vector>

namespace vnet::sim::detail {

/// Size-bucketed free list for coroutine frames (Task and Process).
///
/// Every co_await-composed API call on the datapath — send_common, poll,
/// charge_send, Cpu::run, Nic::inject — materializes a coroutine frame, and
/// the default promise allocator takes those from the global heap one at a
/// time. Frame sizes are compiler-chosen but perfectly repetitive: the same
/// handful of sizes recur once or more per simulated message. Parking freed
/// frames on per-size free lists makes steady-state Task creation
/// allocation-free, the coroutine counterpart of ClosureArena for event
/// closures. The pool is thread_local: each shard worker (sim/shard.hpp)
/// recycles frames privately, with no cross-thread traffic on the hot path.
/// Frames allocated on one thread and freed on another simply migrate
/// between pools — both sides fall back to global new/delete, which is safe.
class FramePool {
 public:
  static constexpr std::size_t kGrain = 64;
  static constexpr std::size_t kBuckets = 64;  ///< frames up to 4 KB pooled
  static constexpr std::size_t kPerBucketCap = 256;

  ~FramePool() {
    for (auto& list : free_) {
      for (void* p : list) ::operator delete(p);
    }
  }

  void* allocate(std::size_t size) {
    const std::size_t b = bucket(size);
    if (b >= kBuckets) return ::operator new(size);
    auto& list = free_[b];
    if (!list.empty()) {
      void* p = list.back();
      list.pop_back();
      return p;
    }
    return ::operator new((b + 1) * kGrain);
  }

  void deallocate(void* p, std::size_t size) noexcept {
    const std::size_t b = bucket(size);
    if (b >= kBuckets) {
      ::operator delete(p);
      return;
    }
    auto& list = free_[b];
    if (list.size() < kPerBucketCap) {
      list.push_back(p);
    } else {
      ::operator delete(p);
    }
  }

 private:
  static std::size_t bucket(std::size_t size) {
    return size == 0 ? 0 : (size - 1) / kGrain;
  }

  std::array<std::vector<void*>, kBuckets> free_;
};

inline FramePool& frame_pool() {
  static thread_local FramePool pool;
  return pool;
}

}  // namespace vnet::sim::detail

namespace vnet::sim {

/// Standard allocator over the frame pool, for containers that must keep
/// element addresses stable (so no Ring) yet churn storage once per
/// message: an endpoint's send and receive deques allocate a chunk every
/// few pushes and free it every few pops. Recycling the chunks through the
/// pool keeps steady-state messaging allocation-free.
template <typename T>
struct PoolAllocator {
  using value_type = T;
  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT
  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
  T* allocate(std::size_t n) {
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    return static_cast<T*>(detail::frame_pool().allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    detail::frame_pool().deallocate(p, n * sizeof(T));
  }
};

}  // namespace vnet::sim
