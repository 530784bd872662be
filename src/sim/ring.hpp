#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace vnet::sim {

/// FIFO queue on a power-of-two circular buffer that grows and never
/// shrinks.
///
/// The per-packet queues of the datapath (link trains and credit returns,
/// switch output queues, station backlogs, firmware mailboxes) cycle one
/// element in and one out per packet. Under such churn std::deque frees
/// and allocates a 512-byte chunk each time its head and tail cross one; a
/// Ring reaches its high-water capacity once and then allocates nothing. Elements keep
/// their FIFO order across growth, but growth moves them: do not hold
/// pointers into a Ring across a push_back.
template <typename T>
class Ring {
 public:
  Ring() = default;
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;
  ~Ring() {
    clear();
    if (buf_ != nullptr) std::allocator<T>{}.deallocate(buf_, cap_);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& front() {
    assert(size_ > 0);
    return buf_[head_];
  }

  void push_back(T value) {
    if (size_ == cap_) grow();
    ::new (static_cast<void*>(buf_ + ((head_ + size_) & (cap_ - 1))))
        T(std::move(value));
    ++size_;
  }

  void pop_front() {
    assert(size_ > 0);
    buf_[head_].~T();
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

  /// Moves the front element out and pops it.
  T take_front() {
    T v = std::move(front());
    pop_front();
    return v;
  }

  /// Destroys every element; the capacity stays.
  void clear() {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

 private:
  void grow() {
    const std::size_t cap = cap_ == 0 ? 8 : cap_ * 2;
    T* buf = std::allocator<T>{}.allocate(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      T& src = buf_[(head_ + i) & (cap_ - 1)];
      ::new (static_cast<void*>(buf + i)) T(std::move(src));
      src.~T();
    }
    if (buf_ != nullptr) std::allocator<T>{}.deallocate(buf_, cap_);
    buf_ = buf;
    cap_ = cap;
    head_ = 0;
  }

  T* buf_ = nullptr;
  std::size_t cap_ = 0;  ///< zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace vnet::sim
