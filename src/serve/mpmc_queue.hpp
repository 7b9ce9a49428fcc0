#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

namespace plim::serve {

/// Bounded multi-producer/multi-consumer FIFO queue — the work conduit
/// between request readers and the compile worker pool (and the engine
/// under Driver::run_batch). A deque under one mutex: push parks while
/// the queue is full, pop while it is empty.
///
/// close() ends the stream: subsequent pushes are refused, parked
/// consumers wake, and pop() keeps draining until the queue is empty —
/// the graceful-shutdown contract (answer everything already accepted,
/// accept nothing new).
template <typename T>
class MpmcQueue {
 public:
  /// At most `capacity` elements are queued at once (minimum 1).
  explicit MpmcQueue(std::size_t capacity)
      : capacity_(capacity > 0 ? capacity : 1) {}

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  /// Blocking enqueue: parks while the queue is full. False once closed
  /// (the element is not enqueued).
  bool push(T value) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock,
                   [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) {
      return false;
    }
    items_.push_back(std::move(value));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocking dequeue: parks while the queue is empty. False only when
  /// the queue is closed *and* fully drained — pending elements are
  /// always delivered first.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) {
      return false;  // closed and drained
    }
    out = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  /// Refuses future pushes and wakes every parked thread; elements
  /// already enqueued remain poppable.
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Element count at the time of the call (the queue-depth gauge).
  [[nodiscard]] std::size_t approx_size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace plim::serve
