// A bounded multi-producer single-consumer channel: each process' mailbox,
// the wire of the live runtime.  push appends in FIFO order (socket readers,
// scripted replay); push_at holds an item until its due instant, so the
// mailbox is the in-process router's delay line and the receiver's own timed
// pop releases each copy.  The channel is bounded so a stalled consumer
// exerts backpressure instead of letting queues grow without limit, and
// teardown drains what is left into the trace's pending records instead of
// losing it.  A channel is never closed: its owner drains it once every
// producer and its consumer have stopped.
//
// The implementation is a mutex + condvar over a deque and a small heap; at
// the live runtime's scale (n <= 13 processes, a few copies per process and
// round) contention is negligible and the simple form is trivially
// ThreadSanitizer-clean.

#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace indulgence {

template <typename T>
class Channel {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Channel(std::size_t capacity) : capacity_(capacity ? capacity : 1) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Blocks while the channel is full.
  void push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    wait_for_room(lock);
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
  }

  /// Like push, but the item becomes poppable only at `due` (or at once
  /// after expedite()).  Items due at the same instant pop in push order.
  void push_at(T item, Clock::time_point due) {
    std::unique_lock<std::mutex> lock(mutex_);
    wait_for_room(lock);
    const std::uint64_t seq = seq_++;
    delayed_.push_back(Delayed{due, seq, std::move(item)});
    std::push_heap(delayed_.begin(), delayed_.end(), later);
    // A waiting consumer sleeps until the earliest due instant, so only a
    // new earliest item moves its wake-up.
    const bool earliest = delayed_.front().seq == seq;
    lock.unlock();
    if (earliest) not_empty_.notify_one();
  }

  /// Non-blocking pop of a pushed item or a due one; nullopt when there is
  /// neither.
  std::optional<T> try_pop() {
    std::lock_guard<std::mutex> lock(mutex_);
    return pop_locked();
  }

  /// Blocks up to `timeout` for a pushed item or a delayed one falling due;
  /// nullopt on timeout.
  /// A zero (or negative) timeout is an exact synonym for try_pop: one
  /// locked check, no condvar wait — pollers spinning with pop_for(0us) must
  /// not pay a futex round trip, and a negative duration must not reach the
  /// condvar (whose behaviour on negative timeouts varies by implementation).
  std::optional<T> pop_for(std::chrono::microseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (timeout > std::chrono::microseconds::zero()) {
      const Clock::time_point deadline = Clock::now() + timeout;
      while (items_.empty()) {
        Clock::time_point wake = deadline;
        if (!delayed_.empty()) {
          if (expedited_) break;
          wake = std::min(wake, delayed_.front().due);
        }
        if (wake <= Clock::now() ||
            not_empty_.wait_until(lock, wake) == std::cv_status::timeout) {
          break;
        }
      }
    }
    return pop_locked();
  }

  /// Makes every delayed item due at once, and every later push_at too.
  void expedite() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      expedited_ = true;
    }
    not_empty_.notify_all();
  }

  /// Items held, due or not.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size() + delayed_.size();
  }

  /// Pops everything held: the pushed items in push order, then the delayed
  /// ones, due or not (used at teardown to turn undelivered envelopes into
  /// the trace's pending records).
  std::vector<T> drain() {
    std::vector<T> out;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      out.reserve(items_.size() + delayed_.size());
      for (T& item : items_) out.push_back(std::move(item));
      for (Delayed& d : delayed_) out.push_back(std::move(d.item));
      items_.clear();
      delayed_.clear();
    }
    not_full_.notify_all();
    return out;
  }

 private:
  struct Delayed {
    Clock::time_point due;
    std::uint64_t seq = 0;  ///< push order, the tie-break for equal dues
    T item;
  };
  /// Heap order that puts the earliest (due, seq) at the front.
  static bool later(const Delayed& a, const Delayed& b) {
    return a.due > b.due || (a.due == b.due && a.seq > b.seq);
  }

  void wait_for_room(std::unique_lock<std::mutex>& lock) {
    not_full_.wait(lock, [this] {
      return items_.size() + delayed_.size() < capacity_;
    });
  }

  std::optional<T> pop_locked() {
    std::optional<T> out;
    if (!items_.empty()) {
      out.emplace(std::move(items_.front()));
      items_.pop_front();
    } else if (!delayed_.empty() &&
               (expedited_ || delayed_.front().due <= Clock::now())) {
      std::pop_heap(delayed_.begin(), delayed_.end(), later);
      out.emplace(std::move(delayed_.back().item));
      delayed_.pop_back();
    } else {
      return std::nullopt;
    }
    not_full_.notify_one();
    return out;
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  std::vector<Delayed> delayed_;  ///< a heap under later()
  std::uint64_t seq_ = 0;
  bool expedited_ = false;
};

}  // namespace indulgence
