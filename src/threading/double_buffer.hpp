// Double-buffering primitive — the heart of the ingest chunk pipeline.
//
// Two slots alternate between a single producer (the ingest thread, filling
// the *next* chunk) and a single consumer (the map coordinator, draining the
// *current* chunk) — exactly Fig. 4 of the paper: mappers operate on c_i
// while c_{i+1} is read from disk. The buffer itself holds at most two
// resident slots. A pipeline built on it keeps up to four chunk buffers
// live: the two slots, the chunk the consumer has moved out and is
// draining, and the chunk the producer is filling (ingest::ChunkBufferPool
// is sized for exactly that).
//
// Ownership contract (see docs/concurrency.md):
//   * produce() is producer-only, consume() is consumer-only; one of each.
//   * close() may be called by EITHER side, any number of times. The
//     producer closes to signal end-of-stream (consumer drains the resident
//     slots, then consume() returns false); the consumer closes to cancel
//     (a producer blocked in produce() returns false and its value is
//     dropped). A pipeline that cancels MUST close() before joining the
//     producer thread, or the join deadlocks on a producer stuck in
//     produce()'s slot_free_ wait.
//   * Values left resident at destruction are destroyed with the buffer.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>

namespace supmr {

template <typename T>
class DoubleBuffer {
 public:
  DoubleBuffer() = default;
  DoubleBuffer(const DoubleBuffer&) = delete;
  DoubleBuffer& operator=(const DoubleBuffer&) = delete;

  // Producer: blocks until a slot is free, then stores `value`.
  // Returns false if the buffer was closed.
  bool produce(T value) {
    std::unique_lock<std::mutex> lock(mu_);
    slot_free_.wait(lock, [&] { return closed_ || count_ < 2; });
    if (closed_) return false;
    slots_[write_] = std::move(value);
    write_ ^= 1;
    ++count_;
    slot_ready_.notify_one();
    return true;
  }

  // Consumer: blocks until a slot is filled, moves it out.
  // Returns false once closed and drained.
  bool consume(T& out) {
    std::unique_lock<std::mutex> lock(mu_);
    slot_ready_.wait(lock, [&] { return closed_ || count_ > 0; });
    if (count_ == 0) return false;
    out = std::move(slots_[read_]);
    read_ ^= 1;
    --count_;
    slot_free_.notify_one();
    return true;
  }

  // Producer signals end-of-stream. Consumers drain remaining slots.
  void close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    slot_ready_.notify_all();
    slot_free_.notify_all();
  }

  std::size_t occupied() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable slot_ready_;
  std::condition_variable slot_free_;
  T slots_[2] = {};
  int read_ = 0;
  int write_ = 0;
  std::size_t count_ = 0;
  bool closed_ = false;
};

}  // namespace supmr
