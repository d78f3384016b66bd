#ifndef DIMSUM_EXEC_BUFFER_POOL_H_
#define DIMSUM_EXEC_BUFFER_POOL_H_

#include <coroutine>
#include <cstdint>

#include "common/check.h"
#include "sim/fifo.h"
#include "sim/simulator.h"

namespace dimsum {

/// Per-site main-memory buffer pool. Joins acquire their allocation
/// (minimum or maximum, per Shapiro) at open and release it at close;
/// acquisition suspends when memory is exhausted, modeling the paper's
/// "restricting the memory available for join processing" knob.
class BufferPool {
 public:
  BufferPool(sim::Simulator& sim, int64_t total_frames)
      : sim_(sim), total_frames_(total_frames), free_frames_(total_frames) {
    DIMSUM_CHECK_GT(total_frames, 0);
  }
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  int64_t total_frames() const { return total_frames_; }
  int64_t free_frames() const { return free_frames_; }
  /// Frames currently acquired (pool occupancy).
  int64_t used_frames() const { return total_frames_ - free_frames_; }

  /// Acquires `frames` buffer frames, suspending until available (FIFO).
  auto Acquire(int64_t frames) {
    struct Awaiter {
      BufferPool& pool;
      int64_t frames;
      bool await_ready() {
        DIMSUM_CHECK_GT(frames, 0) << "empty buffer acquisition";
        DIMSUM_CHECK_LE(frames, pool.total_frames_)
            << "request exceeds physical memory";
        if (pool.waiters_.empty() && pool.free_frames_ >= frames) {
          pool.free_frames_ -= frames;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        pool.waiters_.push_back({h, frames});
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, frames};
  }

  /// Returns `frames` frames to the pool and admits waiting requests.
  void Release(int64_t frames) {
    DIMSUM_CHECK_GT(frames, 0) << "empty buffer release";
    free_frames_ += frames;
    DIMSUM_CHECK_LE(free_frames_, total_frames_);
    while (!waiters_.empty() && waiters_.front().frames <= free_frames_) {
      Waiter waiter = waiters_.front();
      waiters_.pop_front();
      free_frames_ -= waiter.frames;
      sim_.Resume(0.0, waiter.handle);
    }
  }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    int64_t frames;
  };

  sim::Simulator& sim_;
  int64_t total_frames_;
  int64_t free_frames_;
  sim::Fifo<Waiter> waiters_;
};

}  // namespace dimsum

#endif  // DIMSUM_EXEC_BUFFER_POOL_H_
