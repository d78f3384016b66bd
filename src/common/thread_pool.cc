#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>

#include "common/check.h"

namespace dimsum {
namespace {

/// Set while a thread is executing tasks for a pool; used to detect nested
/// ParallelFor calls (which must run inline to avoid deadlocking a pool
/// whose workers are all waiting on each other's subtasks).
thread_local const ThreadPool* g_current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads < 1 ? 1 : num_threads) {
  // Size 1 means inline execution; no workers needed.
  if (num_threads_ == 1) return;
  workers_.reserve(static_cast<std::size_t>(num_threads_));
  for (int i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool ThreadPool::InWorkerThread() const { return g_current_pool == this; }

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    DIMSUM_CHECK(!stop_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  g_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& body) {
  if (n <= 0) return;
  if (num_threads_ == 1 || n == 1 || InWorkerThread()) {
    for (int i = 0; i < n; ++i) body(i);
    return;
  }

  struct SharedState {
    std::atomic<int> next{0};
    std::atomic<int> active{0};
    std::mutex mutex;                 // guards error fields + done signal
    std::condition_variable done_cv;
    std::exception_ptr error;
    int error_index = std::numeric_limits<int>::max();
  };
  auto state = std::make_shared<SharedState>();

  auto run_iterations = [n, &body, state] {
    for (;;) {
      const int i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->mutex);
        // Keep the exception from the lowest-numbered iteration so the
        // reported failure does not depend on scheduling.
        if (i < state->error_index) {
          state->error_index = i;
          state->error = std::current_exception();
        }
      }
    }
  };

  const int helpers = std::min(num_threads_ - 1, n - 1);
  state->active.store(helpers, std::memory_order_relaxed);
  for (int h = 0; h < helpers; ++h) {
    Enqueue([state, run_iterations] {
      run_iterations();
      if (state->active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->done_cv.notify_all();
      }
    });
  }

  // The calling thread works too; then wait for the helpers to drain.
  run_iterations();
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->done_cv.wait(lock, [&state] {
      return state->active.load(std::memory_order_acquire) == 0;
    });
    if (state->error) std::rethrow_exception(state->error);
  }
}

int ThreadCountFromEnv(const char* value) {
  const int hardware =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  if (value == nullptr || *value == '\0') return hardware;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || parsed < 1) return hardware;
  return static_cast<int>(parsed);
}

namespace {

std::unique_ptr<ThreadPool>& GlobalPoolSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool& GlobalThreadPool() {
  auto& slot = GlobalPoolSlot();
  if (!slot) {
    slot = std::make_unique<ThreadPool>(
        ThreadCountFromEnv(std::getenv("DIMSUM_THREADS")));
  }
  return *slot;
}

void SetGlobalThreadCount(int num_threads) {
  if (num_threads < 1) num_threads = ThreadCountFromEnv(nullptr);
  auto& slot = GlobalPoolSlot();
  slot.reset();  // join the old pool before replacing it
  slot = std::make_unique<ThreadPool>(num_threads);
}

}  // namespace dimsum
