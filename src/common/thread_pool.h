#ifndef DIMSUM_COMMON_THREAD_POOL_H_
#define DIMSUM_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dimsum {

/// Fixed-size worker pool used by the embarrassingly parallel loops of the
/// experiment apparatus (optimizer starts, replication trials). A pool of
/// size 1 runs everything inline on the calling thread, so sequential
/// execution is always available as a fallback (`DIMSUM_THREADS=1`).
///
/// Determinism contract: the pool never introduces nondeterminism by
/// itself — callers must make each task a pure function of its inputs
/// (e.g. a pre-derived RNG seed) and combine results in a fixed order.
class ThreadPool {
 public:
  /// Creates `num_threads` workers; values < 1 are clamped to 1. A pool of
  /// size 1 spawns no threads at all.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const { return num_threads_; }

  /// Runs `body(0) .. body(n-1)`, blocking until all iterations complete.
  /// Iterations may run in any order and concurrently; the caller's thread
  /// participates. If any iteration throws, the exception from the
  /// lowest-numbered throwing iteration is rethrown (after all iterations
  /// finished) so failures are deterministic.
  ///
  /// Nested calls (an iteration itself calling ParallelFor on the same
  /// pool) run inline on the worker to avoid deadlock.
  void ParallelFor(int n, const std::function<void(int)>& body);

  /// True when the calling thread is one of this pool's workers.
  bool InWorkerThread() const;

 private:
  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  const int num_threads_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Parses a `DIMSUM_THREADS`-style value: a positive integer is taken
/// verbatim; null, empty, zero, or garbage mean "use all hardware threads".
/// Exposed for testing.
int ThreadCountFromEnv(const char* value);

/// Process-wide pool shared by the optimizer and replication loops. Sized
/// by the `DIMSUM_THREADS` environment variable on first use (default:
/// hardware concurrency; `1` = fully sequential).
ThreadPool& GlobalThreadPool();

/// Replaces the global pool with one of `num_threads` threads (values < 1
/// mean "all hardware threads"). Used by `--threads=N` flags and the
/// thread-sweep benchmarks. Not safe to call while work is in flight on
/// the pool.
void SetGlobalThreadCount(int num_threads);

}  // namespace dimsum

#endif  // DIMSUM_COMMON_THREAD_POOL_H_
