#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace dimsum {
namespace {

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  const auto caller = std::this_thread::get_id();
  std::vector<int> on_caller(8, 0);
  pool.ParallelFor(8, [&](int i) {
    on_caller[static_cast<std::size_t>(i)] =
        std::this_thread::get_id() == caller ? 1 : 0;
  });
  for (int inline_run : on_caller) EXPECT_EQ(inline_run, 1);
}

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.thread_count(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kN = 1000;
  std::vector<int> visits(kN, 0);
  pool.ParallelFor(kN, [&](int i) { ++visits[static_cast<std::size_t>(i)]; });
  EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0), kN);
  for (int count : visits) EXPECT_EQ(count, 1);
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndSingleRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](int) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelForRethrowsLowestIndexException) {
  ThreadPool pool(4);
  // Two iterations throw; the lowest index must win regardless of which
  // worker reaches it first.
  try {
    pool.ParallelFor(100, [](int i) {
      if (i == 7 || i == 50) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "7");
  }
}

TEST(ThreadPoolTest, PoolRemainsUsableAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(8, [](int) { throw std::runtime_error("x"); }),
               std::runtime_error);
  std::atomic<int> sum{0};
  pool.ParallelFor(8, [&](int i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 28);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(4, [&](int) {
    pool.ParallelFor(4, [&](int) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPoolTest, ThreadCountFromEnvParsing) {
  const int hardware = ThreadCountFromEnv(nullptr);
  EXPECT_GE(hardware, 1);
  EXPECT_EQ(ThreadCountFromEnv(""), hardware);
  EXPECT_EQ(ThreadCountFromEnv("garbage"), hardware);
  EXPECT_EQ(ThreadCountFromEnv("0"), hardware);
  EXPECT_EQ(ThreadCountFromEnv("-4"), hardware);
  EXPECT_EQ(ThreadCountFromEnv("1"), 1);
  EXPECT_EQ(ThreadCountFromEnv("8"), 8);
}

TEST(ThreadPoolTest, SetGlobalThreadCountResizesPool) {
  SetGlobalThreadCount(3);
  EXPECT_EQ(GlobalThreadPool().thread_count(), 3);
  SetGlobalThreadCount(1);
  EXPECT_EQ(GlobalThreadPool().thread_count(), 1);
}

}  // namespace
}  // namespace dimsum
