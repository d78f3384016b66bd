#include "sim/simulator.h"

#include <coroutine>
#include <functional>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "sim/task.h"

namespace dimsum::sim {
namespace {

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0.0);
}

TEST(SimulatorTest, CallbacksRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Call(5.0, [&] { order.push_back(2); });
  sim.Call(1.0, [&] { order.push_back(1); });
  sim.Call(9.0, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 9.0);
}

TEST(SimulatorTest, TiesBreakByInsertionOrder) {
  // Ten callbacks at t = 3, each scheduling a zero-delay follow-up: the
  // follow-ups (same-instant lane) run after all ten (heap), in order.
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Call(3.0, [&sim, &order, i] {
      order.push_back(i);
      sim.Call(0.0, [&order, i] { order.push_back(10 + i); });
    });
  }
  sim.Run();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(sim.now(), 3.0);
}

TEST(SimulatorTest, NestedSchedulingAdvancesClock) {
  Simulator sim;
  double inner_time = -1.0;
  sim.Call(2.0, [&] { sim.Call(3.0, [&] { inner_time = sim.now(); }); });
  sim.Run();
  EXPECT_EQ(inner_time, 5.0);
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
  sim.Call(1.0, [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Call(1.0, [&] { ++fired; });
  sim.Call(2.0, [&] { ++fired; });
  sim.Call(10.0, [&] { ++fired; });
  sim.RunUntil(5.0);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 5.0);
  sim.Run();
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, ProcessedEventsCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.Call(static_cast<double>(i), [] {});
  sim.Run();
  EXPECT_EQ(sim.processed_events(), 7u);
}

TEST(SimulatorDeathTest, EmptyCallbackFails) {
  // An empty std::function would throw std::bad_function_call hours of
  // virtual time after the buggy schedule; fail at the Call site instead.
  Simulator sim;
  EXPECT_DEATH(sim.Call(1.0, std::function<void()>()), "check failed");
}

TEST(SimulatorDeathTest, NegativeDelayFails) {
  Simulator sim;
  auto handle = std::noop_coroutine();
  EXPECT_DEATH(sim.Resume(-1.0, handle), "check failed");
  EXPECT_DEATH(sim.Call(-0.5, [] {}), "check failed");
}

TEST(SimulatorDeathTest, NanDelayFails) {
  // NaN compares false against everything, so a NaN service time would
  // otherwise sort arbitrarily and silently corrupt the event order.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Simulator sim;
  auto handle = std::noop_coroutine();
  EXPECT_DEATH(sim.Resume(nan, handle), "check failed");
  EXPECT_DEATH(sim.Call(nan, [] {}), "check failed");
}

Process NanDelayProcess(Simulator& sim) {
  co_await sim.Delay(std::numeric_limits<double>::quiet_NaN());
}

TEST(SimulatorDeathTest, NanDelayInProcessFailsAtScheduleTime) {
  // Delay's no-suspend fast path (delay <= 0) must not swallow NaN; the
  // await reaches Resume and dies there, at the faulty schedule site. The
  // process is spawned inside the death statement: spawned here, it would
  // never start in this process and its frame would leak.
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.Spawn(NanDelayProcess(sim));
        sim.Run();
      },
      "check failed");
}

TEST(SimulatorDeathTest, NullHandleFails) {
  Simulator sim;
  EXPECT_DEATH(sim.Resume(1.0, std::coroutine_handle<>()), "check failed");
}

TEST(SimulatorTest, RunUntilProcessesEventsAtExactlyTime) {
  // Regression guard for the boundary: RunUntil(t) processes events at
  // exactly t, including ones scheduled *during* the call at t.
  Simulator sim;
  std::vector<int> fired;
  sim.Call(5.0, [&] {
    fired.push_back(1);
    sim.Call(0.0, [&] { fired.push_back(2); });  // also at exactly 5.0
  });
  sim.Call(5.0 + 1e-9, [&] { fired.push_back(3); });
  sim.RunUntil(5.0);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), 5.0);
  sim.Run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, KernelCountersTrackQueueActivity) {
  Simulator sim;
  EXPECT_EQ(sim.peak_queue_depth(), 0u);
  for (int i = 0; i < 5; ++i) sim.Call(static_cast<double>(i + 1), [] {});
  // Zero-delay events at t = 0 wait in the same-instant lane; the depth
  // counts them too.
  for (int i = 0; i < 3; ++i) sim.Call(0.0, [] {});
  EXPECT_EQ(sim.queue_depth(), 8u);
  EXPECT_EQ(sim.peak_queue_depth(), 8u);
  sim.Run();
  EXPECT_EQ(sim.queue_depth(), 0u);
  EXPECT_EQ(sim.peak_queue_depth(), 8u);  // high-water mark sticks
  EXPECT_EQ(sim.processed_events(), 8u);
}

TEST(SimulatorTest, ZeroDelayRunsAtCurrentTime) {
  Simulator sim;
  std::vector<double> times;
  sim.Call(4.0, [&] {
    sim.Call(0.0, [&] { times.push_back(sim.now()); });
  });
  sim.Run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], 4.0);
}

}  // namespace
}  // namespace dimsum::sim
