#include "sim/task.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace dimsum::sim {
namespace {

Task<int> AddAfterDelay(Simulator& sim, int a, int b, double delay) {
  co_await sim.Delay(delay);
  co_return a + b;
}

Task<int> NestedSum(Simulator& sim) {
  const int x = co_await AddAfterDelay(sim, 1, 2, 5.0);
  const int y = co_await AddAfterDelay(sim, x, 10, 5.0);
  co_return y;
}

Process RecordResult(Simulator& sim, int* out, double* when) {
  *out = co_await NestedSum(sim);
  *when = sim.now();
}

TEST(TaskTest, NestedTasksAccumulateDelays) {
  Simulator sim;
  int result = 0;
  double when = -1.0;
  sim.Spawn(RecordResult(sim, &result, &when));
  sim.Run();
  EXPECT_EQ(result, 13);
  EXPECT_EQ(when, 10.0);
}

Process Ticker(Simulator& sim, std::vector<double>* times, int count,
               double period) {
  for (int i = 0; i < count; ++i) {
    co_await sim.Delay(period);
    times->push_back(sim.now());
  }
}

TEST(TaskTest, ProcessesInterleaveDeterministically) {
  Simulator sim;
  std::vector<double> fast;
  std::vector<double> slow;
  sim.Spawn(Ticker(sim, &fast, 4, 1.0));
  sim.Spawn(Ticker(sim, &slow, 2, 3.0));
  sim.Run();
  EXPECT_EQ(fast, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
  EXPECT_EQ(slow, (std::vector<double>{3.0, 6.0}));
}

TEST(TaskTest, SpawnOnDoneCallbackFires) {
  Simulator sim;
  std::vector<double> t;
  bool done = false;
  sim.Spawn(Ticker(sim, &t, 3, 2.0), [&] { done = sim.now() == 6.0; });
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(TaskTest, UnspawnedProcessIsDestroyedCleanly) {
  Simulator sim;
  std::vector<double> times;
  {
    Process p = Ticker(sim, &times, 3, 1.0);
    // p goes out of scope without being spawned.
  }
  sim.Run();
  EXPECT_TRUE(times.empty());
}

Task<std::string> MakeString() { co_return std::string("hello"); }

Process MoveOnlyResult(std::string* out) { *out = co_await MakeString(); }

TEST(TaskTest, TaskReturnsMovedValue) {
  Simulator sim;
  std::string out;
  sim.Spawn(MoveOnlyResult(&out));
  sim.Run();
  EXPECT_EQ(out, "hello");
}

}  // namespace
}  // namespace dimsum::sim
