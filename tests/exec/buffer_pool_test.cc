#include "exec/buffer_pool.h"

#include <vector>

#include <gtest/gtest.h>

#include "sim/task.h"

namespace dimsum {
namespace {

sim::Process AcquireHoldRelease(sim::Simulator& sim, BufferPool& pool,
                                int64_t frames, double hold_ms,
                                std::vector<double>* acquired_at) {
  co_await pool.Acquire(frames);
  acquired_at->push_back(sim.now());
  co_await sim.Delay(hold_ms);
  pool.Release(frames);
}

TEST(BufferPoolTest, ImmediateWhenAvailable) {
  sim::Simulator sim;
  BufferPool pool(sim, 100);
  std::vector<double> acquired;
  sim.Spawn(AcquireHoldRelease(sim, pool, 60, 5.0, &acquired));
  sim.Run();
  EXPECT_EQ(acquired, (std::vector<double>{0.0}));
  EXPECT_EQ(pool.free_frames(), 100);
}

TEST(BufferPoolTest, WaitsForRelease) {
  sim::Simulator sim;
  BufferPool pool(sim, 100);
  std::vector<double> acquired;
  sim.Spawn(AcquireHoldRelease(sim, pool, 80, 10.0, &acquired));
  sim.Spawn(AcquireHoldRelease(sim, pool, 80, 1.0, &acquired));
  sim.Run();
  ASSERT_EQ(acquired.size(), 2u);
  EXPECT_EQ(acquired[0], 0.0);
  EXPECT_EQ(acquired[1], 10.0);  // waits for the first to release
}

TEST(BufferPoolTest, FifoOrderPreserved) {
  sim::Simulator sim;
  BufferPool pool(sim, 100);
  std::vector<double> acquired;
  sim.Spawn(AcquireHoldRelease(sim, pool, 100, 5.0, &acquired));
  sim.Spawn(AcquireHoldRelease(sim, pool, 10, 5.0, &acquired));
  sim.Spawn(AcquireHoldRelease(sim, pool, 90, 5.0, &acquired));
  sim.Run();
  ASSERT_EQ(acquired.size(), 3u);
  // Second and third both fit after the first releases at t=5.
  EXPECT_EQ(acquired[1], 5.0);
  EXPECT_EQ(acquired[2], 5.0);
}

TEST(BufferPoolTest, FifoAdmissionUnderContention) {
  // Strict FIFO: a small request that *would* fit the free frames still
  // queues behind an earlier larger one -- no overtaking, so big joins
  // cannot starve behind a stream of small ones.
  sim::Simulator sim;
  BufferPool pool(sim, 100);
  std::vector<double> acquired;
  sim.Spawn(AcquireHoldRelease(sim, pool, 60, 10.0, &acquired));  // [0, 10)
  sim.Spawn(AcquireHoldRelease(sim, pool, 100, 2.0, &acquired));  // waits
  // 30 frames fit the 40 free right now, but the 100-frame request is
  // ahead in line.
  sim.Spawn(AcquireHoldRelease(sim, pool, 30, 1.0, &acquired));
  sim.Run();
  ASSERT_EQ(acquired.size(), 3u);
  EXPECT_EQ(acquired[0], 0.0);
  EXPECT_EQ(acquired[1], 10.0);  // admitted when the first releases
  EXPECT_EQ(acquired[2], 12.0);  // only after the 100-frame user is done
  EXPECT_EQ(pool.free_frames(), 100);
}

/// Runs one acquire of `frames` on a 100-frame pool. Death tests call it
/// inside the death statement, so the process is spawned and run in the
/// child: spawned in the parent, it would never start there and its frame
/// would leak.
void RunOneAcquire(int64_t frames) {
  sim::Simulator sim;
  BufferPool pool(sim, 100);
  std::vector<double> acquired;
  sim.Spawn(AcquireHoldRelease(sim, pool, frames, 1.0, &acquired));
  sim.Run();
}

TEST(BufferPoolDeathTest, OversizedRequestFails) {
  EXPECT_DEATH(RunOneAcquire(101), "exceeds physical memory");
}

TEST(BufferPoolDeathTest, ZeroAcquireFails) {
  EXPECT_DEATH(RunOneAcquire(0), "empty buffer acquisition");
}

TEST(BufferPoolDeathTest, NegativeAcquireFails) {
  EXPECT_DEATH(RunOneAcquire(-5), "empty buffer acquisition");
}

TEST(BufferPoolDeathTest, ZeroReleaseFails) {
  sim::Simulator sim;
  BufferPool pool(sim, 100);
  EXPECT_DEATH(pool.Release(0), "empty buffer release");
}

TEST(BufferPoolDeathTest, NegativeReleaseFails) {
  sim::Simulator sim;
  BufferPool pool(sim, 100);
  EXPECT_DEATH(pool.Release(-1), "empty buffer release");
}

}  // namespace
}  // namespace dimsum
