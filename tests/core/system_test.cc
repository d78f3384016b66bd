#include "core/system.h"

#include <atomic>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "plan/binding.h"
#include "plan/validate.h"
#include "workload/benchmark.h"

namespace dimsum {
namespace {

OptimizerConfig FastOptimizer() {
  OptimizerConfig config;
  config.ii_starts = 4;
  config.ii_patience = 24;
  config.sa_stage_moves_per_join = 4;
  return config;
}

TEST(ClientServerSystemTest, RunOptimizesAndExecutes) {
  WorkloadSpec spec;
  spec.num_relations = 2;
  BenchmarkWorkload w = MakeChainWorkloadRoundRobin(spec);
  SystemConfig config;
  config.num_servers = 1;
  ClientServerSystem system(std::move(w.catalog), config);
  OptimizerConfig opt = FastOptimizer();
  auto result =
      system.Run(w.query, ShippingPolicy::kHybridShipping,
                 OptimizeMetric::kResponseTime, /*seed=*/1, &opt);
  EXPECT_TRUE(IsFullyBound(result.optimize.plan));
  EXPECT_GT(result.optimize.cost, 0.0);
  EXPECT_GT(result.execute.response_ms, 0.0);
}

TEST(ClientServerSystemTest, OptimizerEstimateTracksSimulator) {
  // The cost model is not exact (the paper says so explicitly), but for a
  // simple plan it should be within a small factor of the measurement.
  WorkloadSpec spec;
  spec.num_relations = 2;
  BenchmarkWorkload w = MakeChainWorkloadRoundRobin(spec);
  SystemConfig config;
  config.num_servers = 1;
  ClientServerSystem system(std::move(w.catalog), config);
  OptimizerConfig opt = FastOptimizer();
  auto result =
      system.Run(w.query, ShippingPolicy::kQueryShipping,
                 OptimizeMetric::kResponseTime, /*seed=*/2, &opt);
  EXPECT_GT(result.optimize.cost, result.execute.response_ms * 0.3);
  EXPECT_LT(result.optimize.cost, result.execute.response_ms * 3.0);
}

TEST(ClientServerSystemTest, ServerDiskUtilizationFromLoadRates) {
  Catalog catalog;
  catalog.AddRelation("R0", 10000, 100);
  catalog.PlaceRelation(0, ServerSite(0));
  SystemConfig config;
  config.num_servers = 2;
  config.server_disk_load_per_sec[ServerSite(0)] = 40.0;
  ClientServerSystem system(std::move(catalog), config);
  auto utilization = system.ServerDiskUtilization();
  // 40 req/s at ~11.8 ms/req ~ 47% (the paper calls it 50%).
  EXPECT_NEAR(utilization.at(ServerSite(0)), 0.47, 0.03);
  EXPECT_EQ(utilization.count(ServerSite(1)), 0u);
}

TEST(ClientServerSystemTest, UtilizationIsCapped) {
  Catalog catalog;
  catalog.AddRelation("R0", 10000, 100);
  catalog.PlaceRelation(0, ServerSite(0));
  SystemConfig config;
  config.server_disk_load_per_sec[ServerSite(0)] = 500.0;  // overload
  ClientServerSystem system(std::move(catalog), config);
  EXPECT_LE(system.ServerDiskUtilization().at(ServerSite(0)), 0.95);
}

// Replicate runs trials concurrently on the global pool, so the trials
// below count with an atomic and record into per-seed slots.
TEST(ExperimentTest, ReplicateStopsWhenConverged) {
  std::atomic<int> calls{0};
  RunningStat stat = Replicate(
      [&](uint64_t) {
        ++calls;
        return 100.0;  // zero variance: converges at min_replications
      },
      ReplicationOptions{});
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(stat.mean(), 100.0);
}

TEST(ExperimentTest, ReplicateRunsToCapOnNoisyData) {
  std::atomic<int> calls{0};
  ReplicationOptions options;
  options.max_replications = 7;
  Replicate(
      [&](uint64_t seed) {
        ++calls;
        return (seed % 2 == 0) ? 1.0 : 1000.0;  // wildly noisy
      },
      options);
  EXPECT_EQ(calls.load(), 7);
}

TEST(ExperimentTest, SeedsAreSequential) {
  constexpr uint64_t kBase = 100;
  std::vector<uint64_t> seeds(4, 0);
  ReplicationOptions options;
  options.min_replications = 4;
  options.max_replications = 4;
  Replicate(
      [&](uint64_t seed) {
        // One slot per trial: seed - kBase is the trial's index.
        EXPECT_GE(seed, kBase);
        EXPECT_LT(seed, kBase + seeds.size());
        if (seed >= kBase && seed < kBase + seeds.size()) {
          seeds[static_cast<std::size_t>(seed - kBase)] = seed;
        }
        return 1.0;
      },
      options, /*base_seed=*/kBase);
  EXPECT_EQ(seeds, (std::vector<uint64_t>{100, 101, 102, 103}));
}

}  // namespace
}  // namespace dimsum
