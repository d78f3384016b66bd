// The parallel engine's contract: optimizer results and replicated
// statistics are bit-identical for every thread count (ISSUE 1). Each test
// runs the same seeded experiment on a 1-thread and an 8-thread global
// pool and compares results bitwise.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/experiment.h"
#include "core/system.h"
#include "opt/optimizer.h"
#include "plan/printer.h"
#include "workload/benchmark.h"

namespace dimsum {
namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

struct OptimizeFingerprint {
  double cost = 0.0;
  std::string plan;
  int plans_evaluated = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
};

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  ~ParallelDeterminismTest() override { SetGlobalThreadCount(1); }

  BenchmarkWorkload Workload(int relations, int servers) {
    WorkloadSpec spec;
    spec.num_relations = relations;
    spec.num_servers = servers;
    return MakeChainWorkloadRoundRobin(spec);
  }
};

TEST_F(ParallelDeterminismTest, OptimizeIsBitIdenticalAcrossThreadCounts) {
  BenchmarkWorkload w = Workload(6, 3);
  CostModel model(w.catalog, CostParams{});
  OptimizerConfig config;
  config.metric = OptimizeMetric::kResponseTime;
  TwoPhaseOptimizer optimizer(model, config);

  std::vector<OptimizeFingerprint> fingerprints;
  for (int threads : {1, 8}) {
    SetGlobalThreadCount(threads);
    Rng rng(42);
    OptimizeResult result = optimizer.Optimize(w.query, rng);
    fingerprints.push_back({result.cost, PlanToString(result.plan),
                            result.plans_evaluated, result.cache_hits,
                            result.cache_misses});
  }
  EXPECT_TRUE(BitEqual(fingerprints[0].cost, fingerprints[1].cost));
  EXPECT_EQ(fingerprints[0].plan, fingerprints[1].plan);
  EXPECT_EQ(fingerprints[0].plans_evaluated, fingerprints[1].plans_evaluated);
  EXPECT_EQ(fingerprints[0].cache_hits, fingerprints[1].cache_hits);
  EXPECT_EQ(fingerprints[0].cache_misses, fingerprints[1].cache_misses);
}

TEST_F(ParallelDeterminismTest, SiteSelectIsBitIdenticalAcrossThreadCounts) {
  BenchmarkWorkload w = Workload(6, 3);
  CostModel model(w.catalog, CostParams{});
  OptimizerConfig config;
  config.metric = OptimizeMetric::kResponseTime;
  TwoPhaseOptimizer optimizer(model, config);

  // Compile a fixed starting plan once, sequentially.
  SetGlobalThreadCount(1);
  Rng compile_rng(7);
  OptimizeResult compiled = optimizer.Optimize(w.query, compile_rng);

  std::vector<OptimizeFingerprint> fingerprints;
  for (int threads : {1, 8}) {
    SetGlobalThreadCount(threads);
    Rng rng(99);
    OptimizeResult result = optimizer.SiteSelect(compiled.plan, w.query, rng);
    fingerprints.push_back({result.cost, PlanToString(result.plan),
                            result.plans_evaluated, result.cache_hits,
                            result.cache_misses});
  }
  EXPECT_TRUE(BitEqual(fingerprints[0].cost, fingerprints[1].cost));
  EXPECT_EQ(fingerprints[0].plan, fingerprints[1].plan);
  EXPECT_EQ(fingerprints[0].plans_evaluated, fingerprints[1].plans_evaluated);
  EXPECT_EQ(fingerprints[0].cache_hits, fingerprints[1].cache_hits);
  EXPECT_EQ(fingerprints[0].cache_misses, fingerprints[1].cache_misses);
}

TEST_F(ParallelDeterminismTest, ReplicateIsBitIdenticalAcrossThreadCounts) {
  // A noisy trial that will not satisfy the stopping rule immediately, so
  // speculative batches really are launched and partially discarded.
  auto trial = [](uint64_t seed) {
    Rng rng(seed);
    return 100.0 + 40.0 * rng.NextDouble();
  };
  ReplicationOptions options;
  options.max_replications = 24;

  std::vector<RunningStat> stats;
  for (int threads : {1, 8}) {
    SetGlobalThreadCount(threads);
    stats.push_back(Replicate(trial, options, /*base_seed=*/5));
  }
  EXPECT_EQ(stats[0].count(), stats[1].count());
  EXPECT_TRUE(BitEqual(stats[0].mean(), stats[1].mean()));
  EXPECT_TRUE(BitEqual(stats[0].variance(), stats[1].variance()));
}

TEST_F(ParallelDeterminismTest, ReplicateMatchesSequentialSemantics) {
  auto trial = [](uint64_t seed) {
    Rng rng(seed);
    return 10.0 + 2.0 * rng.NextDouble();
  };
  ReplicationOptions options;

  // Reference: the strictly sequential replication loop.
  RunningStat reference;
  for (int i = 0; i < options.max_replications; ++i) {
    reference.Add(trial(1 + static_cast<uint64_t>(i)));
    if (i + 1 >= options.min_replications &&
        reference.WithinRelativeError(kReplicationRelativeError)) {
      break;
    }
  }

  SetGlobalThreadCount(8);
  RunningStat parallel = Replicate(trial, options, /*base_seed=*/1);
  EXPECT_EQ(parallel.count(), reference.count());
  EXPECT_TRUE(BitEqual(parallel.mean(), reference.mean()));
  EXPECT_TRUE(BitEqual(parallel.variance(), reference.variance()));
}

TEST_F(ParallelDeterminismTest, FullSystemRunIsIdenticalAcrossThreadCounts) {
  // End-to-end: optimize + simulate through the ClientServerSystem facade,
  // replicated over seeds — the exact shape of every bench/ harness.
  BenchmarkWorkload w = Workload(4, 2);
  auto trial = [&](uint64_t seed) {
    SystemConfig config;
    config.num_servers = 2;
    ClientServerSystem system(w.catalog, config);
    auto result = system.Run(w.query, ShippingPolicy::kHybridShipping,
                             OptimizeMetric::kResponseTime, seed);
    return result.execute.response_ms;
  };

  std::vector<RunningStat> stats;
  for (int threads : {1, 8}) {
    SetGlobalThreadCount(threads);
    stats.push_back(Replicate(trial, ReplicationOptions{}, /*base_seed=*/3));
  }
  EXPECT_EQ(stats[0].count(), stats[1].count());
  EXPECT_TRUE(BitEqual(stats[0].mean(), stats[1].mean()));
  EXPECT_TRUE(BitEqual(stats[0].variance(), stats[1].variance()));
}

}  // namespace
}  // namespace dimsum
