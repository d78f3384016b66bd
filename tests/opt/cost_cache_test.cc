#include "opt/cost_cache.h"

#include <gtest/gtest.h>

#include "opt/optimizer.h"
#include "plan/printer.h"

namespace dimsum {
namespace {

Catalog SmallCatalog(int relations, int servers) {
  Catalog catalog;
  for (int i = 0; i < relations; ++i) {
    const RelationId id =
        catalog.AddRelation("R" + std::to_string(i), 10000, 100);
    catalog.PlaceRelation(id, ServerSite(i % servers));
  }
  return catalog;
}

QueryGraph ChainQuery(int n) {
  std::vector<RelationId> rels;
  for (int i = 0; i < n; ++i) rels.push_back(i);
  return QueryGraph::Chain(std::move(rels), 1.0);
}

Plan TwoWayPlan(SiteAnnotation join_site) {
  auto join = MakeJoin(MakeScan(0, SiteAnnotation::kPrimaryCopy),
                       MakeScan(1, SiteAnnotation::kPrimaryCopy), join_site);
  return Plan(MakeDisplay(std::move(join)));
}

TEST(CostCacheTest, SignatureIsStableAcrossClones) {
  Plan plan = TwoWayPlan(SiteAnnotation::kInnerRel);
  EXPECT_EQ(PlanSignature(plan), PlanSignature(plan.Clone()));
}

TEST(CostCacheTest, SignatureDistinguishesAnnotations) {
  EXPECT_NE(PlanSignature(TwoWayPlan(SiteAnnotation::kInnerRel)),
            PlanSignature(TwoWayPlan(SiteAnnotation::kOuterRel)));
}

TEST(CostCacheTest, SignatureDistinguishesShape) {
  Plan two_way = TwoWayPlan(SiteAnnotation::kInnerRel);
  auto inner = MakeJoin(MakeScan(0, SiteAnnotation::kPrimaryCopy),
                        MakeScan(1, SiteAnnotation::kPrimaryCopy),
                        SiteAnnotation::kInnerRel);
  auto outer = MakeJoin(std::move(inner),
                        MakeScan(2, SiteAnnotation::kPrimaryCopy),
                        SiteAnnotation::kInnerRel);
  Plan three_way(MakeDisplay(std::move(outer)));
  EXPECT_NE(PlanSignature(two_way), PlanSignature(three_way));
}

TEST(CostCacheTest, SecondEvaluationIsAHit) {
  Catalog catalog = SmallCatalog(2, 1);
  QueryGraph query = ChainQuery(2);
  CostModel model(catalog, CostParams{});
  CostCache cache;
  Plan plan = TwoWayPlan(SiteAnnotation::kInnerRel);
  const double first =
      cache.Cost(model, plan, query, OptimizeMetric::kResponseTime);
  Plan again = plan.Clone();
  const double second =
      cache.Cost(model, again, query, OptimizeMetric::kResponseTime);
  EXPECT_EQ(first, second);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(CostCacheTest, MetricsAreCachedSeparately) {
  Catalog catalog = SmallCatalog(2, 1);
  QueryGraph query = ChainQuery(2);
  CostModel model(catalog, CostParams{});
  CostCache cache;
  Plan plan = TwoWayPlan(SiteAnnotation::kInnerRel);
  cache.Cost(model, plan, query, OptimizeMetric::kResponseTime);
  cache.Cost(model, plan, query, OptimizeMetric::kPagesSent);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 2);
}

TEST(CostCacheTest, InsertPlanSeedsWithoutCountingAMiss) {
  Catalog catalog = SmallCatalog(2, 1);
  QueryGraph query = ChainQuery(2);
  CostModel model(catalog, CostParams{});
  CostCache cache;
  Plan plan = TwoWayPlan(SiteAnnotation::kInnerRel);
  cache.InsertPlan(plan, OptimizeMetric::kResponseTime, 123.5);
  EXPECT_EQ(cache.Cost(model, plan, query, OptimizeMetric::kResponseTime),
            123.5);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 0);
}

TEST(CostCacheTest, CapacityBoundStopsInsertion) {
  CostCache cache(/*max_entries=*/1);
  cache.Insert("a", 1.0);
  cache.Insert("b", 2.0);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.Lookup("a").has_value());
  EXPECT_FALSE(cache.Lookup("b").has_value());
}

TEST(CostCacheTest, HashCollisionIsAMissNotTheOtherKeysCost) {
  // Two different encodings filed under one 64-bit hash: the full-key
  // comparison must keep them apart.
  CostCache cache;
  constexpr uint64_t kSharedHash = 0x5eed;
  cache.Insert(kSharedHash, "plan A", 1.0);
  EXPECT_FALSE(cache.Lookup(kSharedHash, "plan B").has_value());
  EXPECT_EQ(cache.misses(), 1);
  cache.Insert(kSharedHash, "plan B", 2.0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup(kSharedHash, "plan A"), 1.0);
  EXPECT_EQ(cache.Lookup(kSharedHash, "plan B"), 2.0);
  EXPECT_EQ(cache.hits(), 2);
  // A key stored under one hash is not found under another.
  EXPECT_FALSE(cache.Lookup(kSharedHash + 1, "plan A").has_value());
  EXPECT_EQ(cache.misses(), 2);
}

TEST(CostCacheTest, InsertKeepsTheFirstCostOfAKey) {
  // Keys match on every byte, so a key and its prefix are separate
  // entries; re-inserting a present key changes nothing.
  CostCache cache;
  cache.Insert("ab", 1.0);
  cache.Insert("abc", 2.0);
  cache.Insert("ab", 3.0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup("ab"), 1.0);
  EXPECT_EQ(cache.Lookup("abc"), 2.0);
  EXPECT_FALSE(cache.Lookup("a").has_value());
}

TEST(CostCacheTest, OptimizerReportsHitsOnSaRuns) {
  Catalog catalog = SmallCatalog(5, 2);
  QueryGraph query = ChainQuery(5);
  CostModel model(catalog, CostParams{});
  OptimizerConfig config;
  config.metric = OptimizeMetric::kResponseTime;
  config.ii_starts = 4;
  TwoPhaseOptimizer optimizer(model, config);
  Rng rng(11);
  OptimizeResult result = optimizer.Optimize(query, rng);
  // The II/SA search oscillates between neighbors, so a healthy run must
  // serve some evaluations from the cache.
  EXPECT_GT(result.cache_hits, 0);
  EXPECT_GT(result.cache_misses, 0);
  EXPECT_EQ(result.cache_hits + result.cache_misses,
            result.plans_evaluated);
  EXPECT_GT(result.CacheHitRate(), 0.0);
}

TEST(CostCacheTest, CacheDoesNotChangeTheSearchOutcome) {
  Catalog catalog = SmallCatalog(5, 2);
  QueryGraph query = ChainQuery(5);
  CostModel model(catalog, CostParams{});
  OptimizerConfig config;
  config.metric = OptimizeMetric::kResponseTime;
  config.ii_starts = 4;
  OptimizerConfig no_cache = config;
  no_cache.enable_cost_cache = false;
  Rng rng_a(13);
  Rng rng_b(13);
  OptimizeResult cached =
      TwoPhaseOptimizer(model, config).Optimize(query, rng_a);
  OptimizeResult direct =
      TwoPhaseOptimizer(model, no_cache).Optimize(query, rng_b);
  EXPECT_EQ(cached.cost, direct.cost);
  EXPECT_EQ(PlanToString(cached.plan), PlanToString(direct.plan));
  EXPECT_EQ(cached.plans_evaluated, direct.plans_evaluated);
  EXPECT_EQ(direct.cache_hits, 0);
  EXPECT_EQ(direct.cache_misses, 0);
}

}  // namespace
}  // namespace dimsum
