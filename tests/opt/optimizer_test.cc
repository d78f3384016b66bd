#include "opt/optimizer.h"

#include <gtest/gtest.h>

#include "plan/binding.h"
#include "plan/printer.h"
#include "plan/validate.h"

namespace dimsum {
namespace {

Catalog PaperCatalog(int relations, int servers, double cached = 0.0) {
  Catalog catalog;
  for (int i = 0; i < relations; ++i) {
    const RelationId id =
        catalog.AddRelation("R" + std::to_string(i), 10000, 100);
    catalog.PlaceRelation(id, ServerSite(i % servers));
    catalog.SetCachedFraction(id, cached);
  }
  return catalog;
}

QueryGraph ChainQuery(int n, double selectivity = 1.0) {
  std::vector<RelationId> rels;
  for (int i = 0; i < n; ++i) rels.push_back(i);
  return QueryGraph::Chain(std::move(rels), selectivity);
}

OptimizerConfig FastConfig(ShippingPolicy policy, OptimizeMetric metric) {
  OptimizerConfig config;
  config.policy = policy;
  config.metric = metric;
  config.ii_starts = 4;
  config.ii_patience = 24;
  config.sa_stage_moves_per_join = 4;
  return config;
}

TEST(OptimizerTest, ResultIsLegalForEachPolicy) {
  Catalog catalog = PaperCatalog(4, 2);
  QueryGraph query = ChainQuery(4);
  CostModel model(catalog, CostParams{});
  Rng rng(1);
  for (ShippingPolicy policy :
       {ShippingPolicy::kDataShipping, ShippingPolicy::kQueryShipping,
        ShippingPolicy::kHybridShipping}) {
    TwoPhaseOptimizer optimizer(
        model, FastConfig(policy, OptimizeMetric::kResponseTime));
    OptimizeResult result = optimizer.Optimize(query, rng);
    EXPECT_TRUE(IsStructurallyValid(result.plan));
    EXPECT_TRUE(IsWellFormed(result.plan));
    EXPECT_TRUE(InPolicySpace(result.plan, PolicySpace::For(policy)));
    EXPECT_TRUE(MatchesQuery(result.plan, query));
    EXPECT_GT(result.cost, 0.0);
    EXPECT_GT(result.plans_evaluated, 0);
  }
}

// Figure 2's analytic core: the optimizer minimizing pages sent must find
// the known-optimal communication volumes.
TEST(OptimizerTest, CommunicationOptimaTwoWay) {
  QueryGraph query = ChainQuery(2);
  struct Case {
    double cached;
    double ds_pages;
    double qs_pages;
  };
  for (const Case& c : {Case{0.0, 500, 250}, Case{0.5, 250, 250},
                        Case{1.0, 0, 250}}) {
    Catalog catalog = PaperCatalog(2, 1, c.cached);
    CostModel model(catalog, CostParams{});
    Rng rng(7);
    TwoPhaseOptimizer ds(model, FastConfig(ShippingPolicy::kDataShipping,
                                           OptimizeMetric::kPagesSent));
    TwoPhaseOptimizer qs(model, FastConfig(ShippingPolicy::kQueryShipping,
                                           OptimizeMetric::kPagesSent));
    TwoPhaseOptimizer hy(model, FastConfig(ShippingPolicy::kHybridShipping,
                                           OptimizeMetric::kPagesSent));
    EXPECT_EQ(ds.Optimize(query, rng).cost, c.ds_pages) << c.cached;
    EXPECT_EQ(qs.Optimize(query, rng).cost, c.qs_pages) << c.cached;
    // Hybrid matches the best pure policy (paper Section 4.2.1).
    EXPECT_LE(hy.Optimize(query, rng).cost, std::min(c.ds_pages, c.qs_pages))
        << c.cached;
  }
}

// Hybrid shipping at least matches the best pure policy (within noise) on
// response time too.
TEST(OptimizerTest, HybridAtLeastMatchesPurePolicies) {
  Catalog catalog = PaperCatalog(4, 2);
  QueryGraph query = ChainQuery(4);
  CostModel model(catalog, CostParams{});
  Rng rng(3);
  auto best_cost = [&](ShippingPolicy policy) {
    TwoPhaseOptimizer optimizer(
        model, FastConfig(policy, OptimizeMetric::kResponseTime));
    return optimizer.Optimize(query, rng).cost;
  };
  const double ds = best_cost(ShippingPolicy::kDataShipping);
  const double qs = best_cost(ShippingPolicy::kQueryShipping);
  const double hy = best_cost(ShippingPolicy::kHybridShipping);
  EXPECT_LE(hy, std::min(ds, qs) * 1.05);
}

TEST(OptimizerTest, DeterministicGivenSeed) {
  Catalog catalog = PaperCatalog(5, 3);
  QueryGraph query = ChainQuery(5);
  CostModel model(catalog, CostParams{});
  OptimizerConfig config =
      FastConfig(ShippingPolicy::kHybridShipping, OptimizeMetric::kResponseTime);
  TwoPhaseOptimizer optimizer(model, config);
  Rng rng_a(42);
  Rng rng_b(42);
  OptimizeResult a = optimizer.Optimize(query, rng_a);
  OptimizeResult b = optimizer.Optimize(query, rng_b);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(PlanToString(a.plan), PlanToString(b.plan));
}

TEST(OptimizerTest, LinearConstraintHonored) {
  Catalog catalog = PaperCatalog(6, 3);
  QueryGraph query = ChainQuery(6);
  CostModel model(catalog, CostParams{});
  OptimizerConfig config =
      FastConfig(ShippingPolicy::kHybridShipping, OptimizeMetric::kResponseTime);
  config.require_linear = true;
  TwoPhaseOptimizer optimizer(model, config);
  Rng rng(4);
  OptimizeResult result = optimizer.Optimize(query, rng);
  EXPECT_TRUE(IsLinear(result.plan));
}

TEST(OptimizerTest, SiteSelectKeepsJoinOrder) {
  Catalog catalog = PaperCatalog(4, 2);
  QueryGraph query = ChainQuery(4);
  CostModel model(catalog, CostParams{});
  OptimizerConfig config =
      FastConfig(ShippingPolicy::kHybridShipping, OptimizeMetric::kResponseTime);
  TwoPhaseOptimizer optimizer(model, config);
  Rng rng(5);
  OptimizeResult full = optimizer.Optimize(query, rng);
  const auto leaf_order = Plan::RelationsBelow(*full.plan.root());
  OptimizeResult reselected = optimizer.SiteSelect(full.plan, query, rng);
  EXPECT_EQ(Plan::RelationsBelow(*reselected.plan.root()), leaf_order);
  // Re-selection cannot be worse than the original annotations.
  EXPECT_LE(reselected.cost, full.cost * 1.0001);
}

TEST(OptimizerTest, QueryShippingIgnoresClientCache) {
  // QS has no scan-annotation freedom: its communication cost is identical
  // with and without caching.
  QueryGraph query = ChainQuery(2);
  Rng rng(6);
  double costs[2];
  int i = 0;
  for (double cached : {0.0, 1.0}) {
    Catalog catalog = PaperCatalog(2, 1, cached);
    CostModel model(catalog, CostParams{});
    TwoPhaseOptimizer optimizer(model, FastConfig(ShippingPolicy::kQueryShipping,
                                                  OptimizeMetric::kPagesSent));
    costs[i++] = optimizer.Optimize(query, rng).cost;
  }
  EXPECT_EQ(costs[0], costs[1]);
}

// Every cost in a search is computed for the query's home client, so the
// returned plan must be bound there too, and cost what the result says.
TEST(OptimizerTest, ResultIsBoundAtTheQuerysHomeClient) {
  Catalog catalog(/*num_clients=*/2);
  for (int i = 0; i < 2; ++i) {
    const RelationId id =
        catalog.AddRelation("R" + std::to_string(i), 10000, 100);
    catalog.PlaceRelation(id, ServerSite(0, /*num_clients=*/2));
  }
  QueryGraph query = ChainQuery(2);
  query.home_client = ClientSite(1);
  CostModel model(catalog, CostParams{});
  TwoPhaseOptimizer optimizer(
      model, FastConfig(ShippingPolicy::kDataShipping,
                        OptimizeMetric::kResponseTime));
  Rng rng(8);
  const OptimizeResult full = optimizer.Optimize(query, rng);
  const OptimizeResult selected = optimizer.SiteSelect(full.plan, query, rng);
  for (const OptimizeResult* result : {&full, &selected}) {
    EXPECT_EQ(result->plan.root()->bound_site, ClientSite(1));
    result->plan.ForEach([](const PlanNode& node) {
      EXPECT_EQ(node.bound_site, ClientSite(1)) << ToString(node.type);
    });
    Plan costed = result->plan.Clone();
    EXPECT_EQ(model.PlanCost(costed, query, OptimizeMetric::kResponseTime),
              result->cost);
  }
}

// Moves are checked only where they touch the plan, which is exact only
// from a legal plan, so site selection refuses a start plan outside its
// search space instead of searching from it.
TEST(OptimizerDeathTest, SiteSelectRejectsAStartPlanOutsideItsSpace) {
  Catalog catalog = PaperCatalog(2, 1);
  QueryGraph query = ChainQuery(2);
  CostModel model(catalog, CostParams{});
  TwoPhaseOptimizer ds(model, FastConfig(ShippingPolicy::kDataShipping,
                                         OptimizeMetric::kResponseTime));
  // A query-shipping plan: its primary-copy scans are not in DS space.
  Plan qs(MakeDisplay(MakeJoin(MakeScan(0, SiteAnnotation::kPrimaryCopy),
                               MakeScan(1, SiteAnnotation::kPrimaryCopy),
                               SiteAnnotation::kInnerRel)));
  Rng rng(9);
  EXPECT_DEATH(ds.SiteSelect(qs, query, rng), "legal in its search space");
}

}  // namespace
}  // namespace dimsum
