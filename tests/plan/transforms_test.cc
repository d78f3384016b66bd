#include "plan/transforms.h"

#include <set>

#include <gtest/gtest.h>

#include "plan/printer.h"
#include "plan/validate.h"

namespace dimsum {
namespace {

TransformConfig ConfigFor(ShippingPolicy policy) {
  TransformConfig config;
  config.space = PolicySpace::For(policy);
  return config;
}

TEST(RandomPlanTest, GeneratesLegalHybridPlans) {
  QueryGraph query = QueryGraph::Chain({0, 1, 2, 3, 4});
  TransformConfig config = ConfigFor(ShippingPolicy::kHybridShipping);
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    Plan plan = RandomPlan(query, config, rng);
    EXPECT_TRUE(IsStructurallyValid(plan));
    EXPECT_TRUE(IsWellFormed(plan));
    EXPECT_TRUE(InPolicySpace(plan, config.space));
    EXPECT_TRUE(MatchesQuery(plan, query));
  }
}

TEST(RandomPlanTest, DataShippingPlansAreAllClient) {
  QueryGraph query = QueryGraph::Chain({0, 1, 2});
  TransformConfig config = ConfigFor(ShippingPolicy::kDataShipping);
  Rng rng(2);
  Plan plan = RandomPlan(query, config, rng);
  plan.ForEach([](const PlanNode& node) {
    if (node.type == OpType::kScan) {
      EXPECT_EQ(node.annotation, SiteAnnotation::kClient);
    }
    if (node.type == OpType::kJoin) {
      EXPECT_EQ(node.annotation, SiteAnnotation::kConsumer);
    }
  });
}

TEST(RandomPlanTest, QueryShippingPlansNeverUseClientOrConsumer) {
  QueryGraph query = QueryGraph::Chain({0, 1, 2, 3});
  TransformConfig config = ConfigFor(ShippingPolicy::kQueryShipping);
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    Plan plan = RandomPlan(query, config, rng);
    plan.ForEach([](const PlanNode& node) {
      if (node.type == OpType::kScan) {
        EXPECT_EQ(node.annotation, SiteAnnotation::kPrimaryCopy);
      }
      if (node.type == OpType::kJoin) {
        EXPECT_NE(node.annotation, SiteAnnotation::kConsumer);
      }
    });
  }
}

TEST(RandomPlanTest, LinearConstraintProducesLinearTrees) {
  QueryGraph query = QueryGraph::Chain({0, 1, 2, 3, 4, 5, 6});
  TransformConfig config = ConfigFor(ShippingPolicy::kHybridShipping);
  config.require_linear = true;
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    Plan plan = RandomPlan(query, config, rng);
    EXPECT_TRUE(IsLinear(plan));
    EXPECT_TRUE(MatchesQuery(plan, query));
  }
}

TEST(RandomPlanTest, SelectionsAreInsertedWhenSelective) {
  QueryGraph query = QueryGraph::Chain({0, 1});
  query.scan_selectivities = {0.5, 1.0};
  TransformConfig config = ConfigFor(ShippingPolicy::kHybridShipping);
  Rng rng(5);
  Plan plan = RandomPlan(query, config, rng);
  int selects = 0;
  plan.ForEach([&](const PlanNode& node) {
    if (node.type == OpType::kSelect) {
      ++selects;
      EXPECT_EQ(node.selectivity, 0.5);
    }
  });
  EXPECT_EQ(selects, 1);
}

// Property test: arbitrary accepted move sequences preserve all invariants.
class MoveSequenceTest : public ::testing::TestWithParam<int> {};

TEST_P(MoveSequenceTest, MovesPreserveInvariants) {
  const int seed = GetParam();
  QueryGraph query = QueryGraph::Chain({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  for (ShippingPolicy policy :
       {ShippingPolicy::kDataShipping, ShippingPolicy::kQueryShipping,
        ShippingPolicy::kHybridShipping}) {
    TransformConfig config = ConfigFor(policy);
    Rng rng(static_cast<uint64_t>(seed) * 977 +
            static_cast<uint64_t>(policy));
    Plan plan = RandomPlan(query, config, rng);
    int accepted = 0;
    for (int step = 0; step < 120; ++step) {
      auto next = TryRandomMove(plan, query, config, rng);
      if (!next.has_value()) continue;
      plan = std::move(*next);
      ++accepted;
      ASSERT_TRUE(IsStructurallyValid(plan));
      ASSERT_TRUE(IsWellFormed(plan));
      ASSERT_TRUE(InPolicySpace(plan, config.space));
      ASSERT_TRUE(MatchesQuery(plan, query));
    }
    EXPECT_GT(accepted, 0) << "policy " << ToString(policy);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MoveSequenceTest, ::testing::Range(0, 12));

TEST(MoveTest, JoinOrderMovesReachDifferentShapes) {
  QueryGraph query = QueryGraph::Chain({0, 1, 2, 3});
  TransformConfig config = ConfigFor(ShippingPolicy::kDataShipping);
  Rng rng(7);
  Plan plan = RandomPlan(query, config, rng);
  std::set<std::string> shapes;
  shapes.insert(PlanToString(plan));
  for (int step = 0; step < 300; ++step) {
    auto next = TryRandomMove(plan, query, config, rng);
    if (next.has_value()) {
      plan = std::move(*next);
      shapes.insert(PlanToString(plan));
    }
  }
  // A 4-relation chain has several join orders; the walk should see a few.
  EXPECT_GE(shapes.size(), 4u);
}

TEST(MoveTest, AnnotationOnlySpaceWithoutJoinOrderMoves) {
  QueryGraph query = QueryGraph::Chain({0, 1, 2});
  TransformConfig config = ConfigFor(ShippingPolicy::kHybridShipping);
  config.join_order_moves = false;
  Rng rng(8);
  Plan plan = RandomPlan(query, config, rng);
  const std::string original_shape = PlanToString(plan);
  for (int step = 0; step < 100; ++step) {
    auto next = TryRandomMove(plan, query, config, rng);
    if (next.has_value()) plan = std::move(*next);
  }
  // Join order must be untouched: strip annotations by comparing relation
  // order of scans.
  auto before = original_shape;
  auto relations = Plan::RelationsBelow(*plan.root());
  Plan original_copy = plan.Clone();
  EXPECT_EQ(relations.size(), 3u);
  // The scan order is a proxy for the join tree's leaf order; with no
  // join-order moves it must be stable across the walk. Verify the leaf
  // sequence appears in the original printed plan in the same order.
  size_t pos = 0;
  for (RelationId rel : relations) {
    const std::string token = "scan R" + std::to_string(rel);
    pos = before.find(token, pos);
    ASSERT_NE(pos, std::string::npos) << "leaf order changed";
  }
}

TEST(MoveTest, DataShippingHasNoAnnotationMoves) {
  QueryGraph query = QueryGraph::Chain({0, 1});
  TransformConfig config = ConfigFor(ShippingPolicy::kDataShipping);
  config.join_order_moves = false;
  Rng rng(9);
  Plan plan = RandomPlan(query, config, rng);
  // DS allows one annotation per operator, so with join-order moves (and
  // with them the commute) off a 2-way join has no candidate at all.
  EXPECT_EQ(CountMoveCandidates(plan, config), 0);
}

TEST(MoveTest, CartesianProductsAreRejected) {
  QueryGraph query = QueryGraph::Chain({0, 1, 2});
  TransformConfig config = ConfigFor(ShippingPolicy::kDataShipping);
  Rng rng(10);
  Plan plan = RandomPlan(query, config, rng);
  for (int step = 0; step < 200; ++step) {
    auto next = TryRandomMove(plan, query, config, rng);
    if (next.has_value()) {
      plan = std::move(*next);
      ASSERT_TRUE(MatchesQuery(plan, query)) << PlanToString(plan);
    }
  }
}

Catalog ReplicatedCatalog(int relations, int servers, int degree) {
  Catalog catalog;
  for (int i = 0; i < relations; ++i) {
    const RelationId id =
        catalog.AddRelation("R" + std::to_string(i), 10000, 100);
    for (int copy = 0; copy < degree; ++copy) {
      catalog.PlaceRelation(id, ServerSite((i + copy) % servers));
    }
  }
  return catalog;
}

TEST(MoveTest, UnreplicatedCatalogAddsNoReplicaMoves) {
  QueryGraph query = QueryGraph::Chain({0, 1, 2});
  Catalog single = ReplicatedCatalog(3, 2, /*degree=*/1);
  TransformConfig config = ConfigFor(ShippingPolicy::kHybridShipping);
  Rng rng(20);
  Plan plan = RandomPlan(query, config, rng);
  const int baseline = CountMoveCandidates(plan, config);
  config.catalog = &single;
  EXPECT_EQ(CountMoveCandidates(plan, config), baseline);
}

TEST(MoveTest, ReplicatedCatalogAddsOneMovePerAlternativeCopy) {
  QueryGraph query = QueryGraph::Chain({0, 1, 2});
  Catalog replicated = ReplicatedCatalog(3, 2, /*degree=*/2);
  TransformConfig config = ConfigFor(ShippingPolicy::kHybridShipping);
  Rng rng(21);
  Plan plan = RandomPlan(query, config, rng);
  plan.ForEachMutable([](PlanNode& node) { node.replica = 0; });
  const int baseline = CountMoveCandidates(plan, config);
  config.catalog = &replicated;
  // Each of the three scans has exactly one alternative copy to re-point at.
  EXPECT_EQ(CountMoveCandidates(plan, config), baseline + 3);
}

TEST(MoveTest, ReplicaMovesRepointScansWithinCopySet) {
  QueryGraph query = QueryGraph::Chain({0, 1});
  Catalog replicated = ReplicatedCatalog(2, 2, /*degree=*/2);
  TransformConfig config = ConfigFor(ShippingPolicy::kQueryShipping);
  config.join_order_moves = false;
  config.catalog = &replicated;
  Rng rng(22);
  Plan plan = RandomPlan(query, config, rng);
  const auto replicas = [](const Plan& p) {
    std::vector<int32_t> r;
    p.ForEach([&](const PlanNode& node) {
      if (node.type == OpType::kScan) r.push_back(node.replica);
    });
    return r;
  };
  bool saw_alternative = false;
  for (int step = 0; step < 200; ++step) {
    const std::vector<int32_t> before = replicas(plan);
    std::optional<MoveType> chosen;
    auto next = TryRandomMove(plan, query, config, rng, &chosen);
    if (!next.has_value()) continue;
    plan = std::move(*next);
    if (replicas(plan) != before) {
      saw_alternative = true;
      // Replica re-pointing is counted as move 7, the scan-site move.
      EXPECT_EQ(chosen, MoveType::kScanSite);
    }
    plan.ForEach([&](const PlanNode& node) {
      if (node.type != OpType::kScan) return;
      EXPECT_GE(node.replica, 0);
      EXPECT_LT(node.replica, replicated.NumReplicas(node.relation));
    });
  }
  EXPECT_TRUE(saw_alternative) << "random walk never tried another copy";
}

TEST(RandomPlanTest, UnreplicatedCatalogLeavesRngStreamUntouched) {
  // Degree-1 bit-identity: wiring a single-copy catalog into the transform
  // config must not shift any random draw, so the generated plans match
  // the null-catalog plans exactly, seed for seed.
  QueryGraph query = QueryGraph::Chain({0, 1, 2, 3});
  Catalog single = ReplicatedCatalog(4, 2, /*degree=*/1);
  TransformConfig without = ConfigFor(ShippingPolicy::kHybridShipping);
  TransformConfig with = without;
  with.catalog = &single;
  Rng rng_without(23);
  Rng rng_with(23);
  for (int i = 0; i < 25; ++i) {
    Plan a = RandomPlan(query, without, rng_without);
    Plan b = RandomPlan(query, with, rng_with);
    ASSERT_EQ(PlanToString(a), PlanToString(b));
    b.ForEach([](const PlanNode& node) { EXPECT_EQ(node.replica, 0); });
  }
}

TEST(RandomizeAnnotationsTest, ReplicatedCatalogRedrawsScanReplicas) {
  QueryGraph query = QueryGraph::Chain({0, 1, 2});
  Catalog replicated = ReplicatedCatalog(3, 3, /*degree=*/3);
  TransformConfig config = ConfigFor(ShippingPolicy::kHybridShipping);
  config.catalog = &replicated;
  Rng rng(24);
  Plan plan = RandomPlan(query, config, rng);
  std::set<int32_t> seen;
  for (int i = 0; i < 60; ++i) {
    RandomizeAnnotations(plan, config, rng);
    ASSERT_TRUE(IsWellFormed(plan));
    plan.ForEach([&](const PlanNode& node) {
      if (node.type != OpType::kScan) return;
      EXPECT_GE(node.replica, 0);
      EXPECT_LT(node.replica, 3);
      seen.insert(node.replica);
    });
  }
  EXPECT_EQ(seen.size(), 3u) << "every copy should be drawn eventually";
}

TEST(RandomizeAnnotationsTest, StaysInSpaceAndWellFormed) {
  QueryGraph query = QueryGraph::Chain({0, 1, 2, 3, 4, 5});
  TransformConfig config = ConfigFor(ShippingPolicy::kHybridShipping);
  Rng rng(11);
  Plan plan = RandomPlan(query, config, rng);
  for (int i = 0; i < 50; ++i) {
    RandomizeAnnotations(plan, config, rng);
    ASSERT_TRUE(IsWellFormed(plan));
    ASSERT_TRUE(InPolicySpace(plan, config.space));
  }
}

}  // namespace
}  // namespace dimsum
