#include "plan/plan.h"

#include <cstdint>
#include <initializer_list>
#include <vector>

#include <gtest/gtest.h>

#include "plan/printer.h"
#include "plan/query.h"
#include "plan/validate.h"

namespace dimsum {
namespace {

Plan TwoWayDataShippingPlan() {
  // Figure 1(a)-style plan for a 2-way join: everything at the client.
  auto join = MakeJoin(MakeScan(0, SiteAnnotation::kClient),
                       MakeScan(1, SiteAnnotation::kClient),
                       SiteAnnotation::kConsumer);
  return Plan(MakeDisplay(std::move(join)));
}

TEST(PlanTest, SizeCountsAllNodes) {
  Plan plan = TwoWayDataShippingPlan();
  EXPECT_EQ(plan.Size(), 4);  // display, join, 2 scans
}

TEST(PlanTest, CloneIsDeepAndEqualShape) {
  Plan plan = TwoWayDataShippingPlan();
  Plan copy = plan.Clone();
  EXPECT_EQ(PlanToString(plan), PlanToString(copy));
  // Mutating the copy does not affect the original.
  copy.root()->left->annotation = SiteAnnotation::kInnerRel;
  EXPECT_NE(PlanToString(plan), PlanToString(copy));
}

TEST(PlanTest, RelationsBelowCollectsScans) {
  Plan plan = TwoWayDataShippingPlan();
  auto relations = Plan::RelationsBelow(*plan.root());
  EXPECT_EQ(relations, (std::vector<RelationId>{0, 1}));
}

TEST(PlanTest, ForEachVisitsPreOrder) {
  Plan plan = TwoWayDataShippingPlan();
  std::vector<OpType> types;
  plan.ForEach([&](const PlanNode& n) { types.push_back(n.type); });
  EXPECT_EQ(types, (std::vector<OpType>{OpType::kDisplay, OpType::kJoin,
                                        OpType::kScan, OpType::kScan}));
}

TEST(ValidateTest, WellFormedPlanPasses) {
  Plan plan = TwoWayDataShippingPlan();
  EXPECT_TRUE(IsStructurallyValid(plan));
  EXPECT_TRUE(IsWellFormed(plan));
}

TEST(ValidateTest, TwoNodeCycleDetected) {
  // Parent join annotated "inner relation" (points at left child) while the
  // left child join is annotated "consumer" (points back at parent).
  auto inner_join = MakeJoin(MakeScan(0, SiteAnnotation::kPrimaryCopy),
                             MakeScan(1, SiteAnnotation::kPrimaryCopy),
                             SiteAnnotation::kConsumer);
  auto outer_join =
      MakeJoin(std::move(inner_join), MakeScan(2, SiteAnnotation::kPrimaryCopy),
               SiteAnnotation::kInnerRel);
  Plan plan(MakeDisplay(std::move(outer_join)));
  EXPECT_TRUE(IsStructurallyValid(plan));
  EXPECT_FALSE(IsWellFormed(plan));
}

TEST(ValidateTest, SelectProducerConsumerCycleDetected) {
  auto select = MakeSelect(
      MakeJoin(MakeScan(0, SiteAnnotation::kClient),
               MakeScan(1, SiteAnnotation::kClient), SiteAnnotation::kConsumer),
      0.5, SiteAnnotation::kProducer);
  Plan plan(MakeDisplay(std::move(select)));
  EXPECT_FALSE(IsWellFormed(plan));
}

TEST(ValidateTest, ConsumerUnderOuterRelationParentIsFine) {
  // The parent points at its right child; the left child points up. No cycle.
  auto inner_join = MakeJoin(MakeScan(0, SiteAnnotation::kPrimaryCopy),
                             MakeScan(1, SiteAnnotation::kPrimaryCopy),
                             SiteAnnotation::kConsumer);
  auto outer_join =
      MakeJoin(std::move(inner_join), MakeScan(2, SiteAnnotation::kPrimaryCopy),
               SiteAnnotation::kOuterRel);
  Plan plan(MakeDisplay(std::move(outer_join)));
  EXPECT_TRUE(IsWellFormed(plan));
}

TEST(ValidateTest, PolicyMembership) {
  Plan ds = TwoWayDataShippingPlan();
  EXPECT_TRUE(
      InPolicySpace(ds, PolicySpace::For(ShippingPolicy::kDataShipping)));
  EXPECT_TRUE(
      InPolicySpace(ds, PolicySpace::For(ShippingPolicy::kHybridShipping)));
  EXPECT_FALSE(
      InPolicySpace(ds, PolicySpace::For(ShippingPolicy::kQueryShipping)));

  auto qs_join = MakeJoin(MakeScan(0, SiteAnnotation::kPrimaryCopy),
                          MakeScan(1, SiteAnnotation::kPrimaryCopy),
                          SiteAnnotation::kInnerRel);
  Plan qs(MakeDisplay(std::move(qs_join)));
  EXPECT_TRUE(
      InPolicySpace(qs, PolicySpace::For(ShippingPolicy::kQueryShipping)));
  EXPECT_TRUE(
      InPolicySpace(qs, PolicySpace::For(ShippingPolicy::kHybridShipping)));
  EXPECT_FALSE(
      InPolicySpace(qs, PolicySpace::For(ShippingPolicy::kDataShipping)));
}

TEST(ValidateTest, MatchesQueryDetectsCartesianProduct) {
  QueryGraph chain = QueryGraph::Chain({0, 1, 2});
  // ((R0 x R2) join R1): the inner join is a Cartesian product.
  auto cross = MakeJoin(MakeScan(0, SiteAnnotation::kClient),
                        MakeScan(2, SiteAnnotation::kClient),
                        SiteAnnotation::kConsumer);
  auto join =
      MakeJoin(std::move(cross), MakeScan(1, SiteAnnotation::kClient),
               SiteAnnotation::kConsumer);
  Plan plan(MakeDisplay(std::move(join)));
  EXPECT_FALSE(MatchesQuery(plan, chain));
}

TEST(ValidateTest, MatchesQueryRequiresExactRelationSet) {
  QueryGraph chain = QueryGraph::Chain({0, 1, 2});
  Plan two_way = TwoWayDataShippingPlan();  // scans only R0, R1
  EXPECT_FALSE(MatchesQuery(two_way, chain));
}

TEST(ValidateTest, LinearAndBushyShapes) {
  // Linear: ((R0 R1) R2)
  auto linear_join = MakeJoin(
      MakeJoin(MakeScan(0, SiteAnnotation::kClient),
               MakeScan(1, SiteAnnotation::kClient), SiteAnnotation::kConsumer),
      MakeScan(2, SiteAnnotation::kClient), SiteAnnotation::kConsumer);
  Plan linear(MakeDisplay(std::move(linear_join)));
  EXPECT_TRUE(IsLinear(linear));

  // Bushy: ((R0 R1) (R2 R3))
  auto bushy_join = MakeJoin(
      MakeJoin(MakeScan(0, SiteAnnotation::kClient),
               MakeScan(1, SiteAnnotation::kClient), SiteAnnotation::kConsumer),
      MakeJoin(MakeScan(2, SiteAnnotation::kClient),
               MakeScan(3, SiteAnnotation::kClient), SiteAnnotation::kConsumer),
      SiteAnnotation::kConsumer);
  Plan bushy(MakeDisplay(std::move(bushy_join)));
  EXPECT_FALSE(IsLinear(bushy));
}

TEST(PrinterTest, RendersAnnotations) {
  Plan plan = TwoWayDataShippingPlan();
  const std::string text = PlanToString(plan);
  EXPECT_NE(text.find("display [client]"), std::string::npos);
  EXPECT_NE(text.find("join [consumer]"), std::string::npos);
  EXPECT_NE(text.find("scan R0 [client]"), std::string::npos);
}

QueryGraph ChainOf(int n) {
  std::vector<RelationId> relations;
  for (int i = 0; i < n; ++i) relations.push_back(i);
  return QueryGraph::Chain(std::move(relations));
}

TEST(RelationSetsTest, BitsFollowQueryOrder) {
  QueryGraph query = QueryGraph::Chain({7, 3, 5});
  const RelationSets sets(query);
  EXPECT_EQ(sets.Of(7), 0b001u);
  EXPECT_EQ(sets.Of(3), 0b010u);
  EXPECT_EQ(sets.Of(5), 0b100u);
  EXPECT_EQ(sets.Of(4), 0u);  // not in the query
  EXPECT_EQ(sets.all(), 0b111u);
}

TEST(RelationSetsTest, ConnectsFollowsJoinPredicates) {
  const QueryGraph query = ChainOf(4);  // 0 - 1 - 2 - 3
  const RelationSets sets(query);
  const auto set = [&sets](std::initializer_list<RelationId> rels) {
    uint64_t out = 0;
    for (const RelationId r : rels) out |= sets.Of(r);
    return out;
  };
  EXPECT_TRUE(sets.Connects(set({0}), set({1})));
  EXPECT_TRUE(sets.Connects(set({1}), set({0})));
  EXPECT_FALSE(sets.Connects(set({0}), set({2})));
  EXPECT_TRUE(sets.Connects(set({0, 1}), set({2, 3})));
  EXPECT_FALSE(sets.Connects(set({0, 3}), set({})));
}

TEST(RelationSetsTest, HoldsExactlySixtyFourRelations) {
  const QueryGraph query = ChainOf(RelationSets::kMaxRelations);
  const RelationSets sets(query);
  EXPECT_EQ(sets.all(), ~uint64_t{0});
  EXPECT_EQ(sets.Of(63), uint64_t{1} << 63);
  EXPECT_TRUE(sets.Connects(sets.Of(62), sets.Of(63)));
}

TEST(RelationSetsDeathTest, RejectsQueriesWiderThanSixtyFourRelations) {
  const QueryGraph query = ChainOf(RelationSets::kMaxRelations + 1);
  EXPECT_DEATH(RelationSets{query},
               "query has 65 relations; relation sets hold at most 64");
  // Validation builds the index, so it rejects the query too.
  EXPECT_DEATH(MatchesQuery(TwoWayDataShippingPlan(), query),
               "relation sets hold at most 64");
}

TEST(RelationSetsDeathTest, RejectsARepeatedRelation) {
  QueryGraph query;
  query.relations = {0, 1, 0};
  EXPECT_DEATH(RelationSets{query}, "names a relation more than once");
}

}  // namespace
}  // namespace dimsum
