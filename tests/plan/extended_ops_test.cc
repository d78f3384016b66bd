#include <gtest/gtest.h>

#include "plan/binding.h"
#include "plan/printer.h"
#include "plan/transforms.h"
#include "plan/validate.h"

namespace dimsum {
namespace {

// Per the paper's footnotes: unary operators other than select
// (projections, aggregations) are annotated like selections; binary
// operators other than join (set operations) like joins.

Catalog TwoServerCatalog() {
  Catalog catalog;
  catalog.AddRelation("R0", 10000, 100);
  catalog.AddRelation("R1", 10000, 100);
  catalog.PlaceRelation(0, ServerSite(0));
  catalog.PlaceRelation(1, ServerSite(1));
  return catalog;
}

TEST(ExtendedOpsTest, OpCategoryPredicates) {
  EXPECT_TRUE(IsBinaryOp(OpType::kJoin));
  EXPECT_TRUE(IsBinaryOp(OpType::kUnion));
  EXPECT_FALSE(IsBinaryOp(OpType::kSelect));
  EXPECT_TRUE(IsUnaryOp(OpType::kSelect));
  EXPECT_TRUE(IsUnaryOp(OpType::kProject));
  EXPECT_TRUE(IsUnaryOp(OpType::kAggregate));
  EXPECT_FALSE(IsUnaryOp(OpType::kDisplay));
  EXPECT_FALSE(IsUnaryOp(OpType::kScan));
}

TEST(ExtendedOpsTest, PolicySpacesCoverNewOperators) {
  const PolicySpace ds = PolicySpace::For(ShippingPolicy::kDataShipping);
  const PolicySpace qs = PolicySpace::For(ShippingPolicy::kQueryShipping);
  const PolicySpace hy = PolicySpace::For(ShippingPolicy::kHybridShipping);
  // Projections/aggregations behave like selects.
  EXPECT_TRUE(ds.Allows(OpType::kProject, SiteAnnotation::kConsumer));
  EXPECT_FALSE(ds.Allows(OpType::kProject, SiteAnnotation::kProducer));
  EXPECT_TRUE(qs.Allows(OpType::kAggregate, SiteAnnotation::kProducer));
  EXPECT_FALSE(qs.Allows(OpType::kAggregate, SiteAnnotation::kConsumer));
  EXPECT_TRUE(hy.Allows(OpType::kAggregate, SiteAnnotation::kConsumer));
  // Union behaves like a join.
  EXPECT_TRUE(qs.Allows(OpType::kUnion, SiteAnnotation::kInnerRel));
  EXPECT_FALSE(qs.Allows(OpType::kUnion, SiteAnnotation::kConsumer));
  EXPECT_TRUE(hy.Allows(OpType::kUnion, SiteAnnotation::kOuterRel));
}

TEST(ExtendedOpsTest, UnionPlanBindsLikeJoin) {
  Catalog catalog = TwoServerCatalog();
  Plan plan(MakeDisplay(MakeUnion(MakeScan(0, SiteAnnotation::kPrimaryCopy),
                                  MakeScan(1, SiteAnnotation::kPrimaryCopy),
                                  SiteAnnotation::kOuterRel)));
  EXPECT_TRUE(IsStructurallyValid(plan));
  EXPECT_TRUE(IsWellFormed(plan));
  BindSites(plan, catalog);
  EXPECT_EQ(plan.root()->left->bound_site, 2);  // at the right input's site
}

TEST(ExtendedOpsTest, AggregateProducerBindsToChildSite) {
  Catalog catalog = TwoServerCatalog();
  auto agg = MakeAggregate(MakeScan(0, SiteAnnotation::kPrimaryCopy), 100,
                           SiteAnnotation::kProducer);
  Plan plan(MakeDisplay(std::move(agg)));
  BindSites(plan, catalog);
  EXPECT_EQ(plan.root()->left->bound_site, 1);
}

TEST(ExtendedOpsTest, ProjectConsumerUnderDisplayBindsToClient) {
  Catalog catalog = TwoServerCatalog();
  auto project = MakeProject(MakeScan(0, SiteAnnotation::kPrimaryCopy), 0.5,
                             SiteAnnotation::kConsumer);
  Plan plan(MakeDisplay(std::move(project)));
  BindSites(plan, catalog);
  EXPECT_EQ(plan.root()->left->bound_site, kClientSite);
}

TEST(ExtendedOpsTest, UnionConsumerCycleDetected) {
  // Union annotated consumer under an aggregate annotated producer: cycle.
  auto uni = MakeUnion(MakeScan(0, SiteAnnotation::kPrimaryCopy),
                       MakeScan(1, SiteAnnotation::kPrimaryCopy),
                       SiteAnnotation::kConsumer);
  auto agg = MakeAggregate(std::move(uni), 10, SiteAnnotation::kProducer);
  Plan plan(MakeDisplay(std::move(agg)));
  EXPECT_TRUE(IsStructurallyValid(plan));
  EXPECT_FALSE(IsWellFormed(plan));
}

TEST(ExtendedOpsTest, PrinterShowsNewOperators) {
  auto agg = MakeAggregate(
      MakeProject(MakeScan(0, SiteAnnotation::kClient), 0.25,
                  SiteAnnotation::kConsumer),
      42, SiteAnnotation::kConsumer);
  Plan plan(MakeDisplay(std::move(agg)));
  const std::string text = PlanToString(plan);
  EXPECT_NE(text.find("aggregate groups=42"), std::string::npos);
  EXPECT_NE(text.find("project width=0.25"), std::string::npos);
}

TEST(ExtendedOpsTest, AnnotationMovesCoverNewOperators) {
  // A hybrid-space plan containing the new operators still enumerates
  // annotation moves for them.
  QueryGraph query = QueryGraph::Chain({0, 1});
  auto agg = MakeAggregate(
      MakeJoin(MakeScan(0, SiteAnnotation::kClient),
               MakeScan(1, SiteAnnotation::kClient),
               SiteAnnotation::kConsumer),
      100, SiteAnnotation::kConsumer);
  Plan plan(MakeDisplay(std::move(agg)));
  TransformConfig config;
  config.join_order_moves = false;
  // scans: 1 alternative each (2), join: 2, aggregate: 1 -> 5 candidates.
  EXPECT_EQ(CountMoveCandidates(plan, config), 5);
}

}  // namespace
}  // namespace dimsum
