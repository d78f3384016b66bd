#include "plan/binding.h"

#include <gtest/gtest.h>

#include "plan/validate.h"

namespace dimsum {
namespace {

Catalog MakeCatalog(int relations, int servers) {
  Catalog catalog;
  for (int i = 0; i < relations; ++i) {
    const RelationId id = catalog.AddRelation("R" + std::to_string(i), 10000, 100);
    catalog.PlaceRelation(id, ServerSite(i % servers));
  }
  return catalog;
}

TEST(BindingTest, DataShippingBindsEverythingToClient) {
  Catalog catalog = MakeCatalog(2, 2);
  auto join = MakeJoin(MakeScan(0, SiteAnnotation::kClient),
                       MakeScan(1, SiteAnnotation::kClient),
                       SiteAnnotation::kConsumer);
  Plan plan(MakeDisplay(std::move(join)));
  BindSites(plan, catalog);
  plan.ForEach([](const PlanNode& node) {
    EXPECT_EQ(node.bound_site, kClientSite) << ToString(node.type);
  });
}

TEST(BindingTest, QueryShippingBindsToServers) {
  Catalog catalog = MakeCatalog(2, 2);  // R0 -> site 1, R1 -> site 2
  auto join = MakeJoin(MakeScan(0, SiteAnnotation::kPrimaryCopy),
                       MakeScan(1, SiteAnnotation::kPrimaryCopy),
                       SiteAnnotation::kInnerRel);
  Plan plan(MakeDisplay(std::move(join)));
  BindSites(plan, catalog);
  EXPECT_EQ(plan.root()->bound_site, kClientSite);          // display
  EXPECT_EQ(plan.root()->left->bound_site, 1);              // join at inner
  EXPECT_EQ(plan.root()->left->left->bound_site, 1);        // scan R0
  EXPECT_EQ(plan.root()->left->right->bound_site, 2);       // scan R1
}

TEST(BindingTest, OuterRelationAnnotationFollowsRightChild) {
  Catalog catalog = MakeCatalog(2, 2);
  auto join = MakeJoin(MakeScan(0, SiteAnnotation::kPrimaryCopy),
                       MakeScan(1, SiteAnnotation::kPrimaryCopy),
                       SiteAnnotation::kOuterRel);
  Plan plan(MakeDisplay(std::move(join)));
  BindSites(plan, catalog);
  EXPECT_EQ(plan.root()->left->bound_site, 2);
}

TEST(BindingTest, ConsumerChainPropagatesFromDisplay) {
  Catalog catalog = MakeCatalog(3, 3);
  // join(consumer) over join(consumer): both end up at the client because
  // the display is there.
  auto inner = MakeJoin(MakeScan(0, SiteAnnotation::kPrimaryCopy),
                        MakeScan(1, SiteAnnotation::kPrimaryCopy),
                        SiteAnnotation::kConsumer);
  auto outer = MakeJoin(std::move(inner),
                        MakeScan(2, SiteAnnotation::kPrimaryCopy),
                        SiteAnnotation::kConsumer);
  Plan plan(MakeDisplay(std::move(outer)));
  BindSites(plan, catalog);
  EXPECT_EQ(plan.root()->left->bound_site, kClientSite);
  EXPECT_EQ(plan.root()->left->left->bound_site, kClientSite);
  // Scans stay at their primary copies.
  EXPECT_EQ(plan.root()->left->left->left->bound_site, 1);
}

TEST(BindingTest, MixedChainInnerThenConsumer) {
  Catalog catalog = MakeCatalog(3, 3);
  // Hybrid plan: bottom join runs at R0's server; the upper join is
  // annotated inner-relation, so it follows the bottom join's site.
  auto bottom = MakeJoin(MakeScan(0, SiteAnnotation::kPrimaryCopy),
                         MakeScan(1, SiteAnnotation::kPrimaryCopy),
                         SiteAnnotation::kInnerRel);
  auto top = MakeJoin(std::move(bottom),
                      MakeScan(2, SiteAnnotation::kPrimaryCopy),
                      SiteAnnotation::kInnerRel);
  Plan plan(MakeDisplay(std::move(top)));
  BindSites(plan, catalog);
  EXPECT_EQ(plan.root()->left->bound_site, 1);
  EXPECT_EQ(plan.root()->left->left->bound_site, 1);
}

TEST(BindingTest, SelectProducerFollowsScan) {
  Catalog catalog = MakeCatalog(2, 2);
  auto select = MakeSelect(MakeScan(1, SiteAnnotation::kPrimaryCopy), 0.2,
                           SiteAnnotation::kProducer);
  auto join = MakeJoin(MakeScan(0, SiteAnnotation::kClient), std::move(select),
                       SiteAnnotation::kConsumer);
  Plan plan(MakeDisplay(std::move(join)));
  BindSites(plan, catalog);
  const PlanNode* join_node = plan.root()->left.get();
  EXPECT_EQ(join_node->bound_site, kClientSite);
  EXPECT_EQ(join_node->right->bound_site, 2);  // select at R1's server
}

TEST(BindingTest, SelectConsumerFollowsParent) {
  Catalog catalog = MakeCatalog(2, 2);
  auto select = MakeSelect(MakeScan(1, SiteAnnotation::kPrimaryCopy), 0.2,
                           SiteAnnotation::kConsumer);
  auto join = MakeJoin(MakeScan(0, SiteAnnotation::kClient), std::move(select),
                       SiteAnnotation::kConsumer);
  Plan plan(MakeDisplay(std::move(join)));
  BindSites(plan, catalog);
  EXPECT_EQ(plan.root()->left->right->bound_site, kClientSite);
}

TEST(BindingTest, RebindingAfterMigrationChangesSites) {
  Catalog catalog = MakeCatalog(2, 2);
  auto join = MakeJoin(MakeScan(0, SiteAnnotation::kPrimaryCopy),
                       MakeScan(1, SiteAnnotation::kPrimaryCopy),
                       SiteAnnotation::kInnerRel);
  Plan plan(MakeDisplay(std::move(join)));
  BindSites(plan, catalog);
  EXPECT_EQ(plan.root()->left->bound_site, 1);
  // The relation migrates; logical annotations rebind to the new site.
  catalog.MoveRelation(0, ServerSite(1));
  BindSites(plan, catalog);
  EXPECT_EQ(plan.root()->left->bound_site, 2);
}

TEST(BindingTest, ScanBindsToItsServingReplica) {
  Catalog catalog = MakeCatalog(2, 2);  // R0 primary -> site 1
  catalog.PlaceRelation(0, ServerSite(1));  // second copy of R0 on site 2
  auto join = MakeJoin(MakeScan(0, SiteAnnotation::kPrimaryCopy),
                       MakeScan(1, SiteAnnotation::kPrimaryCopy),
                       SiteAnnotation::kInnerRel);
  join->left->replica = 1;  // scan R0's second copy
  Plan plan(MakeDisplay(std::move(join)));
  BindSites(plan, catalog);
  EXPECT_EQ(plan.root()->left->left->bound_site, 2);  // scan R0 @ copy 1
  EXPECT_EQ(plan.root()->left->bound_site, 2);        // join follows inner
  // Replica 0 is the primary; re-binding follows the annotation.
  plan.root()->left->left->replica = 0;
  BindSites(plan, catalog);
  EXPECT_EQ(plan.root()->left->left->bound_site, 1);
}

TEST(BindingTest, BoundServerSitesDeduplicatesReplicatedCatalogs) {
  // Both relations fully replicated on both servers; a QS plan pointing
  // both scans at the same server must report that site exactly once, and
  // a partially cached client scan reports its serving replica.
  Catalog catalog = MakeCatalog(2, 2);
  catalog.PlaceRelation(0, ServerSite(1));
  catalog.PlaceRelation(1, ServerSite(0));
  auto join = MakeJoin(MakeScan(0, SiteAnnotation::kPrimaryCopy),
                       MakeScan(1, SiteAnnotation::kPrimaryCopy),
                       SiteAnnotation::kInnerRel);
  join->right->replica = 1;  // R1's second copy lives on site 1 too
  Plan plan(MakeDisplay(std::move(join)));
  BindSites(plan, catalog);
  EXPECT_EQ(BoundServerSites(plan, catalog, 4096),
            (std::vector<SiteId>{ServerSite(0)}));

  // Half-cached client scan: the fault-in source is the serving replica.
  catalog.SetCachedFraction(0, 0.5);
  auto cached = MakeJoin(MakeScan(0, SiteAnnotation::kClient),
                         MakeScan(1, SiteAnnotation::kPrimaryCopy),
                         SiteAnnotation::kConsumer);
  cached->left->replica = 1;   // fault in from R0's copy on site 2
  cached->right->replica = 1;  // R1's second copy on site 1
  Plan cached_plan(MakeDisplay(std::move(cached)));
  BindSites(cached_plan, catalog);
  EXPECT_EQ(BoundServerSites(cached_plan, catalog, 4096),
            (std::vector<SiteId>{ServerSite(0), ServerSite(1)}));
}

TEST(BindingDeathTest, IllFormedPlanRefusesToBind) {
  Catalog catalog = MakeCatalog(3, 2);
  auto inner = MakeJoin(MakeScan(0, SiteAnnotation::kPrimaryCopy),
                        MakeScan(1, SiteAnnotation::kPrimaryCopy),
                        SiteAnnotation::kConsumer);
  auto outer = MakeJoin(std::move(inner),
                        MakeScan(2, SiteAnnotation::kPrimaryCopy),
                        SiteAnnotation::kInnerRel);  // cycle with inner
  Plan plan(MakeDisplay(std::move(outer)));
  EXPECT_DEATH(BindSites(plan, catalog), "check failed");
}

TEST(BindingDeathTest, StructurallyInvalidPlanRefusesToBind) {
  Catalog catalog = MakeCatalog(2, 2);
  // A join with one child: the walk must refuse it before descending.
  Plan one_child(MakeDisplay(MakeJoin(MakeScan(0, SiteAnnotation::kPrimaryCopy),
                                      MakeScan(1, SiteAnnotation::kPrimaryCopy),
                                      SiteAnnotation::kOuterRel)));
  one_child.root()->left->right.reset();
  ASSERT_FALSE(IsStructurallyValid(one_child));
  EXPECT_DEATH(BindSites(one_child, catalog), "not structurally valid");
  // A display below the root.
  Plan nested(MakeDisplay(MakeDisplay(MakeScan(0, SiteAnnotation::kClient))));
  ASSERT_FALSE(IsStructurallyValid(nested));
  EXPECT_DEATH(BindSites(nested, catalog), "not structurally valid");
}

}  // namespace
}  // namespace dimsum
