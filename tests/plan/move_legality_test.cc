// Differential test of the local move-legality check. For every candidate
// move of every plan a seeded walk visits, the move is applied in place,
// MoveIsLegal's verdict is compared with the full PlanIsLegal of the
// moved plan, and the move is undone, which must restore the plan's
// signature. The walks cover DS/QS/HY, linear and bushy spaces, the
// 2-step (annotation-only) space, plain, replicated and sharded catalogs,
// and chain and complete query graphs; hand-built plans add project,
// aggregate, sort and union.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "opt/cost_cache.h"
#include "plan/printer.h"
#include "plan/transforms.h"
#include "plan/validate.h"

namespace dimsum {
namespace {

constexpr int kRelations = 6;
constexpr int kWalkSteps = 6;

Catalog PlainCatalog() {
  Catalog catalog;
  for (int i = 0; i < kRelations; ++i) {
    catalog.AddRelation("R" + std::to_string(i), 10000, 100);
    catalog.PlaceRelation(i, ServerSite(i % 3));
  }
  return catalog;
}

Catalog ReplicatedCatalog() {
  Catalog catalog = PlainCatalog();
  for (int i = 0; i < kRelations; ++i) {
    catalog.PlaceRelation(i, ServerSite((i + 1) % 3));
    catalog.PlaceRelation(i, ServerSite((i + 2) % 3));
  }
  return catalog;
}

Catalog ShardedCatalog() {
  Catalog catalog;
  const std::vector<SiteId> sites = {ServerSite(0), ServerSite(1),
                                     ServerSite(2)};
  for (int i = 0; i < kRelations; ++i) {
    catalog.AddRelation("R" + std::to_string(i), 10000, 100);
    if (i % 3 == 0) {
      catalog.ShardRelation(i, sites, ShardScheme::kRange,
                            /*replication=*/2);
    } else {
      catalog.PlaceRelation(i, ServerSite(i % 3));
    }
  }
  return catalog;
}

/// Applies every candidate of `plan` in turn, checks the local verdict
/// against the full check and that undoing restores the plan. Returns
/// the number of candidates checked.
int CheckEveryCandidate(Plan& plan, const QueryGraph& query,
                        const TransformConfig& config) {
  EXPECT_TRUE(PlanIsLegal(plan, query, config)) << PlanToString(plan);
  const RelationSets sets(query);
  const std::string before = PlanSignature(plan);
  const std::string printed = PlanToString(plan);
  const int count = CountMoveCandidates(plan, config);
  for (int k = 0; k < count; ++k) {
    const AppliedMove move = ApplyCandidate(plan, config, k);
    const bool full = PlanIsLegal(plan, query, config);
    EXPECT_EQ(MoveIsLegal(move, sets, config), full)
        << "candidate " << k << " (" << MoveTypeName(move.type) << ") of\n"
        << printed << "moved to\n" << PlanToString(plan);
    UndoMove(move);
    EXPECT_EQ(PlanSignature(plan), before)
        << "undoing candidate " << k << " (" << MoveTypeName(move.type)
        << ") did not restore the plan";
    if (testing::Test::HasFailure()) return k + 1;
  }
  return count;
}

/// Checks every candidate of each plan of a seeded walk from a random
/// plan, taking one random legal move per step.
int WalkAndCheck(const QueryGraph& query, const TransformConfig& config,
                 uint64_t seed) {
  Rng rng(seed);
  Plan plan = RandomPlan(query, config, rng);
  const RelationSets sets(query);
  int checked = 0;
  for (int step = 0; step < kWalkSteps && !testing::Test::HasFailure();
       ++step) {
    checked += CheckEveryCandidate(plan, query, config);
    const std::optional<AppliedMove> move =
        ApplyRandomMove(plan, config, rng);
    if (move.has_value() && !MoveIsLegal(*move, sets, config)) {
      UndoMove(*move);
    }
  }
  return checked;
}

/// A chain over every relation, with a selection on one of them.
QueryGraph SelectiveChain(std::vector<RelationId> rels) {
  QueryGraph chain = QueryGraph::Chain(std::move(rels));
  chain.scan_selectivities.assign(kRelations, 1.0);
  chain.scan_selectivities[2] = 0.5;
  return chain;
}

TEST(MoveLegalityTest, LocalVerdictMatchesFullCheckOnRandomWalks) {
  std::vector<RelationId> rels;
  for (RelationId r = 0; r < kRelations; ++r) rels.push_back(r);
  const QueryGraph chain = SelectiveChain(rels);
  const QueryGraph complete = QueryGraph::Complete(rels);
  const Catalog catalogs[] = {PlainCatalog(), ReplicatedCatalog(),
                              ShardedCatalog()};
  uint64_t seed = 1;
  int checked = 0;
  for (const ShippingPolicy policy :
       {ShippingPolicy::kDataShipping, ShippingPolicy::kQueryShipping,
        ShippingPolicy::kHybridShipping}) {
    for (const bool linear : {false, true}) {
      for (const bool join_order : {true, false}) {
        for (const Catalog& catalog : catalogs) {
          for (const QueryGraph* query : {&chain, &complete}) {
            TransformConfig config;
            config.space = PolicySpace::For(policy);
            config.require_linear = linear;
            config.join_order_moves = join_order;
            config.catalog = &catalog;
            checked += WalkAndCheck(*query, config, seed++);
            ASSERT_FALSE(HasFailure())
                << ToString(policy) << (linear ? " linear" : " bushy")
                << (join_order ? "" : " 2-step");
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 5000);
}

/// Legal HY plans over the operators random plans never contain.
std::vector<Plan> ExtendedPlans() {
  std::vector<Plan> plans;
  {
    auto join = MakeJoin(
        MakeProject(MakeScan(0, SiteAnnotation::kPrimaryCopy), 0.5,
                    SiteAnnotation::kProducer),
        MakeScan(1, SiteAnnotation::kClient), SiteAnnotation::kInnerRel);
    auto agg = MakeAggregate(std::move(join), 100, SiteAnnotation::kProducer);
    plans.emplace_back(
        MakeDisplay(MakeSort(std::move(agg), SiteAnnotation::kConsumer)));
  }
  {
    auto both = MakeUnion(MakeScan(2, SiteAnnotation::kPrimaryCopy),
                          MakeScan(3, SiteAnnotation::kClient),
                          SiteAnnotation::kInnerRel);
    auto sorted = MakeSort(std::move(both), SiteAnnotation::kProducer);
    auto lower = MakeJoin(std::move(sorted),
                          MakeSelect(MakeScan(4, SiteAnnotation::kPrimaryCopy),
                                     0.3, SiteAnnotation::kProducer),
                          SiteAnnotation::kOuterRel);
    auto upper = MakeJoin(
        std::move(lower),
        MakeProject(MakeScan(5, SiteAnnotation::kClient), 0.5,
                    SiteAnnotation::kConsumer),
        SiteAnnotation::kConsumer);
    plans.emplace_back(MakeDisplay(
        MakeAggregate(std::move(upper), 10, SiteAnnotation::kConsumer)));
  }
  return plans;
}

TEST(MoveLegalityTest, LocalVerdictMatchesFullCheckOnExtendedOperators) {
  const QueryGraph two = QueryGraph::Chain({0, 1});
  const QueryGraph four = QueryGraph::Chain({2, 3, 4, 5});
  std::vector<Plan> plans = ExtendedPlans();
  // The HY space, and one wider than the structure allows, so annotation
  // moves can also propose a structurally invalid annotation.
  TransformConfig hybrid;
  TransformConfig wide;
  wide.space.scan.push_back(SiteAnnotation::kConsumer);
  wide.space.select.push_back(SiteAnnotation::kClient);
  wide.space.join.push_back(SiteAnnotation::kPrimaryCopy);
  const Catalog replicated = ReplicatedCatalog();
  for (TransformConfig* config : {&hybrid, &wide}) {
    for (const bool linear : {false, true}) {
      config->require_linear = linear;
      config->catalog = linear ? &replicated : nullptr;
      EXPECT_GT(CheckEveryCandidate(plans[0], two, *config), 0);
      EXPECT_GT(CheckEveryCandidate(plans[1], four, *config), 0);
    }
  }
}

}  // namespace
}  // namespace dimsum
