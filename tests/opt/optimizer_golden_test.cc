// Golden digest of the randomized two-phase optimizer. Small searches run
// over a grid of catalogs, policies, metrics, phases and search options;
// everything each run returns is folded into one FNV-1a digest: the plan's
// signature and bound sites, the cost bits, the evaluation and cost-cache
// counts, and the per-move-type counters of both phases. Any change to a
// random draw, the candidate order, a move's legality, the acceptance
// rule or the cost-cache keys changes the digest. The expected value pins
// the search across commits: a change to how moves are drawn, applied,
// checked or undone must keep every bit.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "cost/cost_model.h"
#include "golden_digest.h"
#include "opt/cost_cache.h"
#include "opt/optimizer.h"

namespace dimsum {
namespace {

constexpr int kRelations = 6;

/// kRelations relations of 10,000 x 100-byte tuples, relation i on server
/// i mod 3, every other relation half cached at the client.
Catalog PlainCatalog() {
  Catalog catalog;
  for (int i = 0; i < kRelations; ++i) {
    const RelationId id =
        catalog.AddRelation("R" + std::to_string(i), 10000, 100);
    catalog.PlaceRelation(id, ServerSite(i % 3));
    catalog.SetCachedFraction(id, i % 2 == 0 ? 0.5 : 0.0);
  }
  return catalog;
}

/// The plain catalog with a second copy of every relation on the next
/// server, so scans gain replica moves.
Catalog ReplicatedCatalog() {
  Catalog catalog = PlainCatalog();
  for (int i = 0; i < kRelations; ++i) {
    catalog.PlaceRelation(i, ServerSite((i + 1) % 3));
  }
  return catalog;
}

/// Relation 0 range-sharded over three servers and relation 3
/// hash-sharded with two chained copies; the rest on one server each.
Catalog ShardedCatalog() {
  Catalog catalog;
  const std::vector<SiteId> sites = {ServerSite(0), ServerSite(1),
                                     ServerSite(2)};
  for (int i = 0; i < kRelations; ++i) {
    const RelationId id =
        catalog.AddRelation("R" + std::to_string(i), 10000, 100);
    if (i == 0) {
      catalog.ShardRelation(id, sites, ShardScheme::kRange);
    } else if (i == 3) {
      catalog.ShardRelation(id, sites, ShardScheme::kHash,
                            /*replication=*/2);
    } else {
      catalog.PlaceRelation(id, ServerSite(i % 3));
    }
  }
  return catalog;
}

/// Chain over every relation, with selections on two of them so the
/// search also moves select operators. Homed at the default client.
QueryGraph GoldenQuery() {
  std::vector<RelationId> rels;
  for (RelationId r = 0; r < kRelations; ++r) rels.push_back(r);
  QueryGraph query = QueryGraph::Chain(std::move(rels));
  query.scan_selectivities.assign(kRelations, 1.0);
  query.scan_selectivities[1] = 0.5;
  query.scan_selectivities[4] = 0.2;
  return query;
}

/// A small search effort, so the whole grid runs well under a second.
OptimizerConfig SmallConfig(ShippingPolicy policy, OptimizeMetric metric) {
  OptimizerConfig config;
  config.policy = policy;
  config.metric = metric;
  config.ii_starts = 3;
  config.ii_patience = 12;
  config.sa_stage_moves_per_join = 2;
  config.sa_freeze_temp_ratio = 0.1;
  config.sa_freeze_stages = 2;
  return config;
}

void FoldMoves(const MoveTypeCounters& moves, Digest* digest) {
  for (int i = 0; i < kNumMoveTypes; ++i) {
    digest->AddInt(moves.proposed[static_cast<std::size_t>(i)]);
    digest->AddInt(moves.accepted[static_cast<std::size_t>(i)]);
  }
  digest->AddInt(moves.uphill_accepted);
}

/// Folds everything one run returns.
void FoldResult(const OptimizeResult& result, Digest* digest) {
  const std::string signature = PlanSignature(result.plan);
  digest->AddBytes(signature.data(), signature.size());
  result.plan.ForEach(
      [&](const PlanNode& node) { digest->AddInt(node.bound_site); });
  digest->AddDouble(result.cost);
  digest->AddInt(result.plans_evaluated);
  digest->AddInt(result.cache_hits);
  digest->AddInt(result.cache_misses);
  FoldMoves(result.ii_moves, digest);
  FoldMoves(result.sa_moves, digest);
}

uint64_t GoldenDigest() {
  const QueryGraph query = GoldenQuery();
  const ShippingPolicy policies[] = {ShippingPolicy::kDataShipping,
                                     ShippingPolicy::kQueryShipping,
                                     ShippingPolicy::kHybridShipping};
  const OptimizeMetric metrics[] = {OptimizeMetric::kPagesSent,
                                    OptimizeMetric::kResponseTime,
                                    OptimizeMetric::kTotalCost};
  Digest digest;
  uint64_t seed = 1;
  for (const Catalog& catalog :
       {PlainCatalog(), ReplicatedCatalog(), ShardedCatalog()}) {
    const CostModel model(catalog, CostParams{});
    for (const ShippingPolicy policy : policies) {
      for (const OptimizeMetric metric : metrics) {
        // 2PO, II only and SA only, each with and without the cost cache.
        for (int phases = 0; phases < 3; ++phases) {
          for (const bool cache : {true, false}) {
            OptimizerConfig config = SmallConfig(policy, metric);
            config.enable_ii = phases != 2;
            config.enable_sa = phases != 1;
            config.enable_cost_cache = cache;
            Rng rng(seed++);
            FoldResult(TwoPhaseOptimizer(model, config).Optimize(query, rng),
                       &digest);
          }
        }
      }
      // Linear (left-deep) searches.
      OptimizerConfig linear =
          SmallConfig(policy, OptimizeMetric::kResponseTime);
      linear.require_linear = true;
      Rng linear_rng(seed++);
      const OptimizeResult compiled =
          TwoPhaseOptimizer(model, linear).Optimize(query, linear_rng);
      FoldResult(compiled, &digest);

      // Site selection from the compiled plan, with and without an
      // unavailable server (the penalty path).
      for (const bool faulted : {false, true}) {
        OptimizerConfig select =
            SmallConfig(policy, OptimizeMetric::kResponseTime);
        if (faulted) select.unavailable_sites = {ServerSite(1)};
        Rng select_rng(seed++);
        FoldResult(TwoPhaseOptimizer(model, select)
                       .SiteSelect(compiled.plan, query, select_rng),
                   &digest);
      }
    }
  }
  return digest.value();
}

TEST(OptimizerGoldenTest, SearchDigestIsUnchanged) {
  const uint64_t digest = GoldenDigest();
  EXPECT_EQ(digest, 0x75c4ba736a820e68ULL)
      << "optimizer digest 0x" << std::hex << digest;
}

}  // namespace
}  // namespace dimsum
