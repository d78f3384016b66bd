// Golden digest of the GHK92 coster. A seeded RandomPlan/TryRandomMove
// walk visits plans over a grid of catalogs and parameters; every plan is
// costed by every public entry point and the bit patterns of what they
// return are folded into one FNV-1a digest. Any change to an estimate, an
// explain record, a cardinality, a move's legality or the plan-signature
// bytes changes the digest. The expected value pins the coster's output
// across commits: a change to how it stores or orders its arithmetic must
// keep every bit.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cost/cardinality.h"
#include "cost/comm_cost.h"
#include "cost/cost_model.h"
#include "cost/response_time.h"
#include "golden_digest.h"
#include "opt/cost_cache.h"
#include "opt/optimizer.h"
#include "plan/binding.h"
#include "plan/shard.h"
#include "plan/transforms.h"

namespace dimsum {
namespace {

constexpr int kRelations = 8;
constexpr int kWalkSteps = 16;

/// One point of the grid: a catalog, the parameters and external disk
/// load it is costed under, and the policy whose plan space is walked.
struct Setting {
  Catalog catalog;
  CostParams params;
  std::map<SiteId, double> load;
  ShippingPolicy policy = ShippingPolicy::kHybridShipping;
};

/// kRelations relations of 10,000 x 100-byte tuples, relation i on server
/// i mod `servers`.
Catalog PlacedCatalog(int servers) {
  Catalog catalog;
  for (int i = 0; i < kRelations; ++i) {
    const RelationId id =
        catalog.AddRelation("R" + std::to_string(i), 10000, 100);
    catalog.PlaceRelation(id, ServerSite(i % servers));
  }
  return catalog;
}

/// Relations 0 and 3 sharded four ways under `scheme` (relation 3 with
/// two chained copies); the rest placed round-robin on the four servers.
Catalog ShardedCatalog(ShardScheme scheme) {
  Catalog catalog;
  const std::vector<SiteId> sites = {ServerSite(0), ServerSite(1),
                                     ServerSite(2), ServerSite(3)};
  for (int i = 0; i < kRelations; ++i) {
    const RelationId id =
        catalog.AddRelation("R" + std::to_string(i), 10000, 100);
    if (i == 0) {
      catalog.ShardRelation(id, sites, scheme);
    } else if (i == 3) {
      catalog.ShardRelation(id, sites, scheme, /*replication=*/2);
    } else {
      catalog.PlaceRelation(id, ServerSite(i % 4));
    }
  }
  return catalog;
}

std::vector<Setting> Grid() {
  std::vector<Setting> grid;
  const ShippingPolicy policies[] = {ShippingPolicy::kDataShipping,
                                     ShippingPolicy::kQueryShipping,
                                     ShippingPolicy::kHybridShipping};
  for (const ShippingPolicy policy : policies) {
    for (const int servers : {1, 2, 5, 10}) {
      for (const BufAlloc alloc : {BufAlloc::kMinimum, BufAlloc::kMaximum}) {
        for (const int disks : {1, 2}) {
          for (int cache = 0; cache < 3; ++cache) {
            Setting s{PlacedCatalog(servers), CostParams{}, {}, policy};
            s.params.buf_alloc = alloc;
            s.params.num_disks = disks;
            for (RelationId r = 0; r < kRelations; ++r) {
              // 0: nothing cached; 1: half of every relation; 2: five
              // relations fully cached.
              const double fraction =
                  cache == 0 ? 0.0 : cache == 1 ? 0.5 : (r < 5 ? 1.0 : 0.0);
              s.catalog.SetCachedFraction(r, fraction);
            }
            grid.push_back(std::move(s));
          }
        }
      }
    }
    for (const BufAlloc alloc : {BufAlloc::kMinimum, BufAlloc::kMaximum}) {
      // Every relation with a second copy on the next server.
      Setting replicated{PlacedCatalog(4), CostParams{}, {}, policy};
      for (RelationId r = 0; r < kRelations; ++r) {
        replicated.catalog.PlaceRelation(r, ServerSite((r + 1) % 4));
        replicated.catalog.SetCachedFraction(r, r % 2 == 0 ? 0.5 : 0.0);
      }
      replicated.params.buf_alloc = alloc;
      grid.push_back(std::move(replicated));

      for (const ShardScheme scheme :
           {ShardScheme::kRange, ShardScheme::kHash}) {
        Setting sharded{ShardedCatalog(scheme), CostParams{}, {}, policy};
        sharded.params.buf_alloc = alloc;
        sharded.params.num_disks = 2;
        grid.push_back(std::move(sharded));
      }

      // A half-speed server and a loaded pair of server disks.
      Setting hetero{PlacedCatalog(4), CostParams{}, {}, policy};
      hetero.params.buf_alloc = alloc;
      hetero.params.site_mips[ServerSite(1)] = 25.0;
      hetero.load[ServerSite(0)] = 0.5;
      hetero.load[ServerSite(2)] = 0.25;
      for (RelationId r = 0; r < kRelations; ++r) {
        hetero.catalog.SetCachedFraction(r, r < 3 ? 0.5 : 0.0);
      }
      grid.push_back(std::move(hetero));
    }
  }
  return grid;
}

/// Chain over every relation, with selections on two of them so the walk
/// also visits select operators.
QueryGraph WalkQuery() {
  std::vector<RelationId> rels;
  for (RelationId r = 0; r < kRelations; ++r) rels.push_back(r);
  QueryGraph query = QueryGraph::Chain(std::move(rels));
  query.scan_selectivities.assign(kRelations, 1.0);
  query.scan_selectivities[1] = 0.5;
  query.scan_selectivities[4] = 0.2;
  return query;
}

/// Folds everything the coster's public entry points say about `plan`.
void FoldPlan(const Setting& s, const QueryGraph& query, const Plan& logical,
              Digest* digest) {
  const std::string signature = PlanSignature(logical);
  digest->AddBytes(signature.data(), signature.size());

  // The cost model's path: bind (through shard expansion) and cost.
  const CostModel model(s.catalog, s.params, s.load);
  for (const OptimizeMetric metric :
       {OptimizeMetric::kResponseTime, OptimizeMetric::kTotalCost,
        OptimizeMetric::kPagesSent}) {
    Plan copy = logical.Clone();
    digest->AddDouble(model.PlanCost(copy, query, metric));
  }

  // The free functions, on the plan the executor would run.
  Plan plan = logical.Clone();
  BindSites(plan, s.catalog, query.home_client);
  if (NeedsShardExpansion(plan, s.catalog)) {
    plan = ExpandShards(plan, s.catalog);
    BindSites(plan, s.catalog, query.home_client);
  }
  PlanEstimate explain;
  const TimeEstimate with =
      EstimateTime(plan, s.catalog, query, s.params, s.load, &explain);
  const TimeEstimate bare =
      EstimateTime(plan, s.catalog, query, s.params, s.load);
  EXPECT_EQ(with.response_ms, bare.response_ms);
  EXPECT_EQ(with.total_ms, bare.total_ms);
  digest->AddDouble(bare.response_ms);
  digest->AddDouble(bare.total_ms);
  for (const OperatorEstimate& op : explain.ops) {
    digest->AddInt(op.op_id);
    digest->AddInt(static_cast<int64_t>(op.type));
    digest->AddInt(op.site);
    digest->AddInt(op.relation);
    digest->AddInt(op.est_tuples);
    digest->AddInt(op.est_pages);
    digest->AddDouble(op.cpu_ms);
    digest->AddDouble(op.disk_ms);
    digest->AddDouble(op.net_ms);
    digest->AddDouble(op.chain_ms);
    digest->AddInt(op.phase);
  }
  for (const PhaseEstimate& phase : explain.phases) {
    digest->AddInt(phase.id);
    digest->AddDouble(phase.duration_ms);
    digest->AddDouble(phase.start_ms);
    digest->AddDouble(phase.finish_ms);
  }
  for (const auto& [site, ms] : explain.cpu_ms_by_site) {
    digest->AddInt(site);
    digest->AddDouble(ms);
  }
  for (const auto& [site, ms] : explain.disk_ms_by_site) {
    digest->AddInt(site);
    digest->AddDouble(ms);
  }
  digest->AddDouble(explain.net_ms);
  digest->AddDouble(explain.response_ms);
  digest->AddDouble(explain.total_ms);

  const CommCost comm = ComputeCommCost(plan, s.catalog, query, s.params);
  digest->AddInt(comm.pages);
  digest->AddInt(comm.bytes);
  digest->AddInt(comm.messages);

  const PlanStats stats = ComputeStats(plan, s.catalog, query, s.params);
  plan.ForEach([&](const PlanNode& node) {
    digest->AddInt(stats.at(&node).tuples);
    digest->AddInt(stats.at(&node).tuple_bytes);
    digest->AddInt(stats.at(&node).pages);
  });
}

/// Restricts the sharded relation 0's scans to part of the key domain,
/// so expansion prunes range shards and fragments emit partial slices.
Plan KeyRestricted(const Plan& plan) {
  Plan copy = plan.Clone();
  copy.ForEachMutable([](PlanNode& node) {
    if (node.type == OpType::kScan && node.relation == 0) {
      node.key_lo = 0.1;
      node.key_hi = 0.6;
    }
  });
  return copy;
}

/// Hand-built plans over the operators the walk never generates
/// (project, aggregate, sort, union), so their costing is pinned too.
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
    plans.emplace_back(MakeDisplay(MakeJoin(
        std::move(sorted),
        MakeSelect(MakeScan(4, SiteAnnotation::kPrimaryCopy), 0.3,
                   SiteAnnotation::kProducer),
        SiteAnnotation::kOuterRel)));
  }
  return plans;
}

uint64_t GoldenDigest() {
  const QueryGraph query = WalkQuery();
  // Queries for the hand-built plans: no join predicate is needed for the
  // estimate (a missing one only makes the join a Cartesian product).
  const QueryGraph two = QueryGraph::Chain({0, 1});
  const QueryGraph three = QueryGraph::Chain({2, 3, 4});
  Digest digest;
  uint64_t seed = 1;
  for (const Setting& s : Grid()) {
    OptimizerConfig space;
    space.policy = s.policy;
    TransformConfig transform = space.MakeTransformConfig();
    transform.catalog = &s.catalog;
    Rng rng(seed++);
    Plan plan = RandomPlan(query, transform, rng);
    for (int step = 0; step <= kWalkSteps; ++step) {
      FoldPlan(s, query, plan, &digest);
      if (s.catalog.sharded(0)) {
        FoldPlan(s, query, KeyRestricted(plan), &digest);
      }
      std::optional<MoveType> type;
      std::optional<Plan> next =
          TryRandomMove(plan, query, transform, rng, &type);
      digest.AddInt(type.has_value() ? static_cast<int64_t>(*type) : -1);
      digest.AddInt(next.has_value() ? 1 : 0);
      if (next.has_value()) plan = std::move(*next);
    }
    std::vector<Plan> extended = ExtendedPlans();
    FoldPlan(s, two, extended[0], &digest);
    FoldPlan(s, three, extended[1], &digest);
  }
  return digest.value();
}

TEST(CosterGoldenTest, WalkDigestIsUnchanged) {
  const uint64_t digest = GoldenDigest();
  EXPECT_EQ(digest, 0x7e5e525670dedde7ULL)
      << "coster digest 0x" << std::hex << digest;
}

}  // namespace
}  // namespace dimsum
