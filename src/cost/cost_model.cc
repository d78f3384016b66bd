#include "cost/cost_model.h"

#include "plan/binding.h"
#include "plan/shard.h"

namespace dimsum {

double CostModel::PlanCost(Plan& plan, const QueryGraph& query,
                           OptimizeMetric metric) const {
  // The optimizer searches over logical plans (one scan per relation), so
  // a plan touching sharded relations is costed through its physical
  // expansion: per-shard fragments whose disk demands land on distinct
  // sites, letting the phase graph's max-over-resources credit the
  // parallelism. The logical plan is what gets bound and returned to the
  // caller (and what the cost cache keys on).
  if (NeedsShardExpansion(plan, catalog_)) {
    Plan expanded = ExpandShards(plan, catalog_);
    BindSites(expanded, catalog_, query.home_client);
    BindSites(plan, catalog_, query.home_client);
    return CostBound(expanded, query, metric);
  }
  BindSites(plan, catalog_, query.home_client);
  return CostBound(plan, query, metric);
}

double CostModel::CostBound(Plan& plan, const QueryGraph& query,
                            OptimizeMetric metric) const {
  switch (metric) {
    case OptimizeMetric::kPagesSent:
      return static_cast<double>(
          ComputeCommCost(plan, catalog_, query, params_).pages);
    case OptimizeMetric::kResponseTime:
      return EstimateTime(plan, catalog_, query, params_, sites_).response_ms;
    case OptimizeMetric::kTotalCost:
      return EstimateTime(plan, catalog_, query, params_, sites_).total_ms;
  }
  DIMSUM_UNREACHABLE();
}

}  // namespace dimsum
