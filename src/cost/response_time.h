#ifndef DIMSUM_COST_RESPONSE_TIME_H_
#define DIMSUM_COST_RESPONSE_TIME_H_

#include <map>
#include <vector>

#include "catalog/catalog.h"
#include "cost/explain.h"
#include "cost/params.h"
#include "plan/plan.h"
#include "plan/query.h"

namespace dimsum {

/// Analytic time estimates for a bound plan.
struct TimeEstimate {
  /// Estimated response time (ms): elapsed time until the last result tuple
  /// is displayed, assuming full overlap of resource usage within a
  /// pipelined phase (the optimistic GHK92-style model; the paper notes the
  /// simulator rarely achieves complete overlap).
  double response_ms = 0.0;
  /// Total cost (ms of resource usage summed over all resources), in the
  /// spirit of Mackert & Lohman's total-cost models.
  double total_ms = 0.0;
};

/// Per-site constants of the model, resolved once from the parameters and
/// the external disk load: each site's CPU-time factor
/// (CostParams::CpuTimeFactor) and its disk-demand inflation
/// 1 / (1 - utilization). Sites with neither a speed override nor a load
/// share the default factors. Check-fails on a utilization of 1 or more.
class SiteFactors {
 public:
  SiteFactors(const CostParams& params,
              const std::map<SiteId, double>& server_disk_load);

  double Cpu(SiteId site) const {
    return static_cast<std::size_t>(site) < cpu_.size()
               ? cpu_[static_cast<std::size_t>(site)]
               : default_cpu_;
  }
  double Load(SiteId site) const {
    return static_cast<std::size_t>(site) < load_.size()
               ? load_[static_cast<std::size_t>(site)]
               : 1.0;
  }

 private:
  double default_cpu_;
  std::vector<double> cpu_;   // by site, up to the last speed override
  std::vector<double> load_;  // by site, up to the last loaded site
};

/// Estimates response time and total cost of `plan` (must be bound).
///
/// The plan is decomposed into pipelined phases separated by the blocking
/// boundaries of hybrid-hash joins (build before probe). Within a phase all
/// resource usage is assumed to overlap perfectly, so the phase takes the
/// maximum of its per-resource demands; phases are ordered by a precedence
/// DAG and the estimate is the critical path. Pipelined parallelism arises
/// by merging producer and consumer work into one phase; independent
/// parallelism by the absence of precedence edges between sibling subtrees.
///
/// Client scans of uncached data fault pages in synchronously one page at a
/// time (no overlap); this is modeled with a per-scan serial "chain"
/// pseudo-resource whose demand is the summed round-trip time.
///
/// `server_disk_load` gives external disk utilization per site (from the
/// paper's multi-client load generator); disk demands at a site are
/// inflated by 1/(1 - utilization).
///
/// When `explain` is non-null it is overwritten with per-operator /
/// per-phase / per-site estimate records (see cost/explain.h). Collection
/// only tallies side records; the returned estimate is identical with and
/// without it.
TimeEstimate EstimateTime(const Plan& plan, const Catalog& catalog,
                          const QueryGraph& query, const CostParams& params,
                          const std::map<SiteId, double>& server_disk_load = {},
                          PlanEstimate* explain = nullptr);

/// The same estimate with the per-site factors already resolved; the
/// optimizer's cost model resolves them once and prices every plan here.
/// Reuses per-thread buffers, so an estimate without `explain` allocates
/// nothing once the thread has costed a plan of the same size.
TimeEstimate EstimateTime(const Plan& plan, const Catalog& catalog,
                          const QueryGraph& query, const CostParams& params,
                          const SiteFactors& sites,
                          PlanEstimate* explain = nullptr);

}  // namespace dimsum

#endif  // DIMSUM_COST_RESPONSE_TIME_H_
