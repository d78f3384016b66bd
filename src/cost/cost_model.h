#ifndef DIMSUM_COST_COST_MODEL_H_
#define DIMSUM_COST_COST_MODEL_H_

#include <map>
#include <string_view>

#include "catalog/catalog.h"
#include "cost/comm_cost.h"
#include "cost/params.h"
#include "cost/response_time.h"
#include "plan/plan.h"
#include "plan/query.h"

namespace dimsum {

/// What the optimizer minimizes (Section 3.2.2 / 4.1 of the paper uses two
/// metrics: pages sent for communication-bound environments, and response
/// time for local-area networks; total cost is also supported).
enum class OptimizeMetric { kPagesSent, kResponseTime, kTotalCost };

inline std::string_view ToString(OptimizeMetric metric) {
  switch (metric) {
    case OptimizeMetric::kPagesSent:
      return "pages sent";
    case OptimizeMetric::kResponseTime:
      return "response time";
    case OptimizeMetric::kTotalCost:
      return "total cost";
  }
  return "?";
}

/// Facade evaluating plans under a (possibly assumed) catalog and system
/// state. Binds the plan's logical annotations before evaluating. The
/// per-site CPU and load factors are resolved once, here, for every plan
/// the model prices.
class CostModel {
 public:
  CostModel(const Catalog& catalog, const CostParams& params,
            std::map<SiteId, double> server_disk_load = {})
      : catalog_(catalog),
        params_(params),
        server_disk_load_(std::move(server_disk_load)),
        sites_(params_, server_disk_load_) {}

  /// Cost of `plan` for `query` under `metric`. Binds sites in place.
  /// Plans with logical scans of sharded relations are costed through
  /// their physical shard expansion (the plan itself stays logical).
  double PlanCost(Plan& plan, const QueryGraph& query,
                  OptimizeMetric metric) const;

  const Catalog& catalog() const { return catalog_; }
  const CostParams& params() const { return params_; }
  const std::map<SiteId, double>& server_disk_load() const {
    return server_disk_load_;
  }

 private:
  /// Evaluates an already-bound (or bindable-as-is) plan.
  double CostBound(Plan& plan, const QueryGraph& query,
                   OptimizeMetric metric) const;

  const Catalog& catalog_;
  CostParams params_;
  std::map<SiteId, double> server_disk_load_;
  SiteFactors sites_;
};

}  // namespace dimsum

#endif  // DIMSUM_COST_COST_MODEL_H_
