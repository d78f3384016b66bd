#ifndef DIMSUM_COST_CARDINALITY_H_
#define DIMSUM_COST_CARDINALITY_H_

#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "cost/params.h"
#include "plan/plan.h"
#include "plan/query.h"

namespace dimsum {

/// Size statistics of an operator's output stream.
struct StreamStats {
  int64_t tuples = 0;
  int tuple_bytes = 0;
  int64_t pages = 0;
};

/// Output statistics of every node of one plan, stored flat in pre-order
/// (entry 0 is the root).
class PlanStats {
 public:
  /// Statistics of `node`, which must be a node of the plan these stats
  /// were computed for.
  const StreamStats& at(const PlanNode* node) const;

 private:
  friend PlanStats ComputeStats(const Plan& plan, const Catalog& catalog,
                                const QueryGraph& query,
                                const CostParams& params);

  std::vector<const PlanNode*> nodes_;  // pre-order
  std::vector<StreamStats> stats_;      // stats_[i] belongs to nodes_[i]
};

/// Derives output cardinalities bottom-up:
///  - scan: the relation's tuples;
///  - select: selectivity * input;
///  - join: query.selectivity_factor * min(left, right) tuples (the paper's
///    functional-join model; 1.0 keeps intermediate results at base-relation
///    size, 0.2 is the HiSel query), or left * right for Cartesian products;
///  - project: tuples unchanged, width scaled by width_factor;
///  - aggregate: min(num_groups, input tuples);
///  - union: sum of the inputs (bag union);
///  - display: passes through.
/// Join results are projected to the max input tuple width (the paper
/// projects all temporaries back to 100 bytes).
PlanStats ComputeStats(const Plan& plan, const Catalog& catalog,
                       const QueryGraph& query, const CostParams& params);

/// The same rules over the subtree rooted at `root`, without the node
/// index: overwrites `*out` with one entry per node, in pre-order. The
/// vector's capacity is reused, so the optimizer's coster runs this on
/// every plan it prices without allocating.
void ComputeStreamStats(const PlanNode& root, const Catalog& catalog,
                        const QueryGraph& query, const CostParams& params,
                        std::vector<StreamStats>* out);

}  // namespace dimsum

#endif  // DIMSUM_COST_CARDINALITY_H_
