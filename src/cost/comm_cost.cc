#include "cost/comm_cost.h"

#include <vector>

#include "common/check.h"

namespace dimsum {
namespace {

/// Adds the traffic of the subtree rooted at `node`, whose pre-order index
/// is `index`; returns the index one past the subtree.
int Visit(const PlanNode& node, const PlanNode* parent, int index,
          const Catalog& catalog, const CostParams& params,
          const std::vector<StreamStats>& stats, CommCost* cost) {
  DIMSUM_CHECK_NE(node.bound_site, kUnboundSite);
  if (parent != nullptr && parent->bound_site != node.bound_site) {
    const StreamStats& out = stats[static_cast<std::size_t>(index)];
    cost->pages += out.pages;
    cost->bytes += out.pages * params.page_bytes;
    cost->messages += out.pages;
  }
  if (node.type == OpType::kScan &&
      node.annotation == SiteAnnotation::kClient) {
    // Pages not in the home client's cache are faulted in from the
    // relation's server, one request/response per page. The scan's bound
    // site names the client whose cache applies.
    const int64_t total = catalog.relation(node.relation).Pages(params.page_bytes);
    const int64_t cached =
        catalog.CachedPages(node.relation, node.bound_site, params.page_bytes);
    const int64_t faulted = total - cached;
    DIMSUM_CHECK_GE(faulted, 0);
    cost->pages += faulted;
    cost->bytes += faulted * (params.page_bytes + params.fault_request_bytes);
    cost->messages += 2 * faulted;
  }
  int next = index + 1;
  if (node.left) {
    next = Visit(*node.left, &node, next, catalog, params, stats, cost);
  }
  if (node.right) {
    next = Visit(*node.right, &node, next, catalog, params, stats, cost);
  }
  return next;
}

}  // namespace

CommCost ComputeCommCost(const Plan& plan, const Catalog& catalog,
                         const QueryGraph& query, const CostParams& params) {
  DIMSUM_CHECK(!plan.empty());
  // Reused per thread: the pages-sent metric prices every plan the
  // optimizer visits.
  thread_local std::vector<StreamStats> stats;
  ComputeStreamStats(*plan.root(), catalog, query, params, &stats);
  CommCost cost;
  Visit(*plan.root(), nullptr, 0, catalog, params, stats, &cost);
  return cost;
}

}  // namespace dimsum
