#include "plan/binding.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "plan/validate.h"

namespace dimsum {
namespace {

/// Binds every node whose site follows from its own subtree -- the
/// display, scans, and operators annotated to run where one of their
/// inputs runs -- and marks consumer-annotated operators unbound.
/// Post-order, so inputs are bound first: in a well-formed plan an
/// operator never points at a consumer-annotated input (that would be a
/// two-node cycle), so the input it follows is always bound by then.
/// Check-fails, before descending, on a node that is misshapen or forms a
/// cycle with a child, so together the checks require a structurally
/// valid, well-formed plan.
void BindFromBelow(PlanNode& node, bool is_root, const Catalog& catalog,
                   SiteId client) {
  DIMSUM_CHECK(ValidNodeShape(node, is_root))
      << "plan is not structurally valid";
  DIMSUM_CHECK(WellFormedEdges(node))
      << "plan is not well-formed (two-node annotation cycle)";
  if (node.left) BindFromBelow(*node.left, false, catalog, client);
  if (node.right) BindFromBelow(*node.right, false, catalog, client);
  if (node.type == OpType::kDisplay) {
    node.bound_site = client;
  } else if (node.type == OpType::kScan) {
    if (node.annotation == SiteAnnotation::kClient) {
      node.bound_site = client;
    } else if (catalog.sharded(node.relation)) {
      // Shard fragments bind to their shard's serving copy. A logical
      // (shard < 0) scan binds to shard 0's site as a representative so
      // the optimizer can bind-and-cost unexpanded plans; ExpandShards
      // assigns the real per-shard sites before execution.
      node.bound_site = catalog.ShardSite(
          node.relation, node.shard >= 0 ? node.shard : 0, node.replica);
    } else {
      node.bound_site = catalog.ReplicaSite(node.relation, node.replica);
    }
  } else if (node.annotation == SiteAnnotation::kConsumer) {
    node.bound_site = kUnboundSite;  // bound from above
  } else if (IsUnaryOp(node.type)) {  // producer
    node.bound_site = node.left->bound_site;
  } else if (node.annotation == SiteAnnotation::kInnerRel) {
    node.bound_site = node.left->bound_site;
  } else {  // outer relation
    node.bound_site = node.right->bound_site;
  }
}

/// Binds consumer-annotated operators to their parent's site. Pre-order,
/// so a chain of consumers resolves top-down from its first bound
/// ancestor.
void BindFromAbove(PlanNode& node, SiteId parent_site) {
  if (node.bound_site == kUnboundSite) node.bound_site = parent_site;
  DIMSUM_CHECK_NE(node.bound_site, kUnboundSite)
      << "binding did not reach a fixpoint";
  if (node.left) BindFromAbove(*node.left, node.bound_site);
  if (node.right) BindFromAbove(*node.right, node.bound_site);
}

}  // namespace

void BindSites(Plan& plan, const Catalog& catalog, SiteId client) {
  DIMSUM_CHECK(!plan.empty());
  DIMSUM_CHECK(catalog.IsClientSite(client))
      << "home client " << client << " is not a client site (catalog has "
      << catalog.num_clients() << " clients)";
  // Site dependencies point from an operator to an input (inner/outer
  // relation, producer) or to its parent (consumer); well-formedness rules
  // out the only cycles a tree allows, so one pass in each direction
  // reaches the fixpoint.
  BindFromBelow(*plan.root(), /*is_root=*/true, catalog, client);
  BindFromAbove(*plan.root(), kUnboundSite);
}

bool IsFullyBound(const Plan& plan) {
  bool all = true;
  plan.ForEach([&](const PlanNode& node) {
    if (node.bound_site == kUnboundSite) all = false;
  });
  return all;
}

void ClearBinding(Plan& plan) {
  plan.ForEachMutable(
      [](PlanNode& node) { node.bound_site = kUnboundSite; });
}

std::vector<SiteId> BoundServerSites(const Plan& plan, const Catalog& catalog,
                                     int page_bytes) {
  DIMSUM_CHECK(IsFullyBound(plan));
  std::vector<SiteId> sites;
  plan.ForEach([&](const PlanNode& node) {
    if (!catalog.IsClientSite(node.bound_site)) {
      sites.push_back(node.bound_site);
    }
    // A logical (unexpanded) server scan of a sharded relation stands for
    // fragments on every shard's serving copy.
    if (node.type == OpType::kScan &&
        node.annotation == SiteAnnotation::kPrimaryCopy && node.shard < 0 &&
        catalog.sharded(node.relation)) {
      for (int k = 0; k < catalog.NumShards(node.relation); ++k) {
        sites.push_back(catalog.ShardSite(node.relation, k, node.replica));
      }
    }
    // A client-cached scan with a partial cache still faults the remaining
    // pages in from the scan's serving replica — or, for a sharded
    // relation (never client-cached), from every shard's serving copy.
    if (node.type == OpType::kScan && catalog.IsClientSite(node.bound_site)) {
      if (catalog.sharded(node.relation)) {
        for (int k = 0; k < catalog.NumShards(node.relation); ++k) {
          sites.push_back(
              catalog.ShardSite(node.relation, k, node.replica));
        }
      } else if (catalog.CachedPages(node.relation, node.bound_site,
                                     page_bytes) <
                 catalog.relation(node.relation).Pages(page_bytes)) {
        sites.push_back(catalog.ReplicaSite(node.relation, node.replica));
      }
    }
  });
  std::sort(sites.begin(), sites.end());
  sites.erase(std::unique(sites.begin(), sites.end()), sites.end());
  return sites;
}

}  // namespace dimsum
