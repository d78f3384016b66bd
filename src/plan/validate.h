#ifndef DIMSUM_PLAN_VALIDATE_H_
#define DIMSUM_PLAN_VALIDATE_H_

#include <cstdint>

#include "plan/plan.h"
#include "plan/policy.h"
#include "plan/query.h"

namespace dimsum {

/// Structural checks on plans.
///
/// A plan is *well-formed* (Section 2.2.3) when no two adjacent operators
/// point their site annotations at each other: a child annotated
/// `consumer` while its parent is annotated with the child's side
/// (`inner relation` / `outer relation` for joins, `producer` for selects)
/// forms a two-node cycle that cannot be bound to physical sites. Because
/// plans are trees, only two-node cycles can occur.

/// True if the plan is a structurally valid operator tree (display root at
/// the client, joins binary, selects/display unary, scans leaves).
bool IsStructurallyValid(const Plan& plan);

/// True if no annotation cycle exists (see above). Assumes structural
/// validity.
bool IsWellFormed(const Plan& plan);

/// True if every operator's annotation is allowed by `space` (Table 1).
bool InPolicySpace(const Plan& plan, const PolicySpace& space);

/// True if every join in the plan joins subtrees connected by a join
/// predicate of `query` (i.e., the plan contains no Cartesian products),
/// and the plan scans exactly the relations of `query` once each.
bool MatchesQuery(const Plan& plan, const QueryGraph& query);

/// True if no join has joins in both subtrees (left-deep / linear shape).
bool IsLinear(const Plan& plan);

/// Per-node parts of the checks above, for deciding a local edit's
/// legality from the nodes it touched.

/// True if an operator of `type` may carry `annotation` in a structurally
/// valid plan: the display `client`; binary operators `consumer`, `inner
/// relation` or `outer relation`; unary ones `consumer` or `producer`;
/// scans `client` or `primary copy`.
bool AnnotationFitsType(OpType type, SiteAnnotation annotation);

/// True if `node` itself is shaped as a structurally valid plan requires:
/// a display exactly when `is_root`, an annotation that fits its type, two
/// children for binary operators, one (left) for the display and unary
/// ones, and none for scans, which must name a relation. A plan is
/// structurally valid when every node is.
bool ValidNodeShape(const PlanNode& node, bool is_root);

/// True if the edge from `parent` to its left child (`left`) or right
/// child is a two-node annotation cycle: the child points at its parent
/// (`consumer`) while the parent points at that child (`inner relation` /
/// `outer relation`, or `producer`). False when that child is absent.
bool IsAnnotationCycle(const PlanNode& parent, bool left);

/// True if neither of `node`'s edges to its children is a two-node
/// annotation cycle.
bool WellFormedEdges(const PlanNode& node);

/// Relations scanned in the subtree rooted at `node`, as a query-local
/// set of `sets`.
uint64_t ScannedSet(const PlanNode& node, const RelationSets& sets);

/// True if the subtree rooted at `node` contains a join.
bool ContainsJoin(const PlanNode& node);

}  // namespace dimsum

#endif  // DIMSUM_PLAN_VALIDATE_H_
