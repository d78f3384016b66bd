#include "plan/validate.h"

#include <cstdint>

#include "common/check.h"

namespace dimsum {
namespace {

bool StructurallyValidNode(const PlanNode& node, bool is_root) {
  if (!ValidNodeShape(node, is_root)) return false;
  bool valid = true;
  if (node.left) valid &= StructurallyValidNode(*node.left, false);
  if (node.right) valid &= StructurallyValidNode(*node.right, false);
  return valid;
}

bool WellFormedNode(const PlanNode& node) {
  if (!WellFormedEdges(node)) return false;
  return (node.left == nullptr || WellFormedNode(*node.left)) &&
         (node.right == nullptr || WellFormedNode(*node.right));
}

bool InSpace(const PlanNode& node, const PolicySpace& space) {
  if (!space.Allows(node.type, node.annotation)) return false;
  return (node.left == nullptr || InSpace(*node.left, space)) &&
         (node.right == nullptr || InSpace(*node.right, space));
}

/// Relations scanned in the subtree rooted at `node`, as a query-local
/// set. Clears `*ok` when a scan reads a relation outside the query, two
/// scans read the same relation, or a join has no predicate between its
/// inputs.
uint64_t ScannedRelations(const PlanNode& node, const RelationSets& sets,
                          bool* ok) {
  if (node.type == OpType::kScan) {
    const uint64_t self = sets.Of(node.relation);
    if (self == 0) *ok = false;
    return self;
  }
  const uint64_t left = node.left ? ScannedRelations(*node.left, sets, ok) : 0;
  const uint64_t right =
      node.right ? ScannedRelations(*node.right, sets, ok) : 0;
  if ((left & right) != 0) *ok = false;
  if (node.type == OpType::kJoin && !sets.Connects(left, right)) *ok = false;
  return left | right;
}

/// True if the subtree contains a join; clears `*linear` when some join
/// has joins in both of its subtrees.
bool HasJoin(const PlanNode& node, bool* linear) {
  const bool left = node.left != nullptr && HasJoin(*node.left, linear);
  const bool right = node.right != nullptr && HasJoin(*node.right, linear);
  if (node.type == OpType::kJoin && left && right) *linear = false;
  return node.type == OpType::kJoin || left || right;
}

}  // namespace

bool IsStructurallyValid(const Plan& plan) {
  if (plan.empty()) return false;
  return StructurallyValidNode(*plan.root(), true);
}

bool IsWellFormed(const Plan& plan) {
  if (plan.empty()) return false;
  return WellFormedNode(*plan.root());
}

bool InPolicySpace(const Plan& plan, const PolicySpace& space) {
  return plan.empty() || InSpace(*plan.root(), space);
}

bool MatchesQuery(const Plan& plan, const QueryGraph& query) {
  if (plan.empty()) return false;
  // The plan must scan each query relation exactly once.
  const RelationSets sets(query);
  bool ok = true;
  const uint64_t scanned = ScannedRelations(*plan.root(), sets, &ok);
  return ok && scanned == sets.all();
}

bool IsLinear(const Plan& plan) {
  DIMSUM_CHECK(!plan.empty());
  bool linear = true;
  HasJoin(*plan.root(), &linear);
  return linear;
}

bool AnnotationFitsType(OpType type, SiteAnnotation annotation) {
  using SA = SiteAnnotation;
  if (type == OpType::kDisplay) return annotation == SA::kClient;
  if (type == OpType::kScan) {
    return annotation == SA::kClient || annotation == SA::kPrimaryCopy;
  }
  if (IsBinaryOp(type)) {
    return annotation == SA::kConsumer || annotation == SA::kInnerRel ||
           annotation == SA::kOuterRel;
  }
  return annotation == SA::kConsumer || annotation == SA::kProducer;
}

bool ValidNodeShape(const PlanNode& node, bool is_root) {
  if ((node.type == OpType::kDisplay) != is_root) return false;
  if (!AnnotationFitsType(node.type, node.annotation)) return false;
  if (IsBinaryOp(node.type)) {
    return node.left != nullptr && node.right != nullptr;
  }
  if (node.type == OpType::kScan) {
    return node.left == nullptr && node.right == nullptr &&
           node.relation != kInvalidRelation;
  }
  // The display or a unary operator.
  return node.left != nullptr && node.right == nullptr;
}

bool IsAnnotationCycle(const PlanNode& parent, bool left) {
  const PlanNode* child = left ? parent.left.get() : parent.right.get();
  if (child == nullptr || child->annotation != SiteAnnotation::kConsumer ||
      !(IsBinaryOp(child->type) || IsUnaryOp(child->type))) {
    return false;
  }
  if (IsBinaryOp(parent.type)) {
    return parent.annotation ==
           (left ? SiteAnnotation::kInnerRel : SiteAnnotation::kOuterRel);
  }
  return IsUnaryOp(parent.type) &&
         parent.annotation == SiteAnnotation::kProducer;
}

bool WellFormedEdges(const PlanNode& node) {
  return !IsAnnotationCycle(node, true) && !IsAnnotationCycle(node, false);
}

uint64_t ScannedSet(const PlanNode& node, const RelationSets& sets) {
  if (node.type == OpType::kScan) return sets.Of(node.relation);
  return (node.left ? ScannedSet(*node.left, sets) : 0) |
         (node.right ? ScannedSet(*node.right, sets) : 0);
}

bool ContainsJoin(const PlanNode& node) {
  return node.type == OpType::kJoin ||
         (node.left != nullptr && ContainsJoin(*node.left)) ||
         (node.right != nullptr && ContainsJoin(*node.right));
}

}  // namespace dimsum
