#include "plan/plan.h"

#include "common/check.h"

namespace dimsum {
namespace {

void CollectRelations(const PlanNode& node, std::vector<RelationId>* out) {
  if (node.type == OpType::kScan) out->push_back(node.relation);
  if (node.left) CollectRelations(*node.left, out);
  if (node.right) CollectRelations(*node.right, out);
}

}  // namespace

std::unique_ptr<PlanNode> PlanNode::Clone() const {
  auto copy = std::make_unique<PlanNode>();
  copy->type = type;
  copy->annotation = annotation;
  copy->relation = relation;
  copy->replica = replica;
  copy->shard = shard;
  copy->key_lo = key_lo;
  copy->key_hi = key_hi;
  copy->selectivity = selectivity;
  copy->width_factor = width_factor;
  copy->num_groups = num_groups;
  copy->bound_site = bound_site;
  if (left) copy->left = left->Clone();
  if (right) copy->right = right->Clone();
  return copy;
}

int Plan::Size() const {
  int count = 0;
  ForEach([&count](const PlanNode&) { ++count; });
  return count;
}

std::vector<RelationId> Plan::RelationsBelow(const PlanNode& node) {
  std::vector<RelationId> out;
  CollectRelations(node, &out);
  return out;
}

std::unique_ptr<PlanNode> MakeScan(RelationId relation,
                                   SiteAnnotation annotation) {
  DIMSUM_CHECK(annotation == SiteAnnotation::kClient ||
               annotation == SiteAnnotation::kPrimaryCopy);
  auto node = std::make_unique<PlanNode>();
  node->type = OpType::kScan;
  node->relation = relation;
  node->annotation = annotation;
  return node;
}

std::unique_ptr<PlanNode> MakeSelect(std::unique_ptr<PlanNode> child,
                                     double selectivity,
                                     SiteAnnotation annotation) {
  DIMSUM_CHECK(annotation == SiteAnnotation::kConsumer ||
               annotation == SiteAnnotation::kProducer);
  DIMSUM_CHECK(child != nullptr);
  auto node = std::make_unique<PlanNode>();
  node->type = OpType::kSelect;
  node->selectivity = selectivity;
  node->annotation = annotation;
  node->left = std::move(child);
  return node;
}

std::unique_ptr<PlanNode> MakeProject(std::unique_ptr<PlanNode> child,
                                      double width_factor,
                                      SiteAnnotation annotation) {
  DIMSUM_CHECK(annotation == SiteAnnotation::kConsumer ||
               annotation == SiteAnnotation::kProducer);
  DIMSUM_CHECK(child != nullptr);
  DIMSUM_CHECK_GT(width_factor, 0.0);
  DIMSUM_CHECK_LE(width_factor, 1.0);
  auto node = std::make_unique<PlanNode>();
  node->type = OpType::kProject;
  node->width_factor = width_factor;
  node->annotation = annotation;
  node->left = std::move(child);
  return node;
}

std::unique_ptr<PlanNode> MakeAggregate(std::unique_ptr<PlanNode> child,
                                        int64_t num_groups,
                                        SiteAnnotation annotation) {
  DIMSUM_CHECK(annotation == SiteAnnotation::kConsumer ||
               annotation == SiteAnnotation::kProducer);
  DIMSUM_CHECK(child != nullptr);
  DIMSUM_CHECK_GT(num_groups, 0);
  auto node = std::make_unique<PlanNode>();
  node->type = OpType::kAggregate;
  node->num_groups = num_groups;
  node->annotation = annotation;
  node->left = std::move(child);
  return node;
}

std::unique_ptr<PlanNode> MakeSort(std::unique_ptr<PlanNode> child,
                                   SiteAnnotation annotation) {
  DIMSUM_CHECK(annotation == SiteAnnotation::kConsumer ||
               annotation == SiteAnnotation::kProducer);
  DIMSUM_CHECK(child != nullptr);
  auto node = std::make_unique<PlanNode>();
  node->type = OpType::kSort;
  node->annotation = annotation;
  node->left = std::move(child);
  return node;
}

std::unique_ptr<PlanNode> MakeUnion(std::unique_ptr<PlanNode> left,
                                    std::unique_ptr<PlanNode> right,
                                    SiteAnnotation annotation) {
  DIMSUM_CHECK(annotation == SiteAnnotation::kConsumer ||
               annotation == SiteAnnotation::kInnerRel ||
               annotation == SiteAnnotation::kOuterRel);
  DIMSUM_CHECK(left != nullptr);
  DIMSUM_CHECK(right != nullptr);
  auto node = std::make_unique<PlanNode>();
  node->type = OpType::kUnion;
  node->annotation = annotation;
  node->left = std::move(left);
  node->right = std::move(right);
  return node;
}

std::unique_ptr<PlanNode> MakeJoin(std::unique_ptr<PlanNode> inner,
                                   std::unique_ptr<PlanNode> outer,
                                   SiteAnnotation annotation) {
  DIMSUM_CHECK(annotation == SiteAnnotation::kConsumer ||
               annotation == SiteAnnotation::kInnerRel ||
               annotation == SiteAnnotation::kOuterRel);
  DIMSUM_CHECK(inner != nullptr);
  DIMSUM_CHECK(outer != nullptr);
  auto node = std::make_unique<PlanNode>();
  node->type = OpType::kJoin;
  node->annotation = annotation;
  node->left = std::move(inner);
  node->right = std::move(outer);
  return node;
}

std::unique_ptr<PlanNode> MakeDisplay(std::unique_ptr<PlanNode> child) {
  DIMSUM_CHECK(child != nullptr);
  auto node = std::make_unique<PlanNode>();
  node->type = OpType::kDisplay;
  node->annotation = SiteAnnotation::kClient;
  node->left = std::move(child);
  return node;
}

}  // namespace dimsum
