#ifndef DIMSUM_PLAN_PLAN_H_
#define DIMSUM_PLAN_PLAN_H_

#include <memory>
#include <vector>

#include "common/ids.h"
#include "plan/annotation.h"

namespace dimsum {

/// Node of a query execution plan. Plans are binary trees whose root is a
/// display operator; joins have two children (left = inner/build input,
/// right = outer/probe input), selects and display have one, scans none.
struct PlanNode {
  OpType type = OpType::kScan;
  SiteAnnotation annotation = SiteAnnotation::kClient;

  /// For scans: the relation produced.
  RelationId relation = kInvalidRelation;
  /// For scans: which copy of the relation serves this scan — an index
  /// into Catalog::ReplicaSites (wrapping; 0 = primary). Selects the bound
  /// site of primary-copy scans and the fault-in source of partially
  /// cached client scans. Part of the optimizer's annotation space.
  int32_t replica = 0;
  /// For scans of sharded relations: which shard this fragment reads
  /// (see Catalog::ShardSite). -1 = logical whole-relation scan;
  /// ExpandShards rewrites those into per-shard fragments post-optimize.
  int32_t shard = -1;
  /// For scans: pushed-down shard-key restriction as a fraction of the
  /// key domain, half-open [key_lo, key_hi). [0, 1) scans everything;
  /// key_lo == key_hi is an empty scan. Drives partition pruning and the
  /// tuples a fragment emits (reads stay shard-granular).
  double key_lo = 0.0;
  double key_hi = 1.0;
  /// For selects: fraction of input tuples surviving the predicate.
  double selectivity = 1.0;
  /// For projects: fraction of the input tuple width kept.
  double width_factor = 1.0;
  /// For aggregates: number of output groups.
  int64_t num_groups = 1;

  std::unique_ptr<PlanNode> left;
  std::unique_ptr<PlanNode> right;

  /// Physical site; set by BindSites, kUnboundSite before.
  SiteId bound_site = kUnboundSite;

  bool is_leaf() const { return type == OpType::kScan; }

  std::unique_ptr<PlanNode> Clone() const;
};

/// A complete plan: owns the display root.
class Plan {
 public:
  Plan() = default;
  explicit Plan(std::unique_ptr<PlanNode> root) : root_(std::move(root)) {}
  Plan(Plan&&) = default;
  Plan& operator=(Plan&&) = default;

  bool empty() const { return root_ == nullptr; }
  PlanNode* root() { return root_.get(); }
  const PlanNode* root() const { return root_.get(); }

  Plan Clone() const { return root_ ? Plan(root_->Clone()) : Plan(); }

  /// Pre-order traversal.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (root_) Visit(static_cast<const PlanNode&>(*root_), fn);
  }
  template <typename Fn>
  void ForEachMutable(Fn&& fn) {
    if (root_) Visit(*root_, fn);
  }

  /// Number of nodes.
  int Size() const;

  /// Relations scanned in the subtree rooted at `node` (pre-order).
  static std::vector<RelationId> RelationsBelow(const PlanNode& node);

 private:
  template <typename Node, typename Fn>
  static void Visit(Node& node, Fn& fn) {
    fn(node);
    if (node.left) Visit(static_cast<Node&>(*node.left), fn);
    if (node.right) Visit(static_cast<Node&>(*node.right), fn);
  }

  std::unique_ptr<PlanNode> root_;
};

/// Convenience constructors for building plans by hand (tests, examples).
std::unique_ptr<PlanNode> MakeScan(RelationId relation,
                                   SiteAnnotation annotation);
std::unique_ptr<PlanNode> MakeSelect(std::unique_ptr<PlanNode> child,
                                     double selectivity,
                                     SiteAnnotation annotation);
std::unique_ptr<PlanNode> MakeProject(std::unique_ptr<PlanNode> child,
                                      double width_factor,
                                      SiteAnnotation annotation);
std::unique_ptr<PlanNode> MakeAggregate(std::unique_ptr<PlanNode> child,
                                        int64_t num_groups,
                                        SiteAnnotation annotation);
std::unique_ptr<PlanNode> MakeSort(std::unique_ptr<PlanNode> child,
                                   SiteAnnotation annotation);
std::unique_ptr<PlanNode> MakeUnion(std::unique_ptr<PlanNode> left,
                                    std::unique_ptr<PlanNode> right,
                                    SiteAnnotation annotation);
std::unique_ptr<PlanNode> MakeJoin(std::unique_ptr<PlanNode> inner,
                                   std::unique_ptr<PlanNode> outer,
                                   SiteAnnotation annotation);
std::unique_ptr<PlanNode> MakeDisplay(std::unique_ptr<PlanNode> child);

}  // namespace dimsum

#endif  // DIMSUM_PLAN_PLAN_H_
