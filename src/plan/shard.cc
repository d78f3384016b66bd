#include "plan/shard.h"

#include <cmath>
#include <memory>
#include <vector>

#include "common/check.h"
#include "plan/binding.h"

namespace dimsum {
namespace {

bool IsLogicalShardedScan(const PlanNode& node, const Catalog& catalog) {
  return node.type == OpType::kScan &&
         node.annotation == SiteAnnotation::kPrimaryCopy && node.shard < 0 &&
         catalog.sharded(node.relation);
}

/// True for operators ExpandShards may replicate into each fragment: a
/// producer-annotated filter/projection runs at its child's site, so a
/// per-fragment copy computes the same bag as one copy above the union.
bool IsPushableChainOp(const PlanNode& node) {
  return (node.type == OpType::kSelect || node.type == OpType::kProject) &&
         node.annotation == SiteAnnotation::kProducer;
}

/// Shards of `rel` a scan restricted to [key_lo, key_hi) must read, in
/// shard order. Range shards prune on tuple-extent intersection (exact
/// integer math, matching Catalog::ScanExtent's rounding); hash shards
/// hold a sample of every key, so a non-empty restriction keeps them all.
std::vector<int> KeptShards(const Catalog& catalog, RelationId rel,
                            double key_lo, double key_hi) {
  std::vector<int> kept;
  if (key_hi <= key_lo) return kept;  // empty restriction prunes everything
  const int shards = catalog.NumShards(rel);
  if (catalog.Scheme(rel) == ShardScheme::kHash) {
    for (int k = 0; k < shards; ++k) kept.push_back(k);
    return kept;
  }
  const double tuples =
      static_cast<double>(catalog.relation(rel).num_tuples);
  const int64_t lo = std::llround(key_lo * tuples);
  const int64_t hi = std::llround(key_hi * tuples);
  for (int k = 0; k < shards; ++k) {
    const int64_t first = catalog.ShardFirstTuple(rel, k);
    const int64_t last = catalog.ShardFirstTuple(rel, k + 1);
    if (lo < last && first < hi) kept.push_back(k);
  }
  return kept;
}

/// One fragment: a clone of `scan` pinned to shard `k`, rewrapped in
/// clones of the pushed-down chain ops (outermost first).
std::unique_ptr<PlanNode> MakeFragment(
    const PlanNode& scan, int shard,
    const std::vector<const PlanNode*>& chain) {
  std::unique_ptr<PlanNode> fragment = scan.Clone();
  fragment->shard = shard;
  fragment->bound_site = kUnboundSite;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    std::unique_ptr<PlanNode> op = (*it)->Clone();
    op->left = std::move(fragment);
    op->right = nullptr;
    op->bound_site = kUnboundSite;
    fragment = std::move(op);
  }
  return fragment;
}

/// Expands the pushdown chain `chain` (outermost first, possibly empty)
/// over the logical sharded scan `scan` into a union chain of per-shard
/// fragments.
std::unique_ptr<PlanNode> ExpandScan(
    const PlanNode& scan, const std::vector<const PlanNode*>& chain,
    const Catalog& catalog) {
  const std::vector<int> kept =
      KeptShards(catalog, scan.relation, scan.key_lo, scan.key_hi);
  if (kept.empty()) {
    // Everything pruned: one empty fragment keeps the relation scanned
    // exactly once (plan shape invariants) while reading zero pages.
    std::unique_ptr<PlanNode> fragment = MakeFragment(scan, 0, chain);
    PlanNode* leaf = fragment.get();
    while (leaf->type != OpType::kScan) leaf = leaf->left.get();
    leaf->key_lo = 0.0;
    leaf->key_hi = 0.0;
    return fragment;
  }
  std::unique_ptr<PlanNode> merged = MakeFragment(scan, kept[0], chain);
  for (std::size_t i = 1; i < kept.size(); ++i) {
    merged = MakeUnion(std::move(merged), MakeFragment(scan, kept[i], chain),
                       SiteAnnotation::kInnerRel);
  }
  return merged;
}

std::unique_ptr<PlanNode> Rewrite(const PlanNode& node,
                                  const Catalog& catalog) {
  // Gather the maximal pushable chain below `node` (inclusive) and see
  // whether it terminates in a logical sharded scan.
  if (IsPushableChainOp(node) || IsLogicalShardedScan(node, catalog)) {
    std::vector<const PlanNode*> chain;
    const PlanNode* cursor = &node;
    while (IsPushableChainOp(*cursor)) {
      chain.push_back(cursor);
      cursor = cursor->left.get();
    }
    if (IsLogicalShardedScan(*cursor, catalog)) {
      return ExpandScan(*cursor, chain, catalog);
    }
  }
  std::unique_ptr<PlanNode> copy = node.Clone();
  if (node.left) copy->left = Rewrite(*node.left, catalog);
  if (node.right) copy->right = Rewrite(*node.right, catalog);
  return copy;
}

}  // namespace

bool NeedsShardExpansion(const Plan& plan, const Catalog& catalog) {
  if (!catalog.sharded()) return false;
  bool needs = false;
  plan.ForEach([&](const PlanNode& node) {
    if (IsLogicalShardedScan(node, catalog)) needs = true;
  });
  return needs;
}

Plan ExpandShards(const Plan& plan, const Catalog& catalog) {
  if (plan.empty()) return Plan();
  Plan expanded(Rewrite(*plan.root(), catalog));
  ClearBinding(expanded);
  return expanded;
}

}  // namespace dimsum
