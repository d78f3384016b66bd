#include "plan/transforms.h"

#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/check.h"
#include "plan/validate.h"

namespace dimsum {
namespace {

enum class MoveKind {
  kAssocLL,     // (A B) C -> A (B C)     [move 1]
  kAssocLR,     // (A B) C -> B (A C)     [move 2]
  kAssocRL,     // A (B C) -> (A B) C     [move 3]
  kAssocRR,     // A (B C) -> (A C) B     [move 4]
  kCommute,     // A B -> B A             [extra, see TransformConfig]
  kAnnotation,  // change a node's site annotation [moves 5-7]
  kReplica,     // re-point a scan at another copy [counted as move 7]
};

struct Candidate {
  int node_index;  // pre-order index
  MoveKind kind;
  SiteAnnotation annotation;  // for kAnnotation
  int32_t replica = 0;        // for kReplica
};

/// Visits every candidate move of the subtree rooted at `node`, whose
/// pre-order slot index is `*index` (incremented per node), as
/// `visit(candidate, node)`. Candidates come in a fixed order -- by slot
/// in pre-order, then joins' reorderings, annotation changes and replica
/// changes -- so a draw over them is reproducible.
template <typename Visit>
void VisitCandidates(const PlanNode& node, const TransformConfig& config,
                     int* index, Visit& visit) {
  const int i = (*index)++;
  if (node.type == OpType::kJoin && config.join_order_moves) {
    if (node.left->type == OpType::kJoin) {
      visit(Candidate{i, MoveKind::kAssocLL, {}}, node);
      visit(Candidate{i, MoveKind::kAssocLR, {}}, node);
    }
    if (node.right->type == OpType::kJoin) {
      visit(Candidate{i, MoveKind::kAssocRL, {}}, node);
      visit(Candidate{i, MoveKind::kAssocRR, {}}, node);
    }
    if (config.allow_commute) {
      visit(Candidate{i, MoveKind::kCommute, {}}, node);
    }
  }
  for (SiteAnnotation annotation : config.space.AllowedFor(node.type)) {
    if (annotation != node.annotation) {
      visit(Candidate{i, MoveKind::kAnnotation, annotation}, node);
    }
  }
  if (node.type == OpType::kScan && config.catalog != nullptr) {
    // Copies a scan can be re-pointed at: whole-relation replicas, or
    // the per-shard replication degree of a sharded relation (the
    // shard-placement move; same move-7 gating).
    const int copies = config.catalog->ScanCopies(node.relation);
    for (int32_t r = 0; r < copies; ++r) {
      if (r != node.replica) {
        visit(Candidate{i, MoveKind::kReplica, {}, r}, node);
      }
    }
  }
  if (node.left) VisitCandidates(*node.left, config, index, visit);
  if (node.right) VisitCandidates(*node.right, config, index, visit);
}

/// Visits the candidates of the whole plan. Slot 0 is the display's child
/// (the real plan root); the display itself is never transformed.
template <typename Visit>
void VisitCandidates(const Plan& plan, const TransformConfig& config,
                     Visit visit) {
  DIMSUM_CHECK(!plan.empty());
  int index = 0;
  if (plan.root()->left) {
    VisitCandidates(*plan.root()->left, config, &index, visit);
  }
}

/// The owning slot at pre-order index `*remaining` below `slot`, or null
/// when the subtree has fewer slots (`*remaining` is then reduced by its
/// size).
std::unique_ptr<PlanNode>* FindSlot(std::unique_ptr<PlanNode>& slot,
                                    int* remaining) {
  if (slot == nullptr) return nullptr;
  if ((*remaining)-- == 0) return &slot;
  if (auto* found = FindSlot(slot->left, remaining)) return found;
  return FindSlot(slot->right, remaining);
}

void ApplyMove(Plan& plan, const Candidate& candidate) {
  int remaining = candidate.node_index;
  std::unique_ptr<PlanNode>* slot = FindSlot(plan.root()->left, &remaining);
  DIMSUM_CHECK(slot != nullptr);
  PlanNode& node = **slot;
  switch (candidate.kind) {
    case MoveKind::kAnnotation:
      node.annotation = candidate.annotation;
      return;
    case MoveKind::kReplica:
      node.replica = candidate.replica;
      return;
    case MoveKind::kCommute:
      std::swap(node.left, node.right);
      return;
    case MoveKind::kAssocLL: {
      // (A JOIN_Y B) JOIN_X C -> A JOIN_X (B JOIN_Y C)
      auto y = std::move(node.left);
      auto c = std::move(node.right);
      auto a = std::move(y->left);
      auto b = std::move(y->right);
      y->left = std::move(b);
      y->right = std::move(c);
      node.left = std::move(a);
      node.right = std::move(y);
      return;
    }
    case MoveKind::kAssocLR: {
      // (A JOIN_Y B) JOIN_X C -> B JOIN_X (A JOIN_Y C)
      auto y = std::move(node.left);
      auto c = std::move(node.right);
      auto a = std::move(y->left);
      auto b = std::move(y->right);
      y->left = std::move(a);
      y->right = std::move(c);
      node.left = std::move(b);
      node.right = std::move(y);
      return;
    }
    case MoveKind::kAssocRL: {
      // A JOIN_X (B JOIN_Y C) -> (A JOIN_Y B) JOIN_X C
      auto a = std::move(node.left);
      auto y = std::move(node.right);
      auto b = std::move(y->left);
      auto c = std::move(y->right);
      y->left = std::move(a);
      y->right = std::move(b);
      node.left = std::move(y);
      node.right = std::move(c);
      return;
    }
    case MoveKind::kAssocRR: {
      // A JOIN_X (B JOIN_Y C) -> (A JOIN_Y C) JOIN_X B
      auto a = std::move(node.left);
      auto y = std::move(node.right);
      auto b = std::move(y->left);
      auto c = std::move(y->right);
      y->left = std::move(a);
      y->right = std::move(c);
      node.left = std::move(y);
      node.right = std::move(b);
      return;
    }
  }
  DIMSUM_UNREACHABLE();
}

bool PlanIsLegal(const Plan& plan, const QueryGraph& query,
                 const TransformConfig& config) {
  if (!IsStructurallyValid(plan)) return false;
  if (!IsWellFormed(plan)) return false;
  if (!InPolicySpace(plan, config.space)) return false;
  if (!MatchesQuery(plan, query, config.allow_cartesian)) return false;
  if (config.require_linear && !IsLinear(plan)) return false;
  return true;
}

/// Repairs two-node annotation cycles by re-drawing the child's annotation
/// to one that does not point at the parent.
void RepairWellFormedness(Plan& plan, const PolicySpace& space, Rng& rng) {
  for (int guard = 0; guard < plan.Size() + 8; ++guard) {
    if (IsWellFormed(plan)) return;
    // Find one violating edge and fix the child.
    bool fixed = false;
    const std::function<void(PlanNode&)> visit = [&](PlanNode& parent) {
      if (fixed) return;
      for (int side = 0; side < 2; ++side) {
        PlanNode* child =
            (side == 0) ? parent.left.get() : parent.right.get();
        if (child == nullptr) continue;
        const bool parent_points =
            (IsBinaryOp(parent.type) &&
             ((parent.annotation == SiteAnnotation::kInnerRel && side == 0) ||
              (parent.annotation == SiteAnnotation::kOuterRel &&
               side == 1))) ||
            (IsUnaryOp(parent.type) &&
             parent.annotation == SiteAnnotation::kProducer);
        const bool child_points =
            (IsBinaryOp(child->type) || IsUnaryOp(child->type)) &&
            child->annotation == SiteAnnotation::kConsumer;
        if (parent_points && child_points) {
          std::vector<SiteAnnotation> options;
          for (SiteAnnotation a : space.AllowedFor(child->type)) {
            if (a != SiteAnnotation::kConsumer) options.push_back(a);
          }
          DIMSUM_CHECK(!options.empty())
              << "cannot repair annotation cycle within policy space";
          child->annotation = options[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(options.size()) - 1))];
          fixed = true;
          return;
        }
      }
      if (parent.left) visit(*parent.left);
      if (parent.right) visit(*parent.right);
    };
    visit(*plan.root());
    DIMSUM_CHECK(fixed);
  }
  DIMSUM_CHECK(IsWellFormed(plan));
}

/// Draws a serving replica for a scan. Relations with a single copy never
/// consume an RNG draw, so unreplicated catalogs leave every seed stream
/// exactly as it was before replica choice existed.
int32_t PickReplica(const Catalog* catalog, RelationId rel, Rng& rng) {
  if (catalog == nullptr) return 0;
  const int copies = catalog->ScanCopies(rel);
  if (copies <= 1) return 0;
  return static_cast<int32_t>(rng.UniformInt(0, copies - 1));
}

SiteAnnotation PickAnnotation(const PolicySpace& space, OpType type,
                              Rng& rng) {
  const auto& allowed = space.AllowedFor(type);
  DIMSUM_CHECK(!allowed.empty());
  return allowed[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(allowed.size()) - 1))];
}

/// Maps an internal candidate to the paper-facing move numbering; `node`
/// is the candidate's target (needed to split moves 5-7 by operator type).
MoveType CandidateMoveType(const Candidate& candidate, const PlanNode& node) {
  switch (candidate.kind) {
    case MoveKind::kAssocLL: return MoveType::kAssocLL;
    case MoveKind::kAssocLR: return MoveType::kAssocLR;
    case MoveKind::kAssocRL: return MoveType::kAssocRL;
    case MoveKind::kAssocRR: return MoveType::kAssocRR;
    case MoveKind::kCommute: return MoveType::kCommute;
    case MoveKind::kAnnotation:
      if (node.type == OpType::kJoin) return MoveType::kJoinSite;
      if (node.type == OpType::kScan) return MoveType::kScanSite;
      return MoveType::kSelectSite;
    case MoveKind::kReplica:
      return MoveType::kScanSite;
  }
  DIMSUM_UNREACHABLE();
}

}  // namespace

const char* MoveTypeName(MoveType type) {
  switch (type) {
    case MoveType::kAssocLL: return "assoc_ll";
    case MoveType::kAssocLR: return "assoc_lr";
    case MoveType::kAssocRL: return "assoc_rl";
    case MoveType::kAssocRR: return "assoc_rr";
    case MoveType::kJoinSite: return "join_site";
    case MoveType::kSelectSite: return "select_site";
    case MoveType::kScanSite: return "scan_site";
    case MoveType::kCommute: return "commute";
  }
  DIMSUM_UNREACHABLE();
}

std::optional<Plan> TryRandomMove(const Plan& plan, const QueryGraph& query,
                                  const TransformConfig& config, Rng& rng,
                                  std::optional<MoveType>* chosen_type) {
  if (chosen_type != nullptr) chosen_type->reset();
  // Count the candidates, draw one, then find it again: two walks of the
  // input plan instead of a candidate list, so only the copy allocates.
  int64_t count = 0;
  VisitCandidates(plan, config,
                  [&count](const Candidate&, const PlanNode&) { ++count; });
  if (count == 0) return std::nullopt;
  const int64_t pick = rng.UniformInt(0, count - 1);
  Candidate chosen{};
  MoveType type = MoveType::kAssocLL;
  int64_t seen = 0;
  VisitCandidates(plan, config,
                  [&](const Candidate& candidate, const PlanNode& node) {
                    if (seen++ != pick) return;
                    chosen = candidate;
                    type = CandidateMoveType(candidate, node);
                  });
  if (chosen_type != nullptr) *chosen_type = type;
  Plan working = plan.Clone();
  ApplyMove(working, chosen);
  if (!PlanIsLegal(working, query, config)) return std::nullopt;
  return working;
}

Plan RandomPlan(const QueryGraph& query, const TransformConfig& config,
                Rng& rng) {
  DIMSUM_CHECK_GT(query.num_relations(), 0);
  const RelationSets sets(query);
  // Build leaves (scan, optionally wrapped in a select).
  struct Component {
    std::unique_ptr<PlanNode> tree;
    uint64_t relations = 0;  // query-local set
    int size() const { return std::popcount(relations); }
  };
  std::vector<Component> forest;
  for (RelationId rel : query.relations) {
    auto leaf = MakeScan(rel, PickAnnotation(config.space, OpType::kScan, rng));
    leaf->replica = PickReplica(config.catalog, rel, rng);
    const double selectivity = query.ScanSelectivity(rel);
    std::unique_ptr<PlanNode> tree = std::move(leaf);
    if (selectivity < 1.0) {
      tree = MakeSelect(std::move(tree), selectivity,
                        PickAnnotation(config.space, OpType::kSelect, rng));
    }
    forest.push_back(Component{std::move(tree), sets.Of(rel)});
  }
  // Randomly combine joinable components into one tree. Under the linear
  // constraint, grow a single tree by always merging the current largest
  // component with a single-relation component (otherwise disjoint
  // multi-relation components could strand the construction).
  while (forest.size() > 1) {
    // Enumerate joinable pairs.
    std::vector<std::pair<int, int>> pairs;
    int largest = 0;
    for (int i = 1; i < static_cast<int>(forest.size()); ++i) {
      if (forest[i].size() > forest[largest].size()) largest = i;
    }
    for (int i = 0; i < static_cast<int>(forest.size()); ++i) {
      for (int j = i + 1; j < static_cast<int>(forest.size()); ++j) {
        if (!config.allow_cartesian &&
            !sets.Connects(forest[i].relations, forest[j].relations)) {
          continue;
        }
        if (config.require_linear) {
          const bool i_multi = forest[i].size() > 1;
          const bool j_multi = forest[j].size() > 1;
          if (i_multi && j_multi) continue;
          // Once a multi-relation tree exists, it must take part in every
          // merge so exactly one tree grows.
          if ((i_multi || j_multi) && i != largest && j != largest) continue;
          if (!i_multi && !j_multi && forest[largest].size() > 1) continue;
        }
        pairs.emplace_back(i, j);
      }
    }
    DIMSUM_CHECK(!pairs.empty()) << "query graph is disconnected";
    auto [i, j] = pairs[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pairs.size()) - 1))];
    // Random orientation.
    if (rng.Bernoulli(0.5)) std::swap(i, j);
    Component merged;
    merged.tree =
        MakeJoin(std::move(forest[i].tree), std::move(forest[j].tree),
                 PickAnnotation(config.space, OpType::kJoin, rng));
    merged.relations = forest[i].relations | forest[j].relations;
    // Remove the two inputs (erase larger index first) and add the merge.
    if (i < j) std::swap(i, j);
    forest.erase(forest.begin() + i);
    forest.erase(forest.begin() + j);
    forest.push_back(std::move(merged));
  }
  Plan plan(MakeDisplay(std::move(forest.front().tree)));
  RepairWellFormedness(plan, config.space, rng);
  DIMSUM_CHECK(PlanIsLegal(plan, query, config));
  return plan;
}

void RandomizeAnnotations(Plan& plan, const PolicySpace& space, Rng& rng) {
  plan.ForEachMutable([&](PlanNode& node) {
    if (node.type == OpType::kDisplay) return;
    node.annotation = PickAnnotation(space, node.type, rng);
  });
  RepairWellFormedness(plan, space, rng);
}

void RandomizeAnnotations(Plan& plan, const TransformConfig& config,
                          Rng& rng) {
  plan.ForEachMutable([&](PlanNode& node) {
    if (node.type == OpType::kDisplay) return;
    node.annotation = PickAnnotation(config.space, node.type, rng);
    if (node.type == OpType::kScan) {
      node.replica = PickReplica(config.catalog, node.relation, rng);
    }
  });
  RepairWellFormedness(plan, config.space, rng);
}

int CountMoveCandidates(const Plan& plan, const TransformConfig& config) {
  int count = 0;
  VisitCandidates(plan, config,
                  [&count](const Candidate&, const PlanNode&) { ++count; });
  return count;
}

}  // namespace dimsum
