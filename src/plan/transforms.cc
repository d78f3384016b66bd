#include "plan/transforms.h"

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
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
  MoveKind kind;
  SiteAnnotation annotation = SiteAnnotation::kClient;  // for kAnnotation
  int32_t replica = 0;                                  // for kReplica
};

/// Calls `visit(candidate)` for each candidate move at `node`, in a fixed
/// order -- join reorderings, then annotation changes, then replica
/// changes -- until a call returns true. Returns whether one did.
template <typename Visit>
bool VisitNodeCandidates(const PlanNode& node, const TransformConfig& config,
                         Visit&& visit) {
  if (node.type == OpType::kJoin && config.join_order_moves) {
    if (node.left->type == OpType::kJoin &&
        (visit(Candidate{MoveKind::kAssocLL}) ||
         visit(Candidate{MoveKind::kAssocLR}))) {
      return true;
    }
    if (node.right->type == OpType::kJoin &&
        (visit(Candidate{MoveKind::kAssocRL}) ||
         visit(Candidate{MoveKind::kAssocRR}))) {
      return true;
    }
    if (visit(Candidate{MoveKind::kCommute})) return true;
  }
  for (SiteAnnotation annotation : config.space.AllowedFor(node.type)) {
    if (annotation != node.annotation &&
        visit(Candidate{MoveKind::kAnnotation, annotation})) {
      return true;
    }
  }
  if (node.type == OpType::kScan && config.catalog != nullptr) {
    // Copies a scan can be re-pointed at: whole-relation replicas, or
    // the per-shard replication degree of a sharded relation (the
    // shard-placement move; same move-7 gating).
    const int copies = config.catalog->ScanCopies(node.relation);
    for (int32_t r = 0; r < copies; ++r) {
      if (r != node.replica &&
          visit(Candidate{MoveKind::kReplica, SiteAnnotation::kClient, r})) {
        return true;
      }
    }
  }
  return false;
}

/// Calls `fn(node, parent)` for `node` and its subtree in pre-order until
/// a call returns true. Returns whether one did.
template <typename Node, typename Fn>
bool WalkSubtree(Node& node, Node& parent, Fn& fn) {
  if (fn(node, parent)) return true;
  return (node.left && WalkSubtree(static_cast<Node&>(*node.left), node, fn)) ||
         (node.right && WalkSubtree(static_cast<Node&>(*node.right), node, fn));
}

/// Walks the plan below its display, whose child is the real plan root;
/// the display itself is never transformed.
template <typename Node, typename Fn>
bool WalkBelowDisplay(Node& display, Fn fn) {
  return display.left &&
         WalkSubtree(static_cast<Node&>(*display.left), display, fn);
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

/// Applies `candidate` to `move->node` and records what UndoMove needs.
void ApplyToNode(const Candidate& candidate, AppliedMove* move) {
  PlanNode& x = *move->node;
  move->type = CandidateMoveType(candidate, x);
  move->annotation = x.annotation;
  move->replica = x.replica;
  switch (candidate.kind) {
    case MoveKind::kAnnotation:
      x.annotation = candidate.annotation;
      return;
    case MoveKind::kReplica:
      x.replica = candidate.replica;
      return;
    case MoveKind::kCommute:
      std::swap(x.left, x.right);
      return;
    case MoveKind::kAssocLL:
    case MoveKind::kAssocLR:
    case MoveKind::kAssocRL:
    case MoveKind::kAssocRR:
      break;
  }
  // A rotation of X's join child Y. Name the three subtrees below X and Y
  // A, B and C, left to right.
  const bool from_left = candidate.kind == MoveKind::kAssocLL ||
                         candidate.kind == MoveKind::kAssocLR;
  move->child = from_left ? x.left.get() : x.right.get();
  move->links = {x.left.get(), x.right.get(), move->child->left.get(),
                 move->child->right.get()};
  std::unique_ptr<PlanNode> y = std::move(from_left ? x.left : x.right);
  std::unique_ptr<PlanNode> a = std::move(from_left ? y->left : x.left);
  std::unique_ptr<PlanNode> b = std::move(from_left ? y->right : y->left);
  std::unique_ptr<PlanNode> c = std::move(from_left ? x.right : y->right);
  switch (candidate.kind) {
    case MoveKind::kAssocLL:  // (A Y B) X C -> A X (B Y C)
      y->left = std::move(b);
      y->right = std::move(c);
      x.left = std::move(a);
      x.right = std::move(y);
      return;
    case MoveKind::kAssocLR:  // (A Y B) X C -> B X (A Y C)
      y->left = std::move(a);
      y->right = std::move(c);
      x.left = std::move(b);
      x.right = std::move(y);
      return;
    case MoveKind::kAssocRL:  // A X (B Y C) -> (A Y B) X C
      y->left = std::move(a);
      y->right = std::move(b);
      x.left = std::move(y);
      x.right = std::move(c);
      return;
    case MoveKind::kAssocRR:  // A X (B Y C) -> (A Y C) X B
      y->left = std::move(a);
      y->right = std::move(c);
      x.left = std::move(y);
      x.right = std::move(b);
      return;
    default:
      DIMSUM_UNREACHABLE();
  }
}

bool IsRotation(MoveType type) {
  return type == MoveType::kAssocLL || type == MoveType::kAssocLR ||
         type == MoveType::kAssocRL || type == MoveType::kAssocRR;
}

/// Repairs the two-node annotation cycles below `parent` by re-drawing
/// each cycle's child annotation to one that does not point at the parent.
/// Pre-order, a parent's left edge before its right: a repair changes only
/// the child, whose own edges the walk checks later, so one walk leaves the
/// subtree well-formed.
void RepairWellFormedness(PlanNode& parent, const PolicySpace& space,
                          Rng& rng) {
  for (const bool left : {true, false}) {
    if (!IsAnnotationCycle(parent, left)) continue;
    PlanNode& child = left ? *parent.left : *parent.right;
    std::vector<SiteAnnotation> options;
    for (SiteAnnotation a : space.AllowedFor(child.type)) {
      if (a != SiteAnnotation::kConsumer) options.push_back(a);
    }
    DIMSUM_CHECK(!options.empty())
        << "cannot repair annotation cycle within policy space";
    child.annotation = options[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(options.size()) - 1))];
  }
  if (parent.left) RepairWellFormedness(*parent.left, space, rng);
  if (parent.right) RepairWellFormedness(*parent.right, space, rng);
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

int CountMoveCandidates(const Plan& plan, const TransformConfig& config) {
  DIMSUM_CHECK(!plan.empty());
  int count = 0;
  const auto count_node = [&](const PlanNode& node, const PlanNode&) {
    VisitNodeCandidates(node, config, [&count](const Candidate&) {
      ++count;
      return false;
    });
    return false;
  };
  WalkBelowDisplay(*plan.root(), count_node);
  return count;
}

AppliedMove ApplyCandidate(Plan& plan, const TransformConfig& config,
                           int index) {
  DIMSUM_CHECK(!plan.empty());
  DIMSUM_CHECK_GE(index, 0);
  // One walk that stops at the candidate, with the node and its parent.
  AppliedMove move;
  Candidate chosen{};
  int remaining = index;
  const bool found = WalkBelowDisplay(
      *plan.root(), [&](PlanNode& node, PlanNode& parent) {
        return VisitNodeCandidates(node, config, [&](const Candidate& c) {
          if (remaining-- > 0) return false;
          chosen = c;
          move.node = &node;
          move.parent = &parent;
          return true;
        });
      });
  DIMSUM_CHECK(found) << "plan has no move candidate " << index;
  ApplyToNode(chosen, &move);
  return move;
}

std::optional<AppliedMove> ApplyRandomMove(Plan& plan,
                                           const TransformConfig& config,
                                           Rng& rng) {
  const int count = CountMoveCandidates(plan, config);
  if (count == 0) return std::nullopt;
  return ApplyCandidate(plan, config,
                        static_cast<int>(rng.UniformInt(0, count - 1)));
}

bool MoveIsLegal(const AppliedMove& move, const RelationSets& sets,
                 const TransformConfig& config) {
  // A move keeps every node's type and child count and the multiset of
  // scans, so the plan stays structurally valid and scans each relation
  // once; only the touched nodes and their edges can break.
  const PlanNode& x = *move.node;
  if (move.type == MoveType::kCommute) {
    // X's relation set is unchanged and Connects is symmetric; the swap
    // only changes which child X's inner/outer annotation points at.
    return WellFormedEdges(x);
  }
  if (!IsRotation(move.type)) {
    // A new annotation, drawn from the policy space (a replica change
    // alters nothing these checks read): the node's own annotation rule
    // and its edges to its parent and children.
    return AnnotationFitsType(x.type, x.annotation) &&
           WellFormedEdges(*move.parent) && WellFormedEdges(x);
  }
  // A rotation rewrote X's and Y's child links; X's edge to its parent and
  // everything outside X's subtree are unchanged.
  const PlanNode& y = *move.child;
  if (!WellFormedEdges(x) || !WellFormedEdges(y)) return false;
  // Y now joins two of the three moved subtrees. X joins Y with the third,
  // which a predicate connects to Y's old input that Y still holds (the
  // plan was legal), so only Y can have become a Cartesian product.
  if (!sets.Connects(ScannedSet(*y.left, sets), ScannedSet(*y.right, sets))) {
    return false;
  }
  // Linearity: X's subtree still holds joins on the same side of every
  // ancestor, and one of Y's new inputs is X's old input beside Y, which
  // had no join, so only X can have joins on both sides: Y on one, maybe
  // the third subtree on the other.
  return !config.require_linear ||
         !ContainsJoin(x.left.get() == &y ? *x.right : *x.left);
}

void UndoMove(const AppliedMove& move) {
  PlanNode& x = *move.node;
  if (move.type == MoveType::kCommute) {
    std::swap(x.left, x.right);
  } else if (!IsRotation(move.type)) {
    x.annotation = move.annotation;
    x.replica = move.replica;
  } else {
    // The four links own Y and the three moved subtrees both before and
    // after the move: release them and hand each node to its old owner.
    PlanNode& y = *move.child;
    for (std::unique_ptr<PlanNode>* link :
         {&x.left, &x.right, &y.left, &y.right}) {
      static_cast<void>(link->release());
    }
    x.left.reset(move.links[0]);
    x.right.reset(move.links[1]);
    y.left.reset(move.links[2]);
    y.right.reset(move.links[3]);
  }
}

bool PlanIsLegal(const Plan& plan, const QueryGraph& query,
                 const TransformConfig& config) {
  if (!IsStructurallyValid(plan)) return false;
  if (!IsWellFormed(plan)) return false;
  if (!InPolicySpace(plan, config.space)) return false;
  if (!MatchesQuery(plan, query)) return false;
  if (config.require_linear && !IsLinear(plan)) return false;
  return true;
}

std::optional<Plan> TryRandomMove(const Plan& plan, const QueryGraph& query,
                                  const TransformConfig& config, Rng& rng,
                                  std::optional<MoveType>* chosen_type) {
  if (chosen_type != nullptr) chosen_type->reset();
  Plan moved = plan.Clone();
  const std::optional<AppliedMove> move = ApplyRandomMove(moved, config, rng);
  if (!move.has_value()) return std::nullopt;
  if (chosen_type != nullptr) *chosen_type = move->type;
  if (!MoveIsLegal(*move, RelationSets(query), config)) return std::nullopt;
  return moved;
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
        if (!sets.Connects(forest[i].relations, forest[j].relations)) {
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
  RepairWellFormedness(*plan.root(), config.space, rng);
  DIMSUM_CHECK(PlanIsLegal(plan, query, config));
  return plan;
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
  RepairWellFormedness(*plan.root(), config.space, rng);
}

}  // namespace dimsum
