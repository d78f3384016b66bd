#ifndef DIMSUM_PLAN_TRANSFORMS_H_
#define DIMSUM_PLAN_TRANSFORMS_H_

#include <array>
#include <cstdint>
#include <optional>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "plan/plan.h"
#include "plan/policy.h"
#include "plan/query.h"

namespace dimsum {

/// Configuration of the plan-transformation space (Section 3.1.1). The
/// paper's moves are:
///   1. (A  B)  C -> A  (B  C)
///   2. (A  B)  C -> B  (A  C)
///   3. A  (B  C) -> (A  B)  C
///   4. A  (B  C) -> (A  C)  B
///   5. change a join's site annotation
///   6. change a select's site annotation
///   7. change a scan's site annotation
/// Restricting `space` to a policy's allowed annotations implements the
/// paper's per-policy enabling/disabling of moves 5-7 (Table 1).
struct TransformConfig {
  PolicySpace space = PolicySpace::For(ShippingPolicy::kHybridShipping);
  /// Enables moves 1-4 and the extra join-commutativity move (swap
  /// build/probe inputs; the paper lists only moves 1-4, commutativity is
  /// standard in [IK90], see DESIGN.md). Disabled in the 2-step optimizer's
  /// run-time phase, which performs site selection only.
  bool join_order_moves = true;
  /// Constrain the search to linear (left-deep) join trees; used to obtain
  /// the "deep" compile-time plans of Section 5.2.
  bool require_linear = false;
  /// When set, scans over relations with more than one copy gain replica-
  /// choice moves (re-pointing a scan at another copy; counted as move 7,
  /// the scan-site move) and random plans draw a random serving replica.
  /// Null -- or an unreplicated catalog -- leaves the move set and every
  /// RNG stream exactly as before (not owned; must outlive optimization).
  const Catalog* catalog = nullptr;
};

/// The paper's numbered transformation moves (1-7) plus the extra
/// commutativity move, for the optimizer's per-move-type counters. All
/// annotation changes on unary operators other than scan are counted as
/// move 6 (the paper's plans only carry select above its scans; wider
/// queries reuse the slot rather than invent unnumbered moves).
enum class MoveType {
  kAssocLL = 0,  // move 1: (A B) C -> A (B C)
  kAssocLR,      // move 2: (A B) C -> B (A C)
  kAssocRL,      // move 3: A (B C) -> (A B) C
  kAssocRR,      // move 4: A (B C) -> (A C) B
  kJoinSite,     // move 5: change a join's site annotation
  kSelectSite,   // move 6: change a unary operator's site annotation
  kScanSite,     // move 7: change a scan's site annotation
  kCommute,      // extra: A B -> B A (see TransformConfig::join_order_moves)
};
inline constexpr int kNumMoveTypes = 8;

/// Short stable name ("assoc_ll", "join_site", ...) for metrics keys.
const char* MoveTypeName(MoveType type);

/// A candidate move applied in place by ApplyCandidate or ApplyRandomMove,
/// with what UndoMove needs to restore the plan. Its pointers point into
/// the plan and stay valid until the plan changes other than by UndoMove.
struct AppliedMove {
  MoveType type = MoveType::kAssocLL;
  PlanNode* node = nullptr;    // the node the move rewrote (X)
  PlanNode* parent = nullptr;  // its parent (the display for the plan root)
  /// Moves 5-7: the node's annotation and serving replica before the move.
  SiteAnnotation annotation = SiteAnnotation::kClient;
  int32_t replica = 0;
  /// Moves 1-4: the join child the move rotated (Y), and the child links
  /// node.left, node.right, child.left and child.right before the move.
  PlanNode* child = nullptr;
  std::array<PlanNode*, 4> links{};
};

/// Number of candidate moves of `plan`: ApplyRandomMove draws uniformly
/// over these.
int CountMoveCandidates(const Plan& plan, const TransformConfig& config);

/// Applies candidate `index` (0 <= index < CountMoveCandidates) to `plan`
/// in place. Candidates are numbered by node in pre-order below the
/// display, and at each node by join reorderings (moves 1-4, then
/// commute), annotation changes and replica changes. The move stays
/// applied, legal or not, until UndoMove reverts it.
AppliedMove ApplyCandidate(Plan& plan, const TransformConfig& config,
                           int index);

/// Draws one candidate uniformly, with a single
/// rng.UniformInt(0, count - 1), and applies it as ApplyCandidate does.
/// Returns nullopt, drawing nothing and leaving `plan` as it is, when
/// `plan` has no candidate.
std::optional<AppliedMove> ApplyRandomMove(Plan& plan,
                                           const TransformConfig& config,
                                           Rng& rng);

/// Whether the plan `move` was applied to is legal, decided from the
/// nodes the move touched; `sets` are the query's relation sets. Equals
/// PlanIsLegal of the moved plan whenever the plan was legal before the
/// move (DESIGN.md, "Binding and moves", lists the rules per move kind).
bool MoveIsLegal(const AppliedMove& move, const RelationSets& sets,
                 const TransformConfig& config);

/// Reverts `move`, the last move applied to its plan: the plan is again
/// what it was before the move, node for node, except for bound sites.
void UndoMove(const AppliedMove& move);

/// The full legality check over the whole plan: structurally valid,
/// well-formed, within the policy space, scanning each relation of
/// `query` once with no Cartesian product, and linear when required.
bool PlanIsLegal(const Plan& plan, const QueryGraph& query,
                 const TransformConfig& config);

/// Returns a copy of `plan` with one random move applied (ApplyRandomMove
/// on a clone), or nullopt when the move is illegal or `plan` has no
/// candidate; `plan` must be legal, and is unchanged.
///
/// When `chosen_type` is non-null it is assigned the type of the candidate
/// that was drawn -- including when the move then proved illegal and
/// nullopt is returned -- and left empty when no candidate exists, so
/// callers can count *proposed* moves per type.
std::optional<Plan> TryRandomMove(const Plan& plan, const QueryGraph& query,
                                  const TransformConfig& config, Rng& rng,
                                  std::optional<MoveType>* chosen_type =
                                      nullptr);

/// Generates a random plan for `query` within the configured space:
/// a random (connected) join tree with random allowed annotations,
/// repaired to be well-formed.
Plan RandomPlan(const QueryGraph& query, const TransformConfig& config,
                Rng& rng);

/// Re-draws every operator's annotation uniformly from the allowed sets,
/// and -- when `config.catalog` names a replicated catalog -- each scan's
/// serving replica, then repairs two-node cycles. Join order is preserved.
/// Replica draws happen only for relations with more than one copy, so an
/// unreplicated catalog draws exactly what a null catalog does.
void RandomizeAnnotations(Plan& plan, const TransformConfig& config, Rng& rng);

}  // namespace dimsum

#endif  // DIMSUM_PLAN_TRANSFORMS_H_
