#ifndef DIMSUM_OPT_OPTIMIZER_H_
#define DIMSUM_OPT_OPTIMIZER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "cost/cost_model.h"
#include "opt/cost_cache.h"
#include "plan/plan.h"
#include "plan/policy.h"
#include "plan/query.h"
#include "plan/transforms.h"

namespace dimsum {

/// Configuration of the randomized two-phase optimizer (2PO) [IK90]:
/// iterative improvement over random starting plans, followed by simulated
/// annealing from the best plan found.
struct OptimizerConfig {
  ShippingPolicy policy = ShippingPolicy::kHybridShipping;
  OptimizeMetric metric = OptimizeMetric::kResponseTime;

  /// Constrain the search to linear (left-deep) join trees.
  bool require_linear = false;

  /// Phase toggles (both on = 2PO; used by the optimizer-phase ablation,
  /// mirroring [IK90]'s comparison of II, SA, and 2PO).
  bool enable_ii = true;
  bool enable_sa = true;

  /// Memoize plan cost by canonical plan signature, so revisited neighbors
  /// (the II/SA search oscillates constantly) skip the analytic model.
  /// Purely an evaluation-speed knob: results are identical either way.
  bool enable_cost_cache = true;

  /// Server sites the search should avoid (crashed sites, during fault
  /// recovery). Plans depending on any of them take a large additive
  /// penalty -- applied outside the cost cache, so cached model costs stay
  /// fault-agnostic. A plan that cannot avoid these sites (e.g. QS with a
  /// single primary copy) still optimizes normally among penalized plans.
  std::vector<SiteId> unavailable_sites;

  // --- iterative improvement (II) ---------------------------------------
  /// Number of random starting plans. Starts are independent searches and
  /// run concurrently on the global thread pool (see DIMSUM_THREADS).
  int ii_starts = 10;
  /// A plan is declared a local minimum after this many consecutive
  /// non-improving random neighbors.
  int ii_patience = 48;

  // --- simulated annealing (SA) -----------------------------------------
  // The start temperature and its decay follow [IK90] (see Anneal).
  /// Moves attempted per temperature stage, per join in the query.
  int sa_stage_moves_per_join = 8;
  /// The system is frozen once the temperature falls below this fraction
  /// of its initial value and the best plan stopped improving.
  double sa_freeze_temp_ratio = 0.01;
  /// ... for this many consecutive stages.
  int sa_freeze_stages = 4;

  TransformConfig MakeTransformConfig() const {
    TransformConfig config;
    config.space = PolicySpace::For(policy);
    config.require_linear = require_linear;
    return config;
  }
};

/// Per-move-type search counters for one optimizer phase. A move is
/// *proposed* when the search draws a candidate (whether or not the
/// transformed plan is legal) and *accepted* when the search adopts the
/// neighbor (II: strict improvement; SA: the Metropolis criterion).
struct MoveTypeCounters {
  std::array<int64_t, kNumMoveTypes> proposed{};
  std::array<int64_t, kNumMoveTypes> accepted{};
  /// SA only: accepted moves that increased cost.
  int64_t uphill_accepted = 0;

  void Merge(const MoveTypeCounters& other) {
    for (int i = 0; i < kNumMoveTypes; ++i) {
      proposed[static_cast<std::size_t>(i)] +=
          other.proposed[static_cast<std::size_t>(i)];
      accepted[static_cast<std::size_t>(i)] +=
          other.accepted[static_cast<std::size_t>(i)];
    }
    uphill_accepted += other.uphill_accepted;
  }
  int64_t total_proposed() const {
    int64_t total = 0;
    for (const int64_t p : proposed) total += p;
    return total;
  }
  int64_t total_accepted() const {
    int64_t total = 0;
    for (const int64_t a : accepted) total += a;
    return total;
  }
  double AcceptanceRatio() const {
    const int64_t p = total_proposed();
    return p > 0 ? static_cast<double>(total_accepted()) /
                       static_cast<double>(p)
                 : 0.0;
  }
};

/// Result of an optimization run.
struct OptimizeResult {
  Plan plan;             // bound under the model's catalog, at home_client
  double cost = 0.0;     // in the units of the configured metric
  /// Plan-cost evaluations *requested* by the search, cache hits included
  /// (so the figure means the same thing with and without the cache).
  int plans_evaluated = 0;
  /// Cost-cache counters: `cache_misses` analytic-model runs were actually
  /// performed; hits + misses == plans_evaluated when the cache is on.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  /// Per-phase move counters (II starts merged in start-index order; SA
  /// over its single stream). Deterministic for any thread count.
  MoveTypeCounters ii_moves;
  MoveTypeCounters sa_moves;

  double CacheHitRate() const {
    const int64_t total = cache_hits + cache_misses;
    return total > 0 ? static_cast<double>(cache_hits) /
                           static_cast<double>(total)
                     : 0.0;
  }
};

/// Randomized two-phase query optimizer. Search space and cost metric are
/// set by the config; the policy restricts annotations per Table 1 so the
/// same machinery optimizes DS, QS, and HY plans.
///
/// Parallelism & determinism: the II starts (and SiteSelect restarts) run
/// concurrently on the global thread pool. Each start draws a child seed
/// from the caller's `Rng` *before* dispatch and searches with its own
/// stream; the winner is the (cost, start-index) minimum and the SA phase
/// runs on its own pre-derived stream, so the result — plan, cost, and
/// all counters — is bit-identical for any thread count.
class TwoPhaseOptimizer {
 public:
  TwoPhaseOptimizer(const CostModel& model, const OptimizerConfig& config)
      : model_(model), config_(config) {}

  /// Full optimization: join ordering and site selection.
  OptimizeResult Optimize(const QueryGraph& query, Rng& rng) const;

  /// Improves only the site annotations of `start` (join order kept),
  /// restarting from random annotation assignments. Used for the run-time
  /// phase of 2-step optimization, and for evaluating statically compiled
  /// join orders. `start` must be a legal plan for `query` in the
  /// configured policy space (and linear when required); check-fails
  /// otherwise.
  OptimizeResult SiteSelect(const Plan& start, const QueryGraph& query,
                            Rng& rng) const;

 private:
  /// Cost of `plan`, through `cache` when non-null; counts the request.
  /// May bind `plan`'s sites in place.
  double EvalCost(Plan& plan, const QueryGraph& query, CostCache* cache,
                  int* evaluations) const;
  /// Large additive penalty when the plan (bound in place for the query's
  /// home client) depends on any configured unavailable site, else 0.
  double UnavailablePenalty(Plan& plan, const QueryGraph& query) const;
  /// SA phase over a pre-derived stream; folds the accumulated II counters
  /// into the returned result.
  OptimizeResult Anneal(Plan start, double start_cost,
                        const QueryGraph& query,
                        const TransformConfig& transform, Rng& rng,
                        int evaluations, int64_t cache_hits,
                        int64_t cache_misses,
                        MoveTypeCounters ii_moves) const;
  /// Runs II on `plan` in place, which must be legal, until it is a local
  /// minimum; returns its cost. Move proposals/acceptances are accumulated
  /// into `*moves`; `sets` are the query's relation sets.
  double ImproveToLocalMin(Plan& plan, const QueryGraph& query,
                           const RelationSets& sets,
                           const TransformConfig& transform, Rng& rng,
                           int* evaluations, CostCache* cache,
                           MoveTypeCounters* moves) const;
  /// Binds the final plan's sites for the query's home client and
  /// assembles the result struct.
  OptimizeResult FinishResult(Plan plan, double cost, const QueryGraph& query,
                              int evaluations, int64_t cache_hits,
                              int64_t cache_misses) const;

  const CostModel& model_;
  OptimizerConfig config_;
};

/// Folds one optimization run's counters into `registry` under
/// "opt."-prefixed names: evaluation/cache totals, per-move-type
/// proposed/accepted counts for each phase, SA uphill acceptances, and
/// acceptance-ratio / cache-hit-rate gauges (averaged via Add; divide by
/// opt.runs for the mean).
void FoldOptimizeResult(const OptimizeResult& result,
                        MetricsRegistry& registry);

}  // namespace dimsum

#endif  // DIMSUM_OPT_OPTIMIZER_H_
