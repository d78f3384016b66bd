#include "opt/optimizer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "plan/binding.h"

namespace dimsum {
namespace {

/// Additive cost for plans touching an unavailable site. Far beyond any
/// model cost, so available plans always win, yet finite so the search
/// still ranks plans when no available one exists.
constexpr double kUnavailableSitePenalty = 1e15;

/// Draws one move and applies it to `plan` in place, counting it as
/// proposed. Returns the move when the moved plan is legal, for the caller
/// to keep or undo; an illegal move is undone and nullopt returned. Debug
/// builds confirm each legal verdict with the full PlanIsLegal.
std::optional<AppliedMove> ProposeMove(Plan& plan,
                                       [[maybe_unused]] const QueryGraph& query,
                                       const RelationSets& sets,
                                       const TransformConfig& transform,
                                       Rng& rng, MoveTypeCounters* moves) {
  std::optional<AppliedMove> move = ApplyRandomMove(plan, transform, rng);
  if (!move.has_value()) return std::nullopt;
  ++moves->proposed[static_cast<std::size_t>(move->type)];
  if (!MoveIsLegal(*move, sets, transform)) {
    UndoMove(*move);
    return std::nullopt;
  }
#ifndef NDEBUG
  DIMSUM_CHECK(PlanIsLegal(plan, query, transform))
      << "the local legality check passed an illegal "
      << MoveTypeName(move->type) << " move";
#endif
  return move;
}

}  // namespace

double TwoPhaseOptimizer::UnavailablePenalty(Plan& plan,
                                             const QueryGraph& query) const {
  // Nothing reads bound sites mid-search (a cost-cache miss rebinds, a
  // hit reads none, FinishResult rebinds the winner), so bind in place.
  BindSites(plan, model_.catalog(), query.home_client);
  const std::vector<SiteId> needed =
      BoundServerSites(plan, model_.catalog(), model_.params().page_bytes);
  for (const SiteId site : needed) {
    if (std::find(config_.unavailable_sites.begin(),
                  config_.unavailable_sites.end(),
                  site) != config_.unavailable_sites.end()) {
      return kUnavailableSitePenalty;
    }
  }
  return 0.0;
}

double TwoPhaseOptimizer::EvalCost(Plan& plan, const QueryGraph& query,
                                   CostCache* cache, int* evaluations) const {
  ++*evaluations;
  double cost = cache != nullptr
                    ? cache->Cost(model_, plan, query, config_.metric)
                    : model_.PlanCost(plan, query, config_.metric);
  // Outside the cache on purpose: the cache memoizes the fault-agnostic
  // model cost, so schedules with different crashed sites share entries.
  if (!config_.unavailable_sites.empty()) {
    cost += UnavailablePenalty(plan, query);
  }
  return cost;
}

OptimizeResult TwoPhaseOptimizer::FinishResult(Plan plan, double cost,
                                               const QueryGraph& query,
                                               int evaluations,
                                               int64_t cache_hits,
                                               int64_t cache_misses) const {
  // The winning plan may have last been costed through the cache (no site
  // binding) or cloned mid-search; bind it under the model's catalog for
  // the query's home client, which every cost in the search assumed, so
  // the returned plan is executable as costed. Binding is deterministic
  // and is not a cost evaluation.
  BindSites(plan, model_.catalog(), query.home_client);
  OptimizeResult result;
  result.plan = std::move(plan);
  result.cost = cost;
  result.plans_evaluated = evaluations;
  result.cache_hits = cache_hits;
  result.cache_misses = cache_misses;
  return result;
}

double TwoPhaseOptimizer::ImproveToLocalMin(
    Plan& plan, const QueryGraph& query, const RelationSets& sets,
    const TransformConfig& transform, Rng& rng, int* evaluations,
    CostCache* cache, MoveTypeCounters* moves) const {
  double cost = EvalCost(plan, query, cache, evaluations);
  int failures = 0;
  while (failures < config_.ii_patience) {
    const std::optional<AppliedMove> move =
        ProposeMove(plan, query, sets, transform, rng, moves);
    if (!move.has_value()) {
      ++failures;
      continue;
    }
    const double neighbor_cost = EvalCost(plan, query, cache, evaluations);
    if (neighbor_cost < cost) {
      ++moves->accepted[static_cast<std::size_t>(move->type)];
      cost = neighbor_cost;
      failures = 0;
    } else {
      UndoMove(*move);
      ++failures;
    }
  }
  return cost;
}

OptimizeResult TwoPhaseOptimizer::Anneal(Plan start, double start_cost,
                                         const QueryGraph& query,
                                         const TransformConfig& transform,
                                         Rng& rng, int evaluations,
                                         int64_t cache_hits,
                                         int64_t cache_misses,
                                         MoveTypeCounters ii_moves) const {
  MoveTypeCounters sa_moves;
  CostCache sa_cache;
  CostCache* cache = config_.enable_cost_cache ? &sa_cache : nullptr;
  // The start plan's exact cost is known from II; seed the cache so
  // revisiting it is a hit rather than a model re-run.
  if (cache != nullptr) cache->InsertPlan(start, config_.metric, start_cost);

  const RelationSets sets(query);
  Plan best = start.Clone();
  double best_cost = start_cost;
  Plan current = std::move(start);
  double current_cost = start_cost;

  // [IK90]'s 2PO schedule: a low start temperature, a tenth of the II
  // result's cost, decaying by 0.9 per stage.
  constexpr double kInitialTempFactor = 0.1;
  constexpr double kTempDecay = 0.9;
  const int joins = std::max(1, query.num_relations() - 1);
  const int stage_moves = config_.sa_stage_moves_per_join * joins;
  double temperature = std::max(kInitialTempFactor * start_cost, 1e-9);
  const double freeze_temp = temperature * config_.sa_freeze_temp_ratio;
  int stages_without_improvement = 0;

  while (true) {
    bool improved = false;
    for (int i = 0; i < stage_moves; ++i) {
      const std::optional<AppliedMove> move =
          ProposeMove(current, query, sets, transform, rng, &sa_moves);
      if (!move.has_value()) continue;
      const double neighbor_cost =
          EvalCost(current, query, cache, &evaluations);
      const double delta = neighbor_cost - current_cost;
      if (delta <= 0.0 ||
          rng.NextDouble() < std::exp(-delta / temperature)) {
        ++sa_moves.accepted[static_cast<std::size_t>(move->type)];
        if (delta > 0.0) ++sa_moves.uphill_accepted;
        current_cost = neighbor_cost;
        if (current_cost < best_cost) {
          best = current.Clone();
          best_cost = current_cost;
          improved = true;
        }
      } else {
        UndoMove(*move);
      }
    }
    temperature *= kTempDecay;
    stages_without_improvement = improved ? 0 : stages_without_improvement + 1;
    if (temperature < freeze_temp &&
        stages_without_improvement >= config_.sa_freeze_stages) {
      break;
    }
  }
  // `best_cost` is exact (every accepted plan was costed when visited), so
  // the epilogue does not re-cost — re-costing would either skew the
  // evaluation count or go uncounted.
  OptimizeResult result =
      FinishResult(std::move(best), best_cost, query, evaluations,
                   cache_hits + (cache ? cache->hits() : 0),
                   cache_misses + (cache ? cache->misses() : 0));
  result.ii_moves = ii_moves;
  result.sa_moves = sa_moves;
  return result;
}

OptimizeResult TwoPhaseOptimizer::Optimize(const QueryGraph& query,
                                           Rng& rng) const {
  TransformConfig transform = config_.MakeTransformConfig();
  transform.catalog = &model_.catalog();
  const int starts = config_.enable_ii ? config_.ii_starts : 1;

  // Derive every random stream from the caller's generator *before*
  // dispatch: each II start searches on its own child stream and the SA
  // phase on another, so thread scheduling cannot perturb any sequence.
  std::vector<uint64_t> start_seeds(static_cast<std::size_t>(starts));
  for (uint64_t& seed : start_seeds) seed = rng.NextU64();
  const uint64_t sa_seed = rng.NextU64();

  struct StartOutcome {
    Plan plan;
    double cost = 0.0;
    MoveTypeCounters moves;
  };
  std::vector<StartOutcome> outcomes(static_cast<std::size_t>(starts));
  std::atomic<int> evaluations{0};
  std::atomic<int64_t> cache_hits{0};
  std::atomic<int64_t> cache_misses{0};

  GlobalThreadPool().ParallelFor(starts, [&](int i) {
    Rng local(start_seeds[static_cast<std::size_t>(i)]);
    CostCache start_cache;
    CostCache* cache = config_.enable_cost_cache ? &start_cache : nullptr;
    int local_evals = 0;
    auto& out = outcomes[static_cast<std::size_t>(i)];
    // RandomPlan checks its plan with the full PlanIsLegal.
    out.plan = RandomPlan(query, transform, local);
    out.cost = config_.enable_ii
                   ? ImproveToLocalMin(out.plan, query, RelationSets(query),
                                       transform, local, &local_evals, cache,
                                       &out.moves)
                   : EvalCost(out.plan, query, cache, &local_evals);
    evaluations.fetch_add(local_evals, std::memory_order_relaxed);
    if (cache != nullptr) {
      cache_hits.fetch_add(cache->hits(), std::memory_order_relaxed);
      cache_misses.fetch_add(cache->misses(), std::memory_order_relaxed);
    }
  });

  // Fold each start's counters in start-index order (sums are commutative,
  // but the fixed order keeps any future extension deterministic too).
  MoveTypeCounters ii_moves;
  for (const StartOutcome& out : outcomes) ii_moves.Merge(out.moves);

  // Winner by (cost, start-index): strict `<` keeps the lowest index on
  // ties, independent of which thread finished first.
  int best_index = 0;
  for (int i = 1; i < starts; ++i) {
    if (outcomes[static_cast<std::size_t>(i)].cost <
        outcomes[static_cast<std::size_t>(best_index)].cost) {
      best_index = i;
    }
  }
  Plan best = std::move(outcomes[static_cast<std::size_t>(best_index)].plan);
  const double best_cost = outcomes[static_cast<std::size_t>(best_index)].cost;

  if (!config_.enable_sa) {
    OptimizeResult result =
        FinishResult(std::move(best), best_cost, query, evaluations.load(),
                     cache_hits.load(), cache_misses.load());
    result.ii_moves = ii_moves;
    return result;
  }
  Rng sa_rng(sa_seed);
  return Anneal(std::move(best), best_cost, query, transform, sa_rng,
                evaluations.load(), cache_hits.load(), cache_misses.load(),
                ii_moves);
}

OptimizeResult TwoPhaseOptimizer::SiteSelect(const Plan& start,
                                             const QueryGraph& query,
                                             Rng& rng) const {
  DIMSUM_CHECK(!start.empty());
  TransformConfig transform = config_.MakeTransformConfig();
  transform.catalog = &model_.catalog();
  transform.join_order_moves = false;
  const int attempts = config_.ii_starts;

  std::vector<uint64_t> attempt_seeds(static_cast<std::size_t>(attempts));
  for (uint64_t& seed : attempt_seeds) seed = rng.NextU64();
  const uint64_t sa_seed = rng.NextU64();

  struct AttemptOutcome {
    Plan plan;
    double cost = 0.0;
    MoveTypeCounters moves;
  };
  std::vector<AttemptOutcome> outcomes(static_cast<std::size_t>(attempts));
  std::atomic<int> evaluations{0};
  std::atomic<int64_t> cache_hits{0};
  std::atomic<int64_t> cache_misses{0};

  GlobalThreadPool().ParallelFor(attempts, [&](int i) {
    Rng local(attempt_seeds[static_cast<std::size_t>(i)]);
    CostCache attempt_cache;
    CostCache* cache = config_.enable_cost_cache ? &attempt_cache : nullptr;
    int local_evals = 0;
    auto& out = outcomes[static_cast<std::size_t>(i)];
    out.plan = start.Clone();
    // Attempt 0 refines the caller's annotations; later attempts restart
    // from random annotation assignments.
    if (i > 0) RandomizeAnnotations(out.plan, transform, local);
    // Moves are checked locally, which is exact only from a legal plan.
    DIMSUM_CHECK(PlanIsLegal(out.plan, query, transform))
        << "site selection needs a start plan legal in its search space";
    out.cost = ImproveToLocalMin(out.plan, query, RelationSets(query),
                                 transform, local, &local_evals, cache,
                                 &out.moves);
    evaluations.fetch_add(local_evals, std::memory_order_relaxed);
    if (cache != nullptr) {
      cache_hits.fetch_add(cache->hits(), std::memory_order_relaxed);
      cache_misses.fetch_add(cache->misses(), std::memory_order_relaxed);
    }
  });

  MoveTypeCounters ii_moves;
  for (const AttemptOutcome& out : outcomes) ii_moves.Merge(out.moves);

  int best_index = 0;
  for (int i = 1; i < attempts; ++i) {
    if (outcomes[static_cast<std::size_t>(i)].cost <
        outcomes[static_cast<std::size_t>(best_index)].cost) {
      best_index = i;
    }
  }
  Plan best = std::move(outcomes[static_cast<std::size_t>(best_index)].plan);
  const double best_cost = outcomes[static_cast<std::size_t>(best_index)].cost;

  Rng sa_rng(sa_seed);
  return Anneal(std::move(best), best_cost, query, transform, sa_rng,
                evaluations.load(), cache_hits.load(), cache_misses.load(),
                ii_moves);
}

void FoldOptimizeResult(const OptimizeResult& result,
                        MetricsRegistry& registry) {
  registry.counter("opt.runs").Add(1);
  registry.counter("opt.plans_evaluated").Add(result.plans_evaluated);
  registry.counter("opt.cache_hits").Add(result.cache_hits);
  registry.counter("opt.cache_misses").Add(result.cache_misses);
  registry.gauge("opt.cache_hit_rate").Add(result.CacheHitRate());
  const auto fold_phase = [&registry](const std::string& phase,
                                      const MoveTypeCounters& moves) {
    for (int i = 0; i < kNumMoveTypes; ++i) {
      const std::string name = MoveTypeName(static_cast<MoveType>(i));
      registry.counter("opt." + phase + ".proposed." + name)
          .Add(moves.proposed[static_cast<std::size_t>(i)]);
      registry.counter("opt." + phase + ".accepted." + name)
          .Add(moves.accepted[static_cast<std::size_t>(i)]);
    }
    registry.gauge("opt." + phase + ".acceptance_ratio")
        .Add(moves.AcceptanceRatio());
  };
  fold_phase("ii", result.ii_moves);
  fold_phase("sa", result.sa_moves);
  registry.counter("opt.sa.uphill_accepted").Add(result.sa_moves.uphill_accepted);
}

}  // namespace dimsum
