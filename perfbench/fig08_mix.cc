// fig08_mix: Figure 8 traffic. Every cycle runs one 10-way chain join per
// (server count, policy) pair -- the figure's server counts with DS, QS
// and HY in turn -- over relations placed at random on the servers. Each
// trial optimizes for response time at the figure harnesses' effort and
// then simulates the chosen plan, one query at a time. The optimizer
// takes most of a trial's wall, so a search, coster or cost-cache change
// shows here.

#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/system.h"
#include "opt/cost_cache.h"
#include "plan/transforms.h"
#include "workload/benchmark.h"

namespace dimsum::perfbench {
namespace {

constexpr int kServerCounts[] = {1, 2, 3, 4, 5, 6, 8, 10};
constexpr ShippingPolicy kPolicies[] = {ShippingPolicy::kDataShipping,
                                        ShippingPolicy::kQueryShipping,
                                        ShippingPolicy::kHybridShipping};
constexpr int kSlots = 24;  // server counts x policies
/// Cycles of distinct random placements built at set-up; later cycles
/// reuse them with fresh optimizer streams.
constexpr int kPlacementCycles = 8;
/// Moves per slot of the traced run's random walk.
constexpr int kWalkSteps = 200;
constexpr uint64_t kPlacementStream = 1;
constexpr uint64_t kTrialStream = 2;
constexpr uint64_t kWalkStream = 3;

/// The figure harnesses' search effort (HarnessOptimizer, bench/harness.h).
OptimizerConfig TrialEffort() {
  OptimizerConfig config;
  config.ii_starts = 12;
  config.ii_patience = 48;
  config.sa_stage_moves_per_join = 8;
  return config;
}

struct Trial {
  ClientServerSystem system;
  QueryGraph query;
  ShippingPolicy policy;
};

class Fig08Mix final : public Workload {
 public:
  explicit Fig08Mix(uint64_t seed) : seed_(seed) {}

  void Setup() override {
    trials_.reserve(kPlacementCycles * kSlots);
    for (int cycle = 0; cycle < kPlacementCycles; ++cycle) {
      for (int slot = 0; slot < kSlots; ++slot) {
        WorkloadSpec spec;
        spec.num_relations = 10;
        spec.num_servers = kServerCounts[slot / 3];
        Rng rng(DeriveSeed(seed_, kPlacementStream, cycle, slot));
        BenchmarkWorkload workload = MakeChainWorkload(spec, rng);
        SystemConfig config;
        config.num_servers = spec.num_servers;
        config.params.buf_alloc = BufAlloc::kMinimum;
        trials_.push_back(
            Trial{ClientServerSystem(std::move(workload.catalog), config),
                  std::move(workload.query), kPolicies[slot % 3]});
      }
    }
  }

  void Teardown() override { std::vector<Trial>().swap(trials_); }

  CycleResult RunCycle(int index) override {
    const OptimizerConfig effort = TrialEffort();
    CycleResult out;
    Digest digest;
    for (int slot = 0; slot < kSlots; ++slot) {
      const Trial& trial = trials_[static_cast<std::size_t>(
          (index % kPlacementCycles) * kSlots + slot)];
      const uint64_t seed = DeriveSeed(seed_, kTrialStream, index, slot);
      const double cpu_start = CpuSeconds();
      ScopedSpan span("trial", static_cast<int64_t>(index) * kSlots + slot);
      Rng rng(seed);
      OptimizeResult opt;
      {
        ScopedSpan call("Optimize");
        opt = trial.system.Optimize(trial.query, trial.policy,
                                    OptimizeMetric::kResponseTime, rng,
                                    &effort);
      }
      ExecMetrics exec;
      {
        ScopedSpan call("ExecutePlan");
        exec = trial.system.Execute(opt.plan, trial.query, seed);
      }
      out.trial_ms.push_back((CpuSeconds() - cpu_start) * 1e3);
      if (Tracing()) tally_.Add(opt);
      ++out.attempted;
      ++out.completed;
      if (!TrialOutputOk(opt.cost, exec.response_ms)) ++out.failed;
      digest.AddDouble(opt.cost);
      digest.AddDouble(exec.response_ms);
      digest.AddInt(exec.data_pages_sent);
    }
    out.digest = digest.value();
    return out;
  }

  void ResetTally() override { tally_ = OptimizerTally{}; }

  bool Replay(const Traces& traces, uint64_t cycle0_digest,
              LayerValues& out) override {
    // The counting run's Optimize calls, on a pool of one thread.
    double search_ms = 0.0;
    for (const double ms : traces.count.DurationsMs("Optimize")) {
      search_ms += ms;
    }
    tally_.Report(search_ms, out);

    // The search's inner calls one at a time: a seeded random walk over
    // each slot's plan space that signs and costs every plan it visits.
    bool ok = true;
    for (int slot = 0; slot < kSlots; ++slot) {
      const Trial& trial = trials_[static_cast<std::size_t>(slot)];
      OptimizerConfig space;
      space.policy = trial.policy;
      const TransformConfig transform = space.MakeTransformConfig();
      const CostModel model = trial.system.MakeCostModel();
      Rng rng(DeriveSeed(seed_, kWalkStream, slot));
      Plan plan = RandomPlan(trial.query, transform, rng);
      for (int step = 0; step < kWalkSteps; ++step) {
        std::optional<Plan> next;
        {
          ScopedSpan call("TryRandomMove");
          next = TryRandomMove(plan, trial.query, transform, rng);
        }
        if (next.has_value()) plan = std::move(*next);
        std::string signature;
        {
          ScopedSpan call("PlanSignature");
          signature = PlanSignature(plan);
        }
        double cost = 0.0;
        {
          ScopedSpan call("PlanCost");
          cost = model.PlanCost(plan, trial.query,
                                OptimizeMetric::kResponseTime);
        }
        ok = ok && !signature.empty() && std::isfinite(cost) && cost > 0.0;
      }
    }
    const double plan_cost_us =
        Quantile(traces.replay.DurationsMs("PlanCost"), 0.5) * 1e3;
    // Each cache miss of the search is one cost-model run.
    out["cost.share_of_optimize"] = Ratio(
        static_cast<double>(tally_.misses) * plan_cost_us / 1e3, search_ms);

    return ComparePoolSizes(*this, cycle0_digest, out) && ok;
  }

 private:
  uint64_t seed_;
  std::vector<Trial> trials_;
  OptimizerTally tally_;
};

}  // namespace

std::unique_ptr<Workload> MakeFig08Mix(uint64_t seed) {
  return std::make_unique<Fig08Mix>(seed);
}

}  // namespace dimsum::perfbench
