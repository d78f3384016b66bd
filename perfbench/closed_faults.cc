// closed_faults: ext_faults traffic, scaled up. Closed-loop clients with
// exponential think time re-issue a 2-way join against the one server,
// which is down at t=0 and then crashes on a renewal MTBF/MTTR schedule.
// Half the clients are cold QS clients that retry with backoff; the other
// half are warm HY clients whose 2-step re-optimization moves the plan
// onto their cache. No other workload runs RunClosedLoop, the fault layer
// or TwoStepSiteSelection.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "cost/cost_model.h"
#include "opt/two_step.h"
#include "plan/binding.h"
#include "plan/plan.h"
#include "sim/fault.h"

namespace dimsum::perfbench {
namespace {

constexpr int kQsClients = 32;
constexpr int kHyClients = 32;
constexpr int kClients = kQsClients + kHyClients;
constexpr int kQueriesPerClient = 10;
constexpr double kThinkMs = 2000.0;
constexpr int64_t kOutageMs = 3000;
constexpr int64_t kMtbfMs = 10000;
constexpr int64_t kMttrMs = 5000;
constexpr uint64_t kCrashStream = 5;
constexpr uint64_t kThinkStream = 6;
constexpr uint64_t kSelectStream = 7;

bool IsHy(int client) { return client >= kQsClients; }

struct Inputs {
  Catalog catalog{kClients};
  SystemConfig config;
  sim::FaultSchedule faults;
  /// Re-optimization's view of the catalog (HY clients only).
  std::unique_ptr<CostModel> model;
  OptimizerConfig reopt;
  std::vector<Plan> plans;
  std::vector<QueryGraph> queries;
  std::vector<ClientWorkload> clients;
};

class ClosedFaults final : public Workload {
 public:
  explicit ClosedFaults(uint64_t seed) : seed_(seed) {}

  void Setup() override {
    auto in = std::make_unique<Inputs>();
    const SiteId server = ServerSite(0, kClients);
    for (int r = 0; r < 2; ++r) {
      in->catalog.AddRelation("R" + std::to_string(r), 10000, 100);
      in->catalog.PlaceRelation(r, server);
      for (int c = 0; c < kClients; ++c) {
        in->catalog.SetCachedFraction(r, ClientSite(c), IsHy(c) ? 1.0 : 0.0);
      }
    }
    in->config.num_clients = kClients;
    in->config.num_servers = 1;
    in->config.params.buf_alloc = BufAlloc::kMaximum;
    // The outage at the first submission instant makes every client take
    // the retry or re-optimization path; the renewal process adds more.
    const std::string site = "crash:site=" + std::to_string(server);
    in->faults = sim::ParseFaultSpec(
        site + ",at=0,for=" + std::to_string(kOutageMs) + ";" + site +
        ",mtbf=" + std::to_string(kMtbfMs) +
        ",mttr=" + std::to_string(kMttrMs) + ",seed=" +
        std::to_string(DeriveSeed(seed_, kCrashStream) % 1000000007));
    in->config.faults = &in->faults;
    in->model = std::make_unique<CostModel>(in->catalog, in->config.params);
    in->reopt.policy = ShippingPolicy::kHybridShipping;
    in->reopt.metric = OptimizeMetric::kResponseTime;
    in->reopt.ii_starts = 4;
    in->plans.reserve(kClients);
    in->queries.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      in->queries.push_back(QueryGraph::Chain({0, 1}));
      in->queries.back().home_client = ClientSite(c);
      // Both halves run the compiled server-side join until a crash.
      in->plans.emplace_back(
          MakeDisplay(MakeJoin(MakeScan(0, SiteAnnotation::kPrimaryCopy),
                               MakeScan(1, SiteAnnotation::kPrimaryCopy),
                               SiteAnnotation::kInnerRel)));
      ScopedSpan call("BindSites", c);
      BindSites(in->plans.back(), in->catalog, ClientSite(c));
    }
    for (int c = 0; c < kClients; ++c) {
      ClientWorkload work{&in->plans[static_cast<std::size_t>(c)],
                          &in->queries[static_cast<std::size_t>(c)]};
      if (IsHy(c)) {
        work.reopt_model = in->model.get();
        work.reopt_config = &in->reopt;
      }
      in->clients.push_back(work);
    }
    inputs_ = std::move(in);
  }

  void Teardown() override { inputs_.reset(); }

  CycleResult RunCycle(int index) override {
    const Inputs& in = *inputs_;
    DriverConfig driver;
    driver.queries_per_client = kQueriesPerClient;
    driver.think_time_mean_ms = kThinkMs;
    driver.warmup_queries = kClients;
    driver.num_batches = 6;
    driver.seed = DeriveSeed(seed_, kThinkStream, index);
    driver.retry.reoptimize = true;
    DriverResult result;
    {
      ScopedSpan call("RunClosedLoop", index);
      result = RunClosedLoop(in.clients, in.catalog, in.config, driver);
    }
    CycleResult out;
    out.attempted = static_cast<int64_t>(kClients) * kQueriesPerClient;
    out.completed = static_cast<int64_t>(result.completions.size());
    Digest digest;
    int64_t failed = 0;
    for (const Completion& c : result.completions) {
      if (!(std::isfinite(c.complete_ms) && c.complete_ms > c.submit_ms)) {
        ++failed;
      }
      digest.AddInt(c.ticket);
      digest.AddInt(c.client);
      digest.AddDouble(c.submit_ms);
      digest.AddDouble(c.complete_ms);
    }
    for (const ExecMetrics& metrics : result.per_query) {
      digest.AddDouble(metrics.response_ms);
      digest.AddInt(metrics.data_pages_sent);
    }
    digest.AddInt(result.total_retries);
    digest.AddInt(result.total_reopts);
    digest.AddInt(result.totals.crashes);
    digest.AddDouble(result.totals.crash_downtime_ms);
    out.failed =
        ClosedLoopAccountingOk(result, kClients, kQueriesPerClient)
            ? std::min(failed, out.attempted)
            : out.attempted;
    out.digest = digest.value();
    if (Tracing()) {
      tally_.completions += out.completed;
      tally_.retries += result.total_retries;
      tally_.reopts += result.total_reopts;
    }
    return out;
  }

  void ResetTally() override { tally_ = Tally{}; }

  bool Replay(const Traces& traces, uint64_t cycle0_digest,
              LayerValues& out) override {
    out["workload.retries"] = static_cast<double>(tally_.retries);
    out["workload.reopts"] = static_cast<double>(tally_.reopts);
    // RunClosedLoop's abort rate: aborted submission attempts over
    // completions plus aborted attempts.
    out["workload.abort_ratio"] =
        Ratio(static_cast<double>(tally_.retries),
              static_cast<double>(tally_.completions + tally_.retries));

    // 2-step site selection as recovery runs it: each HY client's plan
    // with the crashed server marked unavailable.
    const Inputs& in = *inputs_;
    OptimizerConfig config = in.reopt;
    config.unavailable_sites = {ServerSite(0, kClients)};
    OptimizerTally selected;
    bool ok = true;
    for (int c = kQsClients; c < kClients; ++c) {
      Rng rng(DeriveSeed(seed_, kSelectStream, c));
      OptimizeResult result;
      {
        ScopedSpan call("TwoStepSiteSelection", c);
        result = TwoStepSiteSelection(
            *in.model, in.plans[static_cast<std::size_t>(c)],
            in.queries[static_cast<std::size_t>(c)], config, rng);
      }
      selected.Add(result);
      ok = ok && std::isfinite(result.cost) && result.cost > 0.0;
    }
    double select_ms = 0.0;
    for (const double ms : traces.replay.DurationsMs("TwoStepSiteSelection")) {
      select_ms += ms;
    }
    selected.Report(select_ms, out);
    // Re-optimization runs on the global pool.
    return ComparePoolSizes(*this, cycle0_digest, out) && ok;
  }

 private:
  struct Tally {
    int64_t completions = 0;
    int64_t retries = 0;
    int64_t reopts = 0;
  };

  uint64_t seed_;
  std::unique_ptr<Inputs> inputs_;
  Tally tally_;
};

}  // namespace

std::unique_ptr<Workload> MakeClosedFaults(uint64_t seed) {
  return std::make_unique<ClosedFaults>(seed);
}

}  // namespace dimsum::perfbench
