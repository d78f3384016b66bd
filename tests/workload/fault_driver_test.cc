#include "workload/driver.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "cost/cost_model.h"
#include "opt/cost_cache.h"
#include "opt/optimizer.h"
#include "plan/binding.h"
#include "plan/plan.h"
#include "sim/fault.h"

namespace dimsum {
namespace {

constexpr int kClients = 2;

/// One-server catalog with two 250-page relations and M clients.
Catalog TwoRelationCatalog(double cached) {
  Catalog catalog(kClients);
  for (int i = 0; i < 2; ++i) {
    catalog.AddRelation("R" + std::to_string(i), 10000, 100);
    catalog.PlaceRelation(i, ServerSite(0, kClients));
    for (int c = 0; c < kClients; ++c) {
      catalog.SetCachedFraction(i, ClientSite(c), cached);
    }
  }
  return catalog;
}

Plan ServerJoin() {
  return Plan(MakeDisplay(MakeJoin(MakeScan(0, SiteAnnotation::kPrimaryCopy),
                                   MakeScan(1, SiteAnnotation::kPrimaryCopy),
                                   SiteAnnotation::kInnerRel)));
}

Plan ClientJoin() {
  return Plan(MakeDisplay(MakeJoin(MakeScan(0, SiteAnnotation::kClient),
                                   MakeScan(1, SiteAnnotation::kClient),
                                   SiteAnnotation::kConsumer)));
}

/// Fault schedule of every test: the server is down at the first
/// submission instant (guaranteeing the detection path runs) and crashes
/// again under a seeded renewal process.
std::string CrashSpec() {
  const std::string site = std::to_string(ServerSite(0, kClients));
  return "crash:site=" + site + ",at=0,for=2000;crash:site=" + site +
         ",mtbf=8000,mttr=2000,seed=7";
}

struct FaultRun {
  Catalog catalog;
  SystemConfig config;
  sim::FaultSchedule faults;
  CostModel model;
  OptimizerConfig reopt;
  std::vector<Plan> plans;
  std::vector<QueryGraph> queries;
  std::vector<ClientWorkload> clients;
  DriverConfig driver;

  FaultRun(bool warm_cache, bool server_plan, bool reoptimize,
           const std::string& spec)
      : catalog(TwoRelationCatalog(warm_cache ? 1.0 : 0.0)),
        model(catalog, config.params) {
    config.num_clients = kClients;
    config.num_servers = 1;
    config.params.buf_alloc = BufAlloc::kMaximum;
    if (!spec.empty()) {
      faults = sim::ParseFaultSpec(spec);
      config.faults = &faults;
    }
    reopt.policy = ShippingPolicy::kHybridShipping;
    reopt.ii_starts = 4;
    plans.reserve(kClients);
    queries.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      queries.push_back(QueryGraph::Chain({0, 1}));
      queries.back().home_client = ClientSite(c);
      plans.push_back(server_plan ? ServerJoin() : ClientJoin());
      BindSites(plans.back(), catalog, ClientSite(c));
    }
    for (int c = 0; c < kClients; ++c) {
      ClientWorkload work{&plans[c], &queries[c]};
      if (reoptimize) {
        work.reopt_model = &model;
        work.reopt_config = &reopt;
      }
      clients.push_back(work);
    }
    driver.queries_per_client = 3;
    driver.think_time_mean_ms = 1000.0;
    driver.warmup_queries = 0;
    driver.seed = 42;
    driver.retry.reoptimize = reoptimize;
  }

  DriverResult Run() { return RunClosedLoop(clients, catalog, config, driver); }
};

TEST(FaultDriverTest, HealthyRunHasZeroFaultFields) {
  FaultRun run(/*warm_cache=*/false, /*server_plan=*/true,
               /*reoptimize=*/false, /*spec=*/"");
  const DriverResult result = run.Run();
  EXPECT_EQ(result.total_retries, 0);
  EXPECT_EQ(result.total_reopts, 0);
  EXPECT_EQ(result.abort_rate, 0.0);
  EXPECT_EQ(result.fault_stall_ms, 0.0);
  EXPECT_EQ(result.retransmits, 0);
  EXPECT_EQ(result.totals.crashes, 0);
  EXPECT_EQ(result.totals.crash_downtime_ms, 0.0);
  EXPECT_EQ(result.healthy_response_ms.count(), 0);
  EXPECT_EQ(result.degraded_response_ms.count(), 0);
  for (const int retries : result.retries_per_query) EXPECT_EQ(retries, 0);
}

TEST(FaultDriverTest, RetryBookkeepingIsConsistent) {
  FaultRun run(/*warm_cache=*/false, /*server_plan=*/true,
               /*reoptimize=*/false, CrashSpec());
  const DriverResult result = run.Run();
  // The t=0 outage forces at least one aborted attempt per client.
  EXPECT_GT(result.total_retries, 0);
  int64_t sum = 0;
  for (const int retries : result.retries_per_query) sum += retries;
  EXPECT_EQ(sum, result.total_retries);
  EXPECT_GT(result.abort_rate, 0.0);
  EXPECT_LT(result.abort_rate, 1.0);
  EXPECT_GT(result.totals.crashes, 0);
  EXPECT_GT(result.totals.crash_downtime_ms, 0.0);
  // Healthy + degraded partition the measured completions.
  EXPECT_EQ(result.healthy_response_ms.count() +
                result.degraded_response_ms.count(),
            result.measured);
  // A query arrives when its client issues it; only aborted attempts
  // separate the arrival from the submission.
  for (const Completion& c : result.completions) {
    EXPECT_LE(c.arrival_ms, c.submit_ms);
    EXPECT_EQ(c.arrival_ms == c.submit_ms,
              result.retries_per_query[c.ticket] == 0)
        << "ticket " << c.ticket;
  }
}

TEST(FaultDriverTest, ReplannedQueriesAreAttributedToThePlanTheyRan) {
  // The server is down for the whole run, so every client re-plans its
  // server join onto its warm cache and never touches the server. The
  // query log and the bottleneck must describe those client plans.
  const SiteId server = ServerSite(0, kClients);
  FaultRun run(/*warm_cache=*/true, /*server_plan=*/true,
               /*reoptimize=*/true,
               "crash:site=" + std::to_string(server) + ",at=0,for=100000");
  run.config.collect_operator_actuals = true;
  run.driver.collect_query_log = true;
  const DriverResult result = run.Run();
  ASSERT_GE(result.total_reopts, 1);

  ASSERT_EQ(result.query_log.size(), result.completions.size());
  for (const QueryLogRecord& record : result.query_log) {
    const Plan& compiled = run.plans[record.client];  // client c is site c
    EXPECT_NE(record.plan_signature, HashPlanSignature(PlanSignature(compiled)))
        << "ticket " << record.ticket;
    for (const SiteId site : record.fanout) {
      EXPECT_NE(site, server) << "ticket " << record.ticket;
    }
  }
  EXPECT_EQ(result.bottleneck.queries,
            static_cast<int>(result.completions.size()));
  ASSERT_FALSE(result.bottleneck.empty());
  for (const BottleneckBucket& bucket : result.bottleneck.buckets) {
    EXPECT_GE(bucket.site, 0) << ToString(bucket.resource);
    EXPECT_LT(bucket.site, kClients) << ToString(bucket.resource);
  }
}

TEST(FaultDriverTest, ShippingPoliciesDegradeAsThePaperPredicts) {
  // Query shipping funnels everything through the crashed server; data
  // shipping with warm caches never touches it; hybrid with run-time
  // re-optimization flips to the clients after the first detection.
  FaultRun qs(/*warm_cache=*/false, /*server_plan=*/true,
              /*reoptimize=*/false, CrashSpec());
  FaultRun ds(/*warm_cache=*/true, /*server_plan=*/false,
              /*reoptimize=*/false, CrashSpec());
  FaultRun hy(/*warm_cache=*/true, /*server_plan=*/true,
              /*reoptimize=*/true, CrashSpec());
  const DriverResult qs_result = qs.Run();
  const DriverResult ds_result = ds.Run();
  const DriverResult hy_result = hy.Run();

  EXPECT_GT(qs_result.total_retries, 0);
  EXPECT_GT(qs_result.fault_stall_ms + qs_result.total_retries, 0.0);
  EXPECT_EQ(ds_result.total_retries, 0);   // plan needs no server site
  EXPECT_GE(hy_result.total_reopts, 1);    // flipped to the clients
  EXPECT_GE(ds_result.throughput_qps, qs_result.throughput_qps);
  EXPECT_GE(hy_result.throughput_qps, qs_result.throughput_qps);
  // Post-flip, hybrid runs client-side: no stalls on later queries.
  EXPECT_LT(hy_result.mean_response_ms, qs_result.mean_response_ms);
}

TEST(FaultDriverTest, FaultedRunIsBitIdenticalAcrossHostThreadCounts) {
  // The recovery path calls the parallel re-optimizer from inside the
  // simulation; its determinism guarantee (pre-derived per-start seeds)
  // must carry through to the whole faulted run.
  const int original_threads = GlobalThreadPool().thread_count();
  SetGlobalThreadCount(1);
  FaultRun run_a(/*warm_cache=*/true, /*server_plan=*/true,
                 /*reoptimize=*/true, CrashSpec());
  const DriverResult a = run_a.Run();
  SetGlobalThreadCount(4);
  FaultRun run_b(/*warm_cache=*/true, /*server_plan=*/true,
                 /*reoptimize=*/true, CrashSpec());
  const DriverResult b = run_b.Run();
  SetGlobalThreadCount(original_threads);

  ASSERT_EQ(a.completions.size(), b.completions.size());
  for (std::size_t i = 0; i < a.completions.size(); ++i) {
    EXPECT_EQ(a.completions[i].ticket, b.completions[i].ticket);
    EXPECT_EQ(a.completions[i].submit_ms, b.completions[i].submit_ms);
    EXPECT_EQ(a.completions[i].complete_ms, b.completions[i].complete_ms);
  }
  EXPECT_EQ(a.total_retries, b.total_retries);
  EXPECT_EQ(a.total_reopts, b.total_reopts);
  EXPECT_EQ(a.retries_per_query, b.retries_per_query);
  EXPECT_EQ(a.mean_response_ms, b.mean_response_ms);  // bitwise
  EXPECT_EQ(a.fault_stall_ms, b.fault_stall_ms);
  EXPECT_EQ(a.totals.bytes_sent, b.totals.bytes_sent);
  EXPECT_EQ(a.totals.crash_downtime_ms, b.totals.crash_downtime_ms);
}

}  // namespace
}  // namespace dimsum
