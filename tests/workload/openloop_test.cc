#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "plan/binding.h"
#include "plan/plan.h"
#include "workload/driver.h"

namespace dimsum {
namespace {

/// One-server catalog: `relations` small relations, fully cached at every
/// client so DS plans run on client-local resources.
Catalog SmallCatalog(int num_clients, int relations, double cached) {
  Catalog catalog(num_clients);
  for (int i = 0; i < relations; ++i) {
    catalog.AddRelation("R" + std::to_string(i), 2000, 100);
    catalog.PlaceRelation(i, ServerSite(0, num_clients));
    for (int c = 0; c < num_clients; ++c) {
      catalog.SetCachedFraction(i, ClientSite(c), cached);
    }
  }
  return catalog;
}

struct Workload {
  Catalog catalog;
  SystemConfig config;
  std::vector<Plan> plans;
  std::vector<QueryGraph> queries;
  std::vector<ClientWorkload> clients;
};

/// Per-client single-relation scan; `cached` selects client-local (DS)
/// versus server-side (QS) execution.
Workload ScanWorkload(int num_clients, bool cached) {
  Workload w{SmallCatalog(num_clients, 1, cached ? 1.0 : 0.0), {}, {}, {}, {}};
  w.config.num_clients = num_clients;
  w.config.num_servers = 1;
  w.plans.reserve(num_clients);
  w.queries.reserve(num_clients);
  for (int c = 0; c < num_clients; ++c) {
    w.queries.push_back(QueryGraph::Chain({0}));
    w.queries.back().home_client = ClientSite(c);
    w.plans.emplace_back(MakeDisplay(MakeScan(
        0, cached ? SiteAnnotation::kClient : SiteAnnotation::kPrimaryCopy)));
    BindSites(w.plans.back(), w.catalog, ClientSite(c));
  }
  for (int c = 0; c < num_clients; ++c) {
    w.clients.push_back(ClientWorkload{&w.plans[c], &w.queries[c]});
  }
  return w;
}

OpenLoopConfig PoissonConfig(double rate_qps, double duration_ms) {
  OpenLoopConfig openloop;
  openloop.arrival.kind = ArrivalKind::kPoisson;
  openloop.arrival.rate_per_sec = rate_qps;
  openloop.duration_ms = duration_ms;
  openloop.num_batches = 4;
  openloop.seed = 7;
  return openloop;
}

void CheckAccounting(const OpenLoopResult& r) {
  EXPECT_EQ(r.arrivals, r.dispatched + r.shed + r.aborted);
  EXPECT_EQ(r.completed, r.dispatched);
  EXPECT_EQ(static_cast<int64_t>(r.completions.size()), r.completed);
  EXPECT_EQ(static_cast<int64_t>(r.per_query.size()), r.dispatched);
}

TEST(OpenLoopTest, LowLoadThroughputTracksArrivalRate) {
  // Far below saturation an open loop completes what arrives: throughput
  // over the arrival window ~= lambda, nothing sheds, waits are zero.
  Workload w = ScanWorkload(4, /*cached=*/true);
  OpenLoopResult r = RunOpenLoop(w.clients, w.catalog, w.config,
                                 PoissonConfig(10.0, 10'000.0));
  CheckAccounting(r);
  EXPECT_EQ(r.shed, 0);
  EXPECT_EQ(r.aborted, 0);
  EXPECT_GT(r.arrivals, 50);  // E = 100, P(<=50) negligible
  EXPECT_LT(r.arrivals, 200);
  // Every arrival before the horizon completes; makespan barely exceeds
  // the horizon, so completed/makespan tracks the offered rate.
  const double qps = r.completed / (r.makespan_ms / 1000.0);
  EXPECT_NEAR(qps, r.offered_qps, 0.25 * r.offered_qps);
  EXPECT_EQ(r.mean_queue_wait_ms, 0.0);  // unlimited in-flight: no queue
  EXPECT_GT(r.mean_response_ms, 0.0);
  EXPECT_GT(r.processed_events, 0u);
  EXPECT_GT(r.peak_event_queue_depth, 0u);
}

TEST(OpenLoopTest, DeterministicAcrossRuns) {
  // Same seed, same config: bit-identical results.
  Workload w = ScanWorkload(3, /*cached=*/true);
  const OpenLoopConfig openloop = PoissonConfig(25.0, 3'000.0);
  const OpenLoopResult a =
      RunOpenLoop(w.clients, w.catalog, w.config, openloop);
  const OpenLoopResult b =
      RunOpenLoop(w.clients, w.catalog, w.config, openloop);

  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);  // bitwise, not NEAR
  EXPECT_EQ(a.mean_response_ms, b.mean_response_ms);
  ASSERT_EQ(a.completions.size(), b.completions.size());
  for (std::size_t i = 0; i < a.completions.size(); ++i) {
    EXPECT_EQ(a.completions[i].ticket, b.completions[i].ticket);
    EXPECT_EQ(a.completions[i].arrival_ms, b.completions[i].arrival_ms);
    EXPECT_EQ(a.completions[i].complete_ms, b.completions[i].complete_ms);
  }
  for (std::size_t i = 0; i < a.per_query.size(); ++i) {
    EXPECT_EQ(a.per_query[i].response_ms, b.per_query[i].response_ms);
  }
  EXPECT_EQ(a.processed_events, b.processed_events);
  EXPECT_EQ(a.peak_event_queue_depth, b.peak_event_queue_depth);
}

TEST(OpenLoopTest, AdmissionBoundsInFlightQueries) {
  // QS scans against one server at an overloading rate, window of 2:
  // concurrency never exceeds the window and arrivals queue.
  Workload w = ScanWorkload(4, /*cached=*/false);
  OpenLoopConfig openloop = PoissonConfig(50.0, 2'000.0);
  openloop.admission.max_in_flight = 2;
  openloop.admission.max_pending = 100000;  // effectively unbounded
  OpenLoopResult r = RunOpenLoop(w.clients, w.catalog, w.config, openloop);
  CheckAccounting(r);
  EXPECT_LE(r.peak_in_flight, 2);
  EXPECT_GT(r.peak_pending, 0);
  EXPECT_GT(r.mean_queue_wait_ms, 0.0);
  EXPECT_EQ(r.shed, 0);
  // Queue wait shows up in response time: response >= execution alone.
  for (const OpenLoopCompletion& done : r.completions) {
    EXPECT_GE(done.submit_ms, done.arrival_ms);
    EXPECT_GT(done.complete_ms, done.submit_ms);
  }
}

TEST(OpenLoopTest, ShedsArrivalsPastPendingCap) {
  Workload w = ScanWorkload(4, /*cached=*/false);
  OpenLoopConfig openloop = PoissonConfig(100.0, 2'000.0);
  openloop.admission.max_in_flight = 1;
  openloop.admission.max_pending = 3;
  OpenLoopResult r = RunOpenLoop(w.clients, w.catalog, w.config, openloop);
  CheckAccounting(r);
  EXPECT_GT(r.shed, 0);
  EXPECT_LE(r.peak_pending, 3);
  EXPECT_LE(r.peak_in_flight, 1);
}

TEST(OpenLoopTest, AbortsArrivalsThatOutwaitTheLimit) {
  // With service times far above the wait limit, queued arrivals go
  // stale before their dispatch slot opens and are aborted, not run.
  Workload w = ScanWorkload(4, /*cached=*/false);
  OpenLoopConfig openloop = PoissonConfig(100.0, 1'000.0);
  openloop.admission.max_in_flight = 1;
  openloop.admission.max_pending = 50;
  openloop.admission.abort_wait_ms = 1.0;
  OpenLoopResult r = RunOpenLoop(w.clients, w.catalog, w.config, openloop);
  CheckAccounting(r);
  EXPECT_GT(r.aborted, 0);
}

TEST(OpenLoopTest, BurstyArrivalsRespectConfiguredProcess) {
  Workload w = ScanWorkload(2, /*cached=*/true);
  OpenLoopConfig openloop = PoissonConfig(20.0, 5'000.0);
  openloop.arrival.kind = ArrivalKind::kBursty;
  openloop.arrival.burst_on_mean_ms = 200.0;
  openloop.arrival.burst_off_mean_ms = 200.0;
  openloop.arrival.burst_factor = 3.0;
  OpenLoopResult a = RunOpenLoop(w.clients, w.catalog, w.config, openloop);
  OpenLoopResult b = RunOpenLoop(w.clients, w.catalog, w.config, openloop);
  CheckAccounting(a);
  EXPECT_GT(a.arrivals, 0);
  EXPECT_EQ(a.arrivals, b.arrivals);  // deterministic from the seed
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);
}

TEST(OpenLoopTest, DiurnalArrivalsRespectConfiguredProcess) {
  Workload w = ScanWorkload(2, /*cached=*/true);
  OpenLoopConfig openloop = PoissonConfig(20.0, 5'000.0);
  openloop.arrival.kind = ArrivalKind::kDiurnal;
  openloop.arrival.diurnal_period_ms = 1'000.0;
  openloop.arrival.diurnal_amplitude = 0.8;
  OpenLoopResult a = RunOpenLoop(w.clients, w.catalog, w.config, openloop);
  OpenLoopResult b = RunOpenLoop(w.clients, w.catalog, w.config, openloop);
  CheckAccounting(a);
  EXPECT_GT(a.arrivals, 0);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);
}

TEST(OpenLoopTest, WarmupWindowShrinksMeasuredSet) {
  Workload w = ScanWorkload(4, /*cached=*/true);
  OpenLoopConfig openloop = PoissonConfig(10.0, 10'000.0);
  openloop.warmup_completions = 10;
  OpenLoopResult r = RunOpenLoop(w.clients, w.catalog, w.config, openloop);
  CheckAccounting(r);
  ASSERT_GT(r.completed, 10);
  EXPECT_EQ(r.measured, r.completed - 10);
  EXPECT_GT(r.warmup_end_ms, 0.0);
  EXPECT_GT(r.throughput_qps, 0.0);
}

TEST(OpenLoopTest, RoundRobinSpreadsArrivalsOverClients) {
  Workload w = ScanWorkload(3, /*cached=*/true);
  OpenLoopResult r = RunOpenLoop(w.clients, w.catalog, w.config,
                                 PoissonConfig(20.0, 5'000.0));
  CheckAccounting(r);
  std::vector<int> per_client(3, 0);
  for (const OpenLoopCompletion& done : r.completions) {
    ASSERT_GE(done.client, 0);
    ASSERT_LT(done.client, 3);
    ++per_client[done.client];
  }
  // Round-robin assignment: client counts differ by at most one.
  const int lo = std::min({per_client[0], per_client[1], per_client[2]});
  const int hi = std::max({per_client[0], per_client[1], per_client[2]});
  EXPECT_LE(hi - lo, 1);
}

}  // namespace
}  // namespace dimsum
