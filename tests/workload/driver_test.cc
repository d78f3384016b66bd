#include "workload/driver.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "plan/binding.h"
#include "plan/plan.h"

namespace dimsum {
namespace {

/// One-server catalog with `relations` 250-page relations and M clients.
Catalog MultiClientCatalog(int num_clients, int relations,
                           double cached = 0.0) {
  Catalog catalog(num_clients);
  for (int i = 0; i < relations; ++i) {
    catalog.AddRelation("R" + std::to_string(i), 10000, 100);
    catalog.PlaceRelation(i, ServerSite(0, num_clients));
    for (int c = 0; c < num_clients; ++c) {
      catalog.SetCachedFraction(i, ClientSite(c), cached);
    }
  }
  return catalog;
}

Plan QsJoin(RelationId a, RelationId b) {
  return Plan(MakeDisplay(MakeJoin(MakeScan(a, SiteAnnotation::kPrimaryCopy),
                                   MakeScan(b, SiteAnnotation::kPrimaryCopy),
                                   SiteAnnotation::kInnerRel)));
}

Plan DsJoin(RelationId a, RelationId b) {
  return Plan(MakeDisplay(MakeJoin(MakeScan(a, SiteAnnotation::kClient),
                                   MakeScan(b, SiteAnnotation::kClient),
                                   SiteAnnotation::kConsumer)));
}

TEST(DriverTest, SingleClientZeroThinkMatchesExecutePlanBitwise) {
  // The reduction case: one client, one query, no think time. The closed
  // loop degenerates to a plain ExecutePlan run and must reproduce its
  // metrics bit for bit (same event ordering, same virtual timestamps).
  Catalog catalog = MultiClientCatalog(1, 2);
  QueryGraph query = QueryGraph::Chain({0, 1});
  SystemConfig config;
  config.num_servers = 1;
  Plan plan = QsJoin(0, 1);
  BindSites(plan, catalog);
  const ExecMetrics single = ExecutePlan(plan, catalog, query, config);

  DriverConfig driver;
  driver.queries_per_client = 1;
  driver.think_time_mean_ms = 0.0;
  driver.warmup_queries = 0;
  DriverResult result =
      RunClosedLoop({ClientWorkload{&plan, &query}}, catalog, config, driver);

  ASSERT_EQ(result.per_query.size(), 1u);
  const ExecMetrics& m = result.per_query[0];
  EXPECT_EQ(m.response_ms, single.response_ms);  // bitwise, not NEAR
  EXPECT_EQ(m.data_pages_sent, single.data_pages_sent);
  EXPECT_EQ(m.messages, single.messages);
  EXPECT_EQ(result.makespan_ms, single.response_ms);
  EXPECT_EQ(result.mean_response_ms, single.response_ms);
  // The run's totals are the same system-wide counters ExecutePlan folds
  // into its single query.
  EXPECT_EQ(result.totals.bytes_sent, single.bytes_sent);
  EXPECT_EQ(result.totals.network_busy_ms, single.network_busy_ms);
  EXPECT_EQ(result.totals.disk_busy_ms, single.disk_busy_ms);
  EXPECT_EQ(result.totals.cpu_busy_ms, single.cpu_busy_ms);
}

TEST(DriverTest, DeterministicAcrossHostThreadCounts) {
  // The driver's simulation is single-threaded virtual time; the host
  // thread pool (used by the optimizer elsewhere) must not leak into it.
  Catalog catalog = MultiClientCatalog(2, 2);
  QueryGraph q0 = QueryGraph::Chain({0, 1});
  QueryGraph q1 = QueryGraph::Chain({0, 1});
  q0.home_client = ClientSite(0);
  q1.home_client = ClientSite(1);
  SystemConfig config;
  config.num_clients = 2;
  config.num_servers = 1;
  Plan p0 = QsJoin(0, 1);
  Plan p1 = QsJoin(0, 1);
  BindSites(p0, catalog, ClientSite(0));
  BindSites(p1, catalog, ClientSite(1));
  DriverConfig driver;
  driver.queries_per_client = 3;
  driver.think_time_mean_ms = 500.0;
  driver.seed = 7;

  const int original_threads = GlobalThreadPool().thread_count();
  SetGlobalThreadCount(1);
  DriverResult a = RunClosedLoop(
      {ClientWorkload{&p0, &q0}, ClientWorkload{&p1, &q1}}, catalog, config,
      driver);
  SetGlobalThreadCount(4);
  DriverResult b = RunClosedLoop(
      {ClientWorkload{&p0, &q0}, ClientWorkload{&p1, &q1}}, catalog, config,
      driver);
  SetGlobalThreadCount(original_threads);

  ASSERT_EQ(a.completions.size(), b.completions.size());
  for (size_t i = 0; i < a.completions.size(); ++i) {
    EXPECT_EQ(a.completions[i].ticket, b.completions[i].ticket);
    EXPECT_EQ(a.completions[i].client, b.completions[i].client);
    EXPECT_EQ(a.completions[i].submit_ms, b.completions[i].submit_ms);
    EXPECT_EQ(a.completions[i].complete_ms, b.completions[i].complete_ms);
  }
  EXPECT_EQ(a.mean_response_ms, b.mean_response_ms);
  EXPECT_EQ(a.throughput_qps, b.throughput_qps);
  EXPECT_EQ(a.totals.bytes_sent, b.totals.bytes_sent);
}

TEST(DriverTest, ClosedLoopBookkeeping) {
  // Every client contributes exactly queries_per_client completions, in
  // nondecreasing completion order; each client's stream is serial
  // (submit >= its previous completion).
  const int kClients = 3;
  const int kQueries = 4;
  Catalog catalog = MultiClientCatalog(kClients, 2, /*cached=*/1.0);
  SystemConfig config;
  config.num_clients = kClients;
  config.num_servers = 1;
  config.params.buf_alloc = BufAlloc::kMaximum;
  std::vector<Plan> plans;
  std::vector<QueryGraph> queries;
  for (int c = 0; c < kClients; ++c) {
    plans.push_back(DsJoin(0, 1));
    queries.push_back(QueryGraph::Chain({0, 1}));
    queries.back().home_client = ClientSite(c);
    BindSites(plans[c], catalog, ClientSite(c));
  }
  std::vector<ClientWorkload> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(ClientWorkload{&plans[c], &queries[c]});
  }
  DriverConfig driver;
  driver.queries_per_client = kQueries;
  driver.think_time_mean_ms = 250.0;
  driver.seed = 11;
  DriverResult result = RunClosedLoop(clients, catalog, config, driver);

  ASSERT_EQ(result.completions.size(),
            static_cast<size_t>(kClients * kQueries));
  ASSERT_EQ(result.per_query.size(), result.completions.size());
  std::vector<int> per_client(kClients, 0);
  std::vector<double> last_complete(kClients, 0.0);
  double prev = 0.0;
  for (const Completion& c : result.completions) {
    EXPECT_GE(c.complete_ms, prev);  // global completion order
    prev = c.complete_ms;
    ASSERT_GE(c.client, 0);
    ASSERT_LT(c.client, kClients);
    ++per_client[c.client];
    EXPECT_GE(c.submit_ms, last_complete[c.client]);  // closed loop
    last_complete[c.client] = c.complete_ms;
    EXPECT_EQ(result.query_client[c.ticket], c.client);
    // Per-query response matches the completion record.
    EXPECT_DOUBLE_EQ(result.per_query[c.ticket].response_ms,
                     c.complete_ms - c.submit_ms);
  }
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(per_client[c], kQueries);
  // Fully cached data shipping: nothing crosses the network, for any
  // client.
  EXPECT_EQ(result.totals.bytes_sent, 0);
  EXPECT_EQ(result.makespan_ms, result.completions.back().complete_ms);
}

TEST(DriverTest, WarmupAndBatchMeansBoundaries) {
  Catalog catalog = MultiClientCatalog(2, 2, /*cached=*/1.0);
  SystemConfig config;
  config.num_clients = 2;
  config.num_servers = 1;
  config.params.buf_alloc = BufAlloc::kMaximum;
  std::vector<Plan> plans;
  std::vector<QueryGraph> queries;
  for (int c = 0; c < 2; ++c) {
    plans.push_back(DsJoin(0, 1));
    queries.push_back(QueryGraph::Chain({0, 1}));
    queries.back().home_client = ClientSite(c);
    BindSites(plans[c], catalog, ClientSite(c));
  }
  std::vector<ClientWorkload> clients{ClientWorkload{&plans[0], &queries[0]},
                                      ClientWorkload{&plans[1], &queries[1]}};
  DriverConfig driver;
  driver.queries_per_client = 3;  // 6 completions total
  driver.think_time_mean_ms = 100.0;
  driver.seed = 3;

  // No warmup: every completion is measured; the measurement window is the
  // whole run.
  driver.warmup_queries = 0;
  driver.num_batches = 3;
  DriverResult all = RunClosedLoop(clients, catalog, config, driver);
  EXPECT_EQ(all.measured, 6);
  EXPECT_EQ(all.warmup_end_ms, 0.0);
  EXPECT_EQ(all.batch_means.count(), 3);
  EXPECT_GT(all.throughput_qps, 0.0);

  // Maximal warmup: one measured completion, one batch, no CI.
  driver.warmup_queries = 5;
  DriverResult one = RunClosedLoop(clients, catalog, config, driver);
  EXPECT_EQ(one.measured, 1);
  EXPECT_EQ(one.batch_means.count(), 1);
  EXPECT_EQ(one.response_ci90_ms, 0.0);
  EXPECT_EQ(one.warmup_end_ms, one.completions[4].complete_ms);
  // The single measured sample IS the mean.
  const Completion& last = one.completions.back();
  EXPECT_DOUBLE_EQ(one.mean_response_ms, last.complete_ms - last.submit_ms);

  // More batches than samples: each batch degrades to one sample.
  driver.warmup_queries = 2;
  driver.num_batches = 10;
  DriverResult fine = RunClosedLoop(clients, catalog, config, driver);
  EXPECT_EQ(fine.measured, 4);
  EXPECT_EQ(fine.batch_means.count(), 4);

  // Identical configs replay identically (warmup cut included).
  DriverResult replay = RunClosedLoop(clients, catalog, config, driver);
  EXPECT_EQ(fine.mean_response_ms, replay.mean_response_ms);
  EXPECT_EQ(fine.makespan_ms, replay.makespan_ms);
}

TEST(DriverDeathTest, MisboundPlanFails) {
  // A plan bound to client 0 handed to client 1's stream is rejected.
  Catalog catalog = MultiClientCatalog(2, 2);
  SystemConfig config;
  config.num_clients = 2;
  config.num_servers = 1;
  Plan plan = QsJoin(0, 1);
  BindSites(plan, catalog, ClientSite(0));
  QueryGraph q0 = QueryGraph::Chain({0, 1});
  QueryGraph q1 = QueryGraph::Chain({0, 1});
  q0.home_client = ClientSite(0);
  q1.home_client = ClientSite(1);
  DriverConfig driver;
  driver.queries_per_client = 1;
  EXPECT_DEATH(RunClosedLoop({ClientWorkload{&plan, &q0},
                              ClientWorkload{&plan, &q1}},
                             catalog, config, driver),
               "displays elsewhere");
}

TEST(DriverDeathTest, NegativeWarmupFails) {
  // A negative cut would start the measured window before the first
  // completion.
  Catalog catalog = MultiClientCatalog(1, 2);
  QueryGraph query = QueryGraph::Chain({0, 1});
  SystemConfig config;
  config.num_servers = 1;
  Plan plan = QsJoin(0, 1);
  BindSites(plan, catalog);
  DriverConfig driver;
  driver.warmup_queries = -1;
  EXPECT_DEATH(
      RunClosedLoop({ClientWorkload{&plan, &query}}, catalog, config, driver),
      "warmup_queries");
}

}  // namespace
}  // namespace dimsum
