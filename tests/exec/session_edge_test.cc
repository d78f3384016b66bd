#include <string>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "exec/executor.h"
#include "plan/binding.h"
#include "plan/plan.h"
#include "plan/query.h"
#include "sim/simulator.h"

namespace dimsum {
namespace {

Catalog OneServerCatalog() {
  Catalog catalog;
  for (int i = 0; i < 2; ++i) {
    catalog.AddRelation("R" + std::to_string(i), 10000, 100);
    catalog.PlaceRelation(i, ServerSite(0));
    catalog.SetCachedFraction(i, kClientSite, 0.0);
  }
  return catalog;
}

Plan QsJoin() {
  return Plan(MakeDisplay(MakeJoin(MakeScan(0, SiteAnnotation::kPrimaryCopy),
                                   MakeScan(1, SiteAnnotation::kPrimaryCopy),
                                   SiteAnnotation::kInnerRel)));
}

TEST(SessionEdgeTest, ZeroQuerySessionRunsToCompletion) {
  Catalog catalog = OneServerCatalog();
  SystemConfig config;
  config.num_servers = 1;
  ExecSession session(catalog, config, /*seed=*/0);
  session.ExpectQueries(0);
  session.Run();
  EXPECT_EQ(session.submitted(), 0);
  EXPECT_EQ(session.completed(), 0);
  EXPECT_DOUBLE_EQ(session.sim().now(), 0.0);
  const BatchTotals totals = session.Totals();
  EXPECT_EQ(totals.bytes_sent, 0);
  EXPECT_EQ(totals.crashes, 0);
}

/// Submits a second query only after the first completes, exercising
/// dynamic submission from inside the simulation.
sim::Process SubmitAfterDone(ExecSession& session, const Plan& plan,
                             const QueryGraph& query, int* first,
                             int* second) {
  *first = session.Submit(plan, query);
  co_await session.UntilDone(*first);
  *second = session.Submit(plan, query);
  co_await session.UntilDone(*second);
}

TEST(SessionEdgeTest, SubmitAfterUntilDoneRunsSerially) {
  Catalog catalog = OneServerCatalog();
  QueryGraph query = QueryGraph::Chain({0, 1});
  SystemConfig config;
  config.num_servers = 1;
  Plan plan = QsJoin();
  BindSites(plan, catalog);
  ExecSession session(catalog, config, /*seed=*/0);
  session.ExpectQueries(2);
  int first = -1;
  int second = -1;
  session.sim().Spawn(
      SubmitAfterDone(session, plan, query, &first, &second));
  session.Run();
  ASSERT_EQ(first, 0);
  ASSERT_EQ(second, 1);
  EXPECT_TRUE(session.IsDone(first));
  EXPECT_TRUE(session.IsDone(second));
  // Serial identical queries on an otherwise idle system: the second
  // starts at the first's completion and behaves identically.
  EXPECT_DOUBLE_EQ(session.StartMs(first), 0.0);
  EXPECT_DOUBLE_EQ(session.StartMs(second),
                   session.Metrics(first).response_ms);
  EXPECT_EQ(session.Metrics(second).data_pages_sent,
            session.Metrics(first).data_pages_sent);
}

TEST(SessionEdgeTest, DuplicateSubmissionsGetDistinctTickets) {
  // The same (plan, query) pair submitted twice up front: two tickets,
  // two completions, identical per-query page counts (they contend for
  // the same disk, so response times may differ).
  Catalog catalog = OneServerCatalog();
  QueryGraph query = QueryGraph::Chain({0, 1});
  SystemConfig config;
  config.num_servers = 1;
  Plan plan = QsJoin();
  BindSites(plan, catalog);
  ExecSession session(catalog, config, /*seed=*/0);
  session.ExpectQueries(2);
  const int a = session.Submit(plan, query);
  const int b = session.Submit(plan, query);
  EXPECT_NE(a, b);
  session.Run();
  EXPECT_EQ(session.completed(), 2);
  EXPECT_EQ(session.Metrics(a).data_pages_sent,
            session.Metrics(b).data_pages_sent);
}

TEST(SessionEdgeTest, SubmitBeyondExpectedDies) {
  Catalog catalog = OneServerCatalog();
  QueryGraph query = QueryGraph::Chain({0, 1});
  SystemConfig config;
  config.num_servers = 1;
  Plan plan = QsJoin();
  BindSites(plan, catalog);
  // The session lives inside the death statement: a query submitted here
  // would never run in this process and its operator frames would leak.
  EXPECT_DEATH(
      {
        ExecSession session(catalog, config, /*seed=*/0);
        session.ExpectQueries(1);
        session.Submit(plan, query);
        session.Submit(plan, query);
      },
      "more queries submitted than declared");
}

}  // namespace
}  // namespace dimsum
