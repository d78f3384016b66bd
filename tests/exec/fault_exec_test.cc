#include <string>

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "exec/executor.h"
#include "plan/binding.h"
#include "plan/plan.h"
#include "plan/query.h"
#include "sim/fault.h"

namespace dimsum {
namespace {

/// One client, one server, two 250-page relations on the server.
Catalog OneServerCatalog(double cached = 0.0) {
  Catalog catalog;
  for (int i = 0; i < 2; ++i) {
    catalog.AddRelation("R" + std::to_string(i), 10000, 100);
    catalog.PlaceRelation(i, ServerSite(0));
    catalog.SetCachedFraction(i, kClientSite, cached);
  }
  return catalog;
}

Plan QsJoin() {
  return Plan(MakeDisplay(MakeJoin(MakeScan(0, SiteAnnotation::kPrimaryCopy),
                                   MakeScan(1, SiteAnnotation::kPrimaryCopy),
                                   SiteAnnotation::kInnerRel)));
}

ExecMetrics RunWithFaults(const std::string& spec) {
  Catalog catalog = OneServerCatalog();
  QueryGraph query = QueryGraph::Chain({0, 1});
  SystemConfig config;
  config.num_servers = 1;
  sim::FaultSchedule faults;
  if (!spec.empty()) {
    faults = sim::ParseFaultSpec(spec);
    config.faults = &faults;
  }
  Plan plan = QsJoin();
  BindSites(plan, catalog);
  return ExecutePlan(plan, catalog, query, config);
}

void ExpectBitIdentical(const ExecMetrics& a, const ExecMetrics& b) {
  EXPECT_EQ(a.response_ms, b.response_ms);  // bitwise, not NEAR
  EXPECT_EQ(a.data_pages_sent, b.data_pages_sent);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.network_busy_ms, b.network_busy_ms);
  EXPECT_EQ(a.cpu_busy_ms, b.cpu_busy_ms);
  EXPECT_EQ(a.disk_busy_ms, b.disk_busy_ms);
}

TEST(FaultExecTest, EmptyScheduleMatchesHealthyBitwise) {
  // Null schedule and empty schedule both take the pre-fault code paths.
  const ExecMetrics healthy = RunWithFaults("");
  Catalog catalog = OneServerCatalog();
  QueryGraph query = QueryGraph::Chain({0, 1});
  SystemConfig config;
  config.num_servers = 1;
  const sim::FaultSchedule empty;
  config.faults = &empty;
  Plan plan = QsJoin();
  BindSites(plan, catalog);
  const ExecMetrics with_empty = ExecutePlan(plan, catalog, query, config);
  ExpectBitIdentical(healthy, with_empty);
  EXPECT_EQ(with_empty.fault_stall_ms, 0.0);
  EXPECT_EQ(with_empty.retransmits, 0);
}

TEST(FaultExecTest, FarFutureCrashMatchesHealthyBitwise) {
  // A schedule whose only window opens long after the query finishes must
  // not perturb the simulation at all (Transfer's factor of exactly 1.0
  // and the stall checks are the only touch points).
  const ExecMetrics healthy = RunWithFaults("");
  const ExecMetrics faulted =
      RunWithFaults("crash:site=1,at=1e12,for=1000");
  ExpectBitIdentical(healthy, faulted);
  EXPECT_EQ(faulted.fault_stall_ms, 0.0);
  EXPECT_EQ(faulted.retransmits, 0);
}

TEST(FaultExecTest, MidRunCrashStallsOperators) {
  // The server dies at t=0 for 5 s. Operators are fail-stop at request
  // boundaries: the scan stalls until the restart, so the query completes
  // but its response time absorbs the outage.
  const ExecMetrics healthy = RunWithFaults("");
  const ExecMetrics faulted = RunWithFaults("crash:site=1,at=0,for=5000");
  EXPECT_GE(faulted.response_ms, 5000.0);
  EXPECT_GT(faulted.response_ms, healthy.response_ms);
  EXPECT_GT(faulted.fault_stall_ms, 0.0);
  EXPECT_EQ(faulted.retransmits, 0);
  // Same work gets done once the site is back.
  EXPECT_EQ(faulted.data_pages_sent, healthy.data_pages_sent);
}

TEST(FaultExecTest, LinkDropTriggersRetransmits) {
  const ExecMetrics healthy = RunWithFaults("");
  // The window must cover the result transfers, which happen late in the
  // run (the plan spends its opening virtual seconds in disk scans and
  // the join build before anything hits the wire).
  const ExecMetrics faulted = RunWithFaults("link:drop,at=8000,for=4000");
  EXPECT_GT(faulted.retransmits, 0);
  EXPECT_GT(faulted.retransmitted_bytes, 0);
  EXPECT_EQ(faulted.fault_stall_ms, 0.0);
  // Retransmissions add wire traffic and delay.
  EXPECT_GT(faulted.bytes_sent, healthy.bytes_sent);
  EXPECT_GT(faulted.response_ms, healthy.response_ms);
  // The window is long enough for the backoff to double up to its cap, so
  // these pin the whole schedule: 50 ms first, x2 per drop, capped at
  // 1000 ms. A x3 multiplier gives 5 retransmits; a 900 ms cap ends 100 ms
  // sooner.
  EXPECT_EQ(faulted.retransmits, 6);
  EXPECT_EQ(faulted.response_ms, 14383.017120000146);  // bitwise
}

TEST(FaultExecTest, LinkDelayStretchesTransfersWithoutRetransmits) {
  const ExecMetrics healthy = RunWithFaults("");
  const ExecMetrics faulted = RunWithFaults("link:delay=4,at=0,for=1e9");
  EXPECT_EQ(faulted.retransmits, 0);
  EXPECT_GT(faulted.response_ms, healthy.response_ms);
  EXPECT_GT(faulted.network_busy_ms, healthy.network_busy_ms);
  // Same pages, same bytes -- only slower.
  EXPECT_EQ(faulted.data_pages_sent, healthy.data_pages_sent);
  EXPECT_EQ(faulted.bytes_sent, healthy.bytes_sent);
}

TEST(FaultExecTest, CrashWindowsLandInBatchTotals) {
  Catalog catalog = OneServerCatalog();
  QueryGraph query = QueryGraph::Chain({0, 1});
  SystemConfig config;
  config.num_servers = 1;
  const sim::FaultSchedule faults =
      sim::ParseFaultSpec("crash:site=1,at=0,for=3000");
  config.faults = &faults;
  Plan plan = QsJoin();
  BindSites(plan, catalog);
  ExecSession session(catalog, config, /*seed=*/0);
  session.ExpectQueries(1);
  session.Submit(plan, query);
  session.Run();
  const BatchTotals totals = session.Totals();
  EXPECT_EQ(totals.crashes, 1);
  EXPECT_DOUBLE_EQ(totals.crash_downtime_ms, 3000.0);
}

}  // namespace
}  // namespace dimsum
