#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "plan/binding.h"
#include "plan/plan.h"
#include "workload/driver.h"

namespace dimsum {
namespace {

/// Multi-server catalog with two 100-page relations. Every relation's
/// primary lives on server 0 and extra copies fill servers round-robin, so
/// first-copy submission piles the whole workload onto one server while a
/// balancing policy can spread it.
Catalog ReplicatedCatalog(int num_clients, int servers, int degree) {
  Catalog catalog(num_clients);
  for (int i = 0; i < 2; ++i) {
    catalog.AddRelation("R" + std::to_string(i), 4000, 100);
    for (int copy = 0; copy < degree; ++copy) {
      catalog.PlaceRelation(i, ServerSite(copy % servers, num_clients));
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

/// Per-client QS join R0 |><| R1: both scans at their serving replicas,
/// the join at the inner relation's server, result shipped to the client.
Workload JoinWorkload(int num_clients, int servers, int degree) {
  Workload w{ReplicatedCatalog(num_clients, servers, degree), {}, {}, {}, {}};
  w.config.num_clients = num_clients;
  w.config.num_servers = servers;
  w.plans.reserve(num_clients);
  w.queries.reserve(num_clients);
  for (int c = 0; c < num_clients; ++c) {
    w.queries.push_back(QueryGraph::Chain({0, 1}));
    w.queries.back().home_client = ClientSite(c);
    w.plans.emplace_back(
        MakeDisplay(MakeJoin(MakeScan(0, SiteAnnotation::kPrimaryCopy),
                             MakeScan(1, SiteAnnotation::kPrimaryCopy),
                             SiteAnnotation::kInnerRel)));
    BindSites(w.plans.back(), w.catalog, ClientSite(c));
  }
  for (int c = 0; c < num_clients; ++c) {
    w.clients.push_back(ClientWorkload{&w.plans[c], &w.queries[c]});
  }
  return w;
}

DriverConfig BalancedDriver(ReplicaPolicy policy) {
  DriverConfig driver;
  driver.queries_per_client = 3;
  driver.think_time_mean_ms = 0.0;
  driver.warmup_queries = 0;
  driver.seed = 5;
  driver.replica_policy = policy;
  return driver;
}

void ExpectBitIdentical(const DriverResult& a, const DriverResult& b) {
  ASSERT_EQ(a.completions.size(), b.completions.size());
  for (std::size_t i = 0; i < a.completions.size(); ++i) {
    EXPECT_EQ(a.completions[i].ticket, b.completions[i].ticket);
    EXPECT_EQ(a.completions[i].client, b.completions[i].client);
    EXPECT_EQ(a.completions[i].submit_ms, b.completions[i].submit_ms);
    EXPECT_EQ(a.completions[i].complete_ms, b.completions[i].complete_ms);
  }
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);  // bitwise, not NEAR
  EXPECT_EQ(a.mean_response_ms, b.mean_response_ms);
  EXPECT_EQ(a.totals.bytes_sent, b.totals.bytes_sent);
  EXPECT_EQ(a.totals.disk_busy_ms, b.totals.disk_busy_ms);
}

TEST(ReplicaPolicyTest, Degree1RunsAreBitIdenticalUnderEveryPolicy) {
  // On an unreplicated catalog every policy must take the first-copy code
  // path exactly: no balancer is built, no plan is cloned, and the run is
  // reproduced bit for bit.
  Workload w = JoinWorkload(4, /*servers=*/2, /*degree=*/1);
  ASSERT_FALSE(w.catalog.replicated());
  const DriverResult first =
      RunClosedLoop(w.clients, w.catalog, w.config,
                    BalancedDriver(ReplicaPolicy::kFirstCopy));
  for (ReplicaPolicy policy :
       {ReplicaPolicy::kRoundRobin, ReplicaPolicy::kLeastOutstanding}) {
    const DriverResult other =
        RunClosedLoop(w.clients, w.catalog, w.config, BalancedDriver(policy));
    ExpectBitIdentical(first, other);
  }
}

TEST(ReplicaPolicyTest, BalancingSpreadsLoadAcrossReplicas) {
  // Both relations have a copy on each of two servers, but the primaries
  // sit on server 0. First-copy submission serializes every query behind
  // one server's disks; round-robin and least-outstanding use both, so
  // contention -- and with it mean response time -- drops.
  Workload w = JoinWorkload(6, /*servers=*/2, /*degree=*/2);
  ASSERT_TRUE(w.catalog.replicated());
  const DriverResult first =
      RunClosedLoop(w.clients, w.catalog, w.config,
                    BalancedDriver(ReplicaPolicy::kFirstCopy));
  const DriverResult rr =
      RunClosedLoop(w.clients, w.catalog, w.config,
                    BalancedDriver(ReplicaPolicy::kRoundRobin));
  const DriverResult lo =
      RunClosedLoop(w.clients, w.catalog, w.config,
                    BalancedDriver(ReplicaPolicy::kLeastOutstanding));
  ASSERT_EQ(first.completions.size(), rr.completions.size());
  ASSERT_EQ(first.completions.size(), lo.completions.size());
  EXPECT_LT(rr.mean_response_ms, first.mean_response_ms);
  EXPECT_LT(lo.mean_response_ms, first.mean_response_ms);
  EXPECT_LT(rr.makespan_ms, first.makespan_ms);
  EXPECT_LT(lo.makespan_ms, first.makespan_ms);
  // Balancing reroutes work between servers without changing what each
  // query ships to its client.
  EXPECT_EQ(rr.totals.bytes_sent, first.totals.bytes_sent);
  EXPECT_EQ(lo.totals.bytes_sent, first.totals.bytes_sent);
  const auto disk_busy = [](const DriverResult& r, SiteId site) {
    return r.totals.disk_busy_ms.contains(site) ? r.totals.disk_busy_ms.at(site)
                                                : 0.0;
  };
  const SiteId s0 = ServerSite(0, /*num_clients=*/6);
  const SiteId s1 = ServerSite(1, /*num_clients=*/6);
  EXPECT_GT(disk_busy(first, s0), 0.0);
  EXPECT_EQ(disk_busy(first, s1), 0.0);  // first-copy: server 1 idle
  EXPECT_GT(disk_busy(rr, s0), 0.0);
  EXPECT_GT(disk_busy(rr, s1), 0.0);
  EXPECT_GT(disk_busy(lo, s0), 0.0);
  EXPECT_GT(disk_busy(lo, s1), 0.0);
}

TEST(ReplicaPolicyTest, BalancedRunsDeterministicAcrossHostThreads) {
  // Replica selection happens in virtual time; the host thread pool must
  // not perturb it.
  Workload w = JoinWorkload(4, /*servers=*/2, /*degree=*/2);
  DriverConfig driver = BalancedDriver(ReplicaPolicy::kLeastOutstanding);
  driver.think_time_mean_ms = 50.0;

  const int original_threads = GlobalThreadPool().thread_count();
  SetGlobalThreadCount(1);
  const DriverResult a = RunClosedLoop(w.clients, w.catalog, w.config, driver);
  SetGlobalThreadCount(4);
  const DriverResult b = RunClosedLoop(w.clients, w.catalog, w.config, driver);
  SetGlobalThreadCount(original_threads);
  ExpectBitIdentical(a, b);
}

TEST(ReplicaPolicyTest, RoundRobinRunsAreDeterministic) {
  // The host-thread test above covers least-outstanding; round-robin's
  // per-relation counters must reproduce a balanced run bit for bit too.
  Workload w = JoinWorkload(4, /*servers=*/2, /*degree=*/2);
  DriverConfig driver = BalancedDriver(ReplicaPolicy::kRoundRobin);
  driver.think_time_mean_ms = 50.0;
  const DriverResult a = RunClosedLoop(w.clients, w.catalog, w.config, driver);
  const DriverResult b = RunClosedLoop(w.clients, w.catalog, w.config, driver);
  ExpectBitIdentical(a, b);
}

TEST(ReplicaPolicyTest, ColdTiesBreakTowardLowestServerSite) {
  // Regression for the least-outstanding ranking: with every queue empty
  // and no response-time history, the tie must break to the LOWEST server
  // site -- not the primary. Place the primaries on server 1 and the
  // copies on server 0: a cold balanced submission picks server 0 (the
  // replica), while first-copy submission picks server 1.
  Catalog catalog(1);
  for (int i = 0; i < 2; ++i) {
    catalog.AddRelation("R" + std::to_string(i), 4000, 100);
    catalog.PlaceRelation(i, ServerSite(1, 1));  // primary on server 1
    catalog.PlaceRelation(i, ServerSite(0, 1));  // copy on server 0
  }
  SystemConfig config;
  config.num_clients = 1;
  config.num_servers = 2;
  QueryGraph query = QueryGraph::Chain({0, 1});
  query.home_client = ClientSite(0);
  Plan plan(MakeDisplay(MakeJoin(MakeScan(0, SiteAnnotation::kPrimaryCopy),
                                 MakeScan(1, SiteAnnotation::kPrimaryCopy),
                                 SiteAnnotation::kInnerRel)));
  BindSites(plan, catalog, ClientSite(0));
  std::vector<ClientWorkload> clients{ClientWorkload{&plan, &query}};
  DriverConfig driver = BalancedDriver(ReplicaPolicy::kLeastOutstanding);
  driver.queries_per_client = 1;  // one cold submission, no history

  const DriverResult lo = RunClosedLoop(clients, catalog, config, driver);
  driver.replica_policy = ReplicaPolicy::kFirstCopy;
  const DriverResult first = RunClosedLoop(clients, catalog, config, driver);
  const auto disk_busy = [](const DriverResult& r, SiteId site) {
    return r.totals.disk_busy_ms.contains(site) ? r.totals.disk_busy_ms.at(site)
                                                : 0.0;
  };
  EXPECT_GT(disk_busy(lo, ServerSite(0, 1)), 0.0);
  EXPECT_EQ(disk_busy(lo, ServerSite(1, 1)), 0.0);
  EXPECT_EQ(disk_busy(first, ServerSite(0, 1)), 0.0);
  EXPECT_GT(disk_busy(first, ServerSite(1, 1)), 0.0);
}

TEST(ReplicaPolicyTest, ResponseEwmaSteersDepthTiesToFasterServer) {
  // One client submitting serially: every submission sees empty queues, so
  // raw counts alone would send ALL queries to the lowest site. Make
  // server 0 CPU-starved; after one slow query lands there, its decayed
  // response estimate keeps losing depth ties to server 1, so the fast
  // server ends up doing most of the disk work.
  Workload w = JoinWorkload(1, /*servers=*/2, /*degree=*/2);
  w.config.params.site_mips[ServerSite(0, 1)] = 5.0;  // 10x slower CPU
  DriverConfig driver = BalancedDriver(ReplicaPolicy::kLeastOutstanding);
  driver.queries_per_client = 6;

  const DriverResult lo = RunClosedLoop(w.clients, w.catalog, w.config, driver);
  const auto disk_busy = [](const DriverResult& r, SiteId site) {
    return r.totals.disk_busy_ms.contains(site) ? r.totals.disk_busy_ms.at(site)
                                                : 0.0;
  };
  EXPECT_GT(disk_busy(lo, ServerSite(0, 1)), 0.0);  // the one cold probe
  EXPECT_GT(disk_busy(lo, ServerSite(1, 1)),
            disk_busy(lo, ServerSite(0, 1)));
}

TEST(ReplicaPolicyTest, OpenLoopBalancedRunsAreDeterministic) {
  Workload w = JoinWorkload(4, /*servers=*/2, /*degree=*/2);
  OpenLoopConfig openloop;
  openloop.arrival.kind = ArrivalKind::kPoisson;
  openloop.arrival.rate_per_sec = 10.0;
  openloop.duration_ms = 2'000.0;
  openloop.num_batches = 4;
  openloop.seed = 9;
  openloop.replica_policy = ReplicaPolicy::kLeastOutstanding;

  const OpenLoopResult a = RunOpenLoop(w.clients, w.catalog, w.config,
                                       openloop);
  const OpenLoopResult b = RunOpenLoop(w.clients, w.catalog, w.config,
                                       openloop);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);
  EXPECT_EQ(a.mean_response_ms, b.mean_response_ms);
  ASSERT_EQ(a.completions.size(), b.completions.size());
  for (std::size_t i = 0; i < a.completions.size(); ++i) {
    EXPECT_EQ(a.completions[i].ticket, b.completions[i].ticket);
    EXPECT_EQ(a.completions[i].arrival_ms, b.completions[i].arrival_ms);
    EXPECT_EQ(a.completions[i].complete_ms, b.completions[i].complete_ms);
  }
}

}  // namespace
}  // namespace dimsum
