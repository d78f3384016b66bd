#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "plan/binding.h"
#include "plan/plan.h"
#include "plan/shard.h"
#include "workload/driver.h"

namespace dimsum {
namespace {

/// Catalog with one 4000 x 100 B relation sharded over all servers.
Catalog ShardedCatalog(int num_clients, int servers, ShardScheme scheme,
                       int replication = 1) {
  Catalog catalog(num_clients);
  catalog.AddRelation("R0", 4000, 100);
  std::vector<SiteId> sites;
  for (int s = 0; s < servers; ++s) {
    sites.push_back(ServerSite(s, num_clients));
  }
  catalog.ShardRelation(0, std::move(sites), scheme, replication);
  return catalog;
}

struct Workload {
  Catalog catalog;
  SystemConfig config;
  std::vector<Plan> plans;
  std::vector<QueryGraph> queries;
  std::vector<ClientWorkload> clients;
};

/// Per-client restricted scan of the sharded relation, pre-expanded into
/// its pruned per-shard fragments (the same pass system.Run applies after
/// optimization) and bound to the shards' serving sites.
Workload ScanWorkload(int num_clients, int servers, ShardScheme scheme,
                      double key_lo, double key_hi, int replication = 1) {
  Workload w{ShardedCatalog(num_clients, servers, scheme, replication),
             {}, {}, {}, {}};
  w.config.num_clients = num_clients;
  w.config.num_servers = servers;
  w.plans.reserve(num_clients);
  w.queries.reserve(num_clients);
  for (int c = 0; c < num_clients; ++c) {
    w.queries.push_back(QueryGraph::Chain({0}));
    w.queries.back().home_client = ClientSite(c);
    Plan logical(MakeDisplay(MakeScan(0, SiteAnnotation::kPrimaryCopy)));
    logical.ForEachMutable([&](PlanNode& node) {
      if (node.type == OpType::kScan) {
        node.key_lo = key_lo;
        node.key_hi = key_hi;
      }
    });
    w.plans.push_back(ExpandShards(logical, w.catalog));
    BindSites(w.plans.back(), w.catalog, ClientSite(c));
  }
  for (int c = 0; c < num_clients; ++c) {
    w.clients.push_back(ClientWorkload{&w.plans[c], &w.queries[c]});
  }
  return w;
}

DriverConfig SerialDriver() {
  DriverConfig driver;
  driver.queries_per_client = 3;
  driver.think_time_mean_ms = 0.0;
  driver.warmup_queries = 0;
  driver.seed = 5;
  return driver;
}

double DiskBusy(const DriverResult& r, SiteId site) {
  return r.totals.disk_busy_ms.contains(site) ? r.totals.disk_busy_ms.at(site)
                                              : 0.0;
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

TEST(ShardExecTest, RangePruningTouchesOnlyIntersectingShards) {
  // A [0, 0.5) restriction over two range shards prunes to shard 0, so
  // only server 0's disks turn; the same restriction over two hash shards
  // keeps both fragments and spins both servers.
  Workload range =
      ScanWorkload(2, /*servers=*/2, ShardScheme::kRange, 0.0, 0.5);
  const DriverResult pruned = RunClosedLoop(range.clients, range.catalog,
                                            range.config, SerialDriver());
  EXPECT_EQ(pruned.completions.size(), 6u);
  EXPECT_GT(DiskBusy(pruned, ServerSite(0, 2)), 0.0);
  EXPECT_EQ(DiskBusy(pruned, ServerSite(1, 2)), 0.0);

  Workload hash = ScanWorkload(2, /*servers=*/2, ShardScheme::kHash, 0.0, 0.5);
  const DriverResult scattered =
      RunClosedLoop(hash.clients, hash.catalog, hash.config, SerialDriver());
  EXPECT_EQ(scattered.completions.size(), 6u);
  EXPECT_GT(DiskBusy(scattered, ServerSite(0, 2)), 0.0);
  EXPECT_GT(DiskBusy(scattered, ServerSite(1, 2)), 0.0);
}

TEST(ShardExecTest, AllShardsPrunedExecutesAsEmptyScan) {
  // key_hi == key_lo keeps no shard: the collapsed fragment reads zero
  // pages and emits zero tuples, but the query still flows end to end and
  // completes.
  Workload w = ScanWorkload(2, /*servers=*/2, ShardScheme::kRange, 0.5, 0.5);
  const DriverResult r =
      RunClosedLoop(w.clients, w.catalog, w.config, SerialDriver());
  EXPECT_EQ(r.completions.size(), 6u);
  EXPECT_EQ(DiskBusy(r, ServerSite(0, 2)), 0.0);
  EXPECT_EQ(DiskBusy(r, ServerSite(1, 2)), 0.0);
  // Faster than any run that touches a disk: responses are pure
  // control-message latency (possibly zero virtual time).
  EXPECT_GE(r.mean_response_ms, 0.0);
  EXPECT_LT(r.mean_response_ms, 100.0);
}

TEST(ShardExecTest, ShardReplicaCompositionBalancesAcrossCopies) {
  // Two shards with two chained copies each: shard 0 lives on servers
  // {0, 1}, shard 1 on {1, 0}. Full-range scans fan out to both shards;
  // the least-outstanding balancer may route each fragment to either
  // copy. Both servers do disk work and every query completes.
  Workload w = ScanWorkload(4, /*servers=*/2, ShardScheme::kRange, 0.0, 1.0,
                            /*replication=*/2);
  ASSERT_EQ(w.catalog.ScanCopies(0), 2);
  DriverConfig driver = SerialDriver();
  driver.replica_policy = ReplicaPolicy::kLeastOutstanding;
  const DriverResult r =
      RunClosedLoop(w.clients, w.catalog, w.config, driver);
  EXPECT_EQ(r.completions.size(), 12u);
  EXPECT_GT(DiskBusy(r, ServerSite(0, 4)), 0.0);
  EXPECT_GT(DiskBusy(r, ServerSite(1, 4)), 0.0);
  // Determinism: the balanced sharded run reproduces bit for bit.
  const DriverResult again =
      RunClosedLoop(w.clients, w.catalog, w.config, driver);
  ExpectBitIdentical(r, again);
}

TEST(ShardExecTest, ShardedRunsDeterministicAcrossHostThreads) {
  Workload w = ScanWorkload(4, /*servers=*/2, ShardScheme::kRange, 0.0, 1.0);
  DriverConfig driver = SerialDriver();
  driver.think_time_mean_ms = 50.0;

  const int original_threads = GlobalThreadPool().thread_count();
  SetGlobalThreadCount(1);
  const DriverResult a = RunClosedLoop(w.clients, w.catalog, w.config, driver);
  SetGlobalThreadCount(4);
  const DriverResult b = RunClosedLoop(w.clients, w.catalog, w.config, driver);
  SetGlobalThreadCount(original_threads);
  ExpectBitIdentical(a, b);
}

}  // namespace
}  // namespace dimsum
