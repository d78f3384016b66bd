// Golden digest of the simulator. Single queries, an open loop past the
// QS knee, a closed loop against a crashing server and a load-balanced
// run over a range-sharded, replicated relation all execute on the
// discrete-event kernel, and the bit patterns of what they report are
// folded into one FNV-1a digest: response times, completion instants,
// resource totals, shed/abort/retry counts, query-log records and the
// kernel's event counters. The expected value pins the simulator's output
// across commits: a change to the kernel, the executor or the drivers
// must keep every event in the same virtual-time order.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "cost/cost_model.h"
#include "exec/executor.h"
#include "golden_digest.h"
#include "opt/optimizer.h"
#include "plan/binding.h"
#include "plan/plan.h"
#include "plan/shard.h"
#include "plan/transforms.h"
#include "sim/fault.h"
#include "workload/benchmark.h"
#include "workload/driver.h"
#include "workload/querylog.h"

namespace dimsum {
namespace {

template <typename Map>
void FoldSiteMap(const Map& map, Digest* digest) {
  for (const auto& [site, ms] : map) {
    digest->AddInt(site);
    digest->AddDouble(ms);
  }
}

void FoldTotals(const BatchTotals& totals, Digest* digest) {
  digest->AddInt(totals.bytes_sent);
  digest->AddDouble(totals.network_busy_ms);
  digest->AddDouble(totals.network_wait_ms);
  FoldSiteMap(totals.cpu_busy_ms, digest);
  FoldSiteMap(totals.cpu_wait_ms, digest);
  FoldSiteMap(totals.disk_busy_ms, digest);
  const DiskDetail& disk = totals.disk;
  digest->AddDouble(disk.seek_ms);
  digest->AddDouble(disk.rotate_ms);
  digest->AddDouble(disk.transfer_ms);
  digest->AddDouble(disk.overhead_ms);
  digest->AddInt(static_cast<int64_t>(disk.reads));
  digest->AddInt(static_cast<int64_t>(disk.writes));
  digest->AddInt(static_cast<int64_t>(disk.cache_hits));
  digest->AddInt(static_cast<int64_t>(disk.readahead_pages));
  digest->AddInt(static_cast<int64_t>(disk.readahead_aborts));
  digest->AddInt(disk.max_queue_depth);
  digest->AddInt(totals.crashes);
  digest->AddDouble(totals.crash_downtime_ms);
}

void FoldMetrics(const ExecMetrics& metrics, Digest* digest) {
  digest->AddDouble(metrics.response_ms);
  digest->AddInt(metrics.data_pages_sent);
  digest->AddInt(metrics.messages);
  digest->AddInt(metrics.bytes_sent);
  digest->AddDouble(metrics.fault_stall_ms);
  for (const OperatorActual& op : metrics.operator_actuals) {
    digest->AddDouble(op.start_ms);
    digest->AddDouble(op.end_ms);
    digest->AddDouble(op.cpu_ms);
    digest->AddDouble(op.disk_ms);
    digest->AddDouble(op.net_ms);
    digest->AddDouble(op.stall_ms);
    digest->AddInt(op.pages_in);
    digest->AddInt(op.pages_out);
  }
}

/// Turns the global metrics registry on for the test's lifetime, so every
/// session folds its kernel counters into it, and restores it afterwards.
class KernelCounters {
 public:
  KernelCounters()
      : registry_(MetricsRegistry::Global()),
        was_enabled_(registry_.enabled()) {
    registry_.Reset();
    registry_.set_enabled(true);
  }
  ~KernelCounters() {
    registry_.Reset();
    registry_.set_enabled(was_enabled_);
  }
  KernelCounters(const KernelCounters&) = delete;
  KernelCounters& operator=(const KernelCounters&) = delete;

  /// Folds the events processed and the event-queue high-water mark of the
  /// sessions run since the last call.
  void Fold(Digest* digest) {
    const int64_t events = registry_.counter("kernel.processed_events").value();
    EXPECT_GT(events, 0);
    digest->AddInt(events);
    digest->AddDouble(registry_.gauge("kernel.peak_event_queue_depth").value());
    registry_.Reset();
  }

 private:
  MetricsRegistry& registry_;
  bool was_enabled_;
};

/// ExecutePlan of seeded random 2-way and 10-way chain plans under each
/// policy, minimum and maximum allocation, cold and cached client, with
/// operator actuals and causal spans collected.
void FoldSingleQueries(KernelCounters& kernel, Digest* digest) {
  const ShippingPolicy policies[] = {ShippingPolicy::kDataShipping,
                                     ShippingPolicy::kQueryShipping,
                                     ShippingPolicy::kHybridShipping};
  uint64_t seed = 1;
  for (const int relations : {2, 10}) {
    for (const ShippingPolicy policy : policies) {
      for (const BufAlloc alloc : {BufAlloc::kMinimum, BufAlloc::kMaximum}) {
        for (const bool cached : {false, true}) {
          WorkloadSpec spec;
          spec.num_relations = relations;
          spec.num_servers = relations == 2 ? 1 : 3;
          spec.cached_fraction = cached ? 0.5 : 0.0;
          spec.fully_cached_relations = cached ? relations / 2 : 0;
          const BenchmarkWorkload w = MakeChainWorkloadRoundRobin(spec);
          TransformConfig transform;
          transform.space = PolicySpace::For(policy);
          Rng rng(seed++);
          Plan plan = RandomPlan(w.query, transform, rng);
          BindSites(plan, w.catalog);

          SystemConfig config;
          config.num_servers = spec.num_servers;
          config.params.buf_alloc = alloc;
          config.collect_operator_actuals = true;
          config.collect_spans = true;
          sim::QuerySpans spans;
          const ExecMetrics metrics =
              ExecutePlan(plan, w.catalog, w.query, config, seed, &spans);
          FoldMetrics(metrics, digest);
          FoldSiteMap(metrics.cpu_busy_ms, digest);
          FoldSiteMap(metrics.disk_busy_ms, digest);
          digest->AddDouble(spans.start_ms);
          digest->AddDouble(spans.complete_ms);
          digest->AddInt(static_cast<int64_t>(spans.spans.size()));
          kernel.Fold(digest);
        }
      }
    }
  }
}

void FoldOpenLoop(const OpenLoopResult& r, Digest* digest) {
  digest->AddInt(r.arrivals);
  digest->AddInt(r.dispatched);
  digest->AddInt(r.shed);
  digest->AddInt(r.aborted);
  digest->AddInt(r.completed);
  for (const OpenLoopCompletion& c : r.completions) {
    digest->AddInt(c.ticket);
    digest->AddInt(c.client);
    digest->AddDouble(c.arrival_ms);
    digest->AddDouble(c.submit_ms);
    digest->AddDouble(c.complete_ms);
  }
  for (const ExecMetrics& metrics : r.per_query) FoldMetrics(metrics, digest);
  FoldTotals(r.totals, digest);
  digest->AddDouble(r.makespan_ms);
  digest->AddDouble(r.throughput_qps);
  digest->AddDouble(r.mean_response_ms);
  digest->AddDouble(r.mean_queue_wait_ms);
  digest->AddInt(r.peak_in_flight);
  digest->AddInt(r.peak_pending);
  digest->AddInt(static_cast<int64_t>(r.processed_events));
  digest->AddInt(static_cast<int64_t>(r.peak_event_queue_depth));
  for (const QueryLogRecord& record : r.query_log) {
    const std::string json = QueryLogJson(record);
    digest->AddBytes(json.data(), json.size());
  }
}

void FoldClosedLoop(const DriverResult& r, Digest* digest) {
  for (const Completion& c : r.completions) {
    digest->AddInt(c.ticket);
    digest->AddInt(c.client);
    digest->AddDouble(c.submit_ms);
    digest->AddDouble(c.complete_ms);
  }
  for (const ExecMetrics& metrics : r.per_query) FoldMetrics(metrics, digest);
  FoldTotals(r.totals, digest);
  digest->AddDouble(r.makespan_ms);
  digest->AddDouble(r.mean_response_ms);
  for (const int retries : r.retries_per_query) digest->AddInt(retries);
  digest->AddInt(r.total_retries);
  digest->AddInt(r.total_reopts);
  digest->AddDouble(r.abort_rate);
  digest->AddDouble(r.fault_stall_ms);
}

/// Bound 2-way joins of two 4000-tuple relations on one server, issued
/// by every client: `server_join` ships the query, otherwise the outer
/// relation is read from the client's cache and joined there.
struct JoinClients {
  Catalog catalog;
  SystemConfig config;
  std::vector<Plan> plans;
  std::vector<QueryGraph> queries;
  std::vector<ClientWorkload> clients;

  JoinClients(int num_clients, bool server_join) : catalog(num_clients) {
    for (int r = 0; r < 2; ++r) {
      catalog.AddRelation("R" + std::to_string(r), 4000, 100);
      catalog.PlaceRelation(r, ServerSite(0, num_clients));
      for (int c = 0; c < num_clients; ++c) {
        catalog.SetCachedFraction(r, ClientSite(c),
                                  server_join || r == 1 ? 0.0 : 1.0);
      }
    }
    config.num_clients = num_clients;
    config.num_servers = 1;
    config.params.buf_alloc = BufAlloc::kMaximum;
    plans.reserve(num_clients);
    queries.reserve(num_clients);
    for (int c = 0; c < num_clients; ++c) {
      queries.push_back(QueryGraph::Chain({0, 1}));
      queries.back().home_client = ClientSite(c);
      plans.emplace_back(MakeDisplay(MakeJoin(
          MakeScan(0, server_join ? SiteAnnotation::kPrimaryCopy
                                  : SiteAnnotation::kClient),
          MakeScan(1, SiteAnnotation::kPrimaryCopy),
          server_join ? SiteAnnotation::kInnerRel
                      : SiteAnnotation::kConsumer)));
      BindSites(plans.back(), catalog, ClientSite(c));
    }
    for (int c = 0; c < num_clients; ++c) {
      clients.push_back(ClientWorkload{&plans[c], &queries[c]});
    }
  }
};

/// QS joins arriving faster than the one server serves them, behind
/// admission bounds tight enough to shed and abort, with the query log on.
void FoldOpenLoopPastKnee(KernelCounters& kernel, Digest* digest) {
  JoinClients w(8, /*server_join=*/true);
  w.config.collect_operator_actuals = true;
  OpenLoopConfig openloop;
  openloop.arrival.rate_per_sec = 40.0;
  openloop.duration_ms = 3'000.0;
  openloop.admission.max_in_flight = 2;
  openloop.admission.max_pending = 4;
  openloop.admission.abort_wait_ms = 250.0;
  openloop.num_batches = 4;
  openloop.seed = 11;
  openloop.collect_query_log = true;
  const OpenLoopResult r =
      RunOpenLoop(w.clients, w.catalog, w.config, openloop);
  EXPECT_GT(r.shed, 0);
  EXPECT_GT(r.aborted, 0);
  EXPECT_EQ(static_cast<int64_t>(r.query_log.size()), r.arrivals);
  FoldOpenLoop(r, digest);
  kernel.Fold(digest);
}

/// Closed-loop clients against a server that is down at the first
/// submission and then crashes on a renewal schedule: cold QS clients
/// retry with backoff, warm HY clients re-optimize with 2-step site
/// selection onto their cache.
void FoldClosedLoopUnderCrashes(KernelCounters& kernel, Digest* digest) {
  constexpr int kClients = 4;
  JoinClients w(kClients, /*server_join=*/true);
  for (int c = kClients / 2; c < kClients; ++c) {
    w.catalog.SetCachedFraction(0, ClientSite(c), 1.0);
    w.catalog.SetCachedFraction(1, ClientSite(c), 1.0);
  }
  const std::string site = std::to_string(ServerSite(0, kClients));
  const sim::FaultSchedule faults = sim::ParseFaultSpec(
      "crash:site=" + site + ",at=0,for=2000;crash:site=" + site +
      ",mtbf=6000,mttr=2000,seed=7");
  w.config.faults = &faults;
  const CostModel model(w.catalog, w.config.params);
  OptimizerConfig reopt;
  reopt.policy = ShippingPolicy::kHybridShipping;
  reopt.ii_starts = 4;
  for (int c = kClients / 2; c < kClients; ++c) {
    w.clients[c].reopt_model = &model;
    w.clients[c].reopt_config = &reopt;
  }
  DriverConfig driver;
  driver.queries_per_client = 4;
  driver.think_time_mean_ms = 1000.0;
  driver.num_batches = 4;
  driver.seed = 42;
  const DriverResult r = RunClosedLoop(w.clients, w.catalog, w.config, driver);
  EXPECT_GT(r.total_retries, 0);
  EXPECT_GT(r.total_reopts, 0);
  EXPECT_GT(r.totals.crashes, 0);
  FoldClosedLoop(r, digest);
  kernel.Fold(digest);
}

/// One relation range-sharded over four servers with two chained copies
/// per shard, balanced least-outstanding: three clients scan one shard's
/// key range each, the fourth scans the whole relation.
void FoldShardedBalanced(KernelCounters& kernel, Digest* digest) {
  constexpr int kClients = 4;
  constexpr int kServers = 4;
  Catalog catalog(kClients);
  catalog.AddRelation("R0", 8000, 100);
  std::vector<SiteId> sites;
  for (int s = 0; s < kServers; ++s) sites.push_back(ServerSite(s, kClients));
  catalog.ShardRelation(0, std::move(sites), ShardScheme::kRange,
                        /*replication=*/2);
  SystemConfig config;
  config.num_clients = kClients;
  config.num_servers = kServers;
  config.params.num_disks = 2;
  config.params.buf_alloc = BufAlloc::kMaximum;
  std::vector<Plan> plans;
  std::vector<QueryGraph> queries;
  plans.reserve(kClients);
  queries.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    queries.push_back(QueryGraph::Chain({0}));
    queries.back().home_client = ClientSite(c);
    Plan logical(MakeDisplay(MakeScan(0, SiteAnnotation::kPrimaryCopy)));
    if (c < kClients - 1) {
      const double lo = static_cast<double>(c) / kServers;
      logical.ForEachMutable([&](PlanNode& node) {
        if (node.type == OpType::kScan) {
          node.key_lo = lo;
          node.key_hi = lo + 1.0 / kServers;
        }
      });
    }
    plans.push_back(ExpandShards(logical, catalog));
    BindSites(plans.back(), catalog, ClientSite(c));
  }
  std::vector<ClientWorkload> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(ClientWorkload{&plans[c], &queries[c]});
  }
  OpenLoopConfig openloop;
  openloop.arrival.rate_per_sec = 30.0;
  openloop.duration_ms = 2'000.0;
  openloop.num_batches = 4;
  openloop.seed = 5;
  openloop.replica_policy = ReplicaPolicy::kLeastOutstanding;
  const OpenLoopResult r = RunOpenLoop(clients, catalog, config, openloop);
  EXPECT_GT(r.completed, 0);
  FoldOpenLoop(r, digest);
  kernel.Fold(digest);
}

TEST(SimGoldenTest, SimulatedOutputsAreUnchanged) {
  KernelCounters kernel;
  Digest digest;
  FoldSingleQueries(kernel, &digest);
  FoldOpenLoopPastKnee(kernel, &digest);
  FoldClosedLoopUnderCrashes(kernel, &digest);
  FoldShardedBalanced(kernel, &digest);
  EXPECT_EQ(digest.value(), 0xf575f529387fc397ULL)
      << "simulator digest 0x" << std::hex << digest.value();
}

}  // namespace
}  // namespace dimsum
