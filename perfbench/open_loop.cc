// Open-loop workloads: 1000 simulated clients, Poisson arrivals, and
// admission control at 128 in flight / 512 pending. Every client's plan
// is bound at set-up, so no optimizer or coster runs: the DES kernel, the
// executor and the open-loop driver do all the work.
//
// openloop_1k is ext_openloop's traffic: a 2-way join from every client
// under qs, hy and ds, below and past the qs knee, with operator actuals
// on as in that harness. tail_querylog is ext_taillat's traffic:
// key-restricted scans of a relation range-sharded over 4 servers with 2
// chained copies each, balanced least-outstanding and round-robin, at and
// past the knee, with the query log on and every record serialized -- the
// same kernel and driver with full per-query observation on top.

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "plan/binding.h"
#include "plan/plan.h"
#include "plan/shard.h"

namespace dimsum::perfbench {
namespace {

constexpr int kClients = 1000;
constexpr int kShardServers = 4;
constexpr int kShardCopies = 2;
constexpr uint64_t kArrivalStream = 4;
/// Passes over cycle 0 in the traced run's observation replay.
constexpr int kOnOffRounds = 2;

/// A cluster and the bound plan each client issues on it.
struct ClientPlans {
  Catalog catalog{kClients};
  SystemConfig config;
  std::vector<Plan> plans;
  std::vector<QueryGraph> queries;
  std::vector<ClientWorkload> clients;
};

/// One driver run of a cycle.
struct Cell {
  int cluster = 0;  ///< index of the ClientPlans it runs on
  const char* label = "";
  double rate_qps = 0.0;
  double duration_ms = 0.0;
  ReplicaPolicy balance = ReplicaPolicy::kFirstCopy;
};

/// Observation switched on while a cell runs.
struct Observe {
  bool actuals = false;
  bool query_log = false;
};

void LinkClients(ClientPlans& cluster) {
  cluster.clients.clear();
  cluster.clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    cluster.clients.push_back(
        ClientWorkload{&cluster.plans[static_cast<std::size_t>(c)],
                       &cluster.queries[static_cast<std::size_t>(c)]});
  }
}

/// ext_openloop's cluster under one shipping policy: one server holding
/// two 4000-tuple relations, every client issuing the same 2-way join.
std::unique_ptr<ClientPlans> JoinCluster(const std::string& policy) {
  SiteAnnotation scan0 = SiteAnnotation::kPrimaryCopy;
  SiteAnnotation scan1 = SiteAnnotation::kPrimaryCopy;
  SiteAnnotation join = SiteAnnotation::kInnerRel;
  double cached0 = 0.0;
  double cached1 = 0.0;
  if (policy == "ds") {
    scan0 = scan1 = SiteAnnotation::kClient;
    join = SiteAnnotation::kConsumer;
    cached0 = cached1 = 1.0;
  } else if (policy == "hy") {
    scan0 = SiteAnnotation::kClient;  // outer relation from the client cache
    join = SiteAnnotation::kConsumer;
    cached0 = 1.0;
  }
  auto cluster = std::make_unique<ClientPlans>();
  Catalog& catalog = cluster->catalog;
  catalog.AddRelation("R0", 4000, 100);
  catalog.AddRelation("R1", 4000, 100);
  for (int r = 0; r < 2; ++r) {
    catalog.PlaceRelation(r, ServerSite(0, kClients));
  }
  for (int c = 0; c < kClients; ++c) {
    catalog.SetCachedFraction(0, ClientSite(c), cached0);
    catalog.SetCachedFraction(1, ClientSite(c), cached1);
  }
  cluster->config.num_clients = kClients;
  cluster->config.num_servers = 1;
  cluster->config.params.buf_alloc = BufAlloc::kMaximum;
  cluster->plans.reserve(kClients);
  cluster->queries.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    cluster->queries.push_back(QueryGraph::Chain({0, 1}));
    cluster->queries.back().home_client = ClientSite(c);
    cluster->plans.emplace_back(
        MakeDisplay(MakeJoin(MakeScan(0, scan0), MakeScan(1, scan1), join)));
    ScopedSpan call("BindSites", c);
    BindSites(cluster->plans.back(), catalog, ClientSite(c));
  }
  LinkClients(*cluster);
  return cluster;
}

/// ext_taillat's cluster: one relation range-sharded over 4 servers with
/// 2 chained copies per shard; client c scans the quarter of the key range
/// that shard c % 4 holds.
std::unique_ptr<ClientPlans> ShardCluster() {
  auto cluster = std::make_unique<ClientPlans>();
  Catalog& catalog = cluster->catalog;
  catalog.AddRelation("R0", 4000, 100);
  std::vector<SiteId> sites;
  for (int s = 0; s < kShardServers; ++s) {
    sites.push_back(ServerSite(s, kClients));
  }
  catalog.ShardRelation(0, std::move(sites), ShardScheme::kRange,
                        kShardCopies);
  cluster->config.num_clients = kClients;
  cluster->config.num_servers = kShardServers;
  cluster->config.params.num_disks = 2;
  cluster->config.params.buf_alloc = BufAlloc::kMaximum;
  cluster->plans.reserve(kClients);
  cluster->queries.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    cluster->queries.push_back(QueryGraph::Chain({0}));
    cluster->queries.back().home_client = ClientSite(c);
    Plan logical(MakeDisplay(MakeScan(0, SiteAnnotation::kPrimaryCopy)));
    const double lo = static_cast<double>(c % kShardServers) / kShardServers;
    logical.ForEachMutable([&](PlanNode& node) {
      if (node.type == OpType::kScan) {
        node.key_lo = lo;
        node.key_hi = lo + 1.0 / kShardServers;
      }
    });
    {
      ScopedSpan call("ExpandShards", c);
      cluster->plans.push_back(ExpandShards(logical, catalog));
    }
    ScopedSpan call("BindSites", c);
    BindSites(cluster->plans.back(), catalog, ClientSite(c));
  }
  LinkClients(*cluster);
  return cluster;
}

class OpenLoopWorkload : public Workload {
 public:
  /// `observe` is what the timed cycles collect; the traced run's replay
  /// reports what it costs as `overhead_metric` (wall with it ÷ without).
  OpenLoopWorkload(uint64_t seed, std::vector<Cell> cells, Observe observe,
                   const char* overhead_metric)
      : seed_(seed),
        cells_(std::move(cells)),
        observe_(observe),
        overhead_metric_(overhead_metric) {}

  CycleResult RunCycle(int index) override {
    CycleResult out;
    Digest sim;
    Digest log;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      RunCell(index, i, observe_, out, sim, log);
    }
    out.digest = Combine(sim, log);
    return out;
  }

  void Teardown() override { clusters_.clear(); }

  void ResetTally() override { tally_ = Tally{}; }

  bool Replay(const Traces&, uint64_t cycle0_digest,
              LayerValues& out) override {
    const auto arrivals = static_cast<double>(tally_.arrivals);
    out["workload.shed_ratio"] =
        Ratio(static_cast<double>(tally_.shed), arrivals);
    out["workload.abort_ratio"] =
        Ratio(static_cast<double>(tally_.aborted), arrivals);
    out["workload.querylog_bytes_per_record"] =
        Ratio(static_cast<double>(tally_.record_bytes),
              static_cast<double>(tally_.records));

    // Cycle 0's cells without observation and with, kOnOffRounds times.
    // Observation must not change what is simulated.
    double off_s = 0.0;
    double on_s = 0.0;
    bool ok = true;
    for (int round = 0; round < kOnOffRounds; ++round) {
      CycleResult scratch;
      Digest off_sim, off_log, on_sim, on_log;
      for (std::size_t i = 0; i < cells_.size(); ++i) {
        off_s += RunCell(0, i, Observe{}, scratch, off_sim, off_log);
        on_s += RunCell(0, i, observe_, scratch, on_sim, on_log);
      }
      ok = ok && scratch.failed == 0 && off_sim.value() == on_sim.value() &&
           Combine(on_sim, on_log) == cycle0_digest;
    }
    out[overhead_metric_] = Ratio(on_s, off_s);

    // Nothing here runs on the pool, so its size must not matter either.
    const CycleResult pooled = RunCycleZeroAtPool(*this, ComparedPoolSize());
    return ok && pooled.failed == 0 && pooled.digest == cycle0_digest;
  }

 protected:
  struct Tally {
    int64_t arrivals = 0;
    int64_t shed = 0;
    int64_t aborted = 0;
    int64_t records = 0;
    int64_t record_bytes = 0;
  };

  static uint64_t Combine(const Digest& sim, const Digest& log) {
    Digest both;
    both.AddInt(static_cast<int64_t>(sim.value()));
    both.AddInt(static_cast<int64_t>(log.value()));
    return both.value();
  }

  /// Runs cell `i` of cycle `index`, checks its outputs, and folds them
  /// into `out`, the simulation digest `sim` and the query-log digest
  /// `log`. Returns RunOpenLoop's wall time, s.
  double RunCell(int index, std::size_t i, Observe observe, CycleResult& out,
                 Digest& sim, Digest& log) {
    const Cell& cell = cells_[i];
    const ClientPlans& cluster =
        *clusters_[static_cast<std::size_t>(cell.cluster)];
    SystemConfig config = cluster.config;
    config.collect_operator_actuals = observe.actuals;
    OpenLoopConfig openloop;
    openloop.arrival.kind = ArrivalKind::kPoisson;
    openloop.arrival.rate_per_sec = cell.rate_qps;
    openloop.admission.max_in_flight = 128;
    openloop.admission.max_pending = 512;
    openloop.duration_ms = cell.duration_ms;
    openloop.num_batches = 8;
    openloop.seed = DeriveSeed(seed_, kArrivalStream, index, i);
    openloop.replica_policy = cell.balance;
    openloop.collect_query_log = observe.query_log;
    openloop.policy_label = cell.label;

    const double start = NowSeconds();
    OpenLoopResult result;
    {
      ScopedSpan call("RunOpenLoop",
                      static_cast<int64_t>(index * cells_.size() + i));
      result = RunOpenLoop(cluster.clients, cluster.catalog, config, openloop);
    }
    const double run_s = NowSeconds() - start;

    int64_t failed = 0;
    for (const OpenLoopCompletion& c : result.completions) {
      if (!(std::isfinite(c.complete_ms) && c.complete_ms > c.arrival_ms)) {
        ++failed;
      }
      sim.AddInt(c.ticket);
      sim.AddDouble(c.arrival_ms);
      sim.AddDouble(c.submit_ms);
      sim.AddDouble(c.complete_ms);
    }
    for (const ExecMetrics& metrics : result.per_query) {
      sim.AddDouble(metrics.response_ms);
      sim.AddInt(metrics.data_pages_sent);
    }
    for (const int64_t count : {result.arrivals, result.dispatched,
                                result.shed, result.aborted,
                                result.completed}) {
      sim.AddInt(count);
    }
    for (const QueryLogRecord& record : result.query_log) {
      std::string line;
      {
        ScopedSpan call("QueryLogJson");
        line = QueryLogJson(record);
      }
      log.AddText(line);
      if (Tracing()) {
        tally_.record_bytes += static_cast<int64_t>(line.size());
        ++tally_.records;
      }
      if (record.outcome == "ok" && !PathTilesResponse(record)) ++failed;
    }
    const bool accounted =
        OpenLoopAccountingOk(result) &&
        (!observe.query_log ||
         static_cast<int64_t>(result.query_log.size()) == result.arrivals);
    out.attempted += result.arrivals;
    out.failed += accounted ? std::min(failed, result.arrivals)
                            : result.arrivals;
    out.completed += result.completed;
    if (Tracing()) {
      tally_.arrivals += result.arrivals;
      tally_.shed += result.shed;
      tally_.aborted += result.aborted;
    }
    return run_s;
  }

  uint64_t seed_;
  std::vector<Cell> cells_;
  Observe observe_;
  const char* overhead_metric_;
  std::vector<std::unique_ptr<ClientPlans>> clusters_;
  Tally tally_;
};

class OpenLoop1k final : public OpenLoopWorkload {
 public:
  explicit OpenLoop1k(uint64_t seed)
      : OpenLoopWorkload(seed, Cells(), Observe{true, false},
                         "exec.actuals_overhead") {}

  void Setup() override {
    for (const char* policy : {"qs", "hy", "ds"}) {
      clusters_.push_back(JoinCluster(policy));
    }
  }

 private:
  /// Clusters 0..2 run qs, hy and ds. The qs server saturates below
  /// 1 q/s, so 0.5 q/s is below its knee and 20 q/s far past it.
  static std::vector<Cell> Cells() {
    return {{0, "qs", 0.5, 20'000.0},  {0, "qs", 20.0, 10'000.0},
            {1, "hy", 20.0, 10'000.0}, {1, "hy", 150.0, 10'000.0},
            {2, "ds", 20.0, 10'000.0}, {2, "ds", 150.0, 10'000.0}};
  }
};

class TailQueryLog final : public OpenLoopWorkload {
 public:
  explicit TailQueryLog(uint64_t seed)
      : OpenLoopWorkload(seed, Cells(), Observe{false, true},
                         "workload.querylog_overhead") {}

  void Setup() override { clusters_.push_back(ShardCluster()); }

 private:
  /// λ = 120 q/s is the knee of ext_taillat's sweep, 200 past it.
  static std::vector<Cell> Cells() {
    return {{0, "lo", 120.0, 10'000.0, ReplicaPolicy::kLeastOutstanding},
            {0, "lo", 200.0, 10'000.0, ReplicaPolicy::kLeastOutstanding},
            {0, "rr", 120.0, 10'000.0, ReplicaPolicy::kRoundRobin},
            {0, "rr", 200.0, 10'000.0, ReplicaPolicy::kRoundRobin}};
  }
};

}  // namespace

std::unique_ptr<Workload> MakeOpenLoop1k(uint64_t seed) {
  return std::make_unique<OpenLoop1k>(seed);
}

std::unique_ptr<Workload> MakeTailQueryLog(uint64_t seed) {
  return std::make_unique<TailQueryLog>(seed);
}

}  // namespace dimsum::perfbench
