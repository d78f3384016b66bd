#ifndef DIMSUM_EXEC_EXECUTOR_H_
#define DIMSUM_EXEC_EXECUTOR_H_

#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "catalog/catalog.h"
#include "exec/metrics.h"
#include "exec/operators.h"
#include "exec/runtime.h"
#include "plan/plan.h"
#include "plan/query.h"
#include "sim/frame_pool.h"
#include "sim/simulator.h"

namespace dimsum {

/// Executes a bound plan on the detailed simulator and returns the measured
/// metrics. Builds a fresh simulated cluster (per `config`), loads the
/// catalog's data layout, instantiates one coroutine process per operator
/// (with network operator pairs on site-crossing edges, so producers stay a
/// page ahead of their consumers), runs external disk load generators if
/// configured, and drives the simulation to completion.
///
/// `seed` controls the load generators' randomness; query execution itself
/// is deterministic.
///
/// With SystemConfig::collect_spans set, `spans_out` (optional) receives
/// the query's causal span set for critical-path extraction.
ExecMetrics ExecutePlan(const Plan& plan, const Catalog& catalog,
                        const QueryGraph& query, const SystemConfig& config,
                        uint64_t seed = 0,
                        sim::QuerySpans* spans_out = nullptr);

/// One query of a concurrent batch.
struct WorkloadQuery {
  const Plan* plan = nullptr;        // bound plan
  const QueryGraph* query = nullptr;
  /// Home client of the query (the site its display is bound to). When
  /// left unbound it is derived from the plan; when set it must agree with
  /// the plan's binding (checked).
  SiteId home_client = kUnboundSite;
  /// Virtual time at which the query is submitted. Response time is
  /// measured from here.
  double start_ms = 0.0;
};

/// System-wide resource totals of one simulated run (a batch or a whole
/// workload session). These are properties of the shared cluster, not of
/// any one query: summing per-query ExecMetrics never double-counts them
/// because they live only here.
struct BatchTotals {
  /// Total bytes on the wire (all queries plus any retransmissions the
  /// model adds later).
  int64_t bytes_sent = 0;
  double network_busy_ms = 0.0;
  double network_wait_ms = 0.0;
  /// Per-site resource usage over the whole run, ms.
  FlatMap<SiteId, double> cpu_busy_ms;
  FlatMap<SiteId, double> cpu_wait_ms;
  FlatMap<SiteId, double> disk_busy_ms;
  /// System-wide disk-model detail.
  DiskDetail disk;
  /// Distributions, populated only when SystemConfig::collect_histograms
  /// is set.
  Histogram disk_service_ms;
  Histogram net_queue_delay_ms;

  /// Fault-injection outcome over the run (zero without a schedule):
  /// site crash windows that began by the end of the run, their total
  /// downtime, and (with collect_histograms) the downtime distribution.
  int64_t crashes = 0;
  double crash_downtime_ms = 0.0;
  Histogram downtime_ms;
};

/// Result of executing a batch of queries concurrently on one system.
struct ConcurrentResult {
  /// Per-query metrics, in batch order. Every field is attributed to that
  /// query alone (response_ms from its own start time; pages, messages,
  /// and bytes it put on the wire). System-wide usage lives in `totals`.
  std::vector<ExecMetrics> per_query;
  /// Whole-run resource totals (shared cluster state).
  BatchTotals totals;
  /// Per-query causal span sets, parallel to `per_query`; filled only when
  /// SystemConfig::collect_spans is set.
  std::vector<sim::QuerySpans> spans;
  /// Time until the last query completes (submission-relative starts
  /// included).
  double makespan_ms = 0.0;
};

/// Multi-query execution (the paper's Section 7 future work: "the impact
/// of caching and the use of the aggregate main memory of the system in
/// multi-query workloads"). Queries start at their configured start_ms
/// (default: all at time 0) on their home clients and share the simulated
/// sites -- CPUs, disks, the network, and each site's buffer pool
/// (maximum-allocation joins queue for memory when it runs short).
ConcurrentResult ExecuteConcurrent(const std::vector<WorkloadQuery>& batch,
                                   const Catalog& catalog,
                                   const SystemConfig& config,
                                   uint64_t seed = 0);

/// Incremental execution session: one simulated cluster on which bound
/// plans can be submitted at any virtual time -- up front (before Run) or
/// dynamically from coroutine processes running inside the simulation.
/// This is the engine under ExecuteConcurrent and the closed-loop workload
/// driver (src/workload/driver.h).
///
/// Usage:
///   ExecSession session(catalog, config, seed);
///   session.ExpectQueries(n);            // completion target for load gens
///   int t = session.Submit(plan, query); // at current virtual time
///   session.Run();                       // drive to completion
///   session.Metrics(t).response_ms;
class ExecSession {
 public:
  ExecSession(const Catalog& catalog, const SystemConfig& config,
              uint64_t seed);
  ~ExecSession();
  ExecSession(const ExecSession&) = delete;
  ExecSession& operator=(const ExecSession&) = delete;

  sim::Simulator& sim() { return sim_; }
  ExecSystem& system() { return system_; }
  /// Fault oracle of this session (null when the config has no schedule or
  /// an empty one). The workload driver uses it for crash detection, retry
  /// decisions, and availability-windowed statistics.
  sim::FaultState* faults() { return fault_state_.get(); }

  /// Declares how many query completions this session will see in total;
  /// external load generators (and the all-done flag) wind down only once
  /// that many queries have finished. Must be called before Run() when
  /// queries are submitted dynamically; Submit() past the declared count
  /// check-fails.
  void ExpectQueries(int count);

  /// Submits a fully bound plan at the current virtual time; returns a
  /// ticket for querying completion and metrics. The plan's display must
  /// be bound to a client site.
  int Submit(const Plan& plan, const QueryGraph& query);

  bool IsDone(int ticket) const;
  /// Metrics of a completed query (valid once IsDone(ticket)).
  const ExecMetrics& Metrics(int ticket) const;
  /// Submission time of the query, ms.
  double StartMs(int ticket) const;
  /// Causal span set of a completed query, or null when the session does
  /// not collect spans (SystemConfig::collect_spans).
  const sim::QuerySpans* Spans(int ticket) const;

  /// Awaitable completion of a submitted query, for coroutine processes
  /// running inside this session's simulation.
  auto UntilDone(int ticket) {
    struct Awaiter {
      ExecSession& session;
      int ticket;
      bool await_ready() const { return session.IsDone(ticket); }
      void await_suspend(std::coroutine_handle<> h) {
        session.AddWaiter(ticket, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, ticket};
  }

  /// Spawns the configured external load generators (no-ops when the
  /// config has none). They run until the expected queries complete.
  void StartLoadGenerators();

  /// Runs the simulation until no events remain, then checks that every
  /// expected query completed.
  void Run();

  int completed() const { return completed_; }
  int submitted() const { return static_cast<int>(queries_.size()); }

  /// Whole-run resource totals; call after Run().
  BatchTotals Totals();

 private:
  struct QueryState;

  void AddWaiter(int ticket, std::coroutine_handle<> handle);
  PageChannel& NewChannel(int producer, int consumer);
  PageChannel& BuildNode(QueryState& state, const PlanNode& node,
                         const PlanNode& consumer, int consumer_op);
  void AttachTrace(sim::TraceSink& trace);
  void AttachHistograms();
  void AttachTelemetry(sim::TelemetrySampler& telemetry);
  void FoldKernelMetrics();

  const Catalog& catalog_;
  SystemConfig config_;
  uint64_t seed_;
  sim::Simulator sim_;
  ExecSystem system_;
  /// Present only when the config carries a non-empty fault schedule, so
  /// healthy sessions keep their pre-fault code paths bit-identical.
  std::unique_ptr<sim::FaultState> fault_state_;
  /// Frame-pool counters at construction; Run() folds the delta (this
  /// session's own allocation traffic) into the metrics registry.
  sim::FramePool::Stats pool_stats_start_;
  Histogram disk_service_hist_;
  Histogram net_queue_hist_;
  int expected_ = 0;
  bool expect_set_ = false;
  int completed_ = 0;
  bool all_done_ = false;
  bool load_generators_started_ = false;
  std::vector<std::unique_ptr<QueryState>> queries_;
  std::vector<std::unique_ptr<PageChannel>> channels_;
  /// Session-wide counter seeding the Perfetto flow ids of each network
  /// operator pair (one id block per crossing edge; deterministic).
  uint64_t next_flow_base_ = 0;
};

}  // namespace dimsum

#endif  // DIMSUM_EXEC_EXECUTOR_H_
