#ifndef DIMSUM_WORKLOAD_DRIVER_H_
#define DIMSUM_WORKLOAD_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/ids.h"
#include "common/stats.h"
#include "core/bottleneck.h"
#include "exec/executor.h"
#include "exec/metrics.h"
#include "exec/runtime.h"
#include "plan/plan.h"
#include "plan/query.h"
#include "workload/querylog.h"

namespace dimsum {

class CostModel;
struct OptimizerConfig;

/// One client's closed-loop workload: the bound plan it re-issues (display
/// bound to that client's site) and the matching query graph (home_client
/// set to the client's site). Both must outlive the driver run.
struct ClientWorkload {
  const Plan* plan = nullptr;
  const QueryGraph* query = nullptr;
  /// Optional recovery hooks. When both are set, the run has a fault
  /// schedule, and the retry policy enables re-optimization, a client whose
  /// plan touches a crashed server re-runs 2-step site selection (compiled
  /// join order of `plan` kept) against `reopt_model` with the crashed
  /// sites marked unavailable, adopting the new plan if it avoids them.
  /// Both must outlive the driver run.
  const CostModel* reopt_model = nullptr;
  const OptimizerConfig* reopt_config = nullptr;
};

/// How a client reacts when its plan depends on a crashed site. Each
/// aborted attempt takes a fixed detection timeout and a capped exponential
/// backoff; after a fixed number of attempts the client waits for the site
/// to restart (the schedule is stated beside ClientProcess).
struct RetryPolicy {
  /// Re-run site selection around crashed sites (needs the workload's
  /// reopt_model / reopt_config; ignored without them).
  bool reoptimize = true;
};

/// How the driver chooses among a relation's copies at submission time.
/// Balancing applies only when the catalog is replicated (some relation
/// has more than one copy); on unreplicated catalogs every policy takes
/// exactly the kFirstCopy code path, so existing runs are bit-identical.
enum class ReplicaPolicy {
  /// Submit each plan exactly as bound: scans read the serving replicas the
  /// optimizer chose (index 0, the primary, unless a replica move changed
  /// it). The default.
  kFirstCopy,
  /// Rotate each multi-copy relation's scans over its replicas in placement
  /// order, one step per submission (per-relation counters shared by all
  /// clients).
  kRoundRobin,
  /// Point each multi-copy scan at the replica whose server currently has
  /// the least queueing exposure, ranked lexicographically: fewest
  /// in-flight queries touching the site first, then -- only to order
  /// depth ties -- the site's decayed (EWMA, alpha 0.2) estimate of the
  /// response time of queries that touched it, then the lowest server
  /// site. Unobserved sites carry a zero estimate, so cold starts rank
  /// exactly like raw in-flight counts, and the final site-id tie-break
  /// keeps co-placed relations agreeing on the winner so whole queries
  /// co-locate. Counts and estimates update at submit/complete instants
  /// in virtual time, so the choice is deterministic. Shard fragments
  /// choose among their shard's copies (chained declustering), balancing
  /// per shard.
  kLeastOutstanding,
};

/// "first-copy", "round-robin", or "least-outstanding".
const char* ToString(ReplicaPolicy policy);

/// Settings both workload drivers share.
struct LoopConfig {
  /// Number of batches for batch-means estimation of the response-time
  /// mean. Fewer measured completions than batches degrades gracefully
  /// (each batch holds at least one sample; leftovers fold into the last).
  int num_batches = 10;
  uint64_t seed = 0;
  /// Submission-time replica selection (see ReplicaPolicy). Balanced
  /// submissions are rewritten copies of the client's plan; recovery
  /// re-planned trees are submitted as-is.
  ReplicaPolicy replica_policy = ReplicaPolicy::kFirstCopy;
  /// Emit one wide-event record per query (LoopResult::query_log,
  /// workload/querylog.h). Forces span and actuals collection on the run's
  /// SystemConfig copy -- both are pure observation, so simulation results
  /// are unchanged (bit-identical; asserted by tests).
  bool collect_query_log = false;
  /// Policy label stamped into query-log records; empty uses
  /// ToString(replica_policy).
  std::string policy_label;
};

/// Parameters of a closed-loop multi-client run.
struct DriverConfig : LoopConfig {
  /// Completions each client contributes before retiring.
  int queries_per_client = 10;
  /// Mean of the exponential think time between a query's completion and
  /// the client's next submission, ms. Zero thinks are skipped entirely
  /// (the next query is submitted at the completion instant).
  double think_time_mean_ms = 0.0;
  /// Completions (in global completion order) discarded as warmup before
  /// steady-state estimation starts.
  int warmup_queries = 0;
  /// Crash detection/retry behavior; only consulted when the SystemConfig
  /// carries a fault schedule.
  RetryPolicy retry;
};

/// One completed query, in global completion order.
struct Completion {
  int ticket = 0;        // index into LoopResult::per_query
  SiteId client = 0;     // home client
  /// Open loop: the arrival. Closed loop: the instant the client issued
  /// the query, before crash retries.
  double arrival_ms = 0.0;
  double submit_ms = 0.0;
  double complete_ms = 0.0;
};

/// Results both workload drivers report.
struct LoopResult {
  /// Per-query attributed metrics, indexed by ticket (submission order).
  std::vector<ExecMetrics> per_query;
  /// All completions in global completion order (warmup included).
  std::vector<Completion> completions;
  /// System-wide resource totals over the whole run (warmup included).
  BatchTotals totals;
  /// Time of the last completion (0 when nothing completed), ms.
  double makespan_ms = 0.0;
  /// Run-level bottleneck attribution (queueing vs service against the
  /// run's shared resource totals), populated only when the SystemConfig
  /// set collect_operator_actuals. Each query counts against the plan it
  /// executed: the balanced variant or a recovery re-planned tree.
  BottleneckReport bottleneck;
  /// Wide-event records of completed queries in global completion order,
  /// populated only when collect_query_log is set.
  std::vector<QueryLogRecord> query_log;

  // --- Steady-state estimates over the post-warmup window ---
  /// End of the warmup window: completion time of the last discarded
  /// query (0 without warmup).
  double warmup_end_ms = 0.0;
  /// Number of measured (post-warmup) completions.
  int measured = 0;
  /// Measured completions per second of virtual time.
  double throughput_qps = 0.0;
  /// Mean response time over measured completions, ms.
  double mean_response_ms = 0.0;
  /// 90% confidence half-width of the mean, from batch means (0 when
  /// fewer than two batches have samples).
  double response_ci90_ms = 0.0;
  /// The batch means themselves (one sample per batch).
  RunningStat batch_means;
};

/// Results of a closed-loop run. Response time runs from submission;
/// query-log records surface crash retries per attempt.
struct DriverResult : LoopResult {
  /// Home client of each ticket.
  std::vector<SiteId> query_client;

  // --- Fault injection & recovery (all zero/empty on healthy runs) ------
  /// Aborted submission attempts per ticket (a query submitted first try
  /// has 0).
  std::vector<int> retries_per_query;
  /// Sum of retries_per_query.
  int64_t total_retries = 0;
  /// Site-selection re-optimizations performed during recovery.
  int64_t total_reopts = 0;
  /// Aborted attempts / (completions + aborted attempts).
  double abort_rate = 0.0;
  /// Virtual time operators spent stalled on crashed sites, summed over
  /// queries, ms.
  double fault_stall_ms = 0.0;
  /// Link-fault retransmissions, summed over queries.
  int64_t retransmits = 0;
  /// Availability-windowed response times over the measured completions:
  /// a completion is *degraded* when some site was down at any point
  /// between its submission and completion, *healthy* otherwise. The ci90
  /// half-widths treat samples as independent (use with the usual
  /// closed-loop caveats); populated only on faulted runs.
  RunningStat healthy_response_ms;
  RunningStat degraded_response_ms;
  double healthy_ci90_ms = 0.0;
  double degraded_ci90_ms = 0.0;
};

/// Runs a closed-loop multi-client workload on one simulated cluster: each
/// of the `clients.size()` client processes submits its query, awaits the
/// result, thinks for an exponential time, and repeats, until it has
/// completed `queries_per_client` queries. All clients share the servers'
/// CPUs and disks and the network, so the run exhibits genuine multi-client
/// contention (the paper's Section 7 multi-query direction).
///
/// `clients[i]` runs on client site i; `clients.size()` must equal both
/// `catalog.num_clients()` and `config.num_clients`, and each plan's
/// display must be bound to its client's site.
///
/// Deterministic: identical inputs (including seed) produce identical
/// results, independent of wall-clock threading (the simulation is
/// single-threaded).
DriverResult RunClosedLoop(const std::vector<ClientWorkload>& clients,
                           const Catalog& catalog, const SystemConfig& config,
                           const DriverConfig& driver);

// ---------------------------------------------------------------------------
// Open-loop workload generation
// ---------------------------------------------------------------------------

/// Shape of the open-loop arrival process. All three are driven by one
/// deterministic Rng stream, so a (config, seed) pair reproduces the exact
/// arrival sequence.
enum class ArrivalKind {
  /// Homogeneous Poisson arrivals at rate_per_sec.
  kPoisson,
  /// On/off modulated Poisson (interrupted Poisson process): exponential
  /// ON phases with arrivals at rate_per_sec * burst_factor alternate with
  /// exponential OFF phases with none. The long-run mean rate is
  /// rate_per_sec * burst_factor * on / (on + off).
  kBursty,
  /// Sinusoidally modulated Poisson via thinning:
  /// rate(t) = rate_per_sec * (1 + amplitude * sin(2*pi*t / period)).
  kDiurnal,
};

struct ArrivalProcessConfig {
  ArrivalKind kind = ArrivalKind::kPoisson;
  /// Base arrival rate, queries per second of virtual time.
  double rate_per_sec = 10.0;
  /// kBursty: mean ON / OFF phase lengths and the ON-phase rate multiplier.
  double burst_on_mean_ms = 500.0;
  double burst_off_mean_ms = 500.0;
  double burst_factor = 2.0;
  /// kDiurnal: modulation period and relative amplitude in [0, 1].
  double diurnal_period_ms = 60'000.0;
  double diurnal_amplitude = 0.5;
};

/// Admission control for open-loop arrivals. Unlike a closed loop -- where
/// the population bounds the backlog by construction -- an open-loop system
/// past saturation grows its queue without bound, so the driver enforces
/// the bound explicitly and accounts for every arrival it turns away.
struct AdmissionControl {
  /// Queries executing concurrently; arrivals past this wait in the
  /// pending queue. 0 = unlimited (every arrival dispatches immediately).
  int max_in_flight = 0;
  /// Pending-queue capacity; arrivals past it are shed (dropped at the
  /// door, counted in OpenLoopResult::shed).
  int max_pending = 0;
  /// A pending arrival that has waited longer than this when its dispatch
  /// slot opens is aborted instead of executed (counted in
  /// OpenLoopResult::aborted). 0 = never abort.
  double abort_wait_ms = 0.0;
};

/// Parameters of an open-loop run. Arrivals are generated in
/// [0, duration_ms); the run then drains whatever is in flight.
struct OpenLoopConfig : LoopConfig {
  ArrivalProcessConfig arrival;
  AdmissionControl admission;
  double duration_ms = 10'000.0;
  /// Completions (in completion order) discarded as warmup.
  int warmup_completions = 0;
};

/// Open-loop completions carry the arrival: submit_ms - arrival_ms is the
/// admission-queue wait, and response time is measured from arrival.
using OpenLoopCompletion = Completion;

/// Results of an open-loop run. Response time runs from arrival, so
/// admission-queue waits are part of it. Completed queries' log records
/// open with an "admission" segment, and records of aborted, then shed,
/// arrivals (each in event order) follow them.
struct OpenLoopResult : LoopResult {
  /// Arrival accounting: arrivals = dispatched + shed + aborted, and every
  /// dispatched query completes (completed == dispatched).
  int64_t arrivals = 0;
  int64_t dispatched = 0;
  int64_t shed = 0;
  int64_t aborted = 0;
  int64_t completed = 0;

  /// Offered load: arrivals per second over [0, duration_ms).
  double offered_qps = 0.0;
  /// Mean admission-queue wait (arrival to dispatch) over measured
  /// completions, ms.
  double mean_queue_wait_ms = 0.0;

  // --- Saturation indicators -------------------------------------------
  int peak_in_flight = 0;
  int peak_pending = 0;

  // --- Kernel counters (see sim/simulator.h) ---------------------------
  uint64_t processed_events = 0;
  uint64_t peak_event_queue_depth = 0;
};

/// Runs an open-loop workload on one simulated cluster: arrivals follow
/// the configured process regardless of completions (the load is *offered*,
/// not paced by the system -- the open-loop counterpart of RunClosedLoop's
/// think-time loop), are assigned round-robin to the client sites, and
/// pass admission control before executing. `clients[i]` provides the
/// bound plan issued from client site i; constraints match RunClosedLoop.
///
/// Deterministic: identical inputs (including seed) produce identical
/// results, independent of wall-clock threading.
OpenLoopResult RunOpenLoop(const std::vector<ClientWorkload>& clients,
                           const Catalog& catalog, const SystemConfig& config,
                           const OpenLoopConfig& openloop);

}  // namespace dimsum

#endif  // DIMSUM_WORKLOAD_DRIVER_H_
