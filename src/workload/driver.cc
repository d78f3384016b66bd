#include "workload/driver.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "common/check.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/bottleneck.h"
#include "core/critical_path.h"
#include "opt/cost_cache.h"
#include "opt/two_step.h"
#include "plan/binding.h"
#include "sim/fault.h"
#include "sim/trace.h"

namespace dimsum {

const char* ToString(ReplicaPolicy policy) {
  switch (policy) {
    case ReplicaPolicy::kFirstCopy:
      return "first-copy";
    case ReplicaPolicy::kRoundRobin:
      return "round-robin";
    case ReplicaPolicy::kLeastOutstanding:
      return "least-outstanding";
  }
  DIMSUM_UNREACHABLE();
}

namespace {

/// Submission-time replica selection shared by both drivers. Constructed
/// only when a balancing policy is requested *and* the catalog holds
/// multiple copies of something (whole-relation replicas or shard copies);
/// single-copy or kFirstCopy runs never instantiate it, so their event and
/// allocation sequences are untouched.
///
/// Balanced submissions are cached clones of the client's plan with each
/// multi-copy scan re-pointed at the chosen replica and the clone re-bound
/// for the client; a steady state therefore allocates nothing (the variant
/// space is bounded by the product of replica counts). Single-copy scans
/// always keep the plan's own replica annotation. Shard fragments choose
/// among their shard's copies (ShardSite), so a replicated sharded
/// relation balances per shard, not per relation.
class ReplicaBalancer {
 public:
  ReplicaBalancer(const Catalog& catalog, ReplicaPolicy policy, int num_sites)
      : catalog_(catalog),
        policy_(policy),
        round_robin_(static_cast<std::size_t>(catalog.num_relations()), 0),
        outstanding_(static_cast<std::size_t>(num_sites), 0),
        ewma_ms_(static_cast<std::size_t>(num_sites), 0.0) {}

  /// The plan to submit for this arrival: `base` with every multi-copy
  /// scan's serving replica re-chosen per the policy. The returned plan is
  /// owned here and outlives the run.
  const Plan* Choose(const Plan& base, SiteId client) {
    std::vector<int32_t> assignment;
    base.ForEach([&](const PlanNode& node) {
      if (node.type != OpType::kScan) return;
      int32_t choice = node.replica;
      const int copies = catalog_.ScanCopies(node.relation);
      if (copies > 1) {
        choice = policy_ == ReplicaPolicy::kRoundRobin
                     ? NextRoundRobin(node.relation, copies)
                     : LeastOutstanding(node.relation, node.shard, copies);
      }
      assignment.push_back(choice);
    });
    auto [it, inserted] =
        variants_.try_emplace({&base, std::move(assignment)});
    if (inserted) {
      const std::vector<int32_t>& chosen = it->first.second;
      auto variant = std::make_unique<Plan>(base.Clone());
      std::size_t scan = 0;
      variant->ForEachMutable([&](PlanNode& node) {
        if (node.type == OpType::kScan) node.replica = chosen[scan++];
      });
      BindSites(*variant, catalog_, client);
      it->second = std::move(variant);
    }
    return it->second.get();
  }

  /// Submission hook: the query is in flight at each of `sites`.
  void OnSubmit(const std::vector<SiteId>& sites) {
    for (const SiteId site : sites) {
      ++outstanding_[static_cast<std::size_t>(site)];
    }
  }

  /// Completion hook: releases the in-flight counts and folds the
  /// query's response time into each touched server's EWMA estimate.
  void OnComplete(const std::vector<SiteId>& sites, double response_ms) {
    for (const SiteId site : sites) {
      --outstanding_[static_cast<std::size_t>(site)];
      double& est = ewma_ms_[static_cast<std::size_t>(site)];
      // Seed with the first observation, then decay (alpha = 0.2). A
      // never-observed site keeps est == 0, which Score treats as a
      // neutral multiplier -- cold state ranks exactly like raw counts.
      est = est > 0.0 ? kEwmaAlpha * response_ms + (1.0 - kEwmaAlpha) * est
                      : response_ms;
    }
  }

  /// Queries currently in flight that touch `site` (for telemetry).
  int outstanding(SiteId site) const {
    return outstanding_[static_cast<std::size_t>(site)];
  }

 private:
  static constexpr double kEwmaAlpha = 0.2;

  /// Serving site of copy `replica` of a scan: the shard's copy chain for
  /// shard fragments (and shard 0's for a logical sharded scan), the
  /// replica list otherwise.
  SiteId CopySite(RelationId rel, int32_t shard, int32_t replica) const {
    if (catalog_.sharded(rel)) {
      return catalog_.ShardSite(rel, shard >= 0 ? shard : 0, replica);
    }
    return catalog_.ReplicaSite(rel, replica);
  }

  int32_t NextRoundRobin(RelationId rel, int copies) {
    const int32_t r = round_robin_[static_cast<std::size_t>(rel)];
    round_robin_[static_cast<std::size_t>(rel)] = (r + 1) % copies;
    return r;
  }

  int32_t LeastOutstanding(RelationId rel, int32_t shard, int copies) const {
    // Rank candidates lexicographically: live queue depth (in-flight
    // queries touching the site) first, the site's decayed response-time
    // estimate second, lowest server site last. Queue depth stays the
    // primary signal because whole-query response times are recency-
    // confounded: under a building backlog later completions always
    // report longer responses, so a site avoided for a while keeps a
    // frozen (and eventually flattering) estimate -- weighting the count
    // *by* the estimate lets that staleness override live queue state and
    // herds submissions. Depth ties are where the count is uninformative,
    // and there the EWMA steers toward the site that has actually been
    // completing faster (unobserved sites rank as estimate 0, i.e. are
    // preferred -- which also makes a cold balancer rank exactly like the
    // raw-count policy).
    //
    // Residual ties break toward the lowest *server site*, not the lowest
    // replica index: relations whose copy lists are rotations of each
    // other then agree on the winning site, so a query's scans co-locate
    // and the whole query lands on the least-loaded server (join-the-
    // shortest-queue per query rather than per relation). The estimate is
    // per site, so co-location survives the EWMA tie-break too.
    const auto ewma = [&](SiteId site) {
      return ewma_ms_[static_cast<std::size_t>(site)];
    };
    int32_t best = 0;
    SiteId best_site = CopySite(rel, shard, 0);
    for (int32_t r = 1; r < copies; ++r) {
      const SiteId site = CopySite(rel, shard, r);
      const int load = outstanding(site);
      const int best_load = outstanding(best_site);
      const bool wins =
          load < best_load ||
          (load == best_load &&
           (ewma(site) < ewma(best_site) ||
            (ewma(site) == ewma(best_site) && site < best_site)));
      if (wins) {
        best = r;
        best_site = site;
      }
    }
    return best;
  }

  const Catalog& catalog_;
  const ReplicaPolicy policy_;
  std::vector<int32_t> round_robin_;       // per-relation rotation cursor
  std::vector<int> outstanding_;           // per-site in-flight queries
  std::vector<double> ewma_ms_;            // per-site response-time EWMA
  std::map<std::pair<const Plan*, std::vector<int32_t>>,
           std::unique_ptr<Plan>>
      variants_;
};

/// True when some sharded relation keeps more than one copy per shard
/// (chained declustering), giving a balancing policy a real choice.
bool HasBalancedShards(const Catalog& catalog) {
  for (RelationId id = 0; id < catalog.num_relations(); ++id) {
    if (catalog.sharded(id) && catalog.ShardReplication(id) > 1) return true;
  }
  return false;
}

/// Creates a balancer when the (policy, catalog) pair calls for one.
std::unique_ptr<ReplicaBalancer> MakeBalancer(const Catalog& catalog,
                                              ReplicaPolicy policy,
                                              int num_sites) {
  if (policy == ReplicaPolicy::kFirstCopy ||
      (!catalog.replicated() && !HasBalancedShards(catalog))) {
    return nullptr;
  }
  return std::make_unique<ReplicaBalancer>(catalog, policy, num_sites);
}

/// Rejects workloads that do not match the cluster: one present, bound
/// workload per client site, each displaying at its own client.
void CheckClients(const std::vector<ClientWorkload>& clients,
                  const Catalog& catalog, const SystemConfig& config) {
  const int num_clients = static_cast<int>(clients.size());
  DIMSUM_CHECK_GE(num_clients, 1);
  DIMSUM_CHECK_EQ(num_clients, config.num_clients);
  DIMSUM_CHECK_EQ(num_clients, catalog.num_clients());
  for (int c = 0; c < num_clients; ++c) {
    const ClientWorkload& work = clients[c];
    DIMSUM_CHECK(work.plan != nullptr);
    DIMSUM_CHECK(work.query != nullptr);
    DIMSUM_CHECK(!work.plan->empty());
    DIMSUM_CHECK_EQ(work.plan->root()->bound_site, ClientSite(c))
        << "client " << c << "'s plan displays elsewhere";
    DIMSUM_CHECK_EQ(work.query->home_client, ClientSite(c));
  }
}

/// The replica-policy label query-log records carry.
std::string PolicyLabel(const LoopConfig& loop) {
  return loop.policy_label.empty() ? ToString(loop.replica_policy)
                                   : loop.policy_label;
}

/// Opens an open-loop record's critical path with the admission wait
/// (arrival to dispatch or rejection); with it the segments tile
/// [arrival, complete], so they sum to the open-loop response time.
void AddAdmission(QueryLogRecord& record) {
  if (record.submit_ms > record.issue_ms) {
    record.path.segments.insert(
        record.path.segments.begin(),
        PathSegment{PathKind::kAdmission, true, kUnboundSite,
                    record.submit_ms - record.issue_ms});
  }
  record.path.total_ms = record.response_ms;
}

double Ci90(const RunningStat& stat) {
  return stat.count() >= 2 ? stat.ConfidenceHalfWidth90() : 0.0;
}

/// The run core both drivers share; only how queries arrive differs
/// between them. Its calls are plain functions made from the drivers'
/// coroutines, so it schedules no event of its own. Lives in the entry
/// point's frame, which outlives session().Run().
class LoopRun {
 public:
  LoopRun(const Catalog& catalog, const SystemConfig& config,
          const LoopConfig& loop, LoopResult& result)
      : catalog_(catalog),
        page_bytes_(config.params.page_bytes),
        loop_(loop),
        result_(result),
        // Query logging needs spans and actuals; both are pure observation,
        // so forcing them on the session's config copy leaves results
        // bit-identical.
        collect_actuals_(config.collect_operator_actuals ||
                         loop.collect_query_log),
        session_(catalog, SessionConfig(config, loop.collect_query_log),
                 loop.seed),
        balancer_(MakeBalancer(catalog, loop.replica_policy,
                               config.num_sites())),
        rng_(loop.seed * 6364136223846793005ULL + 1442695040888963407ULL) {
    DIMSUM_CHECK_GE(loop.num_batches, 1);
  }
  // The drivers' coroutines hold the run's address.
  LoopRun(const LoopRun&) = delete;
  LoopRun& operator=(const LoopRun&) = delete;

  const Catalog& catalog() const { return catalog_; }
  int page_bytes() const { return page_bytes_; }
  ExecSession& session() { return session_; }
  sim::Simulator& sim() { return session_.sim(); }
  /// Non-null when a balancing policy is active (see ReplicaBalancer).
  const ReplicaBalancer* balancer() const { return balancer_.get(); }
  bool collect_log() const { return loop_.collect_query_log; }
  /// An independent random stream derived from the run's seed.
  Rng ForkRng() { return rng_.Fork(); }

  /// Server sites `plan` touches, computed once per plan. `plan` must stay
  /// alive for the rest of the run, since the cache keys on its address.
  const std::vector<SiteId>& ServerSites(const Plan& plan) {
    return Facts(plan).server_sites;
  }

  /// Keeps a recovery re-planned tree alive for the queries that run on it.
  const Plan* Adopt(std::unique_ptr<Plan> plan) {
    return adopted_.emplace_back(std::move(plan)).get();
  }

  /// Submits `plan` for `client` now and returns its ticket. An
  /// as-planned submission (the client's own plan) is balanced first; a
  /// recovery re-planned tree already chose its sites around the crash and
  /// is submitted as is. Records the plan the ticket executes and, when
  /// given, the aborted attempts that preceded it.
  int Submit(const ClientWorkload& work, const Plan& plan, SiteId client,
             std::optional<std::vector<QueryLogAttempt>> attempts = {}) {
    const Plan* to_submit = &plan;
    if (balancer_ != nullptr && to_submit == work.plan) {
      to_submit = balancer_->Choose(plan, client);
    }
    const int ticket = session_.Submit(*to_submit, *work.query);
    DIMSUM_CHECK_EQ(ticket, static_cast<int>(ticket_plans_.size()));
    const PlanFacts& facts = Facts(*to_submit);
    if (balancer_ != nullptr) balancer_->OnSubmit(facts.server_sites);
    ticket_plans_.push_back(&facts);
    if (attempts) attempts_.push_back(std::move(*attempts));
    return ticket;
  }

  /// Records `ticket`'s completion now, in global completion order.
  void Complete(int ticket, SiteId client, double arrival_ms,
                double submit_ms) {
    const double now = sim().now();
    if (balancer_ != nullptr) {
      balancer_->OnComplete(ticket_plans_[ticket]->server_sites,
                            now - submit_ms);
    }
    result_.completions.push_back(
        Completion{ticket, client, arrival_ms, submit_ms, now});
  }

  /// Fills the LoopResult after session().Run(): per-query metrics,
  /// totals, the bottleneck, completed-query log records and the
  /// steady-state estimates past the first `warmup` completions. Response
  /// time runs from arrival when `from_arrival` (the open loop, whose
  /// records then carry an "admission" segment), else from submission.
  void Finish(int warmup, bool from_arrival);

 private:
  /// What the run needs of one plan, computed once (plans repeat across
  /// tickets).
  struct PlanFacts {
    std::vector<SiteId> server_sites;  // balancer load, crash checks, fanout
    std::vector<SiteId> op_sites;      // when actuals are collected
    uint64_t signature = 0;            // when the query log is collected
  };

  static SystemConfig SessionConfig(SystemConfig config, bool query_log) {
    if (query_log) {
      config.collect_spans = true;
      config.collect_operator_actuals = true;
    }
    return config;
  }

  const PlanFacts& Facts(const Plan& plan) {
    auto [it, inserted] = plans_.try_emplace(&plan);
    if (inserted) {
      it->second.server_sites = BoundServerSites(plan, catalog_, page_bytes_);
      if (collect_actuals_) it->second.op_sites = OperatorSites(plan);
      if (collect_log()) {
        it->second.signature = HashPlanSignature(PlanSignature(plan));
      }
    }
    return it->second;
  }

  const Catalog& catalog_;
  const int page_bytes_;
  const LoopConfig& loop_;
  LoopResult& result_;
  const bool collect_actuals_;
  ExecSession session_;
  std::unique_ptr<ReplicaBalancer> balancer_;
  Rng rng_;
  std::map<const Plan*, PlanFacts> plans_;
  std::vector<std::unique_ptr<Plan>> adopted_;
  /// Per ticket: the executed plan's facts, and (closed loop only) the
  /// aborted submission attempts before it.
  std::vector<const PlanFacts*> ticket_plans_;
  std::vector<std::vector<QueryLogAttempt>> attempts_;
};

void LoopRun::Finish(int warmup, bool from_arrival) {
  LoopResult& r = result_;
  r.totals = session_.Totals();
  const int total = session_.submitted();
  r.per_query.reserve(total);
  for (int t = 0; t < total; ++t) r.per_query.push_back(session_.Metrics(t));
  r.makespan_ms =
      r.completions.empty() ? 0.0 : r.completions.back().complete_ms;
  const auto response_ms = [from_arrival](const Completion& c) {
    return c.complete_ms - (from_arrival ? c.arrival_ms : c.submit_ms);
  };
  if (collect_actuals_) {
    BottleneckAccumulator acc;
    for (const Completion& c : r.completions) {
      acc.Add(ticket_plans_[c.ticket]->op_sites, r.per_query[c.ticket]);
    }
    r.bottleneck = acc.Finish(r.totals, r.makespan_ms);
  }
  if (collect_log()) {
    const std::string policy = PolicyLabel(loop_);
    r.query_log.reserve(r.completions.size());
    for (const Completion& c : r.completions) {
      const PlanFacts& facts = *ticket_plans_[c.ticket];
      QueryLogRecord record;
      record.policy = policy;
      record.ticket = c.ticket;
      record.client = c.client;
      record.plan_signature = facts.signature;
      record.fanout = facts.server_sites;
      record.issue_ms = c.arrival_ms;
      record.submit_ms = c.submit_ms;
      record.complete_ms = c.complete_ms;
      record.response_ms = response_ms(c);
      if (!attempts_.empty()) record.attempts = attempts_[c.ticket];
      for (const OperatorActual& a : r.per_query[c.ticket].operator_actuals) {
        record.cpu_elapsed_ms += a.cpu_ms;
        record.disk_elapsed_ms += a.disk_ms;
        record.net_elapsed_ms += a.net_ms;
        record.stall_elapsed_ms += a.stall_ms;
      }
      const sim::QuerySpans* spans = session_.Spans(c.ticket);
      DIMSUM_CHECK(spans != nullptr);
      record.path = ExtractCriticalPath(*spans);
      if (from_arrival) AddAdmission(record);
      r.query_log.push_back(std::move(record));
    }
  }

  // Steady-state estimation over the post-warmup completions, in global
  // completion order (the batch-means method over one merged output
  // stream).
  const int completed = static_cast<int>(r.completions.size());
  warmup = std::min(warmup, completed);
  r.warmup_end_ms = warmup > 0 ? r.completions[warmup - 1].complete_ms : 0.0;
  r.measured = completed - warmup;
  const double window_ms = r.makespan_ms - r.warmup_end_ms;
  r.throughput_qps = window_ms > 0.0 ? r.measured / window_ms * 1000.0 : 0.0;

  // Batch means: split the measured stream into num_batches contiguous
  // batches of floor(measured / num_batches) completions (at least one),
  // folding the remainder into the last batch.
  const int batch_size = std::max(1, r.measured / loop_.num_batches);
  RunningStat overall;
  RunningStat batch;
  int in_batch = 0;
  int batches_done = 0;
  for (int i = warmup; i < completed; ++i) {
    const double ms = response_ms(r.completions[i]);
    overall.Add(ms);
    batch.Add(ms);
    ++in_batch;
    const bool last_batch = batches_done + 1 >= loop_.num_batches;
    if (in_batch >= batch_size && !last_batch) {
      r.batch_means.Add(batch.mean());
      batch = RunningStat();
      in_batch = 0;
      ++batches_done;
    }
  }
  if (in_batch > 0) r.batch_means.Add(batch.mean());
  r.mean_response_ms = overall.mean();
  r.response_ci90_ms = Ci90(r.batch_means);
}

/// Crash detection and retry schedule of a closed-loop client, in virtual
/// ms. A submission attempt against a crashed site times out after
/// kDetectTimeoutMs; attempts are spaced by an exponential backoff from
/// kBackoffBaseMs, x2 per attempt, capped at kBackoffCapMs. After
/// kMaxRetries aborted attempts the client stops backing off and waits for
/// the site to restart (a query is never abandoned: ExecSession requires
/// every expected query to complete).
constexpr double kDetectTimeoutMs = 100.0;
constexpr int kMaxRetries = 8;
constexpr double kBackoffBaseMs = 100.0;
constexpr double kBackoffMult = 2.0;
constexpr double kBackoffCapMs = 5000.0;

/// One closed-loop client: submit, await completion, think, repeat. With a
/// fault schedule, each submission first runs crash detection and recovery
/// (see RetryPolicy and the schedule above).
sim::Process ClientProcess(LoopRun& run, DriverResult& result,
                           const DriverConfig& driver,
                           const ClientWorkload& work, SiteId client, Rng rng) {
  sim::Simulator& sim = run.sim();
  const Plan* plan = work.plan;
  sim::FaultState* faults = run.session().faults();
  for (int i = 0; i < driver.queries_per_client; ++i) {
    if (i > 0 && driver.think_time_mean_ms > 0.0) {
      co_await sim.Delay(rng.Exponential(driver.think_time_mean_ms));
    }
    const double issue_ms = sim.now();
    std::vector<QueryLogAttempt> attempt_log;
    if (faults != nullptr) {
      double backoff_ms = kBackoffBaseMs;
      while (true) {
        // The previous attempt's wait ran until this re-check instant.
        if (!attempt_log.empty() && attempt_log.back().wait_ms == 0.0) {
          attempt_log.back().wait_ms =
              sim.now() - attempt_log.back().start_ms;
        }
        std::vector<SiteId> down;
        for (const SiteId site : run.ServerSites(*plan)) {
          if (faults->SiteDown(site, sim.now())) down.push_back(site);
        }
        if (down.empty()) break;
        // The submission attempt times out against the crashed site.
        ++result.total_retries;
        attempt_log.push_back(QueryLogAttempt{sim.now(), 0.0, false});
        co_await sim.Delay(kDetectTimeoutMs);
        if (driver.retry.reoptimize && work.reopt_model != nullptr &&
            work.reopt_config != nullptr) {
          OptimizerConfig reopt = *work.reopt_config;
          reopt.unavailable_sites = faults->DownSites(sim.now());
          Rng opt_rng = rng.Fork();
          OptimizeResult selected = TwoStepSiteSelection(
              *work.reopt_model, *work.plan, *work.query, reopt, opt_rng);
          ++result.total_reopts;
          attempt_log.back().reoptimized = true;
          auto candidate = std::make_unique<Plan>(std::move(selected.plan));
          BindSites(*candidate, run.catalog(), client);
          // Not run.ServerSites: a discarded candidate's address may be
          // reused, so only adopted plans enter the cache.
          bool avoids_down = true;
          for (const SiteId site :
               BoundServerSites(*candidate, run.catalog(), run.page_bytes())) {
            if (faults->SiteDown(site, sim.now())) avoids_down = false;
          }
          if (avoids_down) {
            plan = run.Adopt(std::move(candidate));
            continue;  // re-check and submit the recovered plan
          }
        }
        if (static_cast<int>(attempt_log.size()) >= kMaxRetries) {
          // Out of retries; wait for the first blocking site to restart
          // (queries are never abandoned).
          while (faults->SiteDown(down.front(), sim.now())) {
            co_await sim.Delay(faults->SiteUpAt(down.front(), sim.now()) -
                               sim.now());
          }
          continue;
        }
        co_await sim.Delay(backoff_ms);
        backoff_ms = std::min(backoff_ms * kBackoffMult, kBackoffCapMs);
      }
    }
    const double submit_ms = sim.now();
    const int retries = static_cast<int>(attempt_log.size());
    const int ticket = run.Submit(work, *plan, client, std::move(attempt_log));
    result.query_client.push_back(client);
    result.retries_per_query.push_back(retries);
    co_await run.session().UntilDone(ticket);
    run.Complete(ticket, client, issue_ms, submit_ms);
  }
}

}  // namespace

DriverResult RunClosedLoop(const std::vector<ClientWorkload>& clients,
                           const Catalog& catalog, const SystemConfig& config,
                           const DriverConfig& driver) {
  const int num_clients = static_cast<int>(clients.size());
  DIMSUM_CHECK_GE(driver.queries_per_client, 1);
  DIMSUM_CHECK_GE(driver.think_time_mean_ms, 0.0);
  const int total = num_clients * driver.queries_per_client;
  DIMSUM_CHECK_GE(driver.warmup_queries, 0);
  DIMSUM_CHECK_LT(driver.warmup_queries, total)
      << "warmup must leave at least one measured completion";

  CheckClients(clients, catalog, config);
  DriverResult result;
  LoopRun run(catalog, config, driver, result);
  ExecSession& session = run.session();
  session.ExpectQueries(total);
  for (int c = 0; c < num_clients; ++c) {
    session.sim().Spawn(ClientProcess(run, result, driver, clients[c],
                                      ClientSite(c), run.ForkRng()));
  }
  session.Run();

  DIMSUM_CHECK_EQ(static_cast<int>(result.completions.size()), total);
  run.Finish(driver.warmup_queries, /*from_arrival=*/false);
  for (const ExecMetrics& metrics : result.per_query) {
    result.fault_stall_ms += metrics.fault_stall_ms;
    result.retransmits += metrics.retransmits;
  }
  result.abort_rate =
      static_cast<double>(result.total_retries) /
      static_cast<double>(total + result.total_retries);
  if (session.faults() != nullptr) {
    // Availability-windowed split: degraded when any site was down
    // somewhere in [submit, complete).
    for (const Completion& c :
         std::span(result.completions).last(result.measured)) {
      const double response_ms = c.complete_ms - c.submit_ms;
      if (session.faults()->AnySiteDownDuring(c.submit_ms, c.complete_ms)) {
        result.degraded_response_ms.Add(response_ms);
      } else {
        result.healthy_response_ms.Add(response_ms);
      }
    }
  }
  result.healthy_ci90_ms = Ci90(result.healthy_response_ms);
  result.degraded_ci90_ms = Ci90(result.degraded_response_ms);

  MetricsRegistry& registry = MetricsRegistry::Global();
  if (registry.enabled()) {
    registry.counter("driver.completions").Add(total);
  }
  if (registry.enabled() && session.faults() != nullptr) {
    registry.counter("faults.retries").Add(result.total_retries);
    registry.counter("faults.reopts").Add(result.total_reopts);
    registry.counter("faults.retransmits").Add(result.retransmits);
    registry.counter("faults.crashes").Add(result.totals.crashes);
    registry.gauge("faults.downtime_ms").Add(result.totals.crash_downtime_ms);
    registry.gauge("faults.stall_ms").Add(result.fault_stall_ms);
    if (config.collect_histograms && result.totals.downtime_ms.count() > 0) {
      registry.MergeHistogram("faults.downtime_ms_hist",
                              result.totals.downtime_ms);
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Open loop
// ---------------------------------------------------------------------------

namespace {

/// Admission state of one open-loop run, on top of the shared core. Lives
/// in RunOpenLoop's frame, which outlives session().Run().
struct OpenLoopState {
  LoopRun& run;
  const std::vector<ClientWorkload>& clients;
  const AdmissionControl& admission;
  OpenLoopResult& result;

  struct PendingArrival {
    double arrival_ms;
    int client_index;
  };
  std::deque<PendingArrival> pending{};
  int in_flight = 0;

  /// With the query log on, arrivals turned away, recorded at their
  /// rejection instants.
  struct Rejected {
    double arrival_ms;
    double reject_ms;
    SiteId client;
  };
  std::vector<Rejected> aborted_log{};
  std::vector<Rejected> shed_log{};
};

sim::Process OpenLoopQuery(OpenLoopState& state, int client_index,
                           double arrival_ms);

/// Moves an admitted arrival into execution (consumes an in-flight slot).
void OpenLoopDispatch(OpenLoopState& state, int client_index,
                      double arrival_ms) {
  ++state.in_flight;
  ++state.result.dispatched;
  if (state.in_flight > state.result.peak_in_flight) {
    state.result.peak_in_flight = state.in_flight;
  }
  state.run.sim().Spawn(OpenLoopQuery(state, client_index, arrival_ms));
}

/// Admission control at the arrival instant: dispatch if a slot is free,
/// otherwise queue up to max_pending, otherwise shed.
void OpenLoopAdmit(OpenLoopState& state, int client_index) {
  ++state.result.arrivals;
  const AdmissionControl& ac = state.admission;
  const double now = state.run.sim().now();
  if (ac.max_in_flight <= 0 || state.in_flight < ac.max_in_flight) {
    OpenLoopDispatch(state, client_index, now);
    return;
  }
  if (static_cast<int>(state.pending.size()) < ac.max_pending) {
    state.pending.push_back({now, client_index});
    if (static_cast<int>(state.pending.size()) > state.result.peak_pending) {
      state.result.peak_pending = static_cast<int>(state.pending.size());
    }
    return;
  }
  ++state.result.shed;
  if (state.run.collect_log()) {
    state.shed_log.push_back({now, now, ClientSite(client_index)});
  }
}

/// One open-loop query: submit, await completion, record, then hand the
/// freed slot to the pending queue (skipping arrivals that outwaited
/// abort_wait_ms).
sim::Process OpenLoopQuery(OpenLoopState& state, int client_index,
                           double arrival_ms) {
  LoopRun& run = state.run;
  sim::Simulator& sim = run.sim();
  const ClientWorkload& work = state.clients[client_index];
  const SiteId client = ClientSite(client_index);
  const double submit_ms = sim.now();
  const int ticket = run.Submit(work, *work.plan, client);
  co_await run.session().UntilDone(ticket);
  run.Complete(ticket, client, arrival_ms, submit_ms);
  ++state.result.completed;
  --state.in_flight;
  const AdmissionControl& ac = state.admission;
  while (!state.pending.empty() &&
         (ac.max_in_flight <= 0 || state.in_flight < ac.max_in_flight)) {
    OpenLoopState::PendingArrival next = state.pending.front();
    state.pending.pop_front();
    if (ac.abort_wait_ms > 0.0 &&
        sim.now() - next.arrival_ms > ac.abort_wait_ms) {
      ++state.result.aborted;
      if (state.run.collect_log()) {
        state.aborted_log.push_back(
            {next.arrival_ms, sim.now(), ClientSite(next.client_index)});
      }
      continue;
    }
    OpenLoopDispatch(state, next.client_index, next.arrival_ms);
  }
}

/// The arrival generator: produces arrivals over [0, duration_ms) from the
/// configured process, assigning them round-robin to client sites.
sim::Process OpenLoopGenerator(OpenLoopState& state,
                               const ArrivalProcessConfig& arrival,
                               double duration_ms, Rng rng) {
  sim::Simulator& sim = state.run.sim();
  const int num_clients = static_cast<int>(state.clients.size());
  const double mean_gap_ms = 1000.0 / arrival.rate_per_sec;
  int next_client = 0;
  auto admit = [&] {
    OpenLoopAdmit(state, next_client);
    next_client = (next_client + 1) % num_clients;
  };
  switch (arrival.kind) {
    case ArrivalKind::kPoisson: {
      while (true) {
        const double dt = rng.Exponential(mean_gap_ms);
        if (sim.now() + dt >= duration_ms) break;
        co_await sim.Delay(dt);
        admit();
      }
      break;
    }
    case ArrivalKind::kBursty: {
      // Alternate exponential ON phases (arrivals at burst_factor times
      // the base rate) with exponential OFF phases (no arrivals).
      const double on_gap_ms = mean_gap_ms / arrival.burst_factor;
      bool on = true;
      double phase_end_ms = rng.Exponential(arrival.burst_on_mean_ms);
      while (sim.now() < duration_ms) {
        if (!on) {
          const double resume_ms = std::min(phase_end_ms, duration_ms);
          if (resume_ms > sim.now()) co_await sim.Delay(resume_ms - sim.now());
          if (sim.now() >= duration_ms) break;
          on = true;
          phase_end_ms = sim.now() + rng.Exponential(arrival.burst_on_mean_ms);
          continue;
        }
        const double dt = rng.Exponential(on_gap_ms);
        if (sim.now() + dt >= phase_end_ms) {
          const double resume_ms = std::min(phase_end_ms, duration_ms);
          if (resume_ms > sim.now()) co_await sim.Delay(resume_ms - sim.now());
          if (sim.now() >= duration_ms) break;
          on = false;
          phase_end_ms = sim.now() + rng.Exponential(arrival.burst_off_mean_ms);
          continue;
        }
        if (sim.now() + dt >= duration_ms) break;
        co_await sim.Delay(dt);
        admit();
      }
      break;
    }
    case ArrivalKind::kDiurnal: {
      // Thinning (Lewis-Shedler): candidate arrivals at the peak rate,
      // each kept with probability rate(t) / peak_rate.
      const double peak_rate = arrival.rate_per_sec *
                               (1.0 + arrival.diurnal_amplitude);
      const double peak_gap_ms = 1000.0 / peak_rate;
      constexpr double kTwoPi = 6.28318530717958647692;
      while (true) {
        const double dt = rng.Exponential(peak_gap_ms);
        if (sim.now() + dt >= duration_ms) break;
        co_await sim.Delay(dt);
        const double rate =
            arrival.rate_per_sec *
            (1.0 + arrival.diurnal_amplitude *
                       std::sin(kTwoPi * sim.now() / arrival.diurnal_period_ms));
        if (rng.NextDouble() * peak_rate < rate) admit();
      }
      break;
    }
  }
}

}  // namespace

OpenLoopResult RunOpenLoop(const std::vector<ClientWorkload>& clients,
                           const Catalog& catalog, const SystemConfig& config,
                           const OpenLoopConfig& openloop) {
  DIMSUM_CHECK_GT(openloop.arrival.rate_per_sec, 0.0);
  DIMSUM_CHECK_GT(openloop.duration_ms, 0.0);
  DIMSUM_CHECK_GE(openloop.warmup_completions, 0);
  if (openloop.arrival.kind == ArrivalKind::kBursty) {
    DIMSUM_CHECK_GT(openloop.arrival.burst_factor, 0.0);
    DIMSUM_CHECK_GT(openloop.arrival.burst_on_mean_ms, 0.0);
    DIMSUM_CHECK_GT(openloop.arrival.burst_off_mean_ms, 0.0);
  }
  if (openloop.arrival.kind == ArrivalKind::kDiurnal) {
    DIMSUM_CHECK_GE(openloop.arrival.diurnal_amplitude, 0.0);
    DIMSUM_CHECK_LE(openloop.arrival.diurnal_amplitude, 1.0);
    DIMSUM_CHECK_GT(openloop.arrival.diurnal_period_ms, 0.0);
  }
  DIMSUM_CHECK_GE(openloop.admission.max_in_flight, 0);
  DIMSUM_CHECK_GE(openloop.admission.max_pending, 0);
  DIMSUM_CHECK_GE(openloop.admission.abort_wait_ms, 0.0);
  CheckClients(clients, catalog, config);

  OpenLoopResult result;
  // The shed count is only known at the end, so the session's completion
  // target grows dynamically with each Submit (no ExpectQueries).
  LoopRun run(catalog, config, openloop, result);
  ExecSession& session = run.session();
  OpenLoopState state{run, clients, openloop.admission, result};
  if (config.telemetry != nullptr) {
    // Admission-control gauges ride the sampler's existing boundaries on
    // their own "driver" track (one past the network pid). Pure reads of
    // RunOpenLoop's frame state: non-perturbing by the same argument as
    // the resource probes (DESIGN.md section 8).
    const int driver_pid = session.system().num_sites() + 1;
    config.telemetry->AddGauge(
        driver_pid, kUnboundSite, "admission", "in_flight",
        [&state] { return static_cast<double>(state.in_flight); });
    config.telemetry->AddGauge(
        driver_pid, kUnboundSite, "admission", "pending",
        [&state] { return static_cast<double>(state.pending.size()); });
    if (const ReplicaBalancer* balancer = run.balancer()) {
      // Per-server in-flight gauges: the balancing policy's own view of
      // server load, sampled on the same non-perturbing boundaries.
      for (SiteId s = catalog.num_clients();
           s < session.system().num_sites(); ++s) {
        config.telemetry->AddGauge(
            driver_pid, s, "replica", "outstanding", [balancer, s] {
              return static_cast<double>(balancer->outstanding(s));
            });
      }
    }
    if (config.trace != nullptr) {
      config.trace->SetProcessName(driver_pid, "driver");
    }
  }
  session.sim().Spawn(OpenLoopGenerator(state, openloop.arrival,
                                        openloop.duration_ms, run.ForkRng()));
  session.Run();

  DIMSUM_CHECK_EQ(result.completed, result.dispatched);
  DIMSUM_CHECK_EQ(result.arrivals,
                  result.dispatched + result.shed + result.aborted +
                      static_cast<int64_t>(state.pending.size()));
  // Pending arrivals that never got a slot before the run drained count as
  // aborted (they were admitted but never executed).
  result.aborted += static_cast<int64_t>(state.pending.size());
  if (openloop.collect_query_log) {
    for (const OpenLoopState::PendingArrival& p : state.pending) {
      state.aborted_log.push_back(
          {p.arrival_ms, session.sim().now(), ClientSite(p.client_index)});
    }
    result.query_log.reserve(result.completions.size() +
                             state.aborted_log.size() +
                             state.shed_log.size());
  }
  run.Finish(openloop.warmup_completions, /*from_arrival=*/true);
  if (openloop.collect_query_log) {
    const std::string policy = PolicyLabel(openloop);
    auto rejected = [&](const OpenLoopState::Rejected& r,
                        const char* outcome) {
      QueryLogRecord record;
      record.policy = policy;
      record.client = r.client;
      record.outcome = outcome;
      record.issue_ms = r.arrival_ms;
      record.submit_ms = r.reject_ms;
      record.complete_ms = r.reject_ms;
      record.response_ms = r.reject_ms - r.arrival_ms;
      AddAdmission(record);
      result.query_log.push_back(std::move(record));
    };
    for (const OpenLoopState::Rejected& r : state.aborted_log) {
      rejected(r, "aborted");
    }
    for (const OpenLoopState::Rejected& r : state.shed_log) {
      rejected(r, "shed");
    }
  }
  result.offered_qps = result.arrivals / openloop.duration_ms * 1000.0;
  result.processed_events = session.sim().processed_events();
  result.peak_event_queue_depth = session.sim().peak_queue_depth();
  RunningStat queue_wait;
  for (const Completion& c :
       std::span(result.completions).last(result.measured)) {
    queue_wait.Add(c.submit_ms - c.arrival_ms);
  }
  result.mean_queue_wait_ms = queue_wait.mean();

  MetricsRegistry& registry = MetricsRegistry::Global();
  if (registry.enabled()) {
    registry.counter("driver.arrivals").Add(result.arrivals);
    registry.counter("driver.dispatched").Add(result.dispatched);
    registry.counter("driver.completions").Add(result.completed);
    registry.counter("driver.shed").Add(result.shed);
    registry.counter("driver.aborted").Add(result.aborted);
    Gauge& peak = registry.gauge("driver.peak_pending");
    if (result.peak_pending > peak.value()) {
      peak.Set(static_cast<double>(result.peak_pending));
    }
  }
  return result;
}

}  // namespace dimsum
