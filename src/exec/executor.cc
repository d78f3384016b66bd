#include "exec/executor.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/metrics.h"
#include "cost/cardinality.h"
#include "exec/operators.h"
#include "plan/binding.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace dimsum {
namespace {

/// Channel capacity on operator edges: the producer side of an edge can run
/// one page ahead of its consumer (Section 3.2.1 of the paper).
constexpr size_t kPipelineDepth = 1;

/// Submits a query at its configured start time (for ExecuteConcurrent
/// entries with start_ms > 0). The ticket lands in *ticket once submitted.
sim::Process DelayedSubmit(ExecSession& session, const Plan& plan,
                           const QueryGraph& query, double start_ms,
                           int* ticket) {
  co_await session.sim().Delay(start_ms);
  *ticket = session.Submit(plan, query);
}

}  // namespace

struct ExecSession::QueryState {
  PlanStats stats;
  ExecMetrics metrics;
  std::unique_ptr<ExecContext> ctx;
  /// Causal span set (SystemConfig::collect_spans only). Owned here, not
  /// by ExecMetrics, so metrics stay bit-identical with capture on or off.
  std::unique_ptr<sim::QuerySpans> spans;
  /// Timeline ids handed out while the pipeline is built: plan operators
  /// in pre-order (display is 0), then the net pairs' synthetic ids from
  /// the plan's size up.
  int next_op = 0;
  int next_net_op = 0;
  double start_ms = 0.0;
  bool done = false;
  std::vector<std::coroutine_handle<>> waiters;
};

ExecSession::ExecSession(const Catalog& catalog, const SystemConfig& config,
                         uint64_t seed)
    : catalog_(catalog),
      config_(config),
      seed_(seed),
      system_(sim_, config),
      pool_stats_start_(sim::FramePool::ThisThread().stats()) {
  if (config_.faults != nullptr && !config_.faults->empty()) {
    fault_state_ = std::make_unique<sim::FaultState>(*config_.faults);
  }
  if (config_.trace != nullptr) AttachTrace(*config_.trace);
  if (config_.collect_histograms) AttachHistograms();
  if (config_.telemetry != nullptr) AttachTelemetry(*config_.telemetry);
  system_.LoadData(catalog_);
}

ExecSession::~ExecSession() = default;

void ExecSession::ExpectQueries(int count) {
  DIMSUM_CHECK_GE(count, submitted());
  expected_ = count;
  expect_set_ = true;
  all_done_ = completed_ >= expected_;
}

int ExecSession::Submit(const Plan& plan, const QueryGraph& query) {
  DIMSUM_CHECK(IsFullyBound(plan));
  const SiteId home = plan.root()->bound_site;
  DIMSUM_CHECK(system_.IsClientSite(home))
      << "display must be bound to a client site, got site " << home;
  DIMSUM_CHECK(query.home_client == home)
      << "query home_client " << query.home_client
      << " disagrees with the plan's display site " << home;
  const int ticket = static_cast<int>(queries_.size());
  if (expect_set_) {
    DIMSUM_CHECK_LT(ticket, expected_)
        << "more queries submitted than declared via ExpectQueries";
  } else {
    expected_ = ticket + 1;
    // A dynamic submission (open-loop arrivals) reopens the session even
    // if every earlier query already finished.
    all_done_ = false;
  }
  auto state = std::make_unique<QueryState>();
  state->start_ms = sim_.now();
  state->stats = ComputeStats(plan, catalog_, query, config_.params);
  state->ctx = std::make_unique<ExecContext>(
      ExecContext{sim_, system_, catalog_, config_.params, state->stats,
                  state->metrics});
  state->ctx->start_ms = state->start_ms;
  state->ctx->faults = fault_state_.get();
  state->next_op = 1;  // 0 is the display
  state->next_net_op = plan.Size();
  if (config_.collect_operator_actuals || config_.collect_spans) {
    state->metrics.operator_actuals.resize(state->next_net_op);
  }
  if (config_.collect_spans) {
    state->spans = std::make_unique<sim::QuerySpans>();
    state->spans->start_ms = state->start_ms;
    state->spans->root_op = 0;  // pre-order: the display root
    state->ctx->spans = state->spans.get();
  }
  QueryState* raw = state.get();
  state->ctx->on_done = [this, raw] {
    raw->done = true;
    if (raw->spans != nullptr) raw->spans->complete_ms = sim_.now();
    ++completed_;
    if (completed_ >= expected_) all_done_ = true;
    // Waiters resume at the completion time, after the display process
    // finishes, in registration order (deterministic seq tie-breaking).
    for (std::coroutine_handle<> h : raw->waiters) sim_.Resume(0.0, h);
    raw->waiters.clear();
  };
  queries_.push_back(std::move(state));
  PageChannel& result =
      BuildNode(*raw, *plan.root()->left, *plan.root(), /*consumer_op=*/0);
  if (raw->spans != nullptr) raw->spans->num_ops = raw->next_net_op;
  sim_.Spawn(DisplayProcess(*raw->ctx, *plan.root(), 0, result));
  return ticket;
}

bool ExecSession::IsDone(int ticket) const {
  DIMSUM_CHECK_GE(ticket, 0);
  DIMSUM_CHECK_LT(ticket, submitted());
  return queries_[ticket]->done;
}

const ExecMetrics& ExecSession::Metrics(int ticket) const {
  DIMSUM_CHECK(IsDone(ticket));
  return queries_[ticket]->metrics;
}

double ExecSession::StartMs(int ticket) const {
  DIMSUM_CHECK_GE(ticket, 0);
  DIMSUM_CHECK_LT(ticket, submitted());
  return queries_[ticket]->start_ms;
}

const sim::QuerySpans* ExecSession::Spans(int ticket) const {
  DIMSUM_CHECK_GE(ticket, 0);
  DIMSUM_CHECK_LT(ticket, submitted());
  return queries_[ticket]->spans.get();
}

void ExecSession::AddWaiter(int ticket, std::coroutine_handle<> handle) {
  DIMSUM_CHECK(!IsDone(ticket));
  queries_[ticket]->waiters.push_back(handle);
}

void ExecSession::StartLoadGenerators() {
  DIMSUM_CHECK(!load_generators_started_);
  load_generators_started_ = true;
  uint64_t load_seed = seed_ * 7919 + 17;
  for (const auto& [site, rate] : config_.server_disk_load_per_sec) {
    if (rate > 0.0) {
      sim_.Spawn(LoadGeneratorProcess(sim_, system_.site(site), config_.params,
                                      rate, load_seed++, &all_done_,
                                      fault_state_.get()));
    }
  }
}

void ExecSession::Run() {
  if (!load_generators_started_) StartLoadGenerators();
  sim_.Run();
  DIMSUM_CHECK_EQ(completed_, expected_) << "some query did not complete";
  // all_done_ is set by the last completion; a run that never saw a query
  // (e.g. an open-loop window with zero arrivals) is vacuously done.
  DIMSUM_CHECK(all_done_ || expected_ == 0);
  FoldKernelMetrics();
  // Fault spans per site: purely observational, emitted after the run so
  // tracing never perturbs the simulation. Windows still open at the end
  // of the run are clamped to it.
  if (config_.trace != nullptr && fault_state_ != nullptr) {
    std::map<SiteId, int> fault_tracks;
    for (const auto& w : fault_state_->SiteWindowsUpTo(sim_.now())) {
      auto [it, inserted] = fault_tracks.emplace(w.site, 0);
      if (inserted) it->second = config_.trace->NewTrack(w.site, "faults");
      config_.trace->Complete(w.site, it->second, "down", "fault",
                              w.window.start_ms,
                              std::min(w.window.end_ms, sim_.now()), {});
    }
  }
  // Telemetry finalization is equally offline: close the final partial
  // interval at the drain time and, when a trace is also attached, re-emit
  // the series as Perfetto counter tracks.
  if (config_.telemetry != nullptr && !config_.telemetry->finalized()) {
    config_.telemetry->Finalize(sim_.now());
    if (config_.trace != nullptr) {
      config_.telemetry->ExportCounterTracks(*config_.trace);
    }
  }
}

/// Folds this session's DES-kernel counters into the global registry:
/// events processed, event-queue high-water mark, and the
/// coroutine-frame pool's hit/miss deltas since the session was built
/// (the pool is thread-local and the session runs on one thread, so the
/// delta is exactly this session's traffic).
void ExecSession::FoldKernelMetrics() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  if (!registry.enabled()) return;
  registry.counter("kernel.processed_events")
      .Add(static_cast<int64_t>(sim_.processed_events()));
  Gauge& peak = registry.gauge("kernel.peak_event_queue_depth");
  if (static_cast<double>(sim_.peak_queue_depth()) > peak.value()) {
    peak.Set(static_cast<double>(sim_.peak_queue_depth()));
  }
  const sim::FramePool::Stats now = sim::FramePool::ThisThread().stats();
  const int64_t hits =
      static_cast<int64_t>(now.hits - pool_stats_start_.hits);
  const int64_t misses =
      static_cast<int64_t>(now.misses - pool_stats_start_.misses);
  const int64_t oversized =
      static_cast<int64_t>(now.oversized - pool_stats_start_.oversized);
  registry.counter("kernel.frame_pool.hits").Add(hits);
  registry.counter("kernel.frame_pool.misses").Add(misses);
  registry.counter("kernel.frame_pool.oversized").Add(oversized);
  if (hits + misses > 0) {
    registry.gauge("kernel.frame_pool.hit_rate")
        .Set(static_cast<double>(hits) /
             static_cast<double>(hits + misses));
  }
}

BatchTotals ExecSession::Totals() {
  BatchTotals totals;
  totals.bytes_sent = system_.network().bytes_sent();
  totals.network_busy_ms = system_.network().busy_ms();
  totals.network_wait_ms = system_.network().wait_ms();
  for (int s = 0; s < system_.num_sites(); ++s) {
    SiteRuntime& site = system_.site(s);
    totals.cpu_busy_ms[s] = site.cpu.busy_ms();
    totals.cpu_wait_ms[s] = site.cpu.wait_ms();
    totals.disk_busy_ms[s] = site.TotalDiskBusyMs();
    for (int d = 0; d < site.num_disks(); ++d) {
      const sim::Disk& disk = site.disk(d);
      totals.disk.seek_ms += disk.seek_ms();
      totals.disk.rotate_ms += disk.rotate_ms();
      totals.disk.transfer_ms += disk.transfer_ms();
      totals.disk.overhead_ms += disk.overhead_ms();
      totals.disk.reads += disk.reads();
      totals.disk.writes += disk.writes();
      totals.disk.cache_hits += disk.cache_hits();
      totals.disk.readahead_pages += disk.readahead_pages();
      totals.disk.readahead_aborts += disk.readahead_aborts();
      totals.disk.max_queue_depth =
          std::max(totals.disk.max_queue_depth, disk.max_queue_depth());
    }
  }
  if (config_.collect_histograms) {
    totals.disk_service_ms = disk_service_hist_;
    totals.net_queue_delay_ms = net_queue_hist_;
  }
  if (fault_state_ != nullptr) {
    if (config_.collect_histograms) {
      totals.downtime_ms = Histogram(Histogram::DefaultTimeBoundsMs());
    }
    for (const auto& w : fault_state_->SiteWindowsUpTo(sim_.now())) {
      ++totals.crashes;
      const double down =
          std::min(w.window.end_ms, sim_.now()) - w.window.start_ms;
      totals.crash_downtime_ms += down;
      if (config_.collect_histograms) totals.downtime_ms.Add(down);
    }
  }
  return totals;
}

/// Registers the trace layout -- one trace process per site plus one for
/// the shared network, one thread per CPU/disk/link -- and attaches the
/// sink to the simulator. Operators allocate their own tracks at spawn
/// time (see OpProbe in operators.cc).
void ExecSession::AttachTrace(sim::TraceSink& trace) {
  sim_.set_trace(&trace);
  for (int s = 0; s < system_.num_sites(); ++s) {
    SiteRuntime& site = system_.site(s);
    trace.SetProcessName(s, system_.IsClientSite(s)
                                ? "site " + std::to_string(s) + " (client)"
                                : "site " + std::to_string(s) + " (server)");
    site.cpu.SetTraceTrack(s, trace.NewTrack(s, "cpu"));
    for (int d = 0; d < site.num_disks(); ++d) {
      site.disk(d).SetTraceTrack(s, trace.NewTrack(s, site.disk(d).name()));
    }
  }
  const int net_pid = system_.num_sites();
  trace.SetProcessName(net_pid, "network");
  system_.network().SetTraceTrack(net_pid, trace.NewTrack(net_pid, "link"));
}

/// Routes disk service times and network queueing delays into the
/// session-wide histograms reported via Totals().
void ExecSession::AttachHistograms() {
  disk_service_hist_ = Histogram(Histogram::DefaultTimeBoundsMs());
  net_queue_hist_ = Histogram(Histogram::DefaultTimeBoundsMs());
  for (int s = 0; s < system_.num_sites(); ++s) {
    SiteRuntime& site = system_.site(s);
    for (int d = 0; d < site.num_disks(); ++d) {
      site.disk(d).set_service_histogram(&disk_service_hist_);
    }
  }
  system_.network().set_queue_histogram(&net_queue_hist_);
}

/// Registers the utilization-sampler probes: per site, the CPU and each
/// disk contribute cumulative busy/wait probes (differenced into
/// utilization and queueing intensity per interval) plus queue-depth and
/// in-service gauges, and the buffer pool an occupancy gauge; the shared
/// link does the same under the network pid (num_sites, matching the
/// trace layout). Readers are pure state reads -- attaching the sampler
/// never changes simulation results.
void ExecSession::AttachTelemetry(sim::TelemetrySampler& telemetry) {
  sim_.set_telemetry(&telemetry);
  for (int s = 0; s < system_.num_sites(); ++s) {
    SiteRuntime& site = system_.site(s);
    sim::Resource& cpu = site.cpu;
    telemetry.AddCumulative(s, s, "cpu", "utilization",
                            [&cpu] { return cpu.busy_ms(); });
    telemetry.AddCumulative(s, s, "cpu", "queueing",
                            [&cpu] { return cpu.wait_ms(); });
    telemetry.AddGauge(s, s, "cpu", "queue_depth", [&cpu] {
      return static_cast<double>(cpu.queue_depth());
    });
    telemetry.AddGauge(s, s, "cpu", "in_service",
                       [&cpu] { return cpu.in_service() ? 1.0 : 0.0; });
    for (int d = 0; d < site.num_disks(); ++d) {
      sim::Disk& disk = site.disk(d);
      telemetry.AddCumulative(s, s, disk.name(), "utilization",
                              [&disk] { return disk.busy_ms(); });
      telemetry.AddCumulative(s, s, disk.name(), "queueing",
                              [&disk] { return disk.wait_ms(); });
      telemetry.AddGauge(s, s, disk.name(), "queue_depth", [&disk] {
        return static_cast<double>(disk.queue_depth());
      });
      telemetry.AddGauge(s, s, disk.name(), "in_service",
                         [&disk] { return disk.in_service() ? 1.0 : 0.0; });
    }
    BufferPool& pool = site.memory;
    telemetry.AddGauge(s, s, "buffer_pool", "used_frames", [&pool] {
      return static_cast<double>(pool.used_frames());
    });
  }
  const int net_pid = system_.num_sites();
  sim::Network& net = system_.network();
  telemetry.AddCumulative(net_pid, -1, "link", "utilization",
                          [&net] { return net.busy_ms(); });
  telemetry.AddCumulative(net_pid, -1, "link", "queueing",
                          [&net] { return net.wait_ms(); });
  telemetry.AddGauge(net_pid, -1, "link", "queue_depth", [&net] {
    return static_cast<double>(net.queue_depth());
  });
  telemetry.AddGauge(net_pid, -1, "link", "in_service",
                     [&net] { return net.in_service() ? 1.0 : 0.0; });
}

PageChannel& ExecSession::NewChannel(int producer, int consumer) {
  channels_.push_back(
      std::make_unique<PageChannel>(sim_, kPipelineDepth, producer, consumer));
  return *channels_.back();
}

/// Spawns the processes computing `node`, which takes the next pre-order
/// timeline id (its subtree the ones after); returns the channel
/// delivering its output to `consumer`, whose timeline is `consumer_op`.
PageChannel& ExecSession::BuildNode(QueryState& state, const PlanNode& node,
                                    const PlanNode& consumer,
                                    int consumer_op) {
  ExecContext& ctx = *state.ctx;
  const int op = state.next_op++;
  PageChannel* left =
      node.left ? &BuildNode(state, *node.left, node, op) : nullptr;
  PageChannel* right =
      node.right ? &BuildNode(state, *node.right, node, op) : nullptr;
  // A crossing edge gets a network operator pair, each half on its own
  // synthetic timeline, so the producer -> send -> recv -> consumer chain
  // carries causal edges.
  const bool crossing = node.bound_site != consumer.bound_site;
  const int send_op = crossing ? state.next_net_op++ : -1;
  PageChannel& out = NewChannel(op, crossing ? send_op : consumer_op);
  switch (node.type) {
    case OpType::kScan:
      sim_.Spawn(ScanProcess(ctx, node, op, out));
      break;
    case OpType::kSelect:
      sim_.Spawn(SelectProcess(ctx, node, op, *left, out));
      break;
    case OpType::kProject:
      sim_.Spawn(ProjectProcess(ctx, node, op, *left, out));
      break;
    case OpType::kAggregate:
      sim_.Spawn(AggregateProcess(ctx, node, op, *left, out));
      break;
    case OpType::kSort:
      sim_.Spawn(SortProcess(ctx, node, op, *left, out));
      break;
    case OpType::kUnion:
      sim_.Spawn(UnionProcess(ctx, node, op, *left, *right, out));
      break;
    case OpType::kJoin:
      sim_.Spawn(HashJoinProcess(ctx, node, op, *left, *right, out));
      break;
    case OpType::kDisplay:
      DIMSUM_UNREACHABLE() << "display is handled by Submit()";
  }
  if (!crossing) return out;
  // The pair's time is attributed to the consuming operator's EXPLAIN
  // record, matching the estimator's accounting of shipped edges.
  const int recv_op = state.next_net_op++;
  PageChannel& wire = NewChannel(send_op, recv_op);
  PageChannel& delivered = NewChannel(recv_op, consumer_op);
  // One flow-id block per crossing edge (4096 pages before ids recycle);
  // ids are session counters, never pointers, so traces are deterministic.
  const uint64_t flow_base = ++next_flow_base_ << 12;
  sim_.Spawn(NetSendProcess(ctx, node.bound_site, send_op, consumer_op, out,
                            wire, flow_base));
  sim_.Spawn(NetRecvProcess(ctx, consumer.bound_site, recv_op, consumer_op,
                            wire, delivered, flow_base));
  return delivered;
}

namespace {

/// Derives the effective home client of a workload entry and validates it
/// against the plan's display binding.
SiteId ResolveHomeClient(const WorkloadQuery& wq) {
  DIMSUM_CHECK(wq.plan != nullptr);
  DIMSUM_CHECK(wq.query != nullptr);
  DIMSUM_CHECK(!wq.plan->empty());
  const SiteId plan_home = wq.plan->root()->bound_site;
  if (wq.home_client != kUnboundSite) {
    DIMSUM_CHECK_EQ(wq.home_client, plan_home)
        << "WorkloadQuery home_client disagrees with the plan's display site";
  }
  return plan_home;
}

}  // namespace

ExecMetrics ExecutePlan(const Plan& plan, const Catalog& catalog,
                        const QueryGraph& query, const SystemConfig& config,
                        uint64_t seed, sim::QuerySpans* spans_out) {
  std::vector<WorkloadQuery> batch{WorkloadQuery{&plan, &query}};
  ConcurrentResult result = ExecuteConcurrent(batch, catalog, config, seed);
  if (spans_out != nullptr && !result.spans.empty()) {
    *spans_out = std::move(result.spans.front());
  }
  // Single-query compatibility: fold the run's system-wide totals back into
  // the one query's metrics, so callers see the complete resource picture in
  // one ExecMetrics (as they did when only one query could run).
  ExecMetrics metrics = std::move(result.per_query.front());
  metrics.bytes_sent = result.totals.bytes_sent;
  metrics.network_busy_ms = result.totals.network_busy_ms;
  metrics.network_wait_ms = result.totals.network_wait_ms;
  metrics.cpu_busy_ms = result.totals.cpu_busy_ms;
  metrics.cpu_wait_ms = result.totals.cpu_wait_ms;
  metrics.disk_busy_ms = result.totals.disk_busy_ms;
  metrics.disk = result.totals.disk;
  metrics.disk_service_ms = result.totals.disk_service_ms;
  metrics.net_queue_delay_ms = result.totals.net_queue_delay_ms;
  return metrics;
}

ConcurrentResult ExecuteConcurrent(const std::vector<WorkloadQuery>& batch,
                                   const Catalog& catalog,
                                   const SystemConfig& config, uint64_t seed) {
  DIMSUM_CHECK(!batch.empty());
  ExecSession session(catalog, config, seed);
  session.ExpectQueries(static_cast<int>(batch.size()));
  // Queries with start_ms == 0 are submitted up front, in batch order (this
  // preserves the event ordering of the historical all-start-at-zero batch);
  // later starts are submitted by small starter processes at their times.
  std::vector<int> tickets(batch.size(), -1);
  for (size_t q = 0; q < batch.size(); ++q) {
    const WorkloadQuery& wq = batch[q];
    ResolveHomeClient(wq);
    DIMSUM_CHECK_GE(wq.start_ms, 0.0);
    if (wq.start_ms == 0.0) {
      tickets[q] = session.Submit(*wq.plan, *wq.query);
    }
  }
  session.StartLoadGenerators();
  for (size_t q = 0; q < batch.size(); ++q) {
    const WorkloadQuery& wq = batch[q];
    if (wq.start_ms > 0.0) {
      session.sim().Spawn(DelayedSubmit(session, *wq.plan, *wq.query,
                                        wq.start_ms, &tickets[q]));
    }
  }
  session.Run();

  ConcurrentResult result;
  result.totals = session.Totals();
  for (size_t q = 0; q < batch.size(); ++q) {
    DIMSUM_CHECK_GE(tickets[q], 0);
    const ExecMetrics& metrics = session.Metrics(tickets[q]);
    result.makespan_ms = std::max(
        result.makespan_ms, session.StartMs(tickets[q]) + metrics.response_ms);
    result.per_query.push_back(metrics);
    if (config.collect_spans) {
      const sim::QuerySpans* spans = session.Spans(tickets[q]);
      DIMSUM_CHECK(spans != nullptr);
      result.spans.push_back(*spans);
    }
  }
  return result;
}

}  // namespace dimsum
