#ifndef DIMSUM_EXEC_OPERATORS_H_
#define DIMSUM_EXEC_OPERATORS_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "cost/cardinality.h"
#include "cost/params.h"
#include "exec/metrics.h"
#include "exec/page.h"
#include "exec/runtime.h"
#include "plan/plan.h"
#include "sim/channel.h"
#include "sim/span.h"
#include "sim/task.h"

namespace dimsum {

/// A pipeline edge between two operator processes. The executor sets the
/// timeline ids of the processes at its ends when it creates the channel,
/// so a process blocked on it can name the peer it waits for (the causal
/// edge of a channel span, sim/span.h).
struct PageChannel : sim::Channel<Page> {
  PageChannel(sim::Simulator& sim, size_t capacity, int producer,
              int consumer)
      : Channel(sim, capacity), producer(producer), consumer(consumer) {}
  const int producer;
  const int consumer;
};

/// Shared state of one query execution, referenced by all operator
/// processes. Owned by the executor; must outlive the simulation run.
struct ExecContext {
  sim::Simulator& sim;
  ExecSystem& system;
  const Catalog& catalog;
  const CostParams& params;
  const PlanStats& stats;
  ExecMetrics& metrics;
  /// Virtual time at which the query was submitted; response_ms is measured
  /// from here (0 for queries that start with the simulation).
  double start_ms = 0.0;
  /// Invoked (if set) when the display operator finishes, at the query's
  /// completion time; used to resume closed-loop client processes.
  std::function<void()> on_done = nullptr;

  /// Fault oracle of the session (null on healthy runs; operators then take
  /// exactly their pre-fault code paths). Crashed sites stall new disk and
  /// network requests at request boundaries (fail-stop; in-service work
  /// finishes); drop windows force retransmissions (see FaultyTransfer).
  sim::FaultState* faults = nullptr;

  /// Per-query causal span set (null = capture off; see sim/span.h). Owned
  /// by the session's per-query state, never by ExecMetrics, so metrics
  /// stay bit-identical with capture on or off.
  sim::QuerySpans* spans = nullptr;
};

// Each operator process takes its timeline id `op` from the executor: its
// pre-order plan-node id, which also indexes its EXPLAIN record in
// metrics.operator_actuals when the session collects actuals.

/// Scan of a base relation (Volcano-style, page at a time).
///
/// Annotated `primary copy`: sequential reads from the server's disk.
/// Annotated `client`: the cached prefix is read from the client disk; the
/// remaining pages are faulted in from the relation's server with one
/// synchronous request/response round trip per page (the paper's
/// non-overlapped page faulting).
sim::Process ScanProcess(ExecContext& ctx, const PlanNode& node, int op,
                         PageChannel& out);

/// Applies the node's predicate; charges Compare per input tuple.
sim::Process SelectProcess(ExecContext& ctx, const PlanNode& node, int op,
                           PageChannel& in, PageChannel& out);

/// Projects tuples to a narrower width; charges a move per output tuple.
sim::Process ProjectProcess(ExecContext& ctx, const PlanNode& node, int op,
                            PageChannel& in, PageChannel& out);

/// Hash aggregation: consumes its whole input (blocking), then emits the
/// groups. Charges Hash + Compare per input tuple and a move per group.
sim::Process AggregateProcess(ExecContext& ctx, const PlanNode& node,
                              int op, PageChannel& in, PageChannel& out);

/// External merge sort: consumes its whole input (blocking). Under
/// minimum allocation, sorted runs are written to the site's temp region
/// and merged back in a single pass; under maximum allocation the sort
/// happens in memory. Charges Compare * log2(n) per tuple plus a move per
/// output tuple.
sim::Process SortProcess(ExecContext& ctx, const PlanNode& node, int op,
                         PageChannel& in, PageChannel& out);

/// Bag union: forwards the left input, then the right.
sim::Process UnionProcess(ExecContext& ctx, const PlanNode& node, int op,
                          PageChannel& left, PageChannel& right,
                          PageChannel& out);

/// Hybrid-hash join [Sha86]. Consumes the inner (left) input to build,
/// spilling partitions to the site's temp disk region under minimum
/// allocation (write-behind, flushed at phase end); then streams the outer
/// input, probing the memory-resident part and spilling the rest; finally
/// joins the spilled partition pairs. Memory is acquired from the site's
/// buffer pool for the duration.
sim::Process HashJoinProcess(ExecContext& ctx, const PlanNode& node, int op,
                             PageChannel& inner, PageChannel& outer,
                             PageChannel& out);

/// Root operator: consumes the result at the client, charges Display per
/// tuple, records the response time, and flags query completion.
sim::Process DisplayProcess(ExecContext& ctx, const PlanNode& node, int op,
                            PageChannel& in);

/// Sending half of the network operator pair: charges send CPU at `from`,
/// occupies the wire, counts the page, and forwards it. With capacity-1
/// channels the producer stays about one page ahead of its consumer.
/// `op` is the send process's own timeline (a synthetic id past the plan
/// operators); `record` is the consuming operator's id, whose EXPLAIN
/// record gets the ship CPU and wire time, mirroring the estimator.
/// `flow_base` seeds the ids of the Perfetto flow arrows linking this
/// sender's pages to the receiver.
sim::Process NetSendProcess(ExecContext& ctx, SiteId from, int op, int record,
                            PageChannel& in, PageChannel& wire,
                            uint64_t flow_base);

/// Receiving half: charges receive CPU at `to` and forwards the page.
sim::Process NetRecvProcess(ExecContext& ctx, SiteId to, int op, int record,
                            PageChannel& wire, PageChannel& out,
                            uint64_t flow_base);

/// External load: open-loop Poisson random single-page reads against a
/// server's disks (the paper's model of additional clients), winding down
/// once `*stop` becomes true (the query or batch completed). Requests that
/// fire while the site is crashed (`faults` non-null) are lost rather than
/// queued, so a restart does not replay a storm of stale reads.
sim::Process LoadGeneratorProcess(sim::Simulator& sim, SiteRuntime& site,
                                  const CostParams& params,
                                  double requests_per_sec, uint64_t seed,
                                  const bool* stop,
                                  sim::FaultState* faults = nullptr);

}  // namespace dimsum

#endif  // DIMSUM_EXEC_OPERATORS_H_
