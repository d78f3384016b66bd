#ifndef DIMSUM_CORE_BOTTLENECK_H_
#define DIMSUM_CORE_BOTTLENECK_H_

// Per-query bottleneck attribution: decomposes where a query's response
// time went, by (resource class, site), split into queueing vs service.
//
// The inputs are the per-operator actuals EXPLAIN ANALYZE already collects
// (exec/metrics.h): each operator's elapsed virtual time awaiting the CPU,
// disks, and network *includes* queueing behind other users of the
// resource. Summing those elapsed times per (resource, site) bucket gives
// the demand placed on each bucket; the resource's independently-reported
// busy time bounds the service share, and the excess is queueing. Elapsed
// times of concurrent operators overlap, so bucket sums can exceed the
// wall response time -- shares are reported against the attributed total,
// not the wall clock.

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "exec/executor.h"
#include "exec/metrics.h"
#include "plan/plan.h"

namespace dimsum {

enum class BottleneckResource { kCpu, kDisk, kNet, kStall };

/// "cpu", "disk", "net", or "stall".
const char* ToString(BottleneckResource resource);

/// One (resource, site) attribution bucket. `site` is kUnboundSite for the
/// shared network link and for fault stalls.
struct BottleneckBucket {
  BottleneckResource resource = BottleneckResource::kCpu;
  SiteId site = kUnboundSite;
  /// Summed operator elapsed time awaiting this bucket, ms.
  double elapsed_ms = 0.0;
  /// Share of elapsed covered by the resource's busy time (service).
  double service_ms = 0.0;
  /// elapsed - service: time spent queued behind other users (or, within
  /// one query, behind its own concurrent operators).
  double queueing_ms = 0.0;
  /// elapsed / the report's attributed total.
  double share = 0.0;
};

/// Bottleneck decomposition of one query (or one run, via the
/// accumulator). Buckets are sorted by decreasing elapsed time; the first
/// is the dominant (resource, site, queueing-vs-service) triple.
struct BottleneckReport {
  /// Wall response of the query (or window of the run), ms.
  double response_ms = 0.0;
  /// Sum of all buckets' elapsed time, ms.
  double attributed_ms = 0.0;
  /// Queries folded in (1 for a per-query report).
  int queries = 0;
  std::vector<BottleneckBucket> buckets;

  bool empty() const { return buckets.empty(); }
  /// Largest bucket (null when empty).
  const BottleneckBucket* dominant() const {
    return buckets.empty() ? nullptr : &buckets.front();
  }
  /// Whether the dominant bucket is mostly queueing.
  bool dominant_is_queueing() const {
    const BottleneckBucket* d = dominant();
    return d != nullptr && d->queueing_ms > d->service_ms;
  }
  /// One line naming the dominant triple with numbers, e.g.
  ///   "71% server disk queueing at site 1 (8123 of 11432 ms attributed)".
  /// `num_clients` >= 0 labels sites client/server; negative omits the
  /// role. Empty reports yield "no attributed time".
  std::string Summary(int num_clients = -1) const;
};

/// Per-operator bound sites of `plan` in pre-order (index == op_id), the
/// order operator_actuals uses.
std::vector<SiteId> OperatorSites(const Plan& plan);

/// Builds the per-query report. `op_sites` must align with
/// `metrics.operator_actuals` (run with collect_operator_actuals on the
/// same bound plan). The queueing/service split uses the per-site busy
/// maps in `metrics` when present (single-query runs populate them); when
/// absent the full elapsed time is conservatively reported as service.
BottleneckReport BuildBottleneck(const std::vector<SiteId>& op_sites,
                                 const ExecMetrics& metrics);

/// Folds many queries of one shared run into a run-level report, splitting
/// queueing vs service against the run's BatchTotals. Queries whose
/// actuals are missing or do not align with their op_sites are skipped;
/// callers pass the sites of the plan each query executed.
class BottleneckAccumulator {
 public:
  void Add(const std::vector<SiteId>& op_sites, const ExecMetrics& metrics);
  int queries() const { return queries_; }
  /// `totals` are the run's shared resource totals; `window_ms` the run's
  /// makespan (becomes response_ms of the report).
  BottleneckReport Finish(const BatchTotals& totals, double window_ms) const;

 private:
  struct Key {
    BottleneckResource resource;
    SiteId site;
    bool operator<(const Key& o) const {
      return resource != o.resource ? resource < o.resource : site < o.site;
    }
  };
  std::vector<std::pair<Key, double>> elapsed_;  // sorted by Key
  int queries_ = 0;

  void Accumulate(Key key, double ms);
};

}  // namespace dimsum

#endif  // DIMSUM_CORE_BOTTLENECK_H_
