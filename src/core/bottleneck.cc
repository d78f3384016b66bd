#include "core/bottleneck.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "core/report.h"

namespace dimsum {
namespace {

/// Stable bucket ordering for ties: resource class, then site.
bool BucketBefore(const BottleneckBucket& a, const BottleneckBucket& b) {
  if (a.elapsed_ms != b.elapsed_ms) return a.elapsed_ms > b.elapsed_ms;
  if (a.resource != b.resource) return a.resource < b.resource;
  return a.site < b.site;
}

/// Looks up a bucket's busy-time bound; negative means "unknown".
double BusyBound(BottleneckResource resource, SiteId site,
                 const FlatMap<SiteId, double>& cpu_busy,
                 const FlatMap<SiteId, double>& disk_busy,
                 double network_busy_ms) {
  switch (resource) {
    case BottleneckResource::kCpu: {
      auto it = cpu_busy.find(site);
      return it != cpu_busy.end() ? it->second : -1.0;
    }
    case BottleneckResource::kDisk: {
      auto it = disk_busy.find(site);
      return it != disk_busy.end() ? it->second : -1.0;
    }
    case BottleneckResource::kNet:
      return network_busy_ms;
    case BottleneckResource::kStall:
      return 0.0;  // stalls are pure waiting
  }
  return -1.0;
}

/// Builds the sorted report from per-bucket elapsed sums and busy bounds.
BottleneckReport FinishReport(
    std::vector<std::pair<std::pair<BottleneckResource, SiteId>, double>>
        elapsed,
    const FlatMap<SiteId, double>& cpu_busy,
    const FlatMap<SiteId, double>& disk_busy, double network_busy_ms,
    double response_ms, int queries) {
  BottleneckReport report;
  report.response_ms = response_ms;
  report.queries = queries;
  for (const auto& [key, ms] : elapsed) {
    if (ms <= 0.0) continue;
    BottleneckBucket bucket;
    bucket.resource = key.first;
    bucket.site = key.second;
    bucket.elapsed_ms = ms;
    const double busy =
        BusyBound(key.first, key.second, cpu_busy, disk_busy, network_busy_ms);
    // Unknown busy bound (per-query metrics of a shared run): report the
    // whole elapsed time as service rather than inventing queueing.
    bucket.service_ms = busy < 0.0 ? ms : std::min(ms, busy);
    bucket.queueing_ms = ms - bucket.service_ms;
    report.attributed_ms += ms;
    report.buckets.push_back(bucket);
  }
  for (BottleneckBucket& bucket : report.buckets) {
    bucket.share =
        report.attributed_ms > 0.0 ? bucket.elapsed_ms / report.attributed_ms
                                   : 0.0;
  }
  std::sort(report.buckets.begin(), report.buckets.end(), BucketBefore);
  return report;
}

void AccumulateActuals(
    const std::vector<SiteId>& op_sites,
    const std::vector<OperatorActual>& actuals,
    std::vector<std::pair<std::pair<BottleneckResource, SiteId>, double>>*
        elapsed) {
  auto add = [elapsed](BottleneckResource resource, SiteId site, double ms) {
    if (ms <= 0.0) return;
    const std::pair<BottleneckResource, SiteId> key{resource, site};
    for (auto& [k, v] : *elapsed) {
      if (k == key) {
        v += ms;
        return;
      }
    }
    elapsed->emplace_back(key, ms);
  };
  for (std::size_t i = 0; i < actuals.size(); ++i) {
    const SiteId site = op_sites[i];
    const OperatorActual& a = actuals[i];
    add(BottleneckResource::kCpu, site, a.cpu_ms);
    add(BottleneckResource::kDisk, site, a.disk_ms);
    add(BottleneckResource::kNet, kUnboundSite, a.net_ms);
    add(BottleneckResource::kStall, kUnboundSite, a.stall_ms);
  }
}

}  // namespace

const char* ToString(BottleneckResource resource) {
  switch (resource) {
    case BottleneckResource::kCpu:
      return "cpu";
    case BottleneckResource::kDisk:
      return "disk";
    case BottleneckResource::kNet:
      return "net";
    case BottleneckResource::kStall:
      return "stall";
  }
  return "?";
}

std::string BottleneckReport::Summary(int num_clients) const {
  const BottleneckBucket* d = dominant();
  if (d == nullptr || attributed_ms <= 0.0) return "no attributed time";
  const bool queueing = dominant_is_queueing();
  const double mode_ms = queueing ? d->queueing_ms : d->service_ms;
  const double pct = 100.0 * mode_ms / attributed_ms;
  std::ostringstream out;
  out << Fmt(pct, 0) << "% ";
  if (d->resource == BottleneckResource::kNet) {
    out << "network";
  } else if (d->resource == BottleneckResource::kStall) {
    out << "fault-stall";
  } else {
    if (num_clients >= 0 && d->site != kUnboundSite) {
      out << (d->site < num_clients ? "client " : "server ");
    }
    out << ToString(d->resource);
  }
  out << (queueing ? " queueing" : " service");
  if (d->site != kUnboundSite) out << " at site " << d->site;
  out << " (" << Fmt(mode_ms, 0) << " of " << Fmt(attributed_ms, 0)
      << " ms attributed)";
  return out.str();
}

std::vector<SiteId> OperatorSites(const Plan& plan) {
  std::vector<SiteId> sites;
  plan.ForEach([&](const PlanNode& node) { sites.push_back(node.bound_site); });
  return sites;
}

BottleneckReport BuildBottleneck(const std::vector<SiteId>& op_sites,
                                 const ExecMetrics& metrics) {
  DIMSUM_CHECK_EQ(op_sites.size(), metrics.operator_actuals.size())
      << "op_sites must align with operator_actuals (same bound plan, "
         "collect_operator_actuals set)";
  std::vector<std::pair<std::pair<BottleneckResource, SiteId>, double>>
      elapsed;
  AccumulateActuals(op_sites, metrics.operator_actuals, &elapsed);
  return FinishReport(std::move(elapsed), metrics.cpu_busy_ms,
                      metrics.disk_busy_ms, metrics.network_busy_ms,
                      metrics.response_ms, /*queries=*/1);
}

void BottleneckAccumulator::Accumulate(Key key, double ms) {
  if (ms <= 0.0) return;
  auto it = std::lower_bound(
      elapsed_.begin(), elapsed_.end(), key,
      [](const std::pair<Key, double>& entry, const Key& k) {
        return entry.first < k;
      });
  if (it != elapsed_.end() && !(key < it->first)) {
    it->second += ms;
    return;
  }
  elapsed_.insert(it, {key, ms});
}

void BottleneckAccumulator::Add(const std::vector<SiteId>& op_sites,
                                const ExecMetrics& metrics) {
  // Actuals that were not collected, or that belong to a different plan,
  // cannot be attributed; skip the query.
  if (metrics.operator_actuals.empty() ||
      metrics.operator_actuals.size() != op_sites.size()) {
    return;
  }
  for (std::size_t i = 0; i < op_sites.size(); ++i) {
    const OperatorActual& a = metrics.operator_actuals[i];
    Accumulate({BottleneckResource::kCpu, op_sites[i]}, a.cpu_ms);
    Accumulate({BottleneckResource::kDisk, op_sites[i]}, a.disk_ms);
    Accumulate({BottleneckResource::kNet, kUnboundSite}, a.net_ms);
    Accumulate({BottleneckResource::kStall, kUnboundSite}, a.stall_ms);
  }
  ++queries_;
}

BottleneckReport BottleneckAccumulator::Finish(const BatchTotals& totals,
                                               double window_ms) const {
  std::vector<std::pair<std::pair<BottleneckResource, SiteId>, double>>
      elapsed;
  elapsed.reserve(elapsed_.size());
  for (const auto& [key, ms] : elapsed_) {
    elapsed.emplace_back(std::make_pair(key.resource, key.site), ms);
  }
  BottleneckReport report =
      FinishReport(std::move(elapsed), totals.cpu_busy_ms,
                   totals.disk_busy_ms, totals.network_busy_ms, window_ms,
                   queries_);
  return report;
}

}  // namespace dimsum
