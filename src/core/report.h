#ifndef DIMSUM_CORE_REPORT_H_
#define DIMSUM_CORE_REPORT_H_

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/bottleneck.h"
#include "cost/explain.h"
#include "exec/metrics.h"
#include "plan/plan.h"

namespace dimsum {

/// Minimal aligned-column table writer for the benchmark harnesses that
/// regenerate the paper's figures as text series.
class ReportTable {
 public:
  explicit ReportTable(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells);
  void Print(std::ostream& out) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision.
std::string Fmt(double value, int precision = 2);

/// Formats "mean +- ci" for a measurement.
std::string FmtCi(double mean, double ci, int precision = 2);

// --- EXPLAIN ANALYZE ------------------------------------------------------
//
// Joins the estimate-side records the GHK92 cost model captures while
// costing a plan (cost/explain.h) with the per-operator actuals the
// executor measures while simulating it (exec/metrics.h) into one
// estimated-vs-simulated attribution report, rendered as an annotated plan
// tree or a stable JSON document ("dimsum.explain.v1").

enum class ExplainMode { kOff, kText, kJson };

/// Parses an --explain value: "", "1", and "text" select text; "json"
/// selects JSON; "0" and "off" disable. Anything else returns nullopt so
/// callers can reject it.
std::optional<ExplainMode> ParseExplainMode(const std::string& value);

/// Symmetric bounded relative error: (est - act) / max(est, act, eps).
/// Always finite and in [-1, 1]; positive means the model over-estimated.
/// Returns 0 when both sides are negligible, so idle resources do not
/// register as 100% error.
double ExplainRelErr(double est, double act);

/// One operator's joined estimate-vs-simulation row.
struct ExplainOp {
  OperatorEstimate est;
  OperatorActual act;
  std::string label;          ///< e.g. "join @2", "scan R3 @1"
  double act_total_ms = 0.0;  ///< act.cpu_ms + act.disk_ms + act.net_ms
  double err_cpu = 0.0;       ///< ExplainRelErr per resource class
  double err_disk = 0.0;
  double err_net = 0.0;
  double err_total = 0.0;
};

/// One pipelined phase with its predicted schedule and the measured span
/// of its member operators (first process start to last finish).
struct ExplainPhaseRow {
  int id = -1;
  double est_duration_ms = 0.0;
  double est_start_ms = 0.0;
  double est_finish_ms = 0.0;
  double act_span_ms = 0.0;
  std::vector<int> ops;  ///< member op ids, ascending
};

/// Per-site roll-up: estimated demand vs simulated busy time.
struct ExplainSiteRow {
  SiteId site = kUnboundSite;
  double est_cpu_ms = 0.0;
  double act_cpu_ms = 0.0;
  double est_disk_ms = 0.0;  ///< pre-interference demand
  double act_disk_ms = 0.0;
};

/// Simulated service-time quantiles (from the optional histograms).
struct ExplainQuantiles {
  int64_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Full estimate-vs-simulation report for one executed plan.
struct ExplainReport {
  double est_response_ms = 0.0;
  double act_response_ms = 0.0;
  double response_err = 0.0;
  double est_total_ms = 0.0;  ///< ML86-style total cost estimate
  double act_total_ms = 0.0;  ///< sum of simulated cpu + disk + net busy
  double total_err = 0.0;
  double est_net_ms = 0.0;  ///< estimated total wire time
  double act_net_ms = 0.0;  ///< simulated network busy time
  /// Mean / max |err_total| over operators where either side is non-zero.
  double mean_op_err = 0.0;
  double max_op_err = 0.0;
  std::vector<ExplainOp> ops;  ///< pre-order, index == op_id
  std::vector<ExplainPhaseRow> phases;
  std::vector<ExplainSiteRow> sites;
  /// Every op id ordered by decreasing |est - act| total ms; renderers
  /// show the top few.
  std::vector<int> worst;
  /// Present when the run collected histograms.
  std::optional<ExplainQuantiles> disk_service;
  std::optional<ExplainQuantiles> net_queue;
  /// Where the response time went: per-(resource, site) critical-path
  /// decomposition with a queueing-vs-service split (core/bottleneck.h).
  BottleneckReport bottleneck;
};

/// Joins the two sides. `actual.operator_actuals` must have one record per
/// estimate op (run with SystemConfig::collect_operator_actuals set on the
/// same bound plan that was costed).
ExplainReport BuildExplainReport(const PlanEstimate& est,
                                 const ExecMetrics& actual);

/// Renders the report as an annotated plan tree (est/sim line pair under
/// each operator) followed by phase, site, and worst-operator roll-ups.
/// `plan` must be the plan the report was built from.
std::string ExplainToText(const ExplainReport& report, const Plan& plan);

/// Writes the report as one JSON object with schema "dimsum.explain.v1".
/// Layout:
///   {"schema":"dimsum.explain.v1",
///    "estimated":{"response_ms","total_ms","net_ms"},
///    "simulated":{"response_ms","total_ms"},
///    "errors":{"response","total","mean_op","max_op"},
///    "operators":[{"op_id","label","type","site","phase",
///                  "est":{"tuples","pages","cpu_ms","disk_ms","net_ms",
///                         "chain_ms","total_ms"},
///                  "sim":{"cpu_ms","disk_ms","net_ms","stall_ms",
///                         "start_ms","end_ms","pages_in","pages_out",
///                         "total_ms"},
///                  "err":{"cpu","disk","net","total"}}, ...],
///    "phases":[{"id","est_duration_ms","est_start_ms","est_finish_ms",
///               "sim_span_ms","ops":[..]}, ...],
///    "sites":[{"site","est_cpu_ms","sim_cpu_ms","est_disk_ms",
///              "sim_disk_ms"}, ...],
///    "worst":[{"op_id","label","abs_err_ms","err_total"}, ...],
///    "bottleneck":{"summary","attributed_ms","response_ms",
///                  "buckets":[{"resource","site","elapsed_ms",
///                              "service_ms","queueing_ms","share"},...]},
///    "distributions":{...}}   // only when histograms were collected
/// All errors are finite (ExplainRelErr); numbers NaN/inf-safe via
/// JsonWriteNumber.
void WriteExplainJson(const ExplainReport& report, std::ostream& out);

}  // namespace dimsum

#endif  // DIMSUM_CORE_REPORT_H_
