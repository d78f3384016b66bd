// Command-line driver: run one optimize+execute experiment with the
// paper's benchmark workload and print the results.
//
//   dimsum_cli --policy=hy --metric=time --relations=10 --servers=5
//              --cached=0.5 --load=40 --alloc=min --print-plan
//
// Run with --help for the full flag list.

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <system_error>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/critical_path.h"
#include "core/report.h"
#include "core/system.h"
#include "cost/response_time.h"
#include "exec/metrics.h"
#include "opt/cost_cache.h"
#include "plan/binding.h"
#include "plan/printer.h"
#include "plan/query.h"
#include "sim/fault.h"
#include "sim/telemetry.h"
#include "sim/trace.h"
#include "workload/benchmark.h"
#include "workload/driver.h"
#include "workload/querylog.h"

namespace dimsum {
namespace {

struct CliOptions {
  ShippingPolicy policy = ShippingPolicy::kHybridShipping;
  OptimizeMetric metric = OptimizeMetric::kResponseTime;
  int relations = 2;
  int servers = 1;
  /// Copies of every relation (round-robin on the servers after the
  /// primary); degree > 1 opens the optimizer's replica-choice moves.
  int replicas = 1;
  /// Submission-time balancing policy. Single-query runs always submit
  /// the plan as optimized; the flag is validated here and documented for
  /// the driver-based harnesses (bench/ext_scaleout).
  ReplicaPolicy replica_policy = ReplicaPolicy::kFirstCopy;
  /// Horizontal shards per relation (1 = whole-relation placement). K > 1
  /// deals each relation's K shards to K distinct servers and expands
  /// scans into per-shard fragments merged by a union.
  int shards = 1;
  ShardScheme shard_scheme = ShardScheme::kRange;
  double cached = 0.0;
  double selectivity = 1.0;
  double load = 0.0;
  BufAlloc alloc = BufAlloc::kMinimum;
  int disks = 1;
  double client_mips = 0.0;  // 0 = default
  uint64_t seed = 1;
  int threads = 0;  // 0 = keep DIMSUM_THREADS / hardware default
  bool random_placement = false;
  bool print_plan = false;
  /// Chrome trace-event JSON output path ("" = no trace).
  std::string trace_file;
  /// Metrics snapshot JSON output path ("" = no metrics). Falls back to
  /// the DIMSUM_METRICS environment variable.
  std::string metrics_file;
  /// Wide-event query-log JSONL output path ("" = no log). The
  /// single-query run emits one dimsum.querylog.v1 record with the
  /// critical-path decomposition.
  std::string query_log_file;
  /// Fault-injection spec ("" = healthy). See sim/fault.h for the grammar.
  std::string faults_spec;
  /// EXPLAIN ANALYZE mode.
  ExplainMode explain = ExplainMode::kOff;
  /// Telemetry sampling interval, virtual ms (0 = off).
  double telemetry_interval_ms = 0.0;
  /// Telemetry JSON output path ("" = "telemetry.json").
  std::string telemetry_file;
};

/// Parses an --telemetry value into a sampling interval in virtual ms: ""
/// and "1" select the 10 ms default, "0" and "off" disable, and any
/// positive number sets the interval directly. Returns nullopt on anything
/// else so callers can reject it.
std::optional<double> ParseTelemetryInterval(const std::string& value) {
  if (value.empty() || value == "1") return 10.0;
  if (value == "0" || value == "off") return 0.0;
  char* end = nullptr;
  const double interval = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || !(interval > 0.0)) {
    return std::nullopt;
  }
  return interval;
}

/// Env-var fallback for the metrics output: the variable holds the output
/// path; empty or "0" means disabled.
std::string EnvPath(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0' ||
      std::string(value) == "0") {
    return "";
  }
  return value;
}

void PrintUsage() {
  std::cout <<
      "usage: dimsum_cli [flags]\n"
      "  --policy=ds|qs|hy        shipping policy (default hy)\n"
      "  --metric=pages|time|cost optimizer metric (default time)\n"
      "  --relations=N            chain-join width, 1..64 (default 2)\n"
      "  --servers=K              number of servers (default 1)\n"
      "  --replicas=D             copies of every relation, 1..servers\n"
      "                           (default 1); extra copies go round-robin\n"
      "                           to the servers after the primary, and the\n"
      "                           optimizer may scan any copy\n"
      "  --replica-policy=first|rr|lo\n"
      "                           submission-time replica balancing for\n"
      "                           multi-query driver runs (first = as\n"
      "                           planned, rr = round-robin, lo = least\n"
      "                           outstanding); a single-query run always\n"
      "                           submits the optimized plan unchanged\n"
      "  --shards=K               horizontal shards per relation, 1..servers\n"
      "                           (default 1 = whole-relation placement);\n"
      "                           K > 1 deals each relation's shards to K\n"
      "                           distinct servers and expands scans into\n"
      "                           per-shard fragments merged by a union;\n"
      "                           requires --cached=0, and --replicas then\n"
      "                           sets per-shard copies (chained\n"
      "                           declustering), 1..shards\n"
      "  --shard-scheme=range|hash\n"
      "                           partitioning scheme under --shards\n"
      "                           (default range; range shards prune on\n"
      "                           key-restricted scans, hash shards never\n"
      "                           prune)\n"
      "  --cached=F               client-cached fraction 0..1 (default 0)\n"
      "  --selectivity=F          join selectivity factor (default 1.0)\n"
      "  --load=R                 external server disk load, req/s\n"
      "  --alloc=min|max          join memory allocation (default min)\n"
      "  --disks=N                disks per site (default 1)\n"
      "  --client-mips=M          client CPU speed override\n"
      "  --seed=S                 RNG seed (default 1)\n"
      "  --threads=N              optimizer/replication worker threads\n"
      "                           (default: DIMSUM_THREADS env var, else\n"
      "                           all cores; results are identical for\n"
      "                           every N)\n"
      "  --random-placement       place relations randomly (default RR)\n"
      "  --print-plan             print the chosen plan\n"
      "  --trace=FILE             write a Chrome trace-event JSON of the\n"
      "                           execution (open in Perfetto)\n"
      "  --metrics=FILE           write a metrics snapshot JSON (optimizer\n"
      "                           move counters, disk/network histograms);\n"
      "                           env fallback DIMSUM_METRICS\n"
      "  --query-log=FILE         write one dimsum.querylog.v1 JSON record\n"
      "                           for the query: plan signature, server\n"
      "                           fan-out, per-resource split, and the\n"
      "                           critical-path decomposition of response\n"
      "                           time; collection never perturbs the\n"
      "                           simulation\n"
      "  --explain[=text|json]    EXPLAIN ANALYZE: per-operator estimated\n"
      "                           vs simulated cost attribution. text\n"
      "                           (default) appends an annotated plan tree\n"
      "                           and phase/site roll-ups; json prints only\n"
      "                           a dimsum.explain.v1 document on stdout\n"
      "                           (human output moves to stderr).\n"
      "                           Collection never perturbs the simulation\n"
      "  --telemetry[=MS]         sample per-resource utilization, queue\n"
      "                           depth, and buffer-pool occupancy every MS\n"
      "                           virtual ms (no value or =1 selects the\n"
      "                           10 ms default; =0|off disables; any other\n"
      "                           positive number is the interval) and\n"
      "                           write a dimsum.telemetry.v1 JSON;\n"
      "                           sampling never perturbs the simulation\n"
      "  --telemetry-out=FILE     telemetry JSON path (default\n"
      "                           telemetry.json)\n"
      "  --faults=SPEC            inject faults; ';'-separated clauses:\n"
      "                           crash:site=S,at=T,for=D (one-shot) or\n"
      "                           crash:site=S,mtbf=M,mttr=R[,seed=N]\n"
      "                           (renewal), link:drop,... / link:delay=F,...\n"
      "                           (times in virtual ms). Deterministic for\n"
      "                           a fixed seed\n"
      "  --help                   this message\n";
}

/// Parses `value` as a whole decimal integer in [lo, hi]. Rejects empty
/// values, anything but an optional '-' and digits, and values outside
/// the range (including ones no int can hold).
std::optional<int> ParseIntInRange(const std::string& value, int lo, int hi) {
  int parsed = 0;
  const char* end = value.data() + value.size();
  const auto [stop, error] = std::from_chars(value.data(), end, parsed);
  if (value.empty() || error != std::errc() || stop != end || parsed < lo ||
      parsed > hi) {
    return std::nullopt;
  }
  return parsed;
}

/// Stores the integer flag `--name=value` into `*out`; on a malformed or
/// out-of-range value prints why and returns false.
bool SetIntFlag(const char* name, const std::string& value, int lo, int* out,
                int hi = std::numeric_limits<int>::max()) {
  const std::optional<int> parsed = ParseIntInRange(value, lo, hi);
  if (!parsed.has_value()) {
    std::cerr << "invalid --" << name << ": '" << value
              << "' (expected an integer in [" << lo << ", " << hi << "])\n";
    return false;
  }
  *out = *parsed;
  return true;
}

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) == 0) {
    *value = arg.substr(prefix.size());
    return true;
  }
  return false;
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--help") {
      PrintUsage();
      std::exit(0);
    } else if (arg == "--print-plan") {
      options->print_plan = true;
    } else if (arg == "--random-placement") {
      options->random_placement = true;
    } else if (ParseFlag(arg, "policy", &value)) {
      if (value == "ds") options->policy = ShippingPolicy::kDataShipping;
      else if (value == "qs") options->policy = ShippingPolicy::kQueryShipping;
      else if (value == "hy") options->policy = ShippingPolicy::kHybridShipping;
      else return false;
    } else if (ParseFlag(arg, "metric", &value)) {
      if (value == "pages") options->metric = OptimizeMetric::kPagesSent;
      else if (value == "time") options->metric = OptimizeMetric::kResponseTime;
      else if (value == "cost") options->metric = OptimizeMetric::kTotalCost;
      else return false;
    } else if (ParseFlag(arg, "relations", &value)) {
      // The optimizer indexes a query's relations in 64-bit sets.
      if (!SetIntFlag("relations", value, 1, &options->relations,
                      RelationSets::kMaxRelations)) {
        return false;
      }
    } else if (ParseFlag(arg, "servers", &value)) {
      if (!SetIntFlag("servers", value, 1, &options->servers)) return false;
    } else if (ParseFlag(arg, "replicas", &value)) {
      if (!SetIntFlag("replicas", value, 1, &options->replicas)) return false;
    } else if (ParseFlag(arg, "replica-policy", &value)) {
      if (value == "first") {
        options->replica_policy = ReplicaPolicy::kFirstCopy;
      } else if (value == "rr") {
        options->replica_policy = ReplicaPolicy::kRoundRobin;
      } else if (value == "lo") {
        options->replica_policy = ReplicaPolicy::kLeastOutstanding;
      } else {
        std::cerr << "invalid --replica-policy: " << value
                  << " (expected first, rr, or lo)\n";
        return false;
      }
    } else if (ParseFlag(arg, "shards", &value)) {
      if (!SetIntFlag("shards", value, 1, &options->shards)) return false;
    } else if (ParseFlag(arg, "shard-scheme", &value)) {
      if (value == "range") {
        options->shard_scheme = ShardScheme::kRange;
      } else if (value == "hash") {
        options->shard_scheme = ShardScheme::kHash;
      } else {
        std::cerr << "invalid --shard-scheme: " << value
                  << " (expected range or hash)\n";
        return false;
      }
    } else if (ParseFlag(arg, "cached", &value)) {
      options->cached = std::atof(value.c_str());
    } else if (ParseFlag(arg, "selectivity", &value)) {
      options->selectivity = std::atof(value.c_str());
    } else if (ParseFlag(arg, "load", &value)) {
      options->load = std::atof(value.c_str());
    } else if (ParseFlag(arg, "alloc", &value)) {
      if (value == "min") options->alloc = BufAlloc::kMinimum;
      else if (value == "max") options->alloc = BufAlloc::kMaximum;
      else return false;
    } else if (ParseFlag(arg, "disks", &value)) {
      if (!SetIntFlag("disks", value, 1, &options->disks)) return false;
    } else if (ParseFlag(arg, "client-mips", &value)) {
      options->client_mips = std::atof(value.c_str());
    } else if (ParseFlag(arg, "seed", &value)) {
      options->seed = static_cast<uint64_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(arg, "threads", &value)) {
      if (!SetIntFlag("threads", value, 1, &options->threads)) return false;
    } else if (ParseFlag(arg, "trace", &value)) {
      options->trace_file = value;
    } else if (ParseFlag(arg, "metrics", &value)) {
      options->metrics_file = value;
    } else if (arg == "--query-log" || ParseFlag(arg, "query-log", &value)) {
      if (value.empty()) {
        std::cerr << "--query-log requires a file path\n";
        return false;
      }
      options->query_log_file = value;
    } else if (ParseFlag(arg, "faults", &value)) {
      options->faults_spec = value;
    } else if (ParseFlag(arg, "telemetry-out", &value)) {
      options->telemetry_file = value;
    } else if (arg == "--telemetry" || ParseFlag(arg, "telemetry", &value)) {
      const std::optional<double> interval = ParseTelemetryInterval(value);
      if (!interval.has_value()) {
        std::cerr << "invalid --telemetry interval: " << value
                  << " (expected a positive virtual-ms period, or off)\n";
        return false;
      }
      options->telemetry_interval_ms = *interval;
    } else if (arg == "--explain" || ParseFlag(arg, "explain", &value)) {
      const std::optional<ExplainMode> mode = ParseExplainMode(value);
      if (!mode.has_value()) {
        std::cerr << "invalid --explain mode: " << value
                  << " (expected text or json)\n";
        return false;
      }
      options->explain = *mode;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return false;
    }
  }
  if (options->relations < 1 || options->servers < 1 ||
      options->relations < options->servers || options->cached < 0.0 ||
      options->cached > 1.0 || options->disks < 1) {
    std::cerr << "invalid flag combination\n";
    return false;
  }
  if (options->shards < 1 || options->shards > options->servers) {
    std::cerr << "--shards must be in [1, servers]\n";
    return false;
  }
  if (options->shards > 1) {
    if (options->cached != 0.0) {
      std::cerr << "--shards requires --cached=0 (sharding and client "
                   "caching are mutually exclusive)\n";
      return false;
    }
    if (options->replicas < 1 || options->replicas > options->shards) {
      std::cerr << "--replicas must be in [1, shards] under --shards\n";
      return false;
    }
  } else if (options->replicas < 1 || options->replicas > options->servers) {
    std::cerr << "--replicas must be in [1, servers]\n";
    return false;
  }
  return true;
}

int RunCli(const CliOptions& options) {
  if (options.threads > 0) SetGlobalThreadCount(options.threads);
  const std::string& trace_file = options.trace_file;
  // The metrics registry is also enabled from DIMSUM_METRICS at start-up,
  // so the CLI honours the variable too.
  const std::string metrics_file = !options.metrics_file.empty()
                                       ? options.metrics_file
                                       : EnvPath("DIMSUM_METRICS");
  const std::string& faults_spec = options.faults_spec;
  const std::string& query_log_file = options.query_log_file;
  const ExplainMode explain = options.explain;
  const double telemetry_interval_ms = options.telemetry_interval_ms;
  const std::string telemetry_file = options.telemetry_file.empty()
                                         ? "telemetry.json"
                                         : options.telemetry_file;
  // In JSON mode stdout carries exactly one dimsum.explain.v1 document, so
  // the human-readable report moves to stderr.
  std::ostream& txt =
      explain == ExplainMode::kJson ? std::cerr : std::cout;
  WorkloadSpec spec;
  spec.num_relations = options.relations;
  spec.num_servers = options.servers;
  spec.replication_degree = options.replicas;
  spec.shards = options.shards;
  spec.shard_scheme = options.shard_scheme;
  spec.cached_fraction = options.cached;
  spec.selectivity = options.selectivity;
  Rng rng(options.seed);
  BenchmarkWorkload workload = options.random_placement
                                   ? MakeChainWorkload(spec, rng)
                                   : MakeChainWorkloadRoundRobin(spec);
  SystemConfig config;
  config.num_servers = options.servers;
  config.params.buf_alloc = options.alloc;
  config.params.num_disks = options.disks;
  if (options.client_mips > 0.0) {
    config.params.site_mips[kClientSite] = options.client_mips;
  }
  if (options.load > 0.0) {
    for (int s = 0; s < options.servers; ++s) {
      config.server_disk_load_per_sec[ServerSite(s)] = options.load;
    }
  }
  sim::TraceSink trace;
  if (!trace_file.empty()) config.trace = &trace;
  sim::TelemetrySampler telemetry(
      telemetry_interval_ms > 0.0 ? telemetry_interval_ms : 10.0);
  if (telemetry_interval_ms > 0.0) config.telemetry = &telemetry;
  sim::FaultSchedule faults;
  if (!faults_spec.empty()) {
    faults = sim::ParseFaultSpec(faults_spec);
    config.faults = &faults;
  }
  if (!metrics_file.empty()) {
    MetricsRegistry::Global().set_enabled(true);
    config.collect_histograms = true;
  }
  if (explain != ExplainMode::kOff) {
    // Pure observation on both counts: histogram adds and per-operator
    // clock reads never schedule a simulation event.
    config.collect_operator_actuals = true;
    config.collect_histograms = true;
  }
  if (!query_log_file.empty()) {
    // Span capture and operator actuals are both pure observation (clock
    // reads and memory writes only), so the run stays bit-identical.
    config.collect_spans = true;
    config.collect_operator_actuals = true;
  }
  ClientServerSystem system(std::move(workload.catalog), config);
  auto result = system.Run(workload.query, options.policy, options.metric,
                           options.seed);

  txt << options.relations << "-way chain join, " << options.servers
            << " server(s), " << Fmt(options.cached * 100, 0)
            << "% cached, " << ToString(options.alloc) << " allocation, "
            << ToString(options.policy) << " minimizing "
            << ToString(options.metric) << "\n";
  if (options.shards > 1) {
    txt << options.shards << "-way "
        << (options.shard_scheme == ShardScheme::kRange ? "range" : "hash")
        << " sharding";
    if (options.replicas > 1) {
      txt << ", " << options.replicas << " copies per shard";
    }
    txt << " (scans expand into per-shard fragments)\n";
  } else if (options.replicas > 1) {
    txt << "replication degree " << options.replicas
        << " (optimizer may scan any copy)\n";
  }
  if (options.replica_policy != ReplicaPolicy::kFirstCopy) {
    txt << "note: --replica-policy balances multi-query driver runs; this\n"
           "single-query run submits the optimized plan unchanged\n";
  }
  txt << "\n";
  if (options.print_plan) {
    txt << PlanToString(result.optimize.plan) << "\n";
  }
  ReportTable table({"quantity", "value"});
  table.AddRow({"optimizer estimate",
                options.metric == OptimizeMetric::kPagesSent
                    ? Fmt(result.optimize.cost, 0) + " pages"
                    : Fmt(result.optimize.cost / 1000.0) + " s"});
  table.AddRow({"plans evaluated",
                std::to_string(result.optimize.plans_evaluated)});
  table.AddRow({"cost-model runs (cache misses)",
                std::to_string(result.optimize.cache_misses)});
  table.AddRow({"cost-cache hit rate",
                Fmt(result.optimize.CacheHitRate() * 100.0, 1) + " %"});
  table.AddRow(
      {"measured response", Fmt(result.execute.response_ms / 1000.0) + " s"});
  table.AddRow({"pages sent", std::to_string(result.execute.data_pages_sent)});
  table.AddRow({"messages", std::to_string(result.execute.messages)});
  table.AddRow({"bytes on wire", std::to_string(result.execute.bytes_sent)});
  for (const auto& [site, busy] : result.execute.disk_busy_ms) {
    table.AddRow({"disk busy @ site " + std::to_string(site),
                  Fmt(busy / 1000.0) + " s"});
  }
  if (!faults_spec.empty()) {
    table.AddRow({"fault stall",
                  Fmt(result.execute.fault_stall_ms / 1000.0) + " s"});
    table.AddRow(
        {"retransmits", std::to_string(result.execute.retransmits)});
  }
  table.Print(txt);

  if (!trace_file.empty()) {
    if (trace.WriteJsonFile(trace_file)) {
      txt << "\ntrace: " << trace_file << " (" << trace.num_events()
                << " events; open in https://ui.perfetto.dev)\n";
    } else {
      std::cerr << "cannot write trace file: " << trace_file << "\n";
      return 1;
    }
  }
  if (telemetry_interval_ms > 0.0) {
    if (telemetry.WriteJsonFile(telemetry_file)) {
      txt << (trace_file.empty() ? "\n" : "") << "telemetry: "
          << telemetry_file << " (" << telemetry.num_series() << " series, "
          << telemetry.num_samples() << " samples @ "
          << Fmt(telemetry.interval_ms(), 1) << " ms)\n";
    } else {
      std::cerr << "cannot write telemetry file: " << telemetry_file << "\n";
      return 1;
    }
  }
  if (!metrics_file.empty()) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    FoldOptimizeResult(result.optimize, registry);
    FoldExecMetrics(result.execute, registry);
    if (registry.WriteJsonFile(metrics_file)) {
      txt << (trace_file.empty() ? "\n" : "") << "metrics: "
                << metrics_file << "\n";
    } else {
      std::cerr << "cannot write metrics file: " << metrics_file << "\n";
      return 1;
    }
  }
  if (!query_log_file.empty()) {
    QueryLogRecord record;
    record.policy = ToString(options.replica_policy);
    record.ticket = 0;
    record.client = workload.query.home_client;
    record.plan_signature =
        HashPlanSignature(PlanSignature(result.optimize.plan));
    record.fanout = BoundServerSites(result.optimize.plan, system.catalog(),
                                     system.config().params.page_bytes);
    record.issue_ms = 0.0;
    record.submit_ms = 0.0;
    record.complete_ms = result.execute.response_ms;
    record.response_ms = result.execute.response_ms;
    for (const OperatorActual& actual : result.execute.operator_actuals) {
      record.cpu_elapsed_ms += actual.cpu_ms;
      record.disk_elapsed_ms += actual.disk_ms;
      record.net_elapsed_ms += actual.net_ms;
      record.stall_elapsed_ms += actual.stall_ms;
    }
    record.path = ExtractCriticalPath(result.spans);
    if (WriteQueryLogFile(query_log_file, {record})) {
      txt << (trace_file.empty() && metrics_file.empty() ? "\n" : "")
          << "query log: " << query_log_file << " ("
          << record.path.segments.size() << " critical-path segments)\n";
    } else {
      std::cerr << "cannot write query log file: " << query_log_file << "\n";
      return 1;
    }
  }
  if (explain != ExplainMode::kOff) {
    // Re-cost the chosen plan with estimate capture and join it against the
    // per-operator actuals the execution collected.
    PlanEstimate est;
    EstimateTime(result.optimize.plan, system.catalog(), workload.query,
                 system.config().params, system.ServerDiskUtilization(),
                 &est);
    const ExplainReport report = BuildExplainReport(est, result.execute);
    if (explain == ExplainMode::kJson) {
      WriteExplainJson(report, std::cout);
    } else {
      txt << "\n" << ExplainToText(report, result.optimize.plan);
    }
  }
  return 0;
}

}  // namespace
}  // namespace dimsum

int main(int argc, char** argv) {
  dimsum::CliOptions options;
  if (!dimsum::ParseArgs(argc, argv, &options)) {
    dimsum::PrintUsage();
    return 1;
  }
  return dimsum::RunCli(options);
}
