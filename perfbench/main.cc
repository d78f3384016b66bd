// dimsum's wall-clock benchmark. Runs one workload from a seed through the
// library's public API, checks its outputs, and prints every metric by
// name with its unit; the last line of output is one JSON object.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//   perfbench --list-metrics
//   perfbench --self-test
//
// The library's thread pool has one thread, so the process CPU clock gives
// the latency of the work (README.md says why). --trace 0 reports the
// end-to-end metrics. --trace 1 reports the per-layer metrics: untraced
// cycles alternate with cycles that record a span around every call into
// the library, then cycle 0 runs once more with the metrics registry on to
// give the counters, and then the workload's replays run, among them cycle
// 0 on a larger pool. --spans names the file the traced run's spans are
// written to.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "plan/binding.h"
#include "plan/plan.h"

namespace dimsum::perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metrics BENCHMARK.json declares, in its order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"queries_per_s", "1/cpu-s"},
    {"query_ms_p50", "cpu-ms"}, {"query_ms_p90", "cpu-ms"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"opt.optimize_ms_p50", "ms"},
    {"opt.optimize_ms_p90", "ms"},
    {"opt.plans_per_query", "count"},
    {"opt.plans_per_s", "1/s"},
    {"opt.cache_hit_rate", "ratio"},
    {"opt.cache_misses_per_query", "count"},
    {"opt.ii_accept_ratio", "ratio"},
    {"opt.sa_accept_ratio", "ratio"},
    {"opt.signature_us", "us"},
    {"opt.pool_speedup", "x"},
    {"opt.site_select_ms", "ms"},
    {"cost.plan_cost_us", "us"},
    {"cost.share_of_optimize", "ratio"},
    {"plan.move_us", "us"},
    {"plan.bind_us", "us"},
    {"plan.expand_shards_us", "us"},
    {"exec.execute_ms_p50", "ms"},
    {"exec.execute_ms_p90", "ms"},
    {"exec.actuals_overhead", "x"},
    {"sim.events", "count"},
    {"sim.events_per_query", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.peak_queue_depth", "count"},
    {"sim.frame_pool_hit_rate", "ratio"},
    {"workload.run_s", "s"},
    {"workload.shed_ratio", "ratio"},
    {"workload.abort_ratio", "ratio"},
    {"workload.retries", "count"},
    {"workload.reopts", "count"},
    {"workload.querylog_overhead", "x"},
    {"workload.querylog_json_us", "us"},
    {"workload.querylog_bytes_per_record", "bytes"},
    {"bench.trace_overhead", "x"},
};

/// After every timed cycle, set-up repeats for this share of the cycle's
/// wall time, at least once; setup_s is the median of all repeats.
constexpr double kSetupShare = 0.03;
/// The timed phase also runs until this many queries completed, so that
/// fig08_mix's query_ms_p90 has ten trials beyond it.
constexpr int64_t kMinQueries = 100;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  bool has_seed = false;
  double seconds = 0.0;
  int trace = -1;
  std::string spans_path;
  bool list_metrics = false;
  bool self_test = false;
};

void Usage() {
  std::cerr << "usage: perfbench --workload "
               "fig08_mix|openloop_1k|tail_querylog|closed_faults\n"
               "                 --seed N --seconds S --trace 0|1 "
               "[--spans PATH]\n"
               "       perfbench --list-metrics | --self-test\n";
}

bool ParseUint(const std::string& text, uint64_t* value) {
  if (text.empty() || text.size() > 19 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *value = std::stoull(text);
  return true;
}

bool ParseSeconds(const std::string& text, double* value) {
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size() &&
         std::isfinite(*value) && *value > 0.0 && *value <= 3600.0;
}

/// Parses the command line; false (after a message) on anything malformed.
bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      options->list_metrics = true;
      continue;
    }
    if (arg == "--self-test") {
      options->self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << "perfbench: " << arg << " needs a value\n";
      return false;
    }
    const std::string value = argv[++i];
    uint64_t number = 0;
    if (arg == "--workload") {
      options->workload = value;
    } else if (arg == "--seed" && ParseUint(value, &number)) {
      options->seed = number;
      options->has_seed = true;
    } else if (arg == "--seconds" && ParseSeconds(value, &options->seconds)) {
    } else if (arg == "--trace" && (value == "0" || value == "1")) {
      options->trace = value == "1" ? 1 : 0;
    } else if (arg == "--spans" && !value.empty()) {
      options->spans_path = value;
    } else {
      std::cerr << "perfbench: bad argument " << arg << " " << value << "\n";
      return false;
    }
  }
  if (options->list_metrics || options->self_test) return true;
  if (options->workload.empty() || !options->has_seed ||
      options->seconds <= 0.0 || options->trace < 0) {
    std::cerr << "perfbench: --workload, --seed, --seconds and --trace are "
                 "required\n";
    return false;
  }
  return true;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "fig08_mix") return MakeFig08Mix(seed);
  if (name == "openloop_1k") return MakeOpenLoop1k(seed);
  if (name == "tail_querylog") return MakeTailQueryLog(seed);
  if (name == "closed_faults") return MakeClosedFaults(seed);
  return nullptr;
}

/// Shortest round-trip text of a metric value.
std::string Number(double value) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.17g",
                std::isfinite(value) ? value : 0.0);
  return text;
}

/// Peak resident set of this process (VmHWM), MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Whole cycles of a timed phase.
struct Phase {
  int cycles = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t completed = 0;
  /// CPU time per query: one entry per optimize+simulate trial, or, where
  /// queries are simulated together, one per cycle (its CPU time over its
  /// completions).
  std::vector<double> query_ms;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Frees the workload's inputs and builds them anew, appending the CPU
/// time of each build to `setup_s`, until `budget_s` of wall time has
/// passed; at least once.
void TimeSetups(Workload& workload, double budget_s,
                std::vector<double>& setup_s) {
  const double start = NowSeconds();
  do {
    workload.Teardown();
    const double cpu_start = CpuSeconds();
    workload.Setup();
    setup_s.push_back(CpuSeconds() - cpu_start);
  } while (NowSeconds() - start < budget_s);
}

/// Runs cycle `index` and adds it to `phase`. Returns its wall time, s.
double RunCycleInto(Workload& workload, int index, Phase& phase) {
  const double start = NowSeconds();
  const double cpu_start = CpuSeconds();
  CycleResult cycle;
  {
    ScopedSpan span("cycle", index);
    cycle = workload.RunCycle(index);
  }
  const double cpu_s = CpuSeconds() - cpu_start;
  const double wall_s = NowSeconds() - start;
  phase.cpu_s += cpu_s;
  phase.wall_s += wall_s;
  ++phase.cycles;
  phase.attempted += cycle.attempted;
  phase.failed += cycle.failed;
  phase.completed += cycle.completed;
  if (!cycle.trial_ms.empty()) {
    phase.query_ms.insert(phase.query_ms.end(), cycle.trial_ms.begin(),
                          cycle.trial_ms.end());
  } else if (cycle.completed > 0) {
    phase.query_ms.push_back(cpu_s * 1e3 /
                             static_cast<double>(cycle.completed));
  }
  return wall_s;
}

double SumMs(const SpanRecorder& recorder,
             std::initializer_list<const char*> names) {
  double total = 0.0;
  for (const char* name : names) {
    for (const double ms : recorder.DurationsMs(name)) total += ms;
  }
  return total;
}

/// The per-layer metrics read off span durations.
void SpanMetrics(const Traces& traces, LayerValues& out) {
  const auto median_us = [](const SpanRecorder& recorder, const char* name) {
    return Quantile(recorder.DurationsMs(name), 0.5) * 1e3;
  };
  const std::vector<double> optimize = traces.phase.DurationsMs("Optimize");
  out["opt.optimize_ms_p50"] = Quantile(optimize, 0.5);
  out["opt.optimize_ms_p90"] = Quantile(optimize, 0.9);
  const std::vector<double> execute = traces.phase.DurationsMs("ExecutePlan");
  out["exec.execute_ms_p50"] = Quantile(execute, 0.5);
  out["exec.execute_ms_p90"] = Quantile(execute, 0.9);
  std::vector<double> runs = traces.phase.DurationsMs("RunOpenLoop");
  for (const double ms : traces.phase.DurationsMs("RunClosedLoop")) {
    runs.push_back(ms);
  }
  out["workload.run_s"] = Quantile(runs, 0.5) / 1e3;
  out["workload.querylog_json_us"] = median_us(traces.phase, "QueryLogJson");
  out["plan.bind_us"] = median_us(traces.setup, "BindSites");
  out["plan.expand_shards_us"] = median_us(traces.setup, "ExpandShards");
  out["cost.plan_cost_us"] = median_us(traces.replay, "PlanCost");
  out["opt.signature_us"] = median_us(traces.replay, "PlanSignature");
  out["plan.move_us"] = median_us(traces.replay, "TryRandomMove");
  out["opt.site_select_ms"] =
      Quantile(traces.replay.DurationsMs("TwoStepSiteSelection"), 0.5);
}

/// Prints each span name's share of the traced phase's wall, by self time.
void PrintSplit(const SpanRecorder& phase) {
  const double total_ms = phase.RootMs();
  const std::map<std::string, double> self = phase.SelfMs();
  std::vector<std::pair<std::string, double>> rows(self.begin(), self.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::cout << "split (self time, share of the traced phase's "
            << Number(total_ms / 1e3) << " s):";
  for (const auto& [name, ms] : rows) {
    char share[32];
    std::snprintf(share, sizeof(share), "%.1f%%",
                  100.0 * Ratio(ms, total_ms));
    std::cout << " " << name << " " << share;
  }
  std::cout << "\n";
}

template <std::size_t N>
void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const MetricSpec (&specs)[N], const LayerValues& values) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < N; ++i) {
    out << (i > 0 ? ", " : "") << "\"" << specs[i].name
        << "\": {\"value\": " << Number(values.at(specs[i].name))
        << ", \"unit\": \"" << specs[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

template <std::size_t N>
void ListSpecs(const char* key, const MetricSpec (&specs)[N]) {
  std::cout << "\"" << key << "\": [";
  for (std::size_t i = 0; i < N; ++i) {
    std::cout << (i > 0 ? ", " : "") << "{\"name\": \"" << specs[i].name
              << "\", \"unit\": \"" << specs[i].unit << "\"}";
  }
  std::cout << "]";
}

void ListMetrics() {
  std::cout << "{";
  ListSpecs("end_to_end", kEndToEnd);
  std::cout << ", ";
  ListSpecs("per_layer", kPerLayer);
  std::cout << "}\n";
}

/// Checks that the output checks pass real driver results and reject
/// tampered copies of them. Returns the exit code.
int SelfTest() {
  int failures = 0;
  const auto expect = [&failures](bool condition, const char* what) {
    std::cout << (condition ? "ok      " : "FAILED  ") << what << "\n";
    if (!condition) ++failures;
  };
  expect(TrialOutputOk(10.0, 20.0), "a finite positive trial passes");
  expect(!TrialOutputOk(std::nan(""), 20.0), "a NaN plan cost fails");
  expect(!TrialOutputOk(10.0, 0.0), "a zero response time fails");
  expect(!TrialOutputOk(10.0, std::numeric_limits<double>::infinity()),
         "an infinite response time fails");

  // Eight clients scanning one relation on one server.
  constexpr int kClients = 8;
  Catalog catalog(kClients);
  catalog.AddRelation("R0", 400, 100);
  catalog.PlaceRelation(0, ServerSite(0, kClients));
  SystemConfig config;
  config.num_clients = kClients;
  std::vector<Plan> plans;
  std::vector<QueryGraph> queries;
  plans.reserve(kClients);
  queries.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    queries.push_back(QueryGraph::Chain({0}));
    queries.back().home_client = ClientSite(c);
    plans.emplace_back(MakeDisplay(MakeScan(0, SiteAnnotation::kPrimaryCopy)));
    BindSites(plans.back(), catalog, ClientSite(c));
  }
  std::vector<ClientWorkload> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(ClientWorkload{&plans[static_cast<std::size_t>(c)],
                                     &queries[static_cast<std::size_t>(c)]});
  }

  OpenLoopConfig openloop;
  openloop.arrival.rate_per_sec = 200.0;
  openloop.duration_ms = 1000.0;
  openloop.admission.max_in_flight = 2;
  openloop.admission.max_pending = 2;
  openloop.seed = 1;
  openloop.collect_query_log = true;
  const OpenLoopResult open = RunOpenLoop(clients, catalog, config, openloop);
  expect(OpenLoopAccountingOk(open), "a real open-loop result passes");
  expect(open.shed > 0 && !open.completions.empty(),
         "the open-loop run completes and sheds queries");
  OpenLoopResult tampered = open;
  ++tampered.arrivals;
  expect(!OpenLoopAccountingOk(tampered),
         "arrivals != dispatched + shed + aborted fails");
  tampered = open;
  --tampered.completed;
  expect(!OpenLoopAccountingOk(tampered), "completed != dispatched fails");
  tampered = open;
  if (!tampered.completions.empty()) tampered.completions.pop_back();
  expect(!OpenLoopAccountingOk(tampered), "a missing completion fails");

  const QueryLogRecord* record = nullptr;
  for (const QueryLogRecord& r : open.query_log) {
    if (r.outcome == "ok" && !r.path.segments.empty()) {
      record = &r;
      break;
    }
  }
  expect(record != nullptr && PathTilesResponse(*record),
         "a real critical path tiles its response time");
  if (record != nullptr) {
    QueryLogRecord shifted = *record;
    shifted.path.segments.front().ms += 1e-3;
    expect(!PathTilesResponse(shifted),
           "a critical path 1e-3 ms off its response time fails");
  }

  DriverConfig driver;
  driver.queries_per_client = 3;
  driver.think_time_mean_ms = 50.0;
  driver.seed = 1;
  const DriverResult closed = RunClosedLoop(clients, catalog, config, driver);
  expect(ClosedLoopAccountingOk(closed, kClients, 3),
         "a real closed-loop result passes");
  DriverResult short_run = closed;
  if (!short_run.completions.empty()) short_run.completions.pop_back();
  expect(!ClosedLoopAccountingOk(short_run, kClients, 3),
         "a missing closed-loop completion fails");

  std::cout << (failures == 0 ? "self-test passed\n" : "self-test FAILED\n");
  return failures == 0 ? 0 : 1;
}

int Run(const Options& options) {
  std::unique_ptr<Workload> workload =
      MakeWorkload(options.workload, options.seed);
  if (workload == nullptr) {
    std::cerr << "perfbench: unknown workload " << options.workload << "\n";
    Usage();
    return 2;
  }
  SetGlobalThreadCount(1);
  std::cout << "perfbench " << options.workload << ": seed " << options.seed
            << ", pool 1 thread (the traced run also tries "
            << ComparedPoolSize() << "; " << std::thread::hardware_concurrency()
            << " hardware), " << options.seconds << " s timed, trace "
            << options.trace << "\n";

  // The first set-up is not timed; a traced run records its spans.
  Traces traces;
  if (options.trace == 1) ActiveRecorder() = &traces.setup;
  {
    ScopedSpan span("setup");
    workload->Setup();
  }
  ActiveRecorder() = nullptr;
  // Cycle 0 warms caches and lazy state and is not timed; its virtual-time
  // outputs are the digest.
  const CycleResult warm = workload->RunCycle(0);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(warm.digest));
  std::cout << "digest " << options.workload << " seed " << options.seed
            << " cycle 0 (" << warm.attempted << " queries): " << hex << "\n";
  int64_t attempted = warm.attempted;
  int64_t failed = warm.failed;
  bool replays_ok = true;
  LayerValues values;

  int next = 1;
  const double start = NowSeconds();
  if (options.trace == 0) {
    // Set-up is timed between the timed cycles, on the heap they leave
    // behind and across the whole run: on a fresh heap it ran up to a third
    // faster, and the host's speed drifts within a run.
    Phase timed;
    std::vector<double> setup_s;
    do {
      const double cycle_s = RunCycleInto(*workload, next++, timed);
      TimeSetups(*workload, kSetupShare * cycle_s, setup_s);
    } while (NowSeconds() - start < options.seconds ||
             timed.completed < kMinQueries);
    attempted += timed.attempted;
    failed += timed.failed;
    std::cout << "setup: median " << Number(Quantile(setup_s, 0.5))
              << " CPU-s over " << setup_s.size() << " repeats\n";
    values["setup_s"] = Quantile(setup_s, 0.5);
    values["queries_per_s"] =
        Ratio(static_cast<double>(timed.completed), timed.cpu_s);
    values["query_ms_p50"] = Quantile(timed.query_ms, 0.5);
    values["query_ms_p90"] = Quantile(timed.query_ms, 0.9);
    values["peak_rss_mb"] = PeakRssMb();
    std::cout << "timed: " << timed.cycles << " cycles, " << timed.completed
              << " completions in " << Number(timed.wall_s) << " s wall, "
              << Number(timed.cpu_s) << " s CPU; query_ms over "
              << timed.query_ms.size() << " timed units\n";
  } else {
    // Untraced and traced cycles alternate, so both halves see the same
    // machine; the traced half gives the per-layer times.
    Phase plain;
    Phase traced;
    do {
      RunCycleInto(*workload, next++, plain);
      ActiveRecorder() = &traces.phase;
      RunCycleInto(*workload, next++, traced);
      ActiveRecorder() = nullptr;
    } while (NowSeconds() - start < options.seconds);
    attempted += plain.attempted + traced.attempted;
    failed += plain.failed + traced.failed;

    // The counters come from one more traced run of cycle 0 with the
    // metrics registry on: its inputs are fixed by the seed, so its counts
    // repeat exactly and do not grow with the number of cycles that fit.
    MetricsRegistry& registry = MetricsRegistry::Global();
    workload->ResetTally();
    registry.set_enabled(true);
    ActiveRecorder() = &traces.count;
    const CycleResult counted = workload->RunCycle(0);
    ActiveRecorder() = nullptr;
    registry.set_enabled(false);
    attempted += counted.attempted;
    failed += counted.failed;

    for (const MetricSpec& spec : kPerLayer) values[spec.name] = 0.0;
    ActiveRecorder() = &traces.replay;
    replays_ok = workload->Replay(traces, warm.digest, values) &&
                 counted.digest == warm.digest;
    ActiveRecorder() = nullptr;
    SpanMetrics(traces, values);
    const auto events = static_cast<double>(
        registry.counter("kernel.processed_events").value());
    const auto hits = static_cast<double>(
        registry.counter("kernel.frame_pool.hits").value());
    const auto misses = static_cast<double>(
        registry.counter("kernel.frame_pool.misses").value());
    const double simulate_ms = SumMs(
        traces.count, {"ExecutePlan", "RunOpenLoop", "RunClosedLoop"});
    values["sim.events"] = events;
    values["sim.events_per_query"] =
        Ratio(events, static_cast<double>(counted.completed));
    values["sim.events_per_s"] = Ratio(events, simulate_ms / 1e3);
    values["sim.peak_queue_depth"] =
        registry.gauge("kernel.peak_event_queue_depth").value();
    values["sim.frame_pool_hit_rate"] = Ratio(hits, hits + misses);
    values["bench.trace_overhead"] = Ratio(
        Ratio(static_cast<double>(plain.completed), plain.cpu_s),
        Ratio(static_cast<double>(traced.completed), traced.cpu_s));
    std::cout << "traced: " << plain.cycles << " untraced and "
              << traced.cycles << " traced cycles; counts from cycle 0\n";
    PrintSplit(traces.phase);
    if (!options.spans_path.empty()) {
      std::ofstream out(options.spans_path);
      traces.setup.WriteJsonl(out, "setup");
      traces.phase.WriteJsonl(out, "phase");
      traces.count.WriteJsonl(out, "count");
      traces.replay.WriteJsonl(out, "replay");
      if (out) {
        std::cout << "spans: " << options.spans_path << "\n";
      } else {
        std::cerr << "perfbench: cannot write " << options.spans_path << "\n";
      }
    }
  }
  if (!replays_ok) std::cout << "replay outputs failed their checks\n";
  const bool correct = failed == 0 && replays_ok;
  if (options.trace == 0) {
    PrintResult(correct, attempted, failed, kEndToEnd, values);
  } else {
    PrintResult(correct, attempted, failed, kPerLayer, values);
  }
  return 0;
}

}  // namespace
}  // namespace dimsum::perfbench

int main(int argc, char** argv) {
  using namespace dimsum::perfbench;
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    Usage();
    return 2;
  }
  if (options.list_metrics) {
    ListMetrics();
    return 0;
  }
  if (options.self_test) return SelfTest();
  return Run(options);
}
