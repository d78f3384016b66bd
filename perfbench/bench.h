#ifndef DIMSUM_PERFBENCH_BENCH_H_
#define DIMSUM_PERFBENCH_BENCH_H_

// Shared pieces of dimsum's wall-clock benchmark: the spans the benchmark
// records around its own calls into the library, the interface each
// workload implements, digests of virtual-time outputs, and the output
// checks.
//
// The library itself is not instrumented. Spans are kept in memory and
// written out when the run ends; a layer's self time is its spans'
// duration minus the part their child spans cover.

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "opt/optimizer.h"
#include "workload/driver.h"
#include "workload/querylog.h"

namespace dimsum::perfbench {

// --- spans --------------------------------------------------------------

struct Span {
  const char* name = "";  ///< a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;     ///< index of the enclosing span; -1 for a root
  int64_t query = -1;  ///< shared by the spans of one benchmark query
};

/// The spans of one part of a run, recorded on the benchmark's main
/// thread.
class SpanRecorder {
 public:
  /// Opens a span inside the innermost open one; a negative `query`
  /// inherits the parent's.
  int Begin(const char* name, int64_t query);
  void End(int index);

  /// Durations of the spans called `name`, ms.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Self time per span name, ms.
  std::map<std::string, double> SelfMs() const;
  /// Summed duration of the root spans, ms.
  double RootMs() const;
  /// One JSON object per span and line; times in us from the first span.
  void WriteJsonl(std::ostream& out, const char* part) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// The recorder ScopedSpan writes to; null while nothing is traced.
SpanRecorder*& ActiveRecorder();

/// True while a recorder is active. Workloads tally API results only then;
/// a traced run resets the tallies before its counting run of cycle 0.
inline bool Tracing() { return ActiveRecorder() != nullptr; }

/// A span around one call into the library; does nothing while no
/// recorder is active.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t query = -1)
      : recorder_(ActiveRecorder()),
        index_(recorder_ != nullptr ? recorder_->Begin(name, query) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

/// Span recorders of a traced run.
struct Traces {
  SpanRecorder setup;   ///< one set-up
  SpanRecorder phase;   ///< the traced cycles of the timed phase
  SpanRecorder count;   ///< cycle 0 again, the run the counters come from
  SpanRecorder replay;  ///< the workload's replays after it
};

// --- workloads ----------------------------------------------------------

/// FNV-1a 64 over the bit patterns of virtual-time outputs, so two builds
/// can be checked for simulating the same thing.
class Digest {
 public:
  void AddInt(int64_t value);
  void AddDouble(double value);
  void AddText(const std::string& text);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

/// What one cycle did. A cycle is a fixed slate of benchmark queries
/// whose inputs derive from the run's seed and the cycle's index.
struct CycleResult {
  int64_t attempted = 0;  ///< benchmark queries run
  int64_t failed = 0;     ///< queries whose output check failed
  int64_t completed = 0;  ///< trials (fig08_mix) or simulated completions
  /// CPU time of each optimize+simulate trial, ms; empty where queries
  /// are simulated together.
  std::vector<double> trial_ms;
  uint64_t digest = 0;
};

/// Per-layer metric values by name.
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input the cycles use: catalogs, bound client plans and
  /// systems. Timed as setup_s, so it starts from nothing: Teardown has
  /// freed what an earlier call built.
  virtual void Setup() = 0;
  /// Frees what Setup built. Not timed.
  virtual void Teardown() = 0;
  /// Runs cycle `index`, checking and digesting its outputs.
  virtual CycleResult RunCycle(int index) = 0;
  /// Clears what the workload tallied from API results.
  virtual void ResetTally() = 0;
  /// Traced run only, after the counting run of cycle 0 and with
  /// `traces.replay` active: fills the per-layer metrics that come from
  /// the workload's tallies, which hold that run, then runs its replays
  /// and fills theirs.
  /// Returns false when a replay's outputs fail their checks or its
  /// virtual-time outputs differ from cycle 0's (`cycle0_digest`).
  virtual bool Replay(const Traces& traces, uint64_t cycle0_digest,
                      LayerValues& out) = 0;
};

std::unique_ptr<Workload> MakeFig08Mix(uint64_t seed);
std::unique_ptr<Workload> MakeOpenLoop1k(uint64_t seed);
std::unique_ptr<Workload> MakeTailQueryLog(uint64_t seed);
std::unique_ptr<Workload> MakeClosedFaults(uint64_t seed);

/// Optimizer counters summed over OptimizeResults.
struct OptimizerTally {
  int64_t calls = 0;
  int64_t plans = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  MoveTypeCounters ii;
  MoveTypeCounters sa;

  void Add(const OptimizeResult& result);
  /// Fills opt.plans_per_query, opt.plans_per_s (over `search_ms` of
  /// wall), opt.cache_hit_rate (base: plans evaluated),
  /// opt.cache_misses_per_query, opt.ii_accept_ratio and
  /// opt.sa_accept_ratio.
  void Report(double search_ms, LayerValues& out) const;
};

/// Threads of the pool the traced run compares with a pool of one:
/// min(4, hardware threads). Every other run uses a pool of one thread.
int ComparedPoolSize();

/// Runs cycle 0 untraced at a pool of `threads`, then restores the pool
/// and the recorder. `wall_s`, when given, receives the cycle's wall time.
CycleResult RunCycleZeroAtPool(Workload& workload, int threads,
                               double* wall_s = nullptr);

/// Runs cycle 0 at a pool of one thread and at ComparedPoolSize(). Fills
/// opt.pool_speedup (1-thread wall over compared-pool wall) and returns
/// whether both runs passed their checks and reproduced `cycle0_digest`.
bool ComparePoolSizes(Workload& workload, uint64_t cycle0_digest,
                      LayerValues& out);

// --- output checks ------------------------------------------------------

/// fig08_mix: a trial's plan cost and simulated response time are finite
/// and positive.
bool TrialOutputOk(double plan_cost, double response_ms);
/// Open loop: arrivals = dispatched + shed + aborted, completed =
/// dispatched, and one completion record per completed query.
bool OpenLoopAccountingOk(const OpenLoopResult& result);
/// Closed loop: completions = clients x queries per client.
bool ClosedLoopAccountingOk(const DriverResult& result, int clients,
                            int queries_per_client);
/// A completed query's critical-path segments tile its response time
/// within 1e-6 ms.
bool PathTilesResponse(const QueryLogRecord& record);

// --- helpers ------------------------------------------------------------

/// An independent seed for one stream of the run, derived from the run's
/// seed and up to two indices.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream, uint64_t a = 0,
                    uint64_t b = 0);
/// The q-quantile, interpolating between order statistics; 0 when empty.
double Quantile(std::vector<double> values, double q);
/// numerator / denominator, or 0 when the denominator is not positive.
double Ratio(double numerator, double denominator);
/// Steady-clock time, s.
double NowSeconds();
/// CPU time of this process, all threads, s.
double CpuSeconds();

}  // namespace dimsum::perfbench

#endif  // DIMSUM_PERFBENCH_BENCH_H_
