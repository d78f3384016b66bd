#include "bench.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>
#include <thread>

#include "common/check.h"
#include "common/thread_pool.h"

namespace dimsum::perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Ms(const Span& span) {
  return static_cast<double>(span.end_ns - span.start_ns) / 1e6;
}

/// SplitMix64 finalizer.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

int SpanRecorder::Begin(const char* name, int64_t query) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.query = (query < 0 && span.parent >= 0)
                   ? spans_[static_cast<std::size_t>(span.parent)].query
                   : query;
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  spans_.back().start_ns = NowNs();
  return open_.back();
}

void SpanRecorder::End(int index) {
  const int64_t now = NowNs();
  DIMSUM_CHECK(!open_.empty() && open_.back() == index)
      << "spans must close innermost first";
  spans_[static_cast<std::size_t>(index)].end_ns = now;
  open_.pop_back();
}

std::vector<double> SpanRecorder::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back(Ms(span));
  }
  return out;
}

std::map<std::string, double> SpanRecorder::SelfMs() const {
  std::map<std::string, double> self;
  for (const Span& span : spans_) {
    self[span.name] += Ms(span);
    if (span.parent >= 0) {
      self[spans_[static_cast<std::size_t>(span.parent)].name] -= Ms(span);
    }
  }
  return self;
}

double SpanRecorder::RootMs() const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.parent < 0) total += Ms(span);
  }
  return total;
}

void SpanRecorder::WriteJsonl(std::ostream& out, const char* part) const {
  if (spans_.empty()) return;
  const int64_t origin = spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"part\": \"" << part << "\", \"id\": " << i << ", \"name\": \""
        << span.name << "\", \"parent\": " << span.parent
        << ", \"query\": " << span.query << ", \"start_us\": "
        << static_cast<double>(span.start_ns - origin) / 1e3
        << ", \"end_us\": " << static_cast<double>(span.end_ns - origin) / 1e3
        << "}\n";
  }
}

SpanRecorder*& ActiveRecorder() {
  static SpanRecorder* active = nullptr;
  return active;
}

void Digest::AddInt(int64_t value) {
  const auto bits = static_cast<uint64_t>(value);
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (bits >> (8 * i)) & 0xFF;
    hash_ *= 1099511628211ULL;
  }
}

void Digest::AddDouble(double value) {
  int64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  AddInt(bits);
}

void Digest::AddText(const std::string& text) {
  for (const unsigned char c : text) {
    hash_ ^= c;
    hash_ *= 1099511628211ULL;
  }
  AddInt(static_cast<int64_t>(text.size()));
}

void OptimizerTally::Add(const OptimizeResult& result) {
  ++calls;
  plans += result.plans_evaluated;
  hits += result.cache_hits;
  misses += result.cache_misses;
  ii.Merge(result.ii_moves);
  sa.Merge(result.sa_moves);
}

void OptimizerTally::Report(double search_ms, LayerValues& out) const {
  const auto n = static_cast<double>(calls);
  const auto evaluated = static_cast<double>(plans);
  out["opt.plans_per_query"] = Ratio(evaluated, n);
  out["opt.plans_per_s"] = Ratio(evaluated, search_ms / 1e3);
  out["opt.cache_hit_rate"] = Ratio(static_cast<double>(hits), evaluated);
  out["opt.cache_misses_per_query"] = Ratio(static_cast<double>(misses), n);
  out["opt.ii_accept_ratio"] = ii.AcceptanceRatio();
  out["opt.sa_accept_ratio"] = sa.AcceptanceRatio();
}

int ComparedPoolSize() {
  const auto hardware = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hardware, 1, 4);
}

CycleResult RunCycleZeroAtPool(Workload& workload, int threads,
                               double* wall_s) {
  SpanRecorder* const recorder = ActiveRecorder();
  const int pool = GlobalThreadPool().thread_count();
  ActiveRecorder() = nullptr;
  SetGlobalThreadCount(threads);
  const double start = NowSeconds();
  CycleResult cycle = workload.RunCycle(0);
  if (wall_s != nullptr) *wall_s = NowSeconds() - start;
  SetGlobalThreadCount(pool);
  ActiveRecorder() = recorder;
  return cycle;
}

bool ComparePoolSizes(Workload& workload, uint64_t cycle0_digest,
                      LayerValues& out) {
  double serial_s = 0.0;
  double pooled_s = 0.0;
  const CycleResult serial = RunCycleZeroAtPool(workload, 1, &serial_s);
  const CycleResult pooled =
      RunCycleZeroAtPool(workload, ComparedPoolSize(), &pooled_s);
  out["opt.pool_speedup"] = Ratio(serial_s, pooled_s);
  return serial.failed == 0 && pooled.failed == 0 &&
         serial.digest == cycle0_digest && pooled.digest == cycle0_digest;
}

bool TrialOutputOk(double plan_cost, double response_ms) {
  return std::isfinite(plan_cost) && plan_cost > 0.0 &&
         std::isfinite(response_ms) && response_ms > 0.0;
}

bool OpenLoopAccountingOk(const OpenLoopResult& result) {
  return result.arrivals ==
             result.dispatched + result.shed + result.aborted &&
         result.completed == result.dispatched &&
         static_cast<int64_t>(result.completions.size()) == result.completed;
}

bool ClosedLoopAccountingOk(const DriverResult& result, int clients,
                            int queries_per_client) {
  return static_cast<int64_t>(result.completions.size()) ==
         static_cast<int64_t>(clients) * queries_per_client;
}

bool PathTilesResponse(const QueryLogRecord& record) {
  return std::abs(record.path.SumMs() - record.response_ms) <= 1e-6;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream, uint64_t a, uint64_t b) {
  return Mix(Mix(Mix(Mix(seed) ^ stream) ^ a) ^ b);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(position);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (position - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

double NowSeconds() { return static_cast<double>(NowNs()) / 1e9; }

double CpuSeconds() {
  timespec now{};
  DIMSUM_CHECK(clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now) == 0)
      << "no process CPU clock";
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) / 1e9;
}

}  // namespace dimsum::perfbench
