#ifndef DIMSUM_COMMON_METRICS_H_
#define DIMSUM_COMMON_METRICS_H_

// Process-wide metrics: counters, gauges, and fixed-bucket histograms with
// a JSON snapshot exporter. Instrumented layers accumulate into plain local
// structs on their hot paths and *fold* into the registry at run
// boundaries, so the registry itself is never on a simulation or search
// hot path: every update follows a name lookup under the registry mutex.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace dimsum {

/// Monotonically increasing counter; Add/value are atomic.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-written-value gauge; Set/value are atomic.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram (value type). Buckets are defined by ascending
/// upper bounds; one implicit overflow bucket catches everything above the
/// last bound. Not internally synchronized: record into a local instance
/// (or behind MetricsRegistry::MergeHistogram) and merge at fold points.
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(std::vector<double> upper_bounds);

  /// Log-spaced millisecond bounds, 0.01 ms .. 10 s: suits both per-page
  /// service times (~0.1-15 ms) and whole-phase waits.
  static std::vector<double> DefaultTimeBoundsMs();

  bool has_buckets() const { return !bounds_.empty(); }
  void Add(double value);
  void Merge(const Histogram& other);

  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ > 0 ? sum_ / count_ : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<int64_t>& bucket_counts() const { return counts_; }

  /// Quantile estimate by linear interpolation within the owning bucket,
  /// clamped to the observed [min, max]. Depends only on the merged bucket
  /// counts (plus exact min/max), so the result is independent of the
  /// order samples were added or shards were merged. q in [0, 1]; returns
  /// 0 for an empty histogram.
  double Quantile(double q) const;

  /// {"count":n,"sum":s,"mean":..,"min":..,"max":..,"p50":..,"p90":..,
  /// "p99":..,"buckets":[{"le":b,"count":c},..,{"le":"inf","count":c}]}
  void WriteJson(std::ostream& out) const;

 private:
  std::vector<double> bounds_;
  std::vector<int64_t> counts_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Named registry of counters, gauges, and histograms. Lookup is mutex
/// protected and returns stable references (instruments are never removed
/// except by Reset); instrument updates follow each type's own thread
/// safety rules.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide instance. `enabled()` is initialized from the
  /// DIMSUM_METRICS environment variable (any non-empty value other than
  /// "0"); the CLI and bench harnesses also enable it explicitly when a
  /// metrics file was requested.
  static MetricsRegistry& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// First call for `name` fixes its bounds (default: time buckets).
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds = {});

  /// Thread-safe fold of `sample` into histogram `name`.
  void MergeHistogram(const std::string& name, const Histogram& sample);

  /// Snapshot as one JSON object:
  /// {"counters":{..},"gauges":{..},"histograms":{..}}.
  void WriteJson(std::ostream& out) const;
  /// Writes the snapshot to `path`; returns false if the file cannot be
  /// opened.
  bool WriteJsonFile(const std::string& path) const;

  /// Drops every instrument (tests only; references become dangling).
  void Reset();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace dimsum

#endif  // DIMSUM_COMMON_METRICS_H_
