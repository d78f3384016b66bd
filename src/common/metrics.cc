#include "common/metrics.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>

#include "common/check.h"
#include "common/json.h"

namespace dimsum {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  DIMSUM_CHECK(!bounds_.empty());
  DIMSUM_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
  counts_.assign(bounds_.size() + 1, 0);
}

std::vector<double> Histogram::DefaultTimeBoundsMs() {
  return {0.01, 0.03, 0.1, 0.3, 1.0,    3.0,    10.0,
          30.0, 100.0, 300.0, 1000.0, 3000.0, 10000.0};
}

void Histogram::Add(double value) {
  DIMSUM_CHECK(has_buckets()) << "histogram has no bucket bounds";
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++counts_[static_cast<size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += value;
  if (count_ == 1) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (!has_buckets()) {
    *this = other;
    return;
  }
  DIMSUM_CHECK(bounds_ == other.bounds_)
      << "merging histograms with different bucket bounds";
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(count_);
  int64_t seen = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const int64_t next = seen + counts_[i];
    if (static_cast<double>(next) >= rank) {
      // The overflow bucket has no finite upper bound; min/max clamping
      // below caps it at the observed maximum.
      const double lo = (i == 0) ? min_ : bounds_[i - 1];
      const double hi = (i < bounds_.size()) ? bounds_[i] : max_;
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(counts_[i]);
      const double value = lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
      return std::min(max_, std::max(min_, value));
    }
    seen = next;
  }
  return max_;
}

void Histogram::WriteJson(std::ostream& out) const {
  out << "{\"count\": " << count_ << ", \"sum\": ";
  JsonWriteNumber(out, sum_);
  out << ", \"mean\": ";
  JsonWriteNumber(out, mean());
  out << ", \"min\": ";
  JsonWriteNumber(out, min());
  out << ", \"max\": ";
  JsonWriteNumber(out, max());
  out << ", \"p50\": ";
  JsonWriteNumber(out, Quantile(0.5));
  out << ", \"p90\": ";
  JsonWriteNumber(out, Quantile(0.9));
  out << ", \"p99\": ";
  JsonWriteNumber(out, Quantile(0.99));
  out << ", \"buckets\": [";
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (i > 0) out << ", ";
    out << "{\"le\": ";
    if (i < bounds_.size()) {
      JsonWriteNumber(out, bounds_[i]);
    } else {
      out << "\"inf\"";
    }
    out << ", \"count\": " << counts_[i] << "}";
  }
  out << "]}";
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();
    const char* env = std::getenv("DIMSUM_METRICS");
    if (env != nullptr && env[0] != '\0' &&
        !(env[0] == '0' && env[1] == '\0')) {
      r->set_enabled(true);
    }
    return r;
  }();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    if (upper_bounds.empty()) upper_bounds = Histogram::DefaultTimeBoundsMs();
    slot = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  return *slot;
}

void MetricsRegistry::MergeHistogram(const std::string& name,
                                     const Histogram& sample) {
  if (sample.count() == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(
        sample.has_buckets() ? sample.bounds()
                             : Histogram::DefaultTimeBoundsMs());
  }
  slot->Merge(sample);
}

void MetricsRegistry::WriteJson(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name)
        << "\": " << counter->value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name) << "\": ";
    JsonWriteNumber(out, gauge->value());
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    out << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name) << "\": ";
    histogram->WriteJson(out);
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
}

bool MetricsRegistry::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  WriteJson(out);
  return true;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace dimsum
