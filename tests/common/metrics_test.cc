#include "common/metrics.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"

namespace dimsum {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.value(), 42);
}

TEST(CounterTest, ConcurrentAddsAreLossless) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter.Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kAddsPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.Set(2.5);
  EXPECT_EQ(gauge.value(), 2.5);
  gauge.Add(1.5);
  EXPECT_EQ(gauge.value(), 4.0);
  gauge.Set(-1.0);
  EXPECT_EQ(gauge.value(), -1.0);
}

TEST(HistogramTest, DefaultConstructedHasNoBuckets) {
  Histogram hist;
  EXPECT_FALSE(hist.has_buckets());
  EXPECT_EQ(hist.count(), 0);
}

TEST(HistogramTest, BucketAssignment) {
  Histogram hist({1.0, 10.0});
  EXPECT_TRUE(hist.has_buckets());
  EXPECT_EQ(hist.count(), 0);
  EXPECT_EQ(hist.sum(), 0.0);
  EXPECT_EQ(hist.min(), 0.0);
  EXPECT_EQ(hist.max(), 0.0);
  for (int64_t c : hist.bucket_counts()) EXPECT_EQ(c, 0);
  hist.Add(0.5);    // <= 1.0
  hist.Add(1.0);    // <= 1.0 (bounds are inclusive upper limits)
  hist.Add(5.0);    // <= 10.0
  hist.Add(100.0);  // overflow
  EXPECT_EQ(hist.count(), 4);
  EXPECT_EQ(hist.sum(), 106.5);
  EXPECT_EQ(hist.min(), 0.5);
  EXPECT_EQ(hist.max(), 100.0);
  ASSERT_EQ(hist.bucket_counts().size(), 3u);
  EXPECT_EQ(hist.bucket_counts()[0], 2);
  EXPECT_EQ(hist.bucket_counts()[1], 1);
  EXPECT_EQ(hist.bucket_counts()[2], 1);
}

TEST(HistogramTest, MergeAddsCountsAndExtremes) {
  Histogram a({1.0, 10.0});
  Histogram b({1.0, 10.0});
  a.Add(0.5);
  b.Add(20.0);
  b.Add(2.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_EQ(a.min(), 0.5);
  EXPECT_EQ(a.max(), 20.0);
  EXPECT_EQ(a.bucket_counts()[0], 1);
  EXPECT_EQ(a.bucket_counts()[1], 1);
  EXPECT_EQ(a.bucket_counts()[2], 1);
}

TEST(HistogramTest, MergeIntoBucketlessAdoptsOther) {
  Histogram a;
  Histogram b({1.0});
  b.Add(0.25);
  a.Merge(b);
  EXPECT_TRUE(a.has_buckets());
  EXPECT_EQ(a.count(), 1);
  EXPECT_EQ(a.sum(), 0.25);
}

TEST(HistogramTest, MergeEmptyIsNoOp) {
  Histogram a({1.0});
  a.Add(0.5);
  Histogram empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1);
}

TEST(HistogramTest, DefaultTimeBoundsAreAscending) {
  const std::vector<double> bounds = Histogram::DefaultTimeBoundsMs();
  ASSERT_GT(bounds.size(), 1u);
  EXPECT_EQ(bounds.front(), 0.01);
  EXPECT_EQ(bounds.back(), 10000.0);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(HistogramTest, QuantileInterpolatesWithinBucket) {
  Histogram hist({10.0, 20.0});
  for (int i = 1; i <= 10; ++i) hist.Add(static_cast<double>(i));
  // All ten samples land in the first bucket, which spans [min=1, 10].
  EXPECT_DOUBLE_EQ(hist.Quantile(0.5), 1.0 + 9.0 * 0.5);
  EXPECT_DOUBLE_EQ(hist.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(hist.Quantile(1.0), 10.0);
}

TEST(HistogramTest, QuantileClampsToObservedRangeAndHandlesEmpty) {
  Histogram empty({1.0});
  EXPECT_EQ(empty.Quantile(0.5), 0.0);
  Histogram hist({10.0});
  hist.Add(50.0);  // single overflow sample
  // The overflow bucket has no finite upper bound; the clamp pins the
  // estimate to the observed max.
  EXPECT_DOUBLE_EQ(hist.Quantile(0.99), 50.0);
  EXPECT_DOUBLE_EQ(hist.Quantile(0.01), 50.0);
}

TEST(HistogramTest, QuantilesAreMergeOrderIndependent) {
  // Shard the same sample stream three ways, merge the shards in
  // different orders, and require identical summaries: quantiles read
  // only the merged bucket counts plus exact min/max, so the merge order
  // must not show through.
  const std::vector<double> bounds = Histogram::DefaultTimeBoundsMs();
  std::vector<Histogram> shards;
  for (int s = 0; s < 3; ++s) shards.emplace_back(bounds);
  uint64_t state = 12345;
  for (int i = 0; i < 300; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double value = 0.01 + static_cast<double>(state % 100000) / 97.0;
    shards[i % 3].Add(value);
  }
  Histogram forward(bounds);
  for (int s = 0; s < 3; ++s) forward.Merge(shards[s]);
  Histogram backward(bounds);
  for (int s = 2; s >= 0; --s) backward.Merge(shards[s]);
  EXPECT_EQ(forward.count(), backward.count());
  EXPECT_EQ(forward.min(), backward.min());
  EXPECT_EQ(forward.max(), backward.max());
  EXPECT_EQ(forward.bucket_counts(), backward.bucket_counts());
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(forward.Quantile(q), backward.Quantile(q)) << q;
  }
  EXPECT_NEAR(forward.sum(), backward.sum(),
              1e-9 * std::max(1.0, forward.sum()));
}

TEST(HistogramTest, JsonReportsQuantileSummaries) {
  Histogram hist({1.0, 10.0});
  hist.Add(0.5);
  hist.Add(5.0);
  std::ostringstream out;
  hist.WriteJson(out);
  const auto doc = JsonValue::Parse(out.str());
  ASSERT_TRUE(doc.has_value());
  for (const char* key : {"mean", "p50", "p90", "p99"}) {
    const JsonValue* value = doc->Find(key);
    ASSERT_NE(value, nullptr) << key;
    EXPECT_TRUE(value->is_number()) << key;
  }
  EXPECT_DOUBLE_EQ(doc->Find("mean")->number_value(), 2.75);
}

TEST(HistogramTest, JsonIsParsableAndComplete) {
  Histogram hist({1.0, 10.0});
  hist.Add(0.5);
  hist.Add(42.0);
  std::ostringstream out;
  hist.WriteJson(out);
  const auto doc = JsonValue::Parse(out.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->Find("count")->number_value(), 2.0);
  EXPECT_EQ(doc->Find("sum")->number_value(), 42.5);
  const JsonValue* buckets = doc->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->array_items().size(), 3u);
  // The overflow bucket is labeled with the string "inf".
  const JsonValue& overflow = buckets->array_items().back();
  EXPECT_EQ(overflow.Find("le")->string_value(), "inf");
  EXPECT_EQ(overflow.Find("count")->number_value(), 1.0);
}

TEST(MetricsRegistryTest, LookupsReturnStableInstruments) {
  MetricsRegistry registry;
  Counter& c1 = registry.counter("a");
  c1.Add(3);
  EXPECT_EQ(&registry.counter("a"), &c1);
  EXPECT_EQ(registry.counter("a").value(), 3);
  Gauge& g = registry.gauge("b");
  g.Set(1.5);
  EXPECT_EQ(&registry.gauge("b"), &g);
  Histogram& h = registry.histogram("c", {1.0});
  EXPECT_EQ(&registry.histogram("c"), &h);
  // First call fixed the bounds; later bounds arguments are ignored.
  EXPECT_EQ(registry.histogram("c", {5.0, 6.0}).bounds(),
            std::vector<double>({1.0}));
}

TEST(MetricsRegistryTest, HistogramDefaultsToTimeBounds) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.histogram("t").bounds(),
            Histogram::DefaultTimeBoundsMs());
}

TEST(MetricsRegistryTest, MergeHistogramCreatesOnFirstSample) {
  MetricsRegistry registry;
  Histogram sample({1.0});
  sample.Add(0.5);
  registry.MergeHistogram("m", sample);
  registry.MergeHistogram("m", sample);
  EXPECT_EQ(registry.histogram("m").count(), 2);
  // Empty samples never materialize an instrument.
  Histogram empty;
  registry.MergeHistogram("never", empty);
  std::ostringstream out;
  registry.WriteJson(out);
  EXPECT_EQ(out.str().find("never"), std::string::npos);
}

TEST(MetricsRegistryTest, SnapshotJsonIsParsable) {
  MetricsRegistry registry;
  registry.counter("opt.runs").Add(2);
  registry.gauge("exec.response_ms").Set(123.5);
  Histogram sample({1.0});
  sample.Add(0.25);
  registry.MergeHistogram("exec.disk.service_ms", sample);
  std::ostringstream out;
  registry.WriteJson(out);
  std::string error;
  const auto doc = JsonValue::Parse(out.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Find("opt.runs")->number_value(), 2.0);
  const JsonValue* gauges = doc->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->Find("exec.response_ms")->number_value(), 123.5);
  const JsonValue* histograms = doc->Find("histograms");
  ASSERT_NE(histograms, nullptr);
  EXPECT_EQ(histograms->Find("exec.disk.service_ms")
                ->Find("count")->number_value(),
            1.0);
}

TEST(MetricsRegistryTest, EmptySnapshotIsStillValidJson) {
  MetricsRegistry registry;
  std::ostringstream out;
  registry.WriteJson(out);
  const auto doc = JsonValue::Parse(out.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(doc->Find("counters")->object_items().empty());
  EXPECT_TRUE(doc->Find("gauges")->object_items().empty());
  EXPECT_TRUE(doc->Find("histograms")->object_items().empty());
}

TEST(MetricsRegistryTest, ResetDropsInstruments) {
  MetricsRegistry registry;
  registry.counter("x").Add(1);
  registry.Reset();
  EXPECT_EQ(registry.counter("x").value(), 0);
}

TEST(MetricsRegistryTest, EnableToggle) {
  MetricsRegistry registry;
  EXPECT_FALSE(registry.enabled());
  registry.set_enabled(true);
  EXPECT_TRUE(registry.enabled());
  registry.set_enabled(false);
  EXPECT_FALSE(registry.enabled());
}

}  // namespace
}  // namespace dimsum
