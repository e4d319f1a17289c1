#include "util/metrics.h"

#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ldapbound {
namespace {

TEST(CounterTest, IncrementAccumulates) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
  g.Set(-5);
  EXPECT_EQ(g.Value(), -5);
}

TEST(HistogramTest, BucketForBoundaries) {
  // Log-linear grid: values below kSubBuckets are exact, then each power
  // of two is split into kSubBuckets linear sub-buckets.
  EXPECT_EQ(Histogram::BucketFor(0), 0u);
  EXPECT_EQ(Histogram::BucketFor(1), 1u);
  EXPECT_EQ(Histogram::BucketFor(7), 7u);
  // [8,16) splits into 8 one-wide sub-buckets right after the exact run.
  EXPECT_EQ(Histogram::BucketFor(8), 8u);
  EXPECT_EQ(Histogram::BucketFor(9), 9u);
  EXPECT_EQ(Histogram::BucketFor(15), 15u);
  EXPECT_EQ(Histogram::BucketFor(16), 16u);
  // 1023 is the last value of the [512,1024) decade's top sub-bucket;
  // 1024 opens the next decade.
  EXPECT_EQ(Histogram::BucketFor(1023), Histogram::BucketFor(1024) - 1);
  EXPECT_EQ(Histogram::BucketFor(~uint64_t{0}), Histogram::kNumBuckets - 1);
}

TEST(HistogramTest, BucketWidthBoundsRelativeError) {
  // The log-linear refinement is the point of the grid: every bucket
  // above the exact run spans at most 12.5% of its lower bound.
  for (size_t i = Histogram::kSubBuckets; i < Histogram::kNumBuckets; ++i) {
    uint64_t lo = Histogram::BucketLowerBound(i);
    uint64_t hi = Histogram::BucketUpperBound(i);
    EXPECT_LE(hi - lo + 1, lo / 8 + 1) << "bucket " << i;
  }
}

TEST(HistogramTest, BucketUpperBoundMatchesBucketFor) {
  // Every value in bucket i is <= BucketUpperBound(i) and greater than
  // the previous bucket's bound.
  for (size_t i = 0; i + 1 < Histogram::kNumBuckets; ++i) {
    uint64_t hi = Histogram::BucketUpperBound(i);
    EXPECT_EQ(Histogram::BucketFor(hi), i) << "bucket " << i;
    EXPECT_EQ(Histogram::BucketFor(hi + 1), i + 1) << "bucket " << i;
  }
}

TEST(HistogramTest, ObserveCountsAndSums) {
  Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(5);
  h.Observe(5);
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_EQ(h.Sum(), 11u);
  EXPECT_EQ(h.BucketCount(0), 1u);  // the 0
  EXPECT_EQ(h.BucketCount(1), 1u);  // the 1
  EXPECT_EQ(h.BucketCount(5), 2u);  // the two 5s (exact below kSubBuckets)
}

TEST(HistogramTest, ValueAtQuantileInterpolates) {
  Histogram h;
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0u);  // empty
  for (uint64_t v = 1; v <= 1000; ++v) h.Observe(v);
  // With the 12.5% bucket width plus in-bucket interpolation, quantiles
  // of a uniform ramp come back within one bucket width of exact.
  uint64_t p50 = h.ValueAtQuantile(0.50);
  uint64_t p99 = h.ValueAtQuantile(0.99);
  EXPECT_NEAR(static_cast<double>(p50), 500.0, 500.0 / 8.0);
  EXPECT_NEAR(static_cast<double>(p99), 990.0, 990.0 / 8.0);
  // q=0 lands at the smallest observed value's bucket floor.
  EXPECT_EQ(h.ValueAtQuantile(0.0), 1u);
  EXPECT_LE(h.ValueAtQuantile(1.0), 1023u);
}

TEST(MetricRegistryTest, ForEachSampleFlattensSeries) {
  MetricRegistry reg;
  reg.GetCounter("fes_total", "h", "op=\"add\"").Increment(3);
  reg.GetGauge("fes_depth", "h").Set(-2);
  reg.GetHistogram("fes_ns", "h").Observe(10);
  std::map<std::string, double> samples;
  reg.ForEachSample(
      [&](const std::string& series, double v) { samples[series] = v; });
  EXPECT_EQ(samples.at("fes_total{op=\"add\"}"), 3.0);
  EXPECT_EQ(samples.at("fes_depth"), -2.0);
  EXPECT_EQ(samples.at("fes_ns_count"), 1.0);
  EXPECT_EQ(samples.at("fes_ns_sum"), 10.0);
  EXPECT_EQ(samples.size(), 4u);
}

TEST(MetricRegistryTest, ReadReturnsOneSeriesOrTheFamilyTotal) {
  MetricRegistry reg;
  reg.GetCounter("rd_total", "h", "op=\"add\"").Increment(3);
  reg.GetCounter("rd_total", "h", "op=\"del\"").Increment(4);
  reg.GetCounter("rd_bare_total", "h").Increment(5);
  reg.GetGauge("rd_level", "h", "reactor=\"0\"").Set(2);
  reg.GetGauge("rd_level", "h", "reactor=\"1\"").Set(-9);
  reg.GetHistogram("rd_ns", "h").Observe(10);
  reg.GetHistogram("rd_ns", "h").Observe(30);

  EXPECT_EQ(reg.Read("rd_total", "op=\"add\""), 3u);
  EXPECT_EQ(reg.Read("rd_total"), 7u);
  EXPECT_EQ(reg.Read("rd_bare_total"), 5u);
  EXPECT_EQ(reg.Read("rd_level", "reactor=\"0\""), 2u);
  EXPECT_EQ(reg.Read("rd_level", "reactor=\"1\""), 0u);  // negative gauge
  EXPECT_EQ(reg.Read("rd_level"), 2u);
  EXPECT_EQ(reg.Read("rd_ns_count"), 2u);
  EXPECT_EQ(reg.Read("rd_ns_sum"), 40u);

  // Unknown names and label sets read 0 and register nothing.
  EXPECT_EQ(reg.Read("rd_total", "op=\"mod\""), 0u);
  EXPECT_EQ(reg.Read("rd_missing_total"), 0u);
  EXPECT_EQ(reg.Read("rd_total_count"), 0u);  // not a histogram
  EXPECT_EQ(reg.RenderPrometheus().find("op=\"mod\""), std::string::npos);
  EXPECT_EQ(reg.RenderPrometheus().find("rd_missing"), std::string::npos);
}

TEST(LatencyTimerTest, ObservesOnDestruction) {
  Histogram h;
  { LatencyTimer t(h); }
  EXPECT_EQ(h.Count(), 1u);
}

TEST(MetricRegistryTest, GetOrCreateReturnsSameSeries) {
  MetricRegistry reg;
  Counter& a = reg.GetCounter("test_total", "help text");
  Counter& b = reg.GetCounter("test_total", "ignored on second sight");
  EXPECT_EQ(&a, &b);
  // Different labels are distinct series in the same family.
  Counter& x = reg.GetCounter("labeled_total", "h", "op=\"add\"");
  Counter& y = reg.GetCounter("labeled_total", "h", "op=\"del\"");
  EXPECT_NE(&x, &y);
  EXPECT_EQ(&x, &reg.GetCounter("labeled_total", "h", "op=\"add\""));
}

TEST(MetricRegistryTest, RenderPrometheusFormat) {
  MetricRegistry reg;
  reg.GetCounter("zz_events_total", "Total events.").Increment(3);
  reg.GetGauge("aa_depth", "Queue depth.").Set(7);
  Histogram& h = reg.GetHistogram("mm_latency_ns", "Latency.");
  h.Observe(0);
  h.Observe(3);

  std::string text = reg.RenderPrometheus();
  // Families render in lexicographic order: aa_, mm_, zz_.
  size_t aa = text.find("# HELP aa_depth Queue depth.");
  size_t mm = text.find("# HELP mm_latency_ns Latency.");
  size_t zz = text.find("# HELP zz_events_total Total events.");
  ASSERT_NE(aa, std::string::npos) << text;
  ASSERT_NE(mm, std::string::npos) << text;
  ASSERT_NE(zz, std::string::npos) << text;
  EXPECT_LT(aa, mm);
  EXPECT_LT(mm, zz);

  EXPECT_NE(text.find("# TYPE zz_events_total counter"), std::string::npos);
  EXPECT_NE(text.find("zz_events_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE aa_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("aa_depth 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE mm_latency_ns histogram"), std::string::npos);
  // Cumulative buckets: le="0" sees the zero, le="3" sees both, +Inf too.
  EXPECT_NE(text.find("mm_latency_ns_bucket{le=\"0\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("mm_latency_ns_bucket{le=\"3\"} 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("mm_latency_ns_bucket{le=\"+Inf\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("mm_latency_ns_sum 3"), std::string::npos);
  EXPECT_NE(text.find("mm_latency_ns_count 2"), std::string::npos);

  // Deterministic: rendering twice gives identical bytes.
  EXPECT_EQ(reg.RenderPrometheus(), text);
}

TEST(MetricRegistryTest, LabeledSeriesRenderWithLabels) {
  MetricRegistry reg;
  reg.GetCounter("ops_total", "Ops.", "op=\"add\",outcome=\"ok\"")
      .Increment(2);
  reg.GetCounter("ops_total", "Ops.", "op=\"add\",outcome=\"rejected\"")
      .Increment();
  std::string text = reg.RenderPrometheus();
  EXPECT_NE(text.find("ops_total{op=\"add\",outcome=\"ok\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("ops_total{op=\"add\",outcome=\"rejected\"} 1"),
            std::string::npos)
      << text;
  // Exactly one HELP/TYPE block for the family.
  EXPECT_EQ(text.find("# HELP ops_total"), text.rfind("# HELP ops_total"));
}

TEST(MetricRegistryTest, DefaultIsProcessWideSingleton) {
  EXPECT_EQ(&MetricRegistry::Default(), &MetricRegistry::Default());
}

TEST(MetricRegistryTest, ConcurrentGetAndUpdate) {
  MetricRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      Counter& c = reg.GetCounter("concurrent_total", "h");
      Histogram& h = reg.GetHistogram("concurrent_ns", "h");
      for (int i = 0; i < kIters; ++i) {
        c.Increment();
        h.Observe(static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.GetCounter("concurrent_total", "h").Value(),
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(reg.GetHistogram("concurrent_ns", "h").Count(),
            static_cast<uint64_t>(kThreads) * kIters);
}

}  // namespace
}  // namespace ldapbound
