#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace distinct {
namespace obs {
namespace {

/// Enables observability for one test and restores the prior state after,
/// so suites sharing the binary don't leak the switch into each other.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = Enabled();
    SetEnabled(true);
    MetricsRegistry::Global().Reset();
  }
  void TearDown() override { SetEnabled(was_enabled_); }

 private:
  bool was_enabled_ = false;
};

using MetricsTest = ObsTest;

TEST_F(MetricsTest, CounterSumsExactlyAcrossThreads) {
  Counter* counter =
      MetricsRegistry::Global().GetCounter("test.concurrent_counter");
  constexpr int kThreads = 8;
  constexpr int64_t kAddsPerThread = 100000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int64_t i = 0; i < kAddsPerThread; ++i) {
        counter->Add(1);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  // Sharded adds must lose nothing: the merged value is the exact sum.
  EXPECT_EQ(counter->Value(), kThreads * kAddsPerThread);
}

TEST_F(MetricsTest, HistogramSumsExactlyAcrossThreads) {
  Histogram* histogram =
      MetricsRegistry::Global().GetHistogram("test.concurrent_histogram");
  constexpr int kThreads = 8;
  constexpr int64_t kRecordsPerThread = 20000;
  constexpr int64_t kSample = 1500;  // bucket 10: [1024, 2048)

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([histogram] {
      for (int64_t i = 0; i < kRecordsPerThread; ++i) {
        histogram->Record(kSample);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  const HistogramSnapshot snapshot = histogram->Snapshot();
  EXPECT_EQ(snapshot.count, kThreads * kRecordsPerThread);
  EXPECT_EQ(snapshot.sum, kThreads * kRecordsPerThread * kSample);
  EXPECT_EQ(snapshot.buckets[10], kThreads * kRecordsPerThread);
  EXPECT_DOUBLE_EQ(snapshot.MeanNanos(), static_cast<double>(kSample));
}

TEST_F(MetricsTest, HistogramBucketsAndPercentiles) {
  Histogram* histogram =
      MetricsRegistry::Global().GetHistogram("test.percentiles");
  // 90 fast samples in [2^4, 2^5), 10 slow ones in [2^20, 2^21).
  for (int i = 0; i < 90; ++i) {
    histogram->Record(20);
  }
  for (int i = 0; i < 10; ++i) {
    histogram->Record(1 << 20);
  }
  const HistogramSnapshot snapshot = histogram->Snapshot();
  EXPECT_EQ(snapshot.count, 100);
  EXPECT_EQ(snapshot.buckets[4], 90);
  EXPECT_EQ(snapshot.buckets[20], 10);
  EXPECT_EQ(snapshot.PercentileUpperBoundNanos(0.5), int64_t{1} << 5);
  EXPECT_EQ(snapshot.PercentileUpperBoundNanos(0.99), int64_t{1} << 21);
}

TEST_F(MetricsTest, HistogramClampsExtremes) {
  Histogram* histogram =
      MetricsRegistry::Global().GetHistogram("test.extremes");
  histogram->Record(0);
  histogram->Record(-5);  // negative samples clamp into bucket 0
  histogram->Record(int64_t{1} << 62);
  const HistogramSnapshot snapshot = histogram->Snapshot();
  EXPECT_EQ(snapshot.count, 3);
  EXPECT_EQ(snapshot.buckets[0], 2);
  EXPECT_EQ(snapshot.buckets[HistogramSnapshot::kNumBuckets - 1], 1);
}

TEST_F(MetricsTest, RegistryReturnsStablePointers) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter("test.stable");
  EXPECT_EQ(counter, registry.GetCounter("test.stable"));
  counter->Add(7);
  EXPECT_EQ(counter->Value(), 7);

  // Reset zeroes the value but must keep the registration (cached call-site
  // pointers stay valid).
  registry.Reset();
  EXPECT_EQ(counter, registry.GetCounter("test.stable"));
  EXPECT_EQ(counter->Value(), 0);
  counter->Add(3);
  EXPECT_EQ(registry.Snapshot().CounterValue("test.stable"), 3);
}

TEST_F(MetricsTest, SnapshotSortedAndQueryable) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.b")->Add(2);
  registry.GetCounter("test.a")->Add(1);
  registry.GetHistogram("test.h")->Record(100);
  const MetricsSnapshot snapshot = registry.Snapshot();

  // std::map iteration gives names in sorted order.
  std::string previous;
  for (const auto& [name, value] : snapshot.counters) {
    EXPECT_LT(previous, name);
    previous = name;
  }
  EXPECT_EQ(snapshot.CounterValue("test.a"), 1);
  EXPECT_EQ(snapshot.CounterValue("test.missing"), 0);
  ASSERT_NE(snapshot.FindHistogram("test.h"), nullptr);
  EXPECT_EQ(snapshot.FindHistogram("test.h")->count, 1);
  EXPECT_EQ(snapshot.FindHistogram("test.missing"), nullptr);
}

TEST_F(MetricsTest, MacrosRecordWhenEnabled) {
  DISTINCT_COUNTER_ADD("test.macro_counter", 5);
  DISTINCT_HISTOGRAM_RECORD("test.macro_histogram", 256);
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.CounterValue("test.macro_counter"), 5);
  ASSERT_NE(snapshot.FindHistogram("test.macro_histogram"), nullptr);
  EXPECT_EQ(snapshot.FindHistogram("test.macro_histogram")->count, 1);
}

TEST_F(MetricsTest, MacrosAreNoOpsWhenDisabled) {
  SetEnabled(false);
  DISTINCT_COUNTER_ADD("test.disabled_counter", 5);
  SetEnabled(true);
  // The disabled macro must not even register the metric.
  EXPECT_EQ(
      MetricsRegistry::Global().Snapshot().CounterValue(
          "test.disabled_counter"),
      0);
}

TEST_F(MetricsTest, ConcurrentRegistrationIsSafe) {
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &seen] {
      seen[static_cast<size_t>(t)] =
          MetricsRegistry::Global().GetCounter("test.racing_registration");
      seen[static_cast<size_t>(t)]->Add(1);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<size_t>(t)], seen[0]);
  }
  EXPECT_EQ(seen[0]->Value(), kThreads);
}

}  // namespace
}  // namespace obs
}  // namespace distinct
