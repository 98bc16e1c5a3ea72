#include "obs/metrics.h"

#include <algorithm>
#include <bit>

namespace distinct {
namespace obs {

namespace internal {

unsigned ThreadShardIndex() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

}  // namespace internal

namespace {

/// Bucket of a nanosecond sample: floor(log2(nanos)), clamped.
int BucketOf(int64_t nanos) {
  if (nanos <= 1) {
    return 0;
  }
  const int width = std::bit_width(static_cast<uint64_t>(nanos));
  return std::min(width - 1, Histogram::kNumBuckets - 1);
}

}  // namespace

int64_t HistogramSnapshot::PercentileUpperBoundNanos(double p) const {
  if (count <= 0) {
    return 0;
  }
  const double target = p * static_cast<double>(count);
  int64_t seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    seen += buckets[static_cast<size_t>(b)];
    if (static_cast<double>(seen) >= target) {
      return int64_t{1} << (b + 1);
    }
  }
  return int64_t{1} << kNumBuckets;
}

void Histogram::Record(int64_t nanos) {
  Shard& shard = shards_[internal::ThreadShardIndex() & (kShards - 1)];
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(nanos, std::memory_order_relaxed);
  shard.buckets[static_cast<size_t>(BucketOf(nanos))].fetch_add(
      1, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  for (const Shard& shard : shards_) {
    snapshot.count += shard.count.load(std::memory_order_relaxed);
    snapshot.sum += shard.sum.load(std::memory_order_relaxed);
    for (int b = 0; b < kNumBuckets; ++b) {
      snapshot.buckets[static_cast<size_t>(b)] +=
          shard.buckets[static_cast<size_t>(b)].load(
              std::memory_order_relaxed);
    }
  }
  return snapshot;
}

void Histogram::Reset() {
  for (Shard& shard : shards_) {
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum.store(0, std::memory_order_relaxed);
    for (auto& bucket : shard.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
  }
}

int64_t MetricsSnapshot::CounterValue(std::string_view name) const {
  for (const auto& [counter_name, value] : counters) {
    if (counter_name == name) {
      return value;
    }
  }
  return 0;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    std::string_view name) const {
  for (const HistogramSnapshot& histogram : histograms) {
    if (histogram.name == name) {
      return &histogram;
    }
  }
  return nullptr;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>();
  }
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snapshot;  // std::map iteration order => sorted by name
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->Value());
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot merged = histogram->Snapshot();
    merged.name = name;
    snapshot.histograms.push_back(std::move(merged));
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    histogram->Reset();
  }
}

}  // namespace obs
}  // namespace distinct
