// Process-wide metrics: lock-cheap counters and fixed-bucket latency
// histograms. (Byte levels are the MemoryTracker's, obs/memory.h.)
//
// Counters and histograms are sharded per thread (each thread owns a
// cache-line-padded slot chosen once via a thread-local index), so the
// similarity kernel and ParallelForShared workers increment without
// contending; shards are summed only when a snapshot is taken. The
// registry hands out stable pointers: call sites cache them in
// function-local statics and a Reset() zeroes values without invalidating
// pointers.
//
// Everything is gated on the process-wide observability switch. When it is
// off (the default) the recording macros reduce to one relaxed atomic load
// and a predictable branch, so instrumented hot paths keep their benchmark
// numbers and the parallel kernel's bit-identical guarantee is trivially
// unaffected (instrumentation never feeds back into computation).

#ifndef DISTINCT_OBS_METRICS_H_
#define DISTINCT_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace distinct {
namespace obs {

namespace internal {
inline std::atomic<bool> g_enabled{false};

/// Index of the calling thread's shard slot, assigned on first use and
/// fixed for the thread's lifetime.
unsigned ThreadShardIndex();
}  // namespace internal

/// Whether observability (metrics + tracing) is recording.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Flips the process-wide switch. Typically set once at startup
/// (DistinctConfig::observability or the CLI --metrics-json/--report
/// flags); tests toggle it freely.
inline void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

/// A monotonically increasing sum, sharded per thread. Adds are one relaxed
/// fetch_add on the caller's own shard; concurrent adds from N threads sum
/// exactly (no sampling, no loss).
class Counter {
 public:
  static constexpr unsigned kShards = 16;  // power of two

  void Add(int64_t delta) {
    shards_[internal::ThreadShardIndex() & (kShards - 1)].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  int64_t Value() const {
    int64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Shard& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Shard {
    std::atomic<int64_t> value{0};
  };
  std::array<Shard, kShards> shards_{};
};

/// Merged view of one histogram at snapshot time.
struct HistogramSnapshot {
  /// Bucket b counts samples in [2^b, 2^(b+1)) nanoseconds (bucket 0 also
  /// holds 0). 48 buckets cover ~3.2 days.
  static constexpr int kNumBuckets = 48;

  std::string name;
  int64_t count = 0;
  int64_t sum = 0;  // nanoseconds
  std::array<int64_t, kNumBuckets> buckets{};

  double MeanNanos() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }
  /// Upper bound of the bucket containing the p-th percentile (p in [0,1]).
  int64_t PercentileUpperBoundNanos(double p) const;
};

/// Fixed-bucket latency histogram over nanoseconds, sharded per thread like
/// Counter. Record() touches only the caller's shard; Snapshot() merges.
class Histogram {
 public:
  static constexpr unsigned kShards = 16;  // power of two
  static constexpr int kNumBuckets = HistogramSnapshot::kNumBuckets;

  void Record(int64_t nanos);

  /// Merged buckets/count/sum (name left empty; the registry fills it).
  HistogramSnapshot Snapshot() const;

  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<int64_t> count{0};
    std::atomic<int64_t> sum{0};
    std::array<std::atomic<int64_t>, kNumBuckets> buckets{};
  };
  std::array<Shard, kShards> shards_{};
};

/// Point-in-time copy of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<HistogramSnapshot> histograms;

  /// Value of the named counter, 0 when absent.
  int64_t CounterValue(std::string_view name) const;
  /// The named histogram, nullptr when absent.
  const HistogramSnapshot* FindHistogram(std::string_view name) const;
};

/// Name -> metric map. Get* registers on first use and always returns the
/// same pointer for a name; pointers stay valid for the process lifetime
/// (Reset zeroes values, it never deletes).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric (start of a fresh run / test).
  void Reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace distinct

/// Adds `delta` to the named counter when observability is on. The counter
/// pointer is resolved once per call site (function-local static).
#define DISTINCT_COUNTER_ADD(name, delta)                               \
  do {                                                                  \
    if (::distinct::obs::Enabled()) {                                   \
      static ::distinct::obs::Counter* const distinct_obs_counter_ =    \
          ::distinct::obs::MetricsRegistry::Global().GetCounter(name);  \
      distinct_obs_counter_->Add(delta);                                \
    }                                                                   \
  } while (0)

/// Records a nanosecond sample in the named histogram when observability
/// is on.
#define DISTINCT_HISTOGRAM_RECORD(name, nanos)                            \
  do {                                                                    \
    if (::distinct::obs::Enabled()) {                                     \
      static ::distinct::obs::Histogram* const distinct_obs_histogram_ =  \
          ::distinct::obs::MetricsRegistry::Global().GetHistogram(name);  \
      distinct_obs_histogram_->Record(nanos);                             \
    }                                                                     \
  } while (0)

#endif  // DISTINCT_OBS_METRICS_H_
