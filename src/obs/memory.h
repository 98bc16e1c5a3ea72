// Real memory accounting: per-subsystem byte gauges with peak watermarks,
// plus an RSS probe.
//
// The scan's memory budget (ShardedScanOptions::memory_budget_mb) used to
// reason about *estimated* bytes only; this tracker records what the big
// allocators actually hold. Each tracked component (profile arenas, the
// subtree memo, propagation workspaces, pair matrices, checkpoint
// serialization buffers) registers the bytes it owns through a
// TrackedBytes member or explicit Add() calls; the tracker keeps a current
// total and a high-water mark per component.
// CollectRunReport folds the snapshot into the run report as
// `mem.<component>_bytes` / `mem.<component>_peak_bytes` gauges, and the
// sharded scan's admission control consults the measured numbers.
//
// Accounting is always on (unlike metrics/tracing): the budget check needs
// real numbers even when no report was requested. The cost is one relaxed
// fetch_add (plus a rarely-taken CAS loop for a new peak) per *container
// resize*, never per element, so hot loops are untouched.
//
// Tolerance: tracked bytes are the payload capacity of the owning
// containers (vector capacity × element size, map payloads). Allocator
// headers, map node overhead, and code/stack are not counted — RSS will
// read higher. Copies register their own size; moves transfer it.

#ifndef DISTINCT_OBS_MEMORY_H_
#define DISTINCT_OBS_MEMORY_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace distinct {
namespace obs {

/// Process-wide byte gauges, one slot per tracked subsystem.
class MemoryTracker {
 public:
  /// Fixed component set: hot paths index an array instead of hashing a
  /// name. Extend here (and in ComponentName) when a new subsystem learns
  /// to account for itself.
  enum Component {
    kProfileArena = 0,  // sim/profile_store.h CSR slabs
    kSubtreeCache,      // prop/workspace.h memo payload
    kPairMatrix,        // cluster/pair_matrix.h cells
    kCheckpoint,        // core/checkpoint.cc serialization buffers
    kIngestDictionary,  // catalog/writer.cc intern tables
    kCatalogSegment,    // catalog/writer.cc open-segment column buffers
    kPropagationWorkspace,  // prop/workspace.h dense scratch slabs
    kRss,               // OS-reported resident set (sampled, not summed)
    kNumComponents,
  };

  static MemoryTracker& Global();

  static const char* ComponentName(Component component);

  /// Adjusts a component's current bytes by `delta` (negative to release)
  /// and advances its peak watermark.
  void Add(Component component, int64_t delta);

  /// Overwrites a sampled gauge (kRss) rather than accumulating.
  void Set(Component component, int64_t bytes);

  int64_t CurrentBytes(Component component) const;
  int64_t PeakBytes(Component component) const;

  /// Sum of current bytes over the allocation-tracked components (kRss is
  /// excluded — it already contains the others).
  int64_t TrackedTotalBytes() const;

  /// Reads /proc/self/statm and records resident bytes under kRss.
  /// Returns the sampled value, or -1 when the proc interface is
  /// unavailable (non-Linux); the gauge is left untouched then.
  int64_t SampleRss();

  /// Zeroes every current value and peak (start of a fresh run / test).
  void Reset();

  struct ComponentSnapshot {
    std::string name;      // "profile_arena", "subtree_cache", ...
    int64_t current_bytes = 0;
    int64_t peak_bytes = 0;
  };
  /// Point-in-time copy, in Component order; components that never
  /// recorded a byte are included with zeros.
  std::vector<ComponentSnapshot> Snapshot() const;

 private:
  struct Slot {
    std::atomic<int64_t> current{0};
    std::atomic<int64_t> peak{0};
  };
  Slot slots_[kNumComponents];
};

/// Resident-set size of this process in bytes, or -1 when unavailable.
int64_t ReadRssBytes();

/// RAII byte registration: holds `bytes` against one component for its
/// lifetime. Copying registers the copy's own bytes (a copied container
/// really does duplicate its payload); moving transfers the registration.
/// Embed as a member next to the owning container and call Set() whenever
/// the container's footprint changes.
class TrackedBytes {
 public:
  TrackedBytes() = default;
  explicit TrackedBytes(MemoryTracker::Component component)
      : component_(static_cast<int8_t>(component)) {}

  TrackedBytes(const TrackedBytes& other)
      : component_(other.component_) {
    Set(other.bytes_);
  }
  TrackedBytes(TrackedBytes&& other) noexcept
      : component_(other.component_), bytes_(other.bytes_) {
    other.bytes_ = 0;
  }
  TrackedBytes& operator=(const TrackedBytes& other) {
    if (this != &other) {
      Set(0);
      component_ = other.component_;
      Set(other.bytes_);
    }
    return *this;
  }
  TrackedBytes& operator=(TrackedBytes&& other) noexcept {
    if (this != &other) {
      Set(0);
      component_ = other.component_;
      bytes_ = other.bytes_;
      other.bytes_ = 0;
    }
    return *this;
  }
  ~TrackedBytes() { Set(0); }

  /// Re-registers this holder at `bytes` (the delta goes to the tracker).
  void Set(int64_t bytes) {
    if (bytes != bytes_ && component_ >= 0) {
      MemoryTracker::Global().Add(
          static_cast<MemoryTracker::Component>(component_), bytes - bytes_);
      bytes_ = bytes;
    } else {
      bytes_ = bytes;
    }
  }

  int64_t bytes() const { return bytes_; }

 private:
  int8_t component_ = -1;  // -1 = untracked (default-constructed)
  int64_t bytes_ = 0;
};

}  // namespace obs
}  // namespace distinct

#endif  // DISTINCT_OBS_MEMORY_H_
