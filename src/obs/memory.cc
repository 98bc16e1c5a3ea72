#include "obs/memory.h"

#include <cstdio>

#include <unistd.h>

namespace distinct {
namespace obs {

MemoryTracker& MemoryTracker::Global() {
  static MemoryTracker* const tracker = new MemoryTracker();
  return *tracker;
}

const char* MemoryTracker::ComponentName(Component component) {
  switch (component) {
    case kProfileArena:
      return "profile_arena";
    case kSubtreeCache:
      return "subtree_cache";
    case kPairMatrix:
      return "pair_matrix";
    case kCheckpoint:
      return "checkpoint";
    case kIngestDictionary:
      return "ingest_dictionary";
    case kCatalogSegment:
      return "catalog_segment";
    case kPropagationWorkspace:
      return "propagation_workspace";
    case kRss:
      return "rss";
    case kNumComponents:
      break;
  }
  return "unknown";
}

void MemoryTracker::Add(Component component, int64_t delta) {
  Slot& slot = slots_[component];
  const int64_t now =
      slot.current.fetch_add(delta, std::memory_order_relaxed) + delta;
  // Peak is advisory (concurrent adds may briefly publish a stale max);
  // the CAS loop converges and the steady-state cost is one load.
  int64_t peak = slot.peak.load(std::memory_order_relaxed);
  while (now > peak && !slot.peak.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

void MemoryTracker::Set(Component component, int64_t bytes) {
  Slot& slot = slots_[component];
  slot.current.store(bytes, std::memory_order_relaxed);
  int64_t peak = slot.peak.load(std::memory_order_relaxed);
  while (bytes > peak && !slot.peak.compare_exchange_weak(
                             peak, bytes, std::memory_order_relaxed)) {
  }
}

int64_t MemoryTracker::CurrentBytes(Component component) const {
  return slots_[component].current.load(std::memory_order_relaxed);
}

int64_t MemoryTracker::PeakBytes(Component component) const {
  return slots_[component].peak.load(std::memory_order_relaxed);
}

int64_t MemoryTracker::TrackedTotalBytes() const {
  int64_t total = 0;
  for (int c = 0; c < kNumComponents; ++c) {
    if (c == kRss) {
      continue;
    }
    total += slots_[c].current.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t MemoryTracker::SampleRss() {
  const int64_t rss = ReadRssBytes();
  if (rss >= 0) {
    Set(kRss, rss);
  }
  return rss;
}

void MemoryTracker::Reset() {
  for (Slot& slot : slots_) {
    slot.current.store(0, std::memory_order_relaxed);
    slot.peak.store(0, std::memory_order_relaxed);
  }
}

std::vector<MemoryTracker::ComponentSnapshot> MemoryTracker::Snapshot()
    const {
  std::vector<ComponentSnapshot> snapshot;
  snapshot.reserve(kNumComponents);
  for (int c = 0; c < kNumComponents; ++c) {
    ComponentSnapshot component;
    component.name = ComponentName(static_cast<Component>(c));
    component.current_bytes =
        slots_[c].current.load(std::memory_order_relaxed);
    component.peak_bytes = slots_[c].peak.load(std::memory_order_relaxed);
    snapshot.push_back(std::move(component));
  }
  return snapshot;
}

int64_t ReadRssBytes() {
  // /proc/self/statm: size resident shared text lib data dt (pages).
  std::FILE* file = std::fopen("/proc/self/statm", "r");
  if (file == nullptr) {
    return -1;
  }
  long long size_pages = 0;
  long long resident_pages = 0;
  const int matched =
      std::fscanf(file, "%lld %lld", &size_pages, &resident_pages);
  std::fclose(file);
  if (matched != 2) {
    return -1;
  }
  const long page_size = ::sysconf(_SC_PAGESIZE);
  if (page_size <= 0) {
    return -1;
  }
  return static_cast<int64_t>(resident_pages) *
         static_cast<int64_t>(page_size);
}

}  // namespace obs
}  // namespace distinct
