#include "sim/profile_store.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"

namespace distinct {

namespace {

/// The u32 offset packing caps a path slab at 2^32-1 entries.
constexpr size_t kMaxPathEntries = std::numeric_limits<uint32_t>::max();

/// Item `item`'s path mask: every path when `masks` does not cover it.
uint64_t MaskOf(const std::vector<uint64_t>* masks, size_t item) {
  return masks != nullptr && item < masks->size() ? (*masks)[item]
                                                  : ~uint64_t{0};
}

/// Whether bit `p` of `mask` is set; paths past bit 63 always are.
bool PathInMask(uint64_t mask, size_t p) {
  return p >= 64 || ((mask >> p) & 1) != 0;
}

/// Lays out one path slab in reference order. Slice r holds the entries of
/// `*fresh[r]`, which is released once copied, or, where fresh[r] is null,
/// slice r of `old` verbatim.
ProfileStore::Path LayoutPath(const std::vector<NeighborProfile*>& fresh,
                              const ProfileStore::Path* old) {
  const size_t n = fresh.size();
  size_t total = 0;
  for (size_t r = 0; r < n; ++r) {
    total += fresh[r] != nullptr ? fresh[r]->size() : old->size(r);
  }
  DISTINCT_CHECK(total <= kMaxPathEntries);
  ProfileStore::Path path;
  path.offsets.resize(n + 1);
  path.tuples.reserve(total);
  path.forward.reserve(total);
  path.reverse.reserve(total);
  for (size_t r = 0; r < n; ++r) {
    path.offsets[r] = static_cast<uint32_t>(path.tuples.size());
    if (fresh[r] == nullptr) {
      const size_t begin = old->offsets[r];
      const size_t end = old->offsets[r + 1];
      path.tuples.insert(path.tuples.end(), old->tuples.begin() + begin,
                         old->tuples.begin() + end);
      path.forward.insert(path.forward.end(), old->forward.begin() + begin,
                          old->forward.begin() + end);
      path.reverse.insert(path.reverse.end(), old->reverse.begin() + begin,
                          old->reverse.begin() + end);
      continue;
    }
    for (const ProfileEntry& entry : fresh[r]->entries()) {
      path.tuples.push_back(entry.tuple);
      path.forward.push_back(entry.forward);
      path.reverse.push_back(entry.reverse);
    }
    *fresh[r] = NeighborProfile();
  }
  path.offsets[n] = static_cast<uint32_t>(path.tuples.size());
  return path;
}

}  // namespace

std::unique_ptr<PropagationWorkspace> WorkspacePool::Acquire() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
      auto workspace = std::move(free_.back());
      free_.pop_back();
      return workspace;
    }
  }
  return std::make_unique<PropagationWorkspace>(*link_);
}

void WorkspacePool::Release(std::unique_ptr<PropagationWorkspace> workspace) {
  std::lock_guard<std::mutex> lock(mutex_);
  free_.push_back(std::move(workspace));
}

std::vector<std::vector<NeighborProfile>> ProfileStore::Propagate(
    const PropagationEngine& engine, const std::vector<JoinPath>& paths,
    const PropagationOptions& options, const std::vector<int32_t>& refs,
    ThreadPool* pool, size_t min_parallel_refs, SubtreeCache* shared_cache,
    WorkspacePool* shared_workspaces,
    const std::vector<uint64_t>* path_masks) {
  Stopwatch watch;
  const bool dense = options.algorithm == PropagationAlgorithm::kWorkspace;
  WorkspacePool local_workspaces(engine.link());
  WorkspacePool& workspaces =
      shared_workspaces != nullptr ? *shared_workspaces : local_workspaces;
  std::unique_ptr<SubtreeCache> owned_cache;
  SubtreeCache* cache = shared_cache;
  if (dense && cache == nullptr) {
    owned_cache = std::make_unique<SubtreeCache>(options.cache_bytes);
    cache = owned_cache.get();
  }

  std::vector<std::vector<NeighborProfile>> profiles(refs.size());
  const auto compute_one = [&](int64_t i) {
    const auto item = static_cast<size_t>(i);
    const uint64_t mask = MaskOf(path_masks, item);
    std::unique_ptr<PropagationWorkspace> workspace;
    if (dense) {
      workspace = workspaces.Acquire();
    }
    profiles[item].resize(paths.size());
    for (size_t p = 0; p < paths.size(); ++p) {
      if (!PathInMask(mask, p)) {
        continue;
      }
      if (dense) {
        profiles[item][p] = engine.Compute(paths[p], refs[item], options,
                                           *workspace, cache,
                                           static_cast<int>(p));
      } else {
        profiles[item][p] = engine.Compute(paths[p], refs[item], options);
      }
    }
    if (workspace != nullptr) {
      workspaces.Release(std::move(workspace));
    }
  };

  if (pool != nullptr && refs.size() >= min_parallel_refs) {
    ParallelForShared(*pool, static_cast<int64_t>(refs.size()), compute_one);
  } else {
    for (size_t i = 0; i < refs.size(); ++i) {
      compute_one(static_cast<int64_t>(i));
    }
  }
  DISTINCT_COUNTER_ADD("prop.profiles_built",
                       static_cast<int64_t>(refs.size()));
  DISTINCT_HISTOGRAM_RECORD("sim.profile_build_nanos", watch.ElapsedNanos());
  return profiles;
}

void ProfileStore::Layout(size_t num_paths,
                          std::vector<std::vector<NeighborProfile>> profiles) {
  paths_.clear();
  paths_.reserve(num_paths);
  std::vector<NeighborProfile*> slices(profiles.size());
  for (size_t p = 0; p < num_paths; ++p) {
    for (size_t r = 0; r < profiles.size(); ++r) {
      slices[r] = &profiles[r][p];
    }
    paths_.push_back(LayoutPath(slices, /*old=*/nullptr));
  }
  tracked_.Set(SlabBytes());
}

ProfileStore ProfileStore::Build(const PropagationEngine& engine,
                                 const std::vector<JoinPath>& paths,
                                 const PropagationOptions& options,
                                 std::vector<int32_t> refs,
                                 ThreadPool* pool,
                                 size_t min_parallel_refs,
                                 SubtreeCache* shared_cache,
                                 WorkspacePool* shared_workspaces) {
  ProfileStore store;
  store.refs_ = std::move(refs);
  store.Layout(paths.size(),
               Propagate(engine, paths, options, store.refs_, pool,
                         min_parallel_refs, shared_cache, shared_workspaces));
  DISTINCT_COUNTER_ADD("sim.profile_store_builds", 1);
  return store;
}

void ProfileStore::Update(const PropagationEngine& engine,
                          const std::vector<JoinPath>& paths,
                          const PropagationOptions& options,
                          const std::vector<size_t>& positions,
                          std::vector<int32_t> new_refs,
                          ThreadPool* pool,
                          size_t min_parallel_refs,
                          SubtreeCache* shared_cache,
                          WorkspacePool* shared_workspaces,
                          const std::vector<uint64_t>* position_path_masks) {
  const size_t old_n = refs_.size();
  DISTINCT_CHECK(old_n == 0 || paths_.size() == paths.size());
  paths_.resize(paths.size());
  // Work item k re-propagates the reference at slot[k]: the dirty
  // positions, then the appended references. Masks align with
  // `positions`, the head; the appended refs compute every path.
  std::vector<size_t> slot(positions);
  refs_.insert(refs_.end(), new_refs.begin(), new_refs.end());
  for (size_t r = old_n; r < refs_.size(); ++r) {
    slot.push_back(r);
  }
  std::vector<int32_t> work;
  work.reserve(slot.size());
  for (const size_t r : slot) {
    DISTINCT_CHECK(r < refs_.size());
    work.push_back(refs_[r]);
  }
  std::vector<std::vector<NeighborProfile>> fresh =
      Propagate(engine, paths, options, work, pool, min_parallel_refs,
                shared_cache, shared_workspaces, position_path_masks);

  // A slice comes from the fresh profiles where its reference was
  // re-propagated on that path; every other slice keeps its old bytes.
  std::vector<NeighborProfile*> slices(refs_.size());
  for (size_t p = 0; p < paths.size(); ++p) {
    std::fill(slices.begin(), slices.end(), nullptr);
    for (size_t k = 0; k < slot.size(); ++k) {
      if (PathInMask(MaskOf(position_path_masks, k), p)) {
        slices[slot[k]] = &fresh[k][p];
      }
    }
    paths_[p] = LayoutPath(slices, &paths_[p]);
  }
  tracked_.Set(SlabBytes());
  DISTINCT_COUNTER_ADD("sim.profile_store_updates", 1);
}

ProfileStore ProfileStore::FromProfiles(
    std::vector<int32_t> refs,
    std::vector<std::vector<NeighborProfile>> profiles) {
  DISTINCT_CHECK(refs.size() == profiles.size());
  const size_t num_paths = profiles.empty() ? 0 : profiles.front().size();
  for (const std::vector<NeighborProfile>& per_ref : profiles) {
    DISTINCT_CHECK(per_ref.size() == num_paths);
  }
  ProfileStore store;
  store.refs_ = std::move(refs);
  store.Layout(num_paths, std::move(profiles));
  return store;
}

int64_t ProfileStore::SlabBytes() const {
  size_t bytes = paths_.capacity() * sizeof(Path);
  for (const Path& path : paths_) {
    bytes += path.offsets.capacity() * sizeof(uint32_t);
    bytes += path.tuples.capacity() * sizeof(int32_t);
    bytes += (path.forward.capacity() + path.reverse.capacity()) *
             sizeof(double);
  }
  return static_cast<int64_t>(bytes);
}

}  // namespace distinct
