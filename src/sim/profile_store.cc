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

/// Lays out one path in reference order. Slice r is `*fresh[r]`, released
/// once laid out, or, where fresh[r] is null, slice r of `old` as it was.
/// A hub slice stays one; explicit entries go to the slab. `reverse_suffix`
/// is the path's PathShape::reverse_suffix.
ProfileStore::Path LayoutPath(const std::vector<PathProfile*>& fresh,
                              const ProfileStore::Path* old,
                              bool reverse_suffix) {
  const size_t n = fresh.size();
  const auto hub_at = [&](size_t r) -> const HubSlice* {
    if (fresh[r] != nullptr) {
      return fresh[r]->is_hub() ? &fresh[r]->hub : nullptr;
    }
    return old->is_hub(r) ? &old->hubs[old->hub_of[r]] : nullptr;
  };
  size_t total = 0;
  size_t num_hubs = 0;
  for (size_t r = 0; r < n; ++r) {
    if (hub_at(r) != nullptr) {
      ++num_hubs;
    } else {
      total += fresh[r] != nullptr ? fresh[r]->entries.size()
                                   : old->offsets[r + 1] - old->offsets[r];
    }
  }
  DISTINCT_CHECK(total <= kMaxPathEntries);
  ProfileStore::Path path;
  path.offsets.resize(n + 1);
  path.tuples.reserve(total);
  path.forward.reserve(total);
  path.reverse.reserve(total);
  if (num_hubs > 0) {
    path.hub_of.assign(n, ProfileStore::Path::kExplicit);
    path.hubs.reserve(num_hubs);
  }
  for (size_t r = 0; r < n; ++r) {
    path.offsets[r] = static_cast<uint32_t>(path.tuples.size());
    if (const HubSlice* hub = hub_at(r)) {
      path.hub_of[r] = static_cast<uint32_t>(path.hubs.size());
      if (fresh[r] != nullptr) {
        path.hubs.push_back(std::move(fresh[r]->hub));
      } else {
        path.hubs.push_back(*hub);
      }
    } else if (fresh[r] != nullptr) {
      for (const ProfileEntry& entry : fresh[r]->entries.entries()) {
        path.tuples.push_back(entry.tuple);
        path.forward.push_back(entry.forward);
        path.reverse.push_back(entry.reverse);
      }
    } else {
      const size_t begin = old->offsets[r];
      const size_t end = old->offsets[r + 1];
      path.tuples.insert(path.tuples.end(), old->tuples.begin() + begin,
                         old->tuples.begin() + end);
      path.forward.insert(path.forward.end(), old->forward.begin() + begin,
                          old->forward.begin() + end);
      path.reverse.insert(path.reverse.end(), old->reverse.begin() + begin,
                          old->reverse.begin() + end);
    }
    if (fresh[r] != nullptr) {
      *fresh[r] = PathProfile();
    }
  }
  path.offsets[n] = static_cast<uint32_t>(path.tuples.size());
  path.by_hub = reverse_suffix && num_hubs > 0 && path.tuples.empty();
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

NeighborProfile ProfileStore::Path::Expand(size_t ref) const {
  if (is_hub(ref)) {
    return ExpandHubSlice(hubs[hub_of[ref]]);
  }
  std::vector<ProfileEntry> entries;
  for (size_t e = offsets[ref]; e < offsets[ref + 1]; ++e) {
    entries.push_back(ProfileEntry{tuples[e], forward[e], reverse[e]});
  }
  return NeighborProfile(std::move(entries));
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
  store.Splice(engine, paths, options, {}, std::move(refs), pool,
               min_parallel_refs, shared_cache, shared_workspaces, nullptr);
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
  Splice(engine, paths, options, positions, std::move(new_refs), pool,
         min_parallel_refs, shared_cache, shared_workspaces,
         position_path_masks);
  DISTINCT_COUNTER_ADD("sim.profile_store_updates", 1);
}

void ProfileStore::Splice(const PropagationEngine& engine,
                          const std::vector<JoinPath>& paths,
                          const PropagationOptions& options,
                          const std::vector<size_t>& positions,
                          std::vector<int32_t> new_refs, ThreadPool* pool,
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
  for (const size_t r : slot) {
    DISTINCT_CHECK(r < refs_.size());
  }
  std::vector<PathShape> shapes;
  shapes.reserve(paths.size());
  for (const JoinPath& path : paths) {
    shapes.push_back(ShapePath(path, engine.link().schema(),
                               options.exclude_start_tuple));
  }

  std::vector<std::vector<PathProfile>> fresh(
      slot.size(), std::vector<PathProfile>(paths.size()));
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
  const auto compute_one = [&](int64_t i) {
    const auto k = static_cast<size_t>(i);
    const uint64_t mask = MaskOf(position_path_masks, k);
    std::unique_ptr<PropagationWorkspace> workspace;
    if (dense) {
      workspace = workspaces.Acquire();
    }
    for (size_t p = 0; p < paths.size(); ++p) {
      if (PathInMask(mask, p)) {
        fresh[k][p] = engine.ComputeSlice(paths[p], shapes[p],
                                          refs_[slot[k]], options,
                                          workspace.get(), cache,
                                          static_cast<int>(p));
      }
    }
    if (workspace != nullptr) {
      workspaces.Release(std::move(workspace));
    }
  };
  if (pool != nullptr && slot.size() >= min_parallel_refs) {
    ParallelForShared(*pool, static_cast<int64_t>(slot.size()), compute_one);
  } else {
    for (size_t k = 0; k < slot.size(); ++k) {
      compute_one(static_cast<int64_t>(k));
    }
  }
  DISTINCT_COUNTER_ADD("prop.profiles_built",
                       static_cast<int64_t>(slot.size()));
  DISTINCT_HISTOGRAM_RECORD("sim.profile_build_nanos", watch.ElapsedNanos());

  // A slice comes from the fresh profiles where its reference was
  // re-propagated on that path; every other slice keeps what it held.
  std::vector<PathProfile*> slices(refs_.size());
  for (size_t p = 0; p < paths.size(); ++p) {
    std::fill(slices.begin(), slices.end(), nullptr);
    for (size_t k = 0; k < slot.size(); ++k) {
      if (PathInMask(MaskOf(position_path_masks, k), p)) {
        slices[slot[k]] = &fresh[k][p];
      }
    }
    paths_[p] = LayoutPath(slices, &paths_[p], shapes[p].reverse_suffix);
  }
  tracked_.Set(ResidentBytes());
}

ProfileStore ProfileStore::FromProfiles(
    std::vector<int32_t> refs,
    std::vector<std::vector<NeighborProfile>> profiles) {
  DISTINCT_CHECK(refs.size() == profiles.size());
  const size_t num_paths = profiles.empty() ? 0 : profiles.front().size();
  std::vector<std::vector<PathProfile>> explicit_profiles(profiles.size());
  for (size_t r = 0; r < profiles.size(); ++r) {
    DISTINCT_CHECK(profiles[r].size() == num_paths);
    explicit_profiles[r].resize(num_paths);
    for (size_t p = 0; p < num_paths; ++p) {
      explicit_profiles[r][p].entries = std::move(profiles[r][p]);
    }
  }
  ProfileStore store;
  store.refs_ = std::move(refs);
  std::vector<PathProfile*> slices(store.refs_.size());
  for (size_t p = 0; p < num_paths; ++p) {
    for (size_t r = 0; r < slices.size(); ++r) {
      slices[r] = &explicit_profiles[r][p];
    }
    store.paths_.push_back(
        LayoutPath(slices, /*old=*/nullptr, /*reverse_suffix=*/false));
  }
  store.tracked_.Set(store.ResidentBytes());
  return store;
}

int64_t ProfileStore::ResidentBytes() const {
  size_t bytes = paths_.capacity() * sizeof(Path);
  std::vector<const SubtreeDistribution*> pinned;
  for (const Path& path : paths_) {
    bytes += path.offsets.capacity() * sizeof(uint32_t);
    bytes += path.tuples.capacity() * sizeof(int32_t);
    bytes += (path.forward.capacity() + path.reverse.capacity()) *
             sizeof(double);
    bytes += path.hub_of.capacity() * sizeof(uint32_t);
    bytes += path.hubs.capacity() * sizeof(HubSlice);
    for (const HubSlice& hub : path.hubs) {
      if (pinned.empty() || pinned.back() != hub.suffix.get()) {
        pinned.push_back(hub.suffix.get());
      }
    }
  }
  std::sort(pinned.begin(), pinned.end());
  pinned.erase(std::unique(pinned.begin(), pinned.end()), pinned.end());
  for (const SubtreeDistribution* suffix : pinned) {
    bytes += suffix->ByteSize();
  }
  return static_cast<int64_t>(bytes);
}

}  // namespace distinct
