#include "prop/workspace.h"

#include "common/logging.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "prop/propagation.h"

namespace {

/// Resident-payload delta of the memo, into the kSubtreeCache gauge.
void TrackCacheBytes(int64_t delta) {
  distinct::obs::MemoryTracker::Global().Add(
      distinct::obs::MemoryTracker::kSubtreeCache, delta);
}

}  // namespace

namespace distinct {

PropagationWorkspace::Slab& PropagationWorkspace::Acquire(int node_id) {
  if (static_cast<size_t>(node_id) >= slabs_.size()) {
    slabs_.resize(static_cast<size_t>(node_id) + 1);
  }
  auto& pool = slabs_[static_cast<size_t>(node_id)];
  for (auto& slab : pool) {
    if (!slab->in_use_) {
      slab->in_use_ = true;
      slab->Begin();
      return *slab;
    }
  }
  auto slab = std::make_unique<Slab>();
  const auto universe =
      static_cast<size_t>(link_->NumTuples(node_id));
  slab->forward_.resize(universe);
  slab->reverse_.resize(universe);
  slab->count_.resize(universe);
  slab->stamp_.assign(universe, 0u);
  tracked_.Set(tracked_.bytes() +
               static_cast<int64_t>(universe * (3 * sizeof(double) +
                                                sizeof(uint32_t))));
  slab->in_use_ = true;
  slab->Begin();
  pool.push_back(std::move(slab));
  return *pool.back();
}

SubtreeCache::SubtreeCache(size_t capacity_bytes)
    : capacity_bytes_(capacity_bytes),
      shard_capacity_(capacity_bytes / kNumShards) {}

SubtreeCache::~SubtreeCache() {
  for (const Shard& shard : shards_) {
    TrackCacheBytes(-static_cast<int64_t>(shard.bytes));
  }
}

std::shared_ptr<const SubtreeDistribution> SubtreeCache::Find(
    int path_id, int32_t tuple) {
  if (capacity_bytes_ == 0) {
    DISTINCT_COUNTER_ADD("prop.memo_misses", 1);
    return nullptr;
  }
  const uint64_t key = Key(path_id, tuple);
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++shard.misses;
    DISTINCT_COUNTER_ADD("prop.memo_misses", 1);
    return nullptr;
  }
  ++shard.hits;
  DISTINCT_COUNTER_ADD("prop.memo_hits", 1);
  return it->second.value;
}

std::shared_ptr<const SubtreeDistribution> SubtreeCache::Insert(
    int path_id, int32_t tuple, SubtreeDistribution dist) {
  dist.ShrinkToFit();
  auto resident = std::make_shared<const SubtreeDistribution>(std::move(dist));
  if (capacity_bytes_ == 0) {
    return resident;
  }
  const size_t size = resident->ByteSize();
  const uint64_t key = Key(path_id, tuple);
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (auto it = shard.map.find(key); it != shard.map.end()) {
    // Another thread computed the identical value first.
    return it->second.value;
  }
  if (size > shard_capacity_) {
    ++shard.evictions;  // would never fit; dropped immediately
    DISTINCT_COUNTER_ADD("prop.memo_evictions", 1);
    return resident;
  }
  while (shard.bytes + size > shard_capacity_ && !shard.fifo.empty()) {
    auto victim = shard.map.find(shard.fifo.front());
    DISTINCT_DCHECK(victim != shard.map.end());  // fifo holds resident keys
    shard.fifo.pop_front();
    const size_t victim_bytes = victim->second.value->ByteSize();
    shard.bytes -= victim_bytes;
    TrackCacheBytes(-static_cast<int64_t>(victim_bytes));
    shard.map.erase(victim);
    ++shard.evictions;
    DISTINCT_COUNTER_ADD("prop.memo_evictions", 1);
  }
  shard.fifo.push_back(key);
  shard.map.emplace(key, Slot{resident, std::prev(shard.fifo.end())});
  shard.bytes += size;
  TrackCacheBytes(static_cast<int64_t>(size));
  return resident;
}

int64_t SubtreeCache::Erase(int path_id,
                            const std::vector<int32_t>& tuples) {
  if (capacity_bytes_ == 0) {
    return 0;
  }
  int64_t erased = 0;
  for (const int32_t tuple : tuples) {
    const uint64_t key = Key(path_id, tuple);
    Shard& shard = ShardOf(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      continue;  // never cached or already evicted
    }
    const size_t bytes = it->second.value->ByteSize();
    shard.bytes -= bytes;
    TrackCacheBytes(-static_cast<int64_t>(bytes));
    shard.fifo.erase(it->second.queued);
    shard.map.erase(it);
    ++erased;
  }
  return erased;
}

SubtreeCacheStats SubtreeCache::stats() const {
  SubtreeCacheStats stats;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    stats.hits += shard.hits;
    stats.misses += shard.misses;
    stats.evictions += shard.evictions;
    stats.entries += static_cast<int64_t>(shard.map.size());
    stats.bytes += static_cast<int64_t>(shard.bytes);
  }
  return stats;
}

size_t ApproxWorkspaceBytes(const LinkGraph& link) {
  // Per tuple: forward/reverse/count doubles, the uint32 epoch stamp, and
  // one touched-list slot (the touched vector grows to the node universe in
  // the worst case).
  constexpr size_t kBytesPerTuple =
      3 * sizeof(double) + sizeof(uint32_t) + sizeof(int32_t);
  size_t total = sizeof(PropagationWorkspace);
  for (int node = 0; node < link.schema().num_nodes(); ++node) {
    total += static_cast<size_t>(link.NumTuples(node)) * kBytesPerTuple;
  }
  return total;
}

size_t SubtreeJunctionLevel(const JoinPath& path,
                            const std::vector<int>& node_at,
                            bool exclude_start_tuple) {
  const size_t k = path.steps.size();
  size_t junction = 0;
  if (exclude_start_tuple) {
    for (size_t level = 1; level < k; ++level) {
      if (node_at[level] == node_at[0]) {
        junction = level;
      }
    }
  }
  while (junction < k && path.steps[junction].forward) {
    ++junction;
  }
  return std::min(std::max(junction, size_t{1}), k);
}

PathShape ShapePath(const JoinPath& path, const SchemaGraph& schema,
                    bool exclude_start_tuple) {
  PathShape shape;
  shape.node_at = path.LevelNodes(schema);
  shape.junction =
      SubtreeJunctionLevel(path, shape.node_at, exclude_start_tuple);
  shape.reverse_suffix =
      shape.junction < path.steps.size() &&
      std::none_of(path.steps.begin() + static_cast<ptrdiff_t>(shape.junction),
                   path.steps.end(),
                   [](const JoinStep& step) { return step.forward; });
  return shape;
}

NeighborProfile ExpandHubSlice(const HubSlice& slice) {
  const SubtreeDistribution& suffix = *slice.suffix;
  std::vector<ProfileEntry> entries;
  entries.reserve(suffix.size());
  for (size_t e = 0; e < suffix.size(); ++e) {
    if (e != slice.skip) {
      entries.push_back(ProfileEntry{suffix.tuples[e],
                                     slice.forward * suffix.forward[e],
                                     slice.reverse * suffix.reverse[e]});
    }
  }
  return NeighborProfile(std::move(entries));
}

NeighborProfile ExpandProfile(PathProfile profile) {
  return profile.is_hub() ? ExpandHubSlice(profile.hub)
                          : std::move(profile.entries);
}

namespace {

using Slab = PropagationWorkspace::Slab;

/// One forward sweep step: frontier at `cur` (sorted) through `step` into
/// `next`, optionally pruning walks into the origin tuple.
void SweepStep(const LinkGraph& link, const JoinStep& step, const Slab& cur,
               Slab& next, bool exclude, int32_t start_tuple) {
  for (const int32_t t : cur.touched()) {
    const std::span<const int32_t> targets = link.Neighbors(step, t);
    if (targets.empty()) {
      continue;  // NULL FK or no referencing rows: this mass is lost
    }
    const double share =
        cur.forward(t) / static_cast<double>(targets.size());
    const double reverse = cur.reverse(t);
    const double count = cur.count(t);
    for (const int32_t target : targets) {
      if (exclude && target == start_tuple) {
        continue;  // walks through the origin carry no identity signal
      }
      const auto back =
          static_cast<double>(link.ReverseFanout(step, target));
      next.Add(target, share, reverse / back, count);
    }
  }
}

/// Distribution of the suffix below `junction` from junction tuple
/// `tuple`: suffix-forward/reverse products and complete suffix walks per
/// end tuple. Reference-independent by construction (no level strictly
/// inside the suffix is on the start node, and nothing is excluded at the
/// last level), hence memoizable.
SubtreeDistribution ComputeSubtree(const LinkGraph& link,
                                   const JoinPath& path,
                                   const std::vector<int>& node_at,
                                   size_t junction, int32_t tuple,
                                   PropagationWorkspace& workspace) {
  const size_t k = path.steps.size();
  Slab* cur = &workspace.Acquire(node_at[junction + 1]);
  {
    const JoinStep& step = path.steps[junction];
    const std::span<const int32_t> targets = link.Neighbors(step, tuple);
    const double share =
        targets.empty() ? 0.0 : 1.0 / static_cast<double>(targets.size());
    for (const int32_t target : targets) {
      const auto back =
          static_cast<double>(link.ReverseFanout(step, target));
      cur->Add(target, share, 1.0 / back, 1.0);
    }
  }
  for (size_t i = junction + 1; i < k; ++i) {
    Slab* next = &workspace.Acquire(node_at[i + 1]);
    cur->SortTouched();
    SweepStep(link, path.steps[i], *cur, *next, /*exclude=*/false,
              /*start_tuple=*/-1);
    workspace.Release(*cur);
    cur = next;
  }
  cur->SortTouched();
  SubtreeDistribution dist;
  const size_t size = cur->touched().size();
  dist.tuples.reserve(size);
  dist.forward.reserve(size);
  dist.reverse.reserve(size);
  dist.walks.reserve(size);
  for (const int32_t e : cur->touched()) {
    dist.Append(e, cur->forward(e), cur->reverse(e), cur->count(e));
    dist.instances += cur->count(e);
  }
  workspace.Release(*cur);
  return dist;
}

}  // namespace

std::optional<PathProfile> PropagateDense(
    const LinkGraph& link, const JoinPath& path, int32_t start_tuple,
    const PropagationOptions& options, const PathShape& shape,
    PropagationWorkspace& workspace, SubtreeCache* cache,
    int cache_path_id) {
  DISTINCT_DCHECK(&workspace.link() == &link);
  const std::vector<int>& node_at = shape.node_at;
  const size_t k = path.steps.size();
  const size_t junction = shape.junction;

  // Reference-dependent prefix: levels 0..junction with origin exclusion,
  // accumulating forward mass, reverse mass, and instance counts together.
  Slab* cur = &workspace.Acquire(node_at[0]);
  cur->Add(start_tuple, 1.0, 1.0, 1.0);
  for (size_t i = 0; i < junction; ++i) {
    Slab* next = &workspace.Acquire(node_at[i + 1]);
    const bool exclude = options.exclude_start_tuple &&
                         node_at[i + 1] == node_at[0];
    cur->SortTouched();
    SweepStep(link, path.steps[i], *cur, *next, exclude, start_tuple);
    workspace.Release(*cur);
    cur = next;
  }
  cur->SortTouched();

  double total_instances = 0.0;
  PathProfile profile;
  if (junction == k) {
    std::vector<ProfileEntry> entries;
    entries.reserve(cur->touched().size());
    for (const int32_t t : cur->touched()) {
      entries.push_back(
          ProfileEntry{t, cur->forward(t), cur->reverse(t)});
      total_instances += cur->count(t);
    }
    workspace.Release(*cur);
    profile.entries = NeighborProfile(std::move(entries));
  } else {
    // Shared suffix: merge each junction tuple's memoized distribution in
    // ascending tuple order. A miss computes exactly what a hit returns,
    // so the result is independent of the hit/miss pattern.
    const auto subtree =
        [&](int32_t t) -> std::shared_ptr<const SubtreeDistribution> {
      if (cache == nullptr) {
        return std::make_shared<const SubtreeDistribution>(
            ComputeSubtree(link, path, node_at, junction, t, workspace));
      }
      if (auto memo = cache->Find(cache_path_id, t)) {
        return memo;
      }
      return cache->Insert(
          cache_path_id, t,
          ComputeSubtree(link, path, node_at, junction, t, workspace));
    };
    // Walks ending on the origin are pruned at a start-node last level. The
    // memoized suffix keeps them, so the origin's entry is left out here
    // and that entry's walks leave the instance count.
    const int32_t origin =
        options.exclude_start_tuple && node_at[k] == node_at[0]
            ? start_tuple
            : -1;
    const auto origin_index = [origin](const SubtreeDistribution& dist) {
      if (origin < 0) {
        return dist.size();
      }
      const auto it = std::lower_bound(dist.tuples.begin(), dist.tuples.end(),
                                       origin);
      return it != dist.tuples.end() && *it == origin
                 ? static_cast<size_t>(it - dist.tuples.begin())
                 : dist.size();
    };
    if (cur->touched().size() == 1) {
      // One hub: the profile is that hub's suffix, scaled in place by the
      // pair fill rather than copied here.
      const int32_t t = cur->touched().front();
      HubSlice& hub = profile.hub;
      hub.suffix = subtree(t);
      hub.hub = t;
      hub.skip = static_cast<uint32_t>(origin_index(*hub.suffix));
      hub.forward = cur->forward(t);
      hub.reverse = cur->reverse(t);
      const double dropped =
          hub.skip < hub.suffix->size() ? hub.suffix->walks[hub.skip] : 0.0;
      total_instances = cur->count(t) * (hub.suffix->instances - dropped);
      workspace.Release(*cur);
    } else {
      Slab* out = &workspace.Acquire(node_at[k]);
      for (const int32_t t : cur->touched()) {
        const std::shared_ptr<const SubtreeDistribution> dist = subtree(t);
        const double forward = cur->forward(t);
        const double reverse = cur->reverse(t);
        const size_t skip = origin_index(*dist);
        for (size_t e = 0; e < dist->size(); ++e) {
          if (e != skip) {
            out->Add(dist->tuples[e], forward * dist->forward[e],
                     reverse * dist->reverse[e], 0.0);
          }
        }
        const double dropped = skip < dist->size() ? dist->walks[skip] : 0.0;
        total_instances += cur->count(t) * (dist->instances - dropped);
      }
      workspace.Release(*cur);
      out->SortTouched();
      std::vector<ProfileEntry> entries;
      entries.reserve(out->touched().size());
      for (const int32_t e : out->touched()) {
        entries.push_back(
            ProfileEntry{e, out->forward(e), out->reverse(e)});
      }
      workspace.Release(*out);
      profile.entries = NeighborProfile(std::move(entries));
    }
  }

  if (total_instances > static_cast<double>(options.max_instances)) {
    return std::nullopt;  // over budget: caller reruns depth-first
  }
  return profile;
}

}  // namespace distinct
