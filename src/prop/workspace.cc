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

using Slab = PropagationWorkspace::Slab;

Slab& PropagationWorkspace::Acquire(int node_id) {
  if (static_cast<size_t>(node_id) >= slabs_.size()) {
    slabs_.resize(static_cast<size_t>(node_id) + 1);
  }
  auto& pool = slabs_[static_cast<size_t>(node_id)];
  for (auto& slab : pool) {
    if (!slab->in_use_) {
      slab->in_use_ = true;
      slab->cells_.clear();
      return *slab;
    }
  }
  auto slab = std::make_unique<Slab>();
  slab->slot_.assign(static_cast<size_t>(link_->NumTuples(node_id)), 0u);
  tracked_.Set(tracked_.bytes() +
               static_cast<int64_t>(slab->slot_.size() * sizeof(uint32_t)));
  slab->in_use_ = true;
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
    return nullptr;
  }
  const uint64_t key = Key(path_id, tuple);
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    return nullptr;  // the Insert after the sweep counts the lookup
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
    DISTINCT_COUNTER_ADD("prop.memo_misses", 1);
    return resident;
  }
  const size_t size = resident->ByteSize();
  const uint64_t key = Key(path_id, tuple);
  Shard& shard = ShardOf(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (auto it = shard.map.find(key); it != shard.map.end()) {
    // Another thread swept the key first and stored the identical value:
    // the lookup is a hit, and this sweep was a duplicate.
    ++shard.hits;
    DISTINCT_COUNTER_ADD("prop.memo_hits", 1);
    DISTINCT_COUNTER_ADD("prop.memo_duplicate_sweeps", 1);
    return it->second.value;
  }
  ++shard.misses;
  DISTINCT_COUNTER_ADD("prop.memo_misses", 1);
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

size_t ApproxWorkspaceBytes(const LinkGraph& link,
                            const std::vector<JoinPath>& paths,
                            bool exclude_start_tuple) {
  // Per node: the most slabs one propagation holds at once, and the most
  // tuples a frontier on it can reach — the product of the steps' largest
  // fan-outs, capped at the universe.
  std::vector<size_t> slabs(link.schema().num_nodes()),
      frontier(slabs.size(), 1);
  for (const JoinPath& path : paths) {
    const PathShape shape = ShapePath(path, link.schema(), exclude_start_tuple);
    const std::vector<int>& at = shape.node_at;
    const size_t j = shape.junction;
    size_t reach = 1;
    for (size_t i = 0; i < path.steps.size(); ++i) {
      // Held while stepping from level i (level 0 is a single cell, no slab),
      // below the junction with the junction frontier held too. A multi-hub
      // merge holds the junction frontier and the last level together only
      // after every suffix is swept, which the last step already counts.
      std::vector<int> held = {at[i + 1]};
      if (i > 0) held.push_back(at[i]);
      if (i > j) held.push_back(at[j]);
      for (const int node : held) {
        slabs[node] = std::max<size_t>(
            slabs[node], std::count(held.begin(), held.end(), node));
      }
      size_t fanout = 0;
      for (int32_t t = 0; t < link.NumTuples(at[i]); ++t) {
        fanout = std::max(fanout, link.Neighbors(path.steps[i], t).size());
      }
      reach = std::min<size_t>(reach * fanout, link.NumTuples(at[i + 1]));
      frontier[at[i + 1]] = std::max(frontier[at[i + 1]], reach);
    }
  }
  // Each slab: a slot per tuple, and cells that grow by doubling, so their
  // capacity stays under twice the largest frontier.
  size_t total = sizeof(PropagationWorkspace);
  for (int node = 0; node < link.schema().num_nodes(); ++node) {
    total += slabs[node] * (link.NumTuples(node) * sizeof(uint32_t) +
                            2 * frontier[node] * sizeof(Slab::Cell));
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

/// Sweeps one unit-mass walk from `tuple` at level `from` of `path` down to
/// level `to` (> from), pruning walks into `excluded` (-1 for none) at
/// start-node levels. Every level's frontier is read in ascending tuple id.
/// Returns the sorted slab of level `to`, which the caller releases.
///
/// Each step does only what its direction needs, and stores bit for bit the
/// transition the depth-first walker computes from LinkGraph::Neighbors and
/// ReverseFanout, summed through Slab::Add:
///  * forward: at most one target, so the forward share divides by 1
///    (x / 1.0 == x). Many rows can reach one target, so it accumulates.
///  * reverse: each reached row's one forward target is the frontier tuple,
///    so the back fan-out is 1 (x / 1.0 == x), and a row is in exactly one
///    reverse list, so no row is reached twice: Append, a first touch.
Slab& Sweep(const LinkGraph& link, const JoinPath& path,
            const std::vector<int>& node_at, size_t from, size_t to,
            int32_t tuple, int32_t excluded,
            PropagationWorkspace& workspace) {
  DISTINCT_DCHECK(from < to);
  const Slab::Cell unit{tuple, 1.0, 1.0, 1.0};
  std::span<const Slab::Cell> frontier(&unit, 1);
  Slab* cur = nullptr;
  for (size_t i = from; i < to; ++i) {
    const JoinStep& step = path.steps[i];
    const bool exclude = excluded >= 0 && node_at[i + 1] == node_at[0];
    Slab& next = workspace.Acquire(node_at[i + 1]);
    if (step.forward) {
      for (const Slab::Cell& cell : frontier) {
        for (const int32_t target : link.Forward(step.edge_id, cell.tuple)) {
          if (exclude && target == excluded) {
            continue;  // walks through the origin carry no identity signal
          }
          const auto back = static_cast<double>(
              link.Reverse(step.edge_id, target).size());
          next.Add(target, cell.forward, cell.reverse / back, cell.count);
        }
      }
    } else {
      for (const Slab::Cell& cell : frontier) {
        const std::span<const int32_t> rows =
            link.Reverse(step.edge_id, cell.tuple);
        if (rows.empty()) {
          continue;  // no referencing rows: this mass is lost
        }
        const double share = cell.forward / static_cast<double>(rows.size());
        for (const int32_t row : rows) {
          if (exclude && row == excluded) {
            continue;
          }
          next.Append(row, share, cell.reverse, cell.count);
        }
      }
    }
    if (cur != nullptr) workspace.Release(*cur);
    cur = &next;
    cur->Sort();
    frontier = cur->cells();
  }
  return *cur;
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
  Slab& end = Sweep(link, path, node_at, junction, path.steps.size(), tuple,
                    /*excluded=*/-1, workspace);
  SubtreeDistribution dist;
  const size_t size = end.cells().size();
  dist.tuples.reserve(size);
  dist.forward.reserve(size);
  dist.reverse.reserve(size);
  dist.walks.reserve(size);
  for (const Slab::Cell& cell : end.cells()) {
    dist.Append(cell.tuple, cell.forward, cell.reverse, cell.count);
    dist.instances += cell.count;
  }
  workspace.Release(end);
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
  Slab* cur = &Sweep(link, path, node_at, 0, junction, start_tuple,
                     options.exclude_start_tuple ? start_tuple : -1,
                     workspace);

  double total_instances = 0.0;
  PathProfile profile;
  if (junction == k) {
    std::vector<ProfileEntry> entries;
    entries.reserve(cur->cells().size());
    for (const Slab::Cell& cell : cur->cells()) {
      entries.push_back(ProfileEntry{cell.tuple, cell.forward, cell.reverse});
      total_instances += cell.count;
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
      const auto it = std::ranges::lower_bound(dist.tuples, origin);
      return it != dist.tuples.end() && *it == origin
                 ? static_cast<size_t>(it - dist.tuples.begin())
                 : dist.size();
    };
    if (cur->cells().size() == 1) {
      // One hub: the profile is that hub's suffix, scaled in place by the
      // pair fill rather than copied here.
      const Slab::Cell& cell = cur->cells().front();
      HubSlice& hub = profile.hub;
      hub.suffix = subtree(cell.tuple);
      hub.hub = cell.tuple;
      hub.skip = static_cast<uint32_t>(origin_index(*hub.suffix));
      hub.forward = cell.forward;
      hub.reverse = cell.reverse;
      const double dropped =
          hub.skip < hub.suffix->size() ? hub.suffix->walks[hub.skip] : 0.0;
      total_instances = cell.count * (hub.suffix->instances - dropped);
      workspace.Release(*cur);
    } else {
      // Every hub's suffix first, so a miss's sweep down to the last node
      // and the merge below reuse one slab there.
      const std::vector<Slab::Cell>& hubs = cur->cells();
      std::vector<std::shared_ptr<const SubtreeDistribution>> suffixes;
      suffixes.reserve(hubs.size());
      for (const Slab::Cell& cell : hubs) {
        suffixes.push_back(subtree(cell.tuple));
      }
      // On a reverse suffix the hubs' suffixes share no tuple (PathShape),
      // so every entry is a first touch and is appended.
      Slab& out = workspace.Acquire(node_at[k]);
      for (size_t h = 0; h < hubs.size(); ++h) {
        const Slab::Cell& cell = hubs[h];
        const SubtreeDistribution& dist = *suffixes[h];
        const size_t skip = origin_index(dist);
        for (size_t e = 0; e < dist.size(); ++e) {
          if (e == skip) {
            continue;
          }
          const double forward = cell.forward * dist.forward[e];
          const double reverse = cell.reverse * dist.reverse[e];
          if (shape.reverse_suffix) {
            out.Append(dist.tuples[e], forward, reverse, 0.0);
          } else {
            out.Add(dist.tuples[e], forward, reverse, 0.0);
          }
        }
        const double dropped = skip < dist.size() ? dist.walks[skip] : 0.0;
        total_instances += cell.count * (dist.instances - dropped);
      }
      workspace.Release(*cur);
      out.Sort();
      std::vector<ProfileEntry> entries;
      entries.reserve(out.cells().size());
      for (const Slab::Cell& cell : out.cells()) {
        entries.push_back(ProfileEntry{cell.tuple, cell.forward, cell.reverse});
      }
      workspace.Release(out);
      profile.entries = NeighborProfile(std::move(entries));
    }
  }

  if (total_instances > static_cast<double>(options.max_instances)) {
    return std::nullopt;  // over budget: caller reruns depth-first
  }
  return profile;
}

}  // namespace distinct
