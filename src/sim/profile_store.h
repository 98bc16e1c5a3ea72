// Shared read-only store of per-reference neighbor profiles — phase 1 of
// the parallel intra-name similarity kernel.
//
// Each of the n references needs one propagation per join path, and the
// propagations are mutually independent, so Propagate() fans them out over
// a ThreadPool. Build() lays the result out as one flat structure-of-arrays
// CSR slab per join path — tuple[], forward[], reverse[] plus per-reference
// offsets — which is all the store holds: the fused pair fill of
// fused_kernel.h merge-joins over adjacent same-typed memory instead of
// chasing n·P heap blocks of 24-byte entries. Once built the store is
// immutable: any number of threads may read it concurrently without
// synchronization. It is the only profile cache, and deliberately not a
// `thread_local` one: keyed by engine address, such a cache dangles when
// an engine is destroyed and a new one reuses the address.

#ifndef DISTINCT_SIM_PROFILE_STORE_H_
#define DISTINCT_SIM_PROFILE_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/thread_pool.h"
#include "obs/memory.h"
#include "prop/profile.h"
#include "prop/propagation.h"
#include "prop/workspace.h"
#include "relational/join_path.h"

namespace distinct {

/// Hands each worker a private PropagationWorkspace and takes it back when
/// the worker's task ends, recycling the dense slabs across tasks (and,
/// when one pool is shared across many Build() calls, across name groups —
/// a bulk scan then allocates at most one workspace per concurrent worker
/// for the whole run, which is what makes its memory budgetable). A plain
/// mutex-protected free-list — deliberately not `thread_local`, which keyed
/// by engine address dangled here before (see file comment below).
class WorkspacePool {
 public:
  explicit WorkspacePool(const LinkGraph& link) : link_(&link) {}

  std::unique_ptr<PropagationWorkspace> Acquire();
  void Release(std::unique_ptr<PropagationWorkspace> workspace);

 private:
  const LinkGraph* link_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<PropagationWorkspace>> free_;
};

class ProfileStore {
 public:
  /// Below this many references Propagate() stays serial even when a pool
  /// is supplied (task overhead would dominate n propagations).
  static constexpr size_t kMinParallelRefs = 32;

  /// One path's profiles, concatenated in reference order. The slice of
  /// reference i is [offsets[i], offsets[i + 1]); tuples are strictly
  /// increasing within a slice (NeighborProfile guarantees sorted,
  /// duplicate-free entries).
  ///
  /// Offsets are packed to uint32_t — half the index bytes of a size_t, so
  /// the offset table of a mega-name stays in cache while the merge-joins
  /// stream the entry arrays. A path is capped at 2^32-1 entries (checked
  /// at layout time); at 20 bytes per entry that is an ~80 GiB slab, far
  /// past the per-shard memory budget.
  struct Path {
    std::vector<uint32_t> offsets;  // num_refs + 1 entries
    std::vector<int32_t> tuples;
    std::vector<double> forward;   // Prob_P(r -> tuple)
    std::vector<double> reverse;   // Prob_P(tuple -> r)

    size_t size(size_t ref) const {
      return offsets[ref + 1] - offsets[ref];
    }
  };

  /// The per-reference propagation loop: returns profiles[i][p], the
  /// profile of refs[i] along paths[p]. With `path_masks`, item i < its
  /// size computes only the paths whose bit is set in (*path_masks)[i]
  /// (bits past path 63 are treated as set) and leaves the others empty;
  /// items past the masks compute every path. With a non-null `pool`,
  /// references are processed in parallel from `min_parallel_refs` on;
  /// safe to call from inside a pool task (work is shared via
  /// ParallelForShared). Each reference's profiles are computed by exactly
  /// one thread with the same per-path loop, so the result is bit-identical
  /// across thread counts.
  ///
  /// With PropagationAlgorithm::kWorkspace, each worker checks a
  /// PropagationWorkspace out of a free-list (dense scratch is recycled
  /// across references, never shared between concurrent workers) and all
  /// workers share one SubtreeCache: `shared_cache` when non-null —
  /// letting a caller reuse the memo across many calls over the same link
  /// graph — else a call-local cache of options.cache_bytes.
  /// `shared_workspaces` (optional, must be over the same link graph)
  /// likewise recycles dense scratch across calls; workspaces are
  /// epoch-reset on reuse, so sharing cannot change results.
  static std::vector<std::vector<NeighborProfile>> Propagate(
      const PropagationEngine& engine, const std::vector<JoinPath>& paths,
      const PropagationOptions& options, const std::vector<int32_t>& refs,
      ThreadPool* pool = nullptr, size_t min_parallel_refs = kMinParallelRefs,
      SubtreeCache* shared_cache = nullptr,
      WorkspacePool* shared_workspaces = nullptr,
      const std::vector<uint64_t>* path_masks = nullptr);

  /// Propagates every reference in `refs` along every path (see
  /// Propagate() for the pool, memo and workspace arguments) and lays the
  /// profiles out path by path, dropping each path's profiles once its
  /// slab is written.
  static ProfileStore Build(const PropagationEngine& engine,
                            const std::vector<JoinPath>& paths,
                            const PropagationOptions& options,
                            std::vector<int32_t> refs,
                            ThreadPool* pool = nullptr,
                            size_t min_parallel_refs = kMinParallelRefs,
                            SubtreeCache* shared_cache = nullptr,
                            WorkspacePool* shared_workspaces = nullptr);

  /// Splice-update after a database delta (the serving-path seam of the
  /// incremental catalog): re-propagates the references at `positions` of
  /// refs() — those whose evidence the delta changed; distinct positions —
  /// and appends `new_refs` with freshly propagated profiles. Every other
  /// slice is copied verbatim, so the store afterwards is bit-identical to
  /// a full Build() over the combined reference list (clean profiles are
  /// unchanged by construction; dirty and new ones go through the same
  /// Propagate() loop). Parallelized like Build().
  ///
  /// `position_path_masks` (optional, aligned with `positions`) restricts
  /// each position's recompute to the paths whose bit is set — propagation
  /// is independent per (reference, path), so keeping a clean path's slice
  /// is exact. Bits past path 63 are treated as set. Appended `new_refs`
  /// always compute every path.
  void Update(const PropagationEngine& engine,
              const std::vector<JoinPath>& paths,
              const PropagationOptions& options,
              const std::vector<size_t>& positions,
              std::vector<int32_t> new_refs,
              ThreadPool* pool = nullptr,
              size_t min_parallel_refs = kMinParallelRefs,
              SubtreeCache* shared_cache = nullptr,
              WorkspacePool* shared_workspaces = nullptr,
              const std::vector<uint64_t>* position_path_masks = nullptr);

  /// Lays out already-computed profiles (profiles[position][path]) — the
  /// test seam that lets kernel suites fill matrices without an engine.
  /// Every inner vector must have the same number of paths.
  static ProfileStore FromProfiles(
      std::vector<int32_t> refs,
      std::vector<std::vector<NeighborProfile>> profiles);

  size_t num_refs() const { return refs_.size(); }
  size_t num_paths() const { return paths_.size(); }
  const std::vector<int32_t>& refs() const { return refs_; }
  const Path& path(size_t p) const { return paths_[p]; }

 private:
  ProfileStore() : tracked_(obs::MemoryTracker::kProfileArena) {}

  /// Lays `profiles` (one vector of `num_paths` per reference) out as
  /// this store's slabs, path by path, releasing each path's profiles
  /// once its slab is written.
  void Layout(size_t num_paths,
              std::vector<std::vector<NeighborProfile>> profiles);

  /// Capacity bytes of every slab vector, for the kProfileArena gauge.
  int64_t SlabBytes() const;

  std::vector<int32_t> refs_;
  std::vector<Path> paths_;
  obs::TrackedBytes tracked_;  // kProfileArena gauge (obs/memory.h)
};

}  // namespace distinct

#endif  // DISTINCT_SIM_PROFILE_STORE_H_
