// Shared read-only store of per-reference neighbor profiles — phase 1 of
// the parallel intra-name similarity kernel, and the one layout in which
// resolution, the refill after a delta and training read profiles.
//
// Each of the n references needs one propagation per join path, and the
// propagations are mutually independent, so Build() fans them out over a
// ThreadPool. Build() keeps each path's profiles as one of two kinds of
// slice. A hub slice (prop/workspace.h) points at the memo's immutable
// suffix of the reference's one hub tuple, with the two prefix scales:
// every reference under one proceedings shares the thousands of entries
// below it instead of copying them. Every other slice lives in the path's
// structure-of-arrays CSR slab — tuple[], forward[], reverse[] plus
// per-reference offsets. The fused pair fill and FusedPairFeatures of
// fused_kernel.h read both kinds through one SliceView and merge-join over
// adjacent same-typed memory instead of chasing n·P heap blocks of 24-byte
// entries. Once built the store is immutable: any number of threads may
// read it concurrently without synchronization. It is the only profile
// cache, and deliberately not a `thread_local` one: keyed by engine
// address, such a cache dangles when an engine is destroyed and a new one
// reuses the address.

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
  /// Below this many references Build() and Update() propagate serially
  /// even when a pool is supplied (task overhead would dominate n
  /// propagations).
  static constexpr size_t kMinParallelRefs = 32;

  /// One slice as the pair fill reads it, whichever its kind: `size`
  /// entries at `tuples`/`forward`/`reverse` except entry `skip` (== size
  /// when none is left out), with tuples strictly increasing. A hub
  /// slice's values are scaled — forward_scale * forward[e] — and an
  /// explicit slice's are read as they are (scales 1.0).
  struct SliceView {
    const int32_t* tuples = nullptr;
    const double* forward = nullptr;
    const double* reverse = nullptr;
    uint32_t size = 0;
    uint32_t skip = 0;
    double forward_scale = 1.0;
    double reverse_scale = 1.0;
  };

  /// One path's profiles in reference order. An explicit slice of
  /// reference i is [offsets[i], offsets[i + 1]) of the slab; tuples are
  /// strictly increasing within a slice (NeighborProfile guarantees
  /// sorted, duplicate-free entries). A hub slice is hubs[hub_of[i]], and
  /// its slab range is empty.
  ///
  /// Offsets are packed to uint32_t — half the index bytes of a size_t, so
  /// the offset table of a mega-name stays in cache while the merge-joins
  /// stream the entry arrays. A slab is capped at 2^32-1 entries (checked
  /// at layout time); at 20 bytes per entry that is an ~80 GiB slab, far
  /// past the per-shard memory budget.
  struct Path {
    static constexpr uint32_t kExplicit = ~uint32_t{0};

    std::vector<uint32_t> offsets;  // num_refs + 1 entries
    std::vector<int32_t> tuples;
    std::vector<double> forward;   // Prob_P(r -> tuple)
    std::vector<double> reverse;   // Prob_P(tuple -> r)
    /// Index into `hubs` per reference, kExplicit for a slab slice; empty
    /// when no slice of the path is a hub slice.
    std::vector<uint32_t> hub_of;
    std::vector<HubSlice> hubs;
    /// Every slice with entries is a hub slice and the suffix below the
    /// hubs is reverse steps only (PathShape::reverse_suffix). Slices
    /// under different hubs then share no tuple, so CandidateSet marks
    /// the pairs under each hub without reading an entry.
    bool by_hub = false;

    bool is_hub(size_t ref) const {
      return !hub_of.empty() && hub_of[ref] != kExplicit;
    }

    SliceView slice(size_t ref) const {
      SliceView view;
      if (is_hub(ref)) {
        const HubSlice& hub = hubs[hub_of[ref]];
        view.tuples = hub.suffix->tuples.data();
        view.forward = hub.suffix->forward.data();
        view.reverse = hub.suffix->reverse.data();
        view.size = static_cast<uint32_t>(hub.suffix->size());
        view.skip = hub.skip;
        view.forward_scale = hub.forward;
        view.reverse_scale = hub.reverse;
        return view;
      }
      const uint32_t begin = offsets[ref];
      view.tuples = tuples.data() + begin;
      view.forward = forward.data() + begin;
      view.reverse = reverse.data() + begin;
      view.size = offsets[ref + 1] - begin;
      view.skip = view.size;
      return view;
    }

    /// Entries of slice `ref`, a hub slice's dropped entry not counted.
    size_t size(size_t ref) const {
      const SliceView view = slice(ref);
      return view.size - (view.skip < view.size ? 1 : 0);
    }

    /// Slice `ref`'s explicit entries: a copy of its slab range, or its
    /// hub slice expanded (ExpandHubSlice).
    NeighborProfile Expand(size_t ref) const;
  };

  /// Propagates every reference in `refs` along every path and lays the
  /// profiles out path by path, keeping hub slices as they are and
  /// dropping each path's explicit profiles once its slab is written. Each
  /// path's constants (PathShape) are computed once per call. With a
  /// non-null `pool`, references are processed in parallel from
  /// `min_parallel_refs` on; safe to call from inside a pool task (work is
  /// shared via ParallelForShared). Each reference's profiles are computed
  /// by exactly one thread with the same per-path loop, so the store is
  /// bit-identical across thread counts.
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
  /// propagation loop). Parallelized like Build().
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

  /// Lays out already-computed profiles (profiles[position][path]) as
  /// explicit slices only — the test seam that lets kernel suites fill
  /// matrices without an engine. Every inner vector must have the same
  /// number of paths.
  static ProfileStore FromProfiles(
      std::vector<int32_t> refs,
      std::vector<std::vector<NeighborProfile>> profiles);

  size_t num_refs() const { return refs_.size(); }
  size_t num_paths() const { return paths_.size(); }
  const std::vector<int32_t>& refs() const { return refs_; }
  const Path& path(size_t p) const { return paths_[p]; }

 private:
  ProfileStore() : tracked_(obs::MemoryTracker::kProfileArena) {}

  /// The one propagation loop, behind Build and Update: re-propagates
  /// `positions` (masked as in Update) and appends `new_refs`, keeping
  /// every other slice; Build starts from no references.
  void Splice(const PropagationEngine& engine,
              const std::vector<JoinPath>& paths,
              const PropagationOptions& options,
              const std::vector<size_t>& positions,
              std::vector<int32_t> new_refs, ThreadPool* pool,
              size_t min_parallel_refs, SubtreeCache* shared_cache,
              WorkspacePool* shared_workspaces,
              const std::vector<uint64_t>* position_path_masks);

  /// Slab bytes plus, once each, the suffixes the hub slices pin, for the
  /// kProfileArena gauge: a pinned suffix stays resident after the memo
  /// evicts it, so admission must keep seeing it.
  int64_t ResidentBytes() const;

  std::vector<int32_t> refs_;
  std::vector<Path> paths_;
  obs::TrackedBytes tracked_;  // kProfileArena gauge (obs/memory.h)
};

}  // namespace distinct

#endif  // DISTINCT_SIM_PROFILE_STORE_H_
