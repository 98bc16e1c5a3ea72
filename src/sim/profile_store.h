// Shared read-only store of per-reference neighbor profiles — phase 1 of
// the parallel intra-name similarity kernel.
//
// Each of the n references needs one propagation per join path, and the
// propagations are mutually independent, so Build() fans them out over a
// ThreadPool. Once built the store is immutable: any number of threads may
// read profiles and derive pair features concurrently without
// synchronization. It is the only profile cache, and deliberately not a
// `thread_local` one: keyed by engine address, such a cache dangles when
// an engine is destroyed and a new one reuses the address.

#ifndef DISTINCT_SIM_PROFILE_STORE_H_
#define DISTINCT_SIM_PROFILE_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "prop/propagation.h"
#include "prop/workspace.h"
#include "relational/join_path.h"
#include "sim/feature_vector.h"

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

  /// Workspaces ever allocated — the high-water mark of concurrent use.
  /// Multiplied by ApproxWorkspaceBytes(link) this bounds the pool's
  /// resident footprint.
  int64_t num_created() const;

 private:
  const LinkGraph* link_;
  mutable std::mutex mutex_;
  int64_t created_ = 0;
  std::vector<std::unique_ptr<PropagationWorkspace>> free_;
};

class ProfileStore {
 public:
  /// Below this many references Build() stays serial even when a pool is
  /// supplied (task overhead would dominate n propagations).
  static constexpr size_t kMinParallelRefs = 32;

  /// Computes the profiles of every reference in `refs` along every path.
  /// With a non-null `pool`, references are processed in parallel; safe to
  /// call from inside a pool task (work is shared via ParallelForShared).
  /// Each reference's profiles are computed by exactly one thread with the
  /// same per-path loop as the serial code, so the result is bit-identical
  /// across thread counts.
  ///
  /// With PropagationAlgorithm::kWorkspace, each worker checks a
  /// PropagationWorkspace out of a free-list (dense scratch is recycled
  /// across references, never shared between concurrent workers) and all
  /// workers share one SubtreeCache: `shared_cache` when non-null —
  /// letting a caller reuse the memo across many Build() calls over the
  /// same link graph — else a Build-local cache of options.cache_bytes.
  /// `shared_workspaces` (optional, must be over the same link graph)
  /// likewise recycles dense scratch across Build() calls; workspaces are
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
  /// incremental catalog): recomputes in place the profiles of the
  /// references at `positions` of refs() — those whose evidence the delta
  /// changed — and appends `new_refs` with freshly computed profiles.
  /// Untouched profiles are kept verbatim, so the store afterwards is
  /// bit-identical to a full Build() over the combined reference list
  /// (clean profiles are unchanged by construction; dirty and new ones go
  /// through Build()'s per-reference loop). Parallelized like Build().
  ///
  /// `position_path_masks` (optional, aligned with `positions`) restricts
  /// each position's recompute to the paths whose bit is set — propagation
  /// is independent per (reference, path), so keeping a clean path's
  /// profile is exact. Bits past path 63 are treated as set. Appended
  /// `new_refs` always compute every path.
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

  /// Wraps already-computed profiles (profiles[position][path]) — the test
  /// seam that lets kernel suites fill matrices without an engine. Every
  /// inner vector must have the same number of paths.
  static ProfileStore FromProfiles(
      std::vector<int32_t> refs,
      std::vector<std::vector<NeighborProfile>> profiles);

  size_t num_refs() const { return refs_.size(); }
  size_t num_paths() const { return num_paths_; }
  const std::vector<int32_t>& refs() const { return refs_; }

  /// Profiles (one per path) of the reference at position `index` of
  /// refs().
  const std::vector<NeighborProfile>& profiles(size_t index) const {
    return profiles_[index];
  }

  /// Position of `ref` in refs(), or -1 when absent.
  int64_t IndexOf(int32_t ref) const;

  /// Pair features of the references at positions i and j.
  PairFeatures Features(size_t i, size_t j) const {
    return ComputePairFeatures(profiles_[i], profiles_[j]);
  }

 private:
  ProfileStore() = default;

  /// Rebuilds index_ from refs_.
  void BuildIndex();

  /// The per-reference loop of Build() and Update(): computes the
  /// profiles of refs_[work[i]] into profiles_[work[i]], every path of it,
  /// or only the paths set in (*path_masks)[i] for the items masks cover
  /// (bits past path 63 are treated as set). Each item is handled by
  /// exactly one thread; items fan out over `pool` from
  /// `min_parallel_refs` items on. Workspaces come from
  /// `shared_workspaces` (else a call-local pool) and the memo is
  /// `shared_cache` (else a call-local one of options.cache_bytes).
  void ComputeProfiles(const PropagationEngine& engine,
                       const std::vector<JoinPath>& paths,
                       const PropagationOptions& options,
                       const std::vector<size_t>& work,
                       const std::vector<uint64_t>* path_masks,
                       ThreadPool* pool, size_t min_parallel_refs,
                       SubtreeCache* shared_cache,
                       WorkspacePool* shared_workspaces);

  std::vector<int32_t> refs_;
  size_t num_paths_ = 0;
  std::vector<std::vector<NeighborProfile>> profiles_;  // indexed like refs_
  /// (ref, position) sorted by ref — IndexOf binary-searches it instead of
  /// hashing on the scan hot path. Built once in Build(); for duplicate
  /// refs the first position wins (stable sort), matching the old
  /// hash-map emplace semantics.
  std::vector<std::pair<int32_t, size_t>> index_;
};

}  // namespace distinct

#endif  // DISTINCT_SIM_PROFILE_STORE_H_
