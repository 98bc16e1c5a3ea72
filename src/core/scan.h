// Whole-database operation: find every name that could be ambiguous and
// resolve all of them.
//
// The paper resolves ten hand-picked names; a production deployment wants
// "split every name in the catalog". This module filters the candidate
// names (those with enough references to possibly be several people) out
// of the engine's name index, the one grouping of references by name that
// Create() builds and ApplyDelta() grows, and resolves them with one group
// loop.

#ifndef DISTINCT_CORE_SCAN_H_
#define DISTINCT_CORE_SCAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/distinct.h"
#include "prop/workspace.h"
#include "sim/profile_store.h"

namespace distinct {

namespace obs {
struct ProgressState;  // obs/heartbeat.h
}  // namespace obs

/// One candidate name and all its references.
struct NameGroup {
  std::string name;
  std::vector<int32_t> refs;  // rows of the reference table
};

struct ScanOptions {
  /// Only names with at least this many references are candidates (a name
  /// with one reference cannot be split). int64_t on purpose: group sizes
  /// are compared without narrowing, so a group larger than INT_MAX cannot
  /// wrap negative and slip past the filters.
  int64_t min_refs = 2;
  /// Skip names with more references than this (0 = no cap). Guards bulk
  /// runs against quadratic blowup on a handful of mega-names.
  int64_t max_refs = 0;
};

/// The groups of the engine's name index (every reference grouped by name
/// string; names appearing in several name-table rows are one group) that
/// pass the filters, ordered by descending reference count (stable, so
/// equal sizes keep name-table row order).
StatusOr<std::vector<NameGroup>> ScanNameGroups(const Distinct& engine,
                                                const ScanOptions& options = {});

/// Result of resolving one name during a bulk run.
struct BulkResolution {
  std::string name;
  size_t num_refs = 0;
  ClusteringResult clustering;

  /// Exact equality (see ClusteringResult::operator==).
  bool operator==(const BulkResolution&) const = default;
};

/// Statistics of a bulk run.
struct BulkStats {
  int64_t names_resolved = 0;
  int64_t names_split = 0;       // resolved into more than one cluster
  int64_t total_refs = 0;
  int64_t total_clusters = 0;
  double seconds = 0.0;

  /// Counts one resolved name.
  void Add(const BulkResolution& resolution);
};

/// Pair matrices (resemblance + walk, strict lower triangle of doubles)
/// plus the assignment vector for a group of n references. The group
/// loop's admission check and the serve admission controller both price a
/// group with this same estimate.
int64_t EstimatedGroupMatrixBytes(int64_t n);

/// What one scan may use.
struct GroupLoopBudget {
  /// Pool workers (at least 1).
  int threads = 1;
  /// Capacity of the subtree memo that every group of the scan shares.
  size_t cache_bytes = 0;
  /// A group whose estimated pair matrices, on top of the bytes the
  /// MemoryTracker counted when the scan began, exceed this many bytes
  /// fails its group loop (its shard, in RunShardedScan). 0 = unbounded.
  int64_t budget_bytes = 0;
};

/// The propagation state of one scan, built once from its budget and
/// handed to every group loop the scan runs: one thread pool, one subtree
/// memo and one workspace free-list. The memo is reference-independent,
/// so a hub suffix computed for one name is a hit for every later name of
/// the scan, whichever shard it sits in; at most one workspace per
/// concurrent worker is ever allocated.
///
/// The standing bytes that admission adds to a group's matrix estimate
/// are measured here, before the memo and the scan's own workspaces exist,
/// so every group of the scan is admitted against the same number wherever
/// it runs. Counting the memo that earlier groups filled would make later
/// shards stricter.
class ScanState {
 public:
  ScanState(const Distinct& engine, const GroupLoopBudget& budget);
  ScanState(const ScanState&) = delete;
  ScanState& operator=(const ScanState&) = delete;

  ThreadPool& pool() { return pool_; }
  /// Null under PropagationAlgorithm::kDepthFirst, which has no memo and
  /// no dense scratch.
  SubtreeCache* memo() { return memo_.get(); }
  WorkspacePool* workspaces() { return workspaces_.get(); }
  int64_t budget_bytes() const { return budget_bytes_; }
  /// MemoryTracker total at construction (see the class comment).
  int64_t standing_bytes() const { return standing_bytes_; }

 private:
  int64_t budget_bytes_;
  int64_t standing_bytes_;
  ThreadPool pool_;
  std::unique_ptr<SubtreeCache> memo_;
  std::unique_ptr<WorkspacePool> workspaces_;
};

/// The group loop behind every batch resolution (ResolveAllNamesParallel,
/// and each shard of RunShardedScan): resolves groups[indices[i]] into
/// (*out)[i] on the scan's state. Groups are one pool task each; a
/// mega-group's profile propagations and pair-matrix tiles additionally
/// fan out to the same pool from inside its task (ParallelForShared is
/// re-entrant). Each group gets a fresh read-only ProfileStore. Results
/// are bit-identical to engine.ResolveRefs(group.refs) at every thread
/// count, memo size and memo history: a memo hit returns exactly what a
/// miss computes.
///
/// Every group is checked before any is resolved: a reference outside the
/// reference table is InvalidArgument; a group whose matrix estimate plus
/// `state.standing_bytes()` exceeds `state.budget_bytes()` (when set) is
/// OutOfRange. `progress` (optional) counts resolved groups and refs.
/// Opens no span, so callers own the span tree.
Status ResolveGroups(const Distinct& engine,
                     const std::vector<NameGroup>& groups,
                     const std::vector<size_t>& indices, ScanState& state,
                     obs::ProgressState* progress,
                     std::vector<BulkResolution>* out);

/// Resolves every group in one ResolveGroups call on a ScanState of
/// `num_threads` workers, the engine's memo budget and no memory bound,
/// under one `bulk_resolve_parallel` span. Results are in group order.
StatusOr<BulkStats> ResolveAllNamesParallel(
    const Distinct& engine, const std::vector<NameGroup>& groups,
    int num_threads, std::vector<BulkResolution>* results = nullptr);

}  // namespace distinct

#endif  // DISTINCT_CORE_SCAN_H_
