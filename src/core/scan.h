// Whole-database operation: find every name that could be ambiguous and
// resolve all of them.
//
// The paper resolves ten hand-picked names; a production deployment wants
// "split every name in the catalog". This module filters the candidate
// names (those with enough references to possibly be several people) out
// of the engine's name index, the one grouping of references by name that
// Create() builds and ApplyDelta() grows. Every batch of names runs through
// the sharded scan (core/scan_shard.h), whose group loop resolves each name
// with ResolveGroup (core/distinct.h), the one resolve sequence, spans off;
// ResolveAllNamesParallel is its one-shard form.

#ifndef DISTINCT_CORE_SCAN_H_
#define DISTINCT_CORE_SCAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/distinct.h"

namespace distinct {

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
/// plus the assignment vector for a group of n references. The sharded
/// scan's admission check and the serve admission controller both price a
/// group with this same estimate.
int64_t EstimatedGroupMatrixBytes(int64_t n);

/// Resolves every group as a one-shard RunShardedScan (core/scan_shard.h)
/// of `num_threads` workers, the engine's memo budget, no memory bound, no
/// checkpoint and no progress feed. Results are in group order. When the
/// shard fails (a reference outside the reference table), returns the
/// shard's status.
StatusOr<BulkStats> ResolveAllNamesParallel(
    const Distinct& engine, const std::vector<NameGroup>& groups,
    int num_threads, std::vector<BulkResolution>* results = nullptr);

}  // namespace distinct

#endif  // DISTINCT_CORE_SCAN_H_
